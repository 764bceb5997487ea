"""Translation of power-series systems into spectrally equivalent
set-equation systems."""
from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .epset import (
    EMPTY,
    ZERO,
    EPSet,
    EnumeratedSet,
    IndexSet,
    SemanticError,
    _Value,
    singleton,
    star,
    sumset,
    union,
)
from .pseries import (
    Add,
    Const,
    Construct,
    Mul,
    Pow,
    PSSystem,
    SysExpr,
    Var,
    X,
)
from .setsys import GammaTerm, SetSystem, exponent_sum


class CompileReport(_Value):
    system: SetSystem
    notes: Tuple[str, ...]
    flags: Tuple[str, ...]  # enumerated-set usages


# a family list holds each family once, where it first occurs: union is idempotent
Family = Tuple[EPSet, Tuple[IndexSet, ...]]


def _zeros(k: int) -> Tuple[IndexSet, ...]:
    return (ZERO,) * k


def _mul_families(fa: Sequence[Family], fb: Sequence[Family]) -> list[Family]:
    return list(dict.fromkeys(
        (sumset(base_a, base_b), tuple(map(exponent_sum, exps_a, exps_b)))
        for base_a, exps_a in fa
        for base_b, exps_b in fb
    ))


def _is_pure_var(fams: Sequence[Family], k: int) -> Optional[int]:
    """If fams denote exactly one bare variable, return its index."""
    if len(fams) != 1:
        return None
    base, exps = fams[0]
    if base != ZERO:
        return None
    used = [j for j, e in enumerate(exps) if e != ZERO]
    if len(used) != 1 or exps[used[0]] != singleton(1):
        return None
    return used[0]


def _compile_expr(
    expr: SysExpr, k: int, notes: list[str], flags: list[str]
) -> list[Family]:
    if isinstance(expr, Const):
        if expr.value == 0:
            return []
        return [(ZERO, _zeros(k))]
    if isinstance(expr, X):
        return [(singleton(1), _zeros(k))]
    if isinstance(expr, Var):
        exps = list(_zeros(k))
        exps[expr.index] = singleton(1)
        return [(ZERO, tuple(exps))]
    if isinstance(expr, Add):
        return list(dict.fromkeys(f for t in expr.terms for f in _compile_expr(t, k, notes, flags)))
    if isinstance(expr, Mul):
        out = [(ZERO, _zeros(k))]
        for f in expr.factors:
            out = _mul_families(out, _compile_expr(f, k, notes, flags))
        return out
    if isinstance(expr, Pow):
        base = _compile_expr(expr.base, k, notes, flags)
        out = [(ZERO, _zeros(k))]
        for _ in range(expr.exp):
            out = _mul_families(out, base)
        return out
    if isinstance(expr, Construct):
        return _compile_construct(expr, k, notes, flags)
    raise TypeError(repr(expr))


def _compile_construct(
    expr: Construct, k: int, notes: list[str], flags: list[str]
) -> list[Family]:
    j = expr.index
    if isinstance(j, EnumeratedSet):
        flags.append(f"{expr.kind}[{j.name}]")
    if expr.kind == "DCycle":
        notes.append("DCycle compiled as Cycle: identical spectrum")
    fams = _compile_expr(expr.arg, k, notes, flags)
    var = _is_pure_var(fams, k)
    # over an empty index set the construct is zero, which the termwise
    # expansion below gives as no family
    if var is not None and j != EMPTY:
        exps = list(_zeros(k))
        exps[var] = j
        notes.append(f"{expr.kind} over a variable -> index-set exponent")
        return [(ZERO, tuple(exps))]
    if all(e == ZERO for _, exps in fams for e in exps):
        total = EMPTY
        for base, _ in fams:
            total = union(total, base)
        if isinstance(j, EnumeratedSet):
            raise SemanticError("enumerated index set over a constant spectrum")
        notes.append(f"{expr.kind} over a constant -> star of spectra")
        return [(star(j, total), _zeros(k))] if not star(j, total).is_empty else []
    if isinstance(j, EPSet) and j.period is None:
        out: list[Family] = []
        for n in j.finite_part:
            power = [(ZERO, _zeros(k))]
            for _ in range(n):
                power = _mul_families(power, fams)
            out.extend(power)
        notes.append(f"{expr.kind} with finite index set expanded termwise")
        return list(dict.fromkeys(out))
    raise SemanticError(
        f"{expr.kind} with an infinite index set over a composite argument"
    )


def compile_system(sys: PSSystem) -> CompileReport:
    """Spectral set system of a series system."""
    k = sys.k
    notes: list[str] = []
    flags: list[str] = []
    equations = []
    for rhs in sys.right_sides:
        fams = _compile_expr(rhs, k, notes, flags)
        equations.append(tuple(GammaTerm(b, e) for b, e in fams))
    system = SetSystem(tuple(sys.variables), tuple(equations))
    return CompileReport(system, tuple(notes), tuple(flags))
