"""Translation of power-series systems into spectrally equivalent
set-equation systems."""
from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .epset import (
    EMPTY,
    ZERO,
    EPSet,
    EnumeratedSet,
    SemanticError,
    _Value,
    bounded,
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


def _mul_families(fa: Sequence[GammaTerm], fb: Sequence[GammaTerm]) -> list[GammaTerm]:
    """The families of the product of fa and fb.  A family list holds each
    family once, where it first occurs: union is idempotent."""
    out = []
    for a in fa:
        for b in fb:
            exps = dict(a.factors)
            for j, e in b.factors:
                exps[j] = exponent_sum(exps.get(j, ZERO), e)
            out.append(GammaTerm(sumset(a.base, b.base), exps.items()))
    return list(dict.fromkeys(out))


def _powers(fams: Sequence[GammaTerm], n: int) -> list[list[GammaTerm]]:
    """fams^0, ..., fams^n, each power the product of the one before and fams."""
    out = [[GammaTerm(ZERO, ())]]
    for _ in range(n):
        out.append(_mul_families(out[-1], fams))
    return out


def _is_pure_var(fams: Sequence[GammaTerm]) -> Optional[int]:
    """If fams denote exactly one bare variable, return its index."""
    if len(fams) != 1 or fams[0].base != ZERO or len(fams[0].factors) != 1:
        return None
    ((j, e),) = fams[0].factors
    return j if e == singleton(1) else None


def _compile_expr(expr: SysExpr, notes: list[str], flags: list[str]) -> list[GammaTerm]:
    if isinstance(expr, Const):
        return [] if expr.value == 0 else [GammaTerm(ZERO, ())]
    if isinstance(expr, X):
        return [GammaTerm(singleton(1), ())]
    if isinstance(expr, Var):
        return [GammaTerm(ZERO, [(expr.index, singleton(1))])]
    if isinstance(expr, Add):
        return list(dict.fromkeys(f for t in expr.terms for f in _compile_expr(t, notes, flags)))
    if isinstance(expr, Mul):
        out = [GammaTerm(ZERO, ())]
        for f in expr.factors:
            out = _mul_families(out, _compile_expr(f, notes, flags))
        return out
    if isinstance(expr, Pow):
        fams, out = _compile_expr(expr.base, notes, flags), [GammaTerm(ZERO, ())]
        for bit in format(bounded(expr.exp, "exponent"), "b"):  # square and multiply
            out = _mul_families(out, out)
            if bit == "1":
                out = _mul_families(out, fams)
        return out
    if isinstance(expr, Construct):
        return _compile_construct(expr, notes, flags)
    raise TypeError(repr(expr))


def _compile_construct(expr: Construct, notes: list[str], flags: list[str]) -> list[GammaTerm]:
    j = expr.index
    if isinstance(j, EnumeratedSet):
        flags.append(f"{expr.kind}[{j.name}]")
    if expr.kind == "DCycle":
        notes.append("DCycle compiled as Cycle: identical spectrum")
    fams = _compile_expr(expr.arg, notes, flags)
    var = _is_pure_var(fams)
    # over an empty index set the construct is zero, which the termwise
    # expansion below gives as no family
    if var is not None and j != EMPTY:
        notes.append(f"{expr.kind} over a variable -> index-set exponent")
        return [GammaTerm(ZERO, [(var, j)])]
    if not any(t.factors for t in fams):
        if isinstance(j, EnumeratedSet):
            raise SemanticError("enumerated index set over a constant spectrum")
        notes.append(f"{expr.kind} over a constant -> star of spectra")
        spectrum = star(j, union(*(t.base for t in fams)))
        return [] if spectrum.is_empty else [GammaTerm(spectrum, ())]
    if isinstance(j, EPSet) and j.period is None:
        powers = _powers(fams, max(j.finite_part, default=0))
        notes.append(f"{expr.kind} with finite index set expanded termwise")
        return list(dict.fromkeys(t for n in j.finite_part for t in powers[n]))
    raise SemanticError(
        f"{expr.kind} with an infinite index set over a composite argument"
    )


def compile_system(sys: PSSystem) -> CompileReport:
    """Spectral set system of a series system."""
    notes: list[str] = []
    flags: list[str] = []
    equations = tuple(tuple(_compile_expr(rhs, notes, flags)) for rhs in sys.right_sides)
    system = SetSystem(tuple(sys.variables), equations)
    return CompileReport(system, tuple(notes), tuple(flags))
