"""Translation of power-series systems into spectrally equivalent
set-equation systems."""
from __future__ import annotations

from typing import Sequence, Tuple

from .epset import (
    EMPTY,
    ZERO,
    EPSet,
    EnumeratedSet,
    _Value,
    bounded,
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
from .setsys import ONE, GammaTerm, SetSystem, family


class CompileReport(_Value):
    system: SetSystem
    notes: Tuple[str, ...]
    flags: Tuple[str, ...]  # enumerated-set usages


class _Compiler:
    """Compiles the right sides of a system of k variables; hidden maps the
    set of families of each hidden variable to its index, from k on, and
    to the families in the order first seen."""

    def __init__(self, k: int):
        self.k, self.notes, self.flags = k, [], []  # flags: enumerated-set usages
        self.hidden: dict[frozenset, Tuple[int, Tuple[GammaTerm, ...]]] = {}

    def hide(self, fams: Sequence[GammaTerm]) -> int:
        """The hidden variable Z = fams, one per distinct set of families:
        a union in another order is the same set."""
        fams = tuple(fams)
        return self.hidden.setdefault(frozenset(fams), (self.k + len(self.hidden), fams))[0]

    def mul(self, fa: Sequence[GammaTerm], fb: Sequence[GammaTerm]) -> list[GammaTerm]:
        """The families of the product of fa and fb, each once, where it
        first occurs: union is idempotent."""
        return list(dict.fromkeys(
            family(sumset(a.base, b.base), a.factors + b.factors) for a in fa for b in fb
        ))

    def expr(self, expr: SysExpr) -> list[GammaTerm]:
        if isinstance(expr, Const):
            return [] if expr.value == 0 else [GammaTerm(ZERO, ())]
        if isinstance(expr, X):
            return [GammaTerm(ONE, ())]
        if isinstance(expr, Var):
            return [GammaTerm(ZERO, [(expr.index, ONE)])]
        if isinstance(expr, Add):
            return list(dict.fromkeys(f for t in expr.terms for f in self.expr(t)))
        if isinstance(expr, Mul):
            out = [GammaTerm(ZERO, ())]
            for f in expr.factors:
                out = self.mul(out, self.expr(f))
            return out
        if isinstance(expr, Pow):
            fams, out = self.expr(expr.base), [GammaTerm(ZERO, ())]
            for bit in format(bounded(expr.exp, "exponent"), "b"):  # square and multiply
                out = self.mul(out, out)
                if bit == "1":
                    out = self.mul(out, fams)
            return out
        if isinstance(expr, Construct):
            return self.construct(expr)
        raise TypeError(repr(expr))

    def construct(self, expr: Construct) -> list[GammaTerm]:
        """K[J](A) is the family J*Y for A a bare variable Y, and J*Z with
        a hidden Z = A for any other A but a constant, whose spectrum B
        gives the one base star(J, B) when J is eventually periodic."""
        j = expr.index
        if isinstance(j, EnumeratedSet):
            self.flags.append(f"{expr.kind}[{j.name}]")
        if expr.kind == "DCycle":
            self.notes.append("DCycle compiled as Cycle: identical spectrum")
        fams = self.expr(expr.arg)
        if isinstance(j, EPSet) and not any(t.factors for t in fams):
            self.notes.append(f"{expr.kind} over a constant -> star of spectra")
            spectrum = star(j, union(*(t.base for t in fams)))
            return [] if spectrum.is_empty else [GammaTerm(spectrum, ())]
        if j == EMPTY:
            return []  # no structure has a count in the empty set
        if len(fams) == 1 and fams[0].base == ZERO and [e for _, e in fams[0].factors] == [ONE]:
            ((var, _),) = fams[0].factors  # a bare variable
            self.notes.append(f"{expr.kind} over a variable -> index-set exponent")
        else:
            self.notes.append(f"{expr.kind} over a composite argument -> hidden variable")
            var = self.hide(fams)
        return [GammaTerm(ZERO, [(var, j)])]


def compile_system(sys: PSSystem) -> CompileReport:
    """Spectral set system of a series system: its variables, then the
    hidden ones, each named by the first _<n> that no variable uses."""
    c = _Compiler(len(sys.variables))
    names = list(sys.variables)
    equations = [tuple(c.expr(rhs)) for rhs in sys.right_sides]
    for _, fams in c.hidden.values():
        names.append(next(f"_{n}" for n in range(len(names) + 1) if f"_{n}" not in names))
        equations.append(fams)
    return CompileReport(SetSystem(tuple(names), tuple(equations)), tuple(c.notes), tuple(c.flags))
