"""Set-equation systems Y = Gamma(Y): classification, dependency analysis,
exact solving, and the closed-form minimum/gcd parameter formulas."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Sequence, Tuple, Union

from . import epset
from .epset import (
    EMPTY,
    ZERO,
    EPSet,
    EnumeratedSet,
    IndexSet,
    PeriodicityParams,
    SemanticError,
    decompose,
    format_epset,
    index_member,
    index_min,
    index_q,
    index_reaches,
    is_subset,
    member,
    normalize,
    params,
    shift,
    singleton,
    star,
    sumset,
    union,
)

ONE = singleton(1)


def exponent_sum(a: IndexSet, b: IndexSet) -> IndexSet:
    """Exponent set of one variable in the product of two terms that use
    it with exponent sets a and b."""
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    if isinstance(a, EPSet) and isinstance(b, EPSet):
        return sumset(a, b)
    raise SemanticError("cannot combine an enumerated index set with another exponent")


@dataclass(frozen=True)
class GammaTerm:
    """One product family: base + E1*Y1 + ... + Ek*Yk.

    base is the coefficient set; exponents[j] is the set of admissible
    repeat counts for variable j ({0} meaning the variable is absent).
    """

    base: EPSet
    exponents: Tuple[IndexSet, ...]

    def __post_init__(self):
        if self.base.is_empty:
            raise ValueError("term base must be non-empty")
        if EMPTY in self.exponents:
            raise ValueError("exponent sets must be non-empty")

    def uses(self, j: int) -> bool:
        return index_reaches(self.exponents[j], 1)

    def factors(self) -> list[Tuple[int, IndexSet]]:
        """(j, exponents[j]) for every variable j not absent."""
        return [(j, e) for j, e in enumerate(self.exponents) if e != ZERO]

    def min_weight(self) -> int:
        return sum(map(index_min, self.exponents))


@dataclass(frozen=True)
class SetSystem:
    variables: Tuple[str, ...]
    equations: Tuple[Tuple[GammaTerm, ...], ...]

    def __post_init__(self):
        k = len(self.variables)
        if k < 1 or len(self.equations) != k:
            raise ValueError("need one equation per variable")
        for eq in self.equations:
            for t in eq:
                if len(t.exponents) != k:
                    raise ValueError("term arity mismatch")

    @property
    def k(self) -> int:
        return len(self.variables)

    def has_enumerated(self) -> bool:
        return any(
            isinstance(e, EnumeratedSet)
            for eq in self.equations
            for t in eq
            for e in t.exponents
        )


@dataclass(frozen=True)
class SystemClassification:
    is_basic: bool
    is_elementary: bool
    is_reduced: bool
    empties: frozenset[int]
    minima: Tuple[Union[int, float], ...]


def classify(sys: SetSystem) -> SystemClassification:
    """Basic / elementary / reduced classification, and the minima of the
    least solution, whose infinite ones are the empties."""
    at_zero = [t for eq in sys.equations for t in eq if member(t.base, 0)]
    basic = not any(all(index_member(e, 0) for e in t.exponents) for t in at_zero)
    elem = basic and all(t.min_weight() >= 2 for t in at_zero)
    m = min_vector(sys)
    emp = frozenset(i for i, v in enumerate(m) if v == math.inf)
    return SystemClassification(basic, elem, not emp and elem, emp, tuple(m))


def reduce(sys: SetSystem, emp: Collection[int]) -> SetSystem:
    """Drop the empty variables emp, deleting term families that require
    them."""
    if not emp:
        return sys
    keep = [i for i in range(sys.k) if i not in emp]
    new_eqs = []
    for i in keep:
        terms = []
        for t in sys.equations[i]:
            if any(not index_member(t.exponents[j], 0) for j in emp):
                continue
            terms.append(GammaTerm(t.base, tuple(t.exponents[j] for j in keep)))
        new_eqs.append(tuple(terms))
    return SetSystem(tuple(sys.variables[i] for i in keep), tuple(new_eqs))


@dataclass(frozen=True)
class Digraph:
    """Dependency digraph with transitive closure and strong components."""

    n: int
    edges: frozenset[Tuple[int, int]]
    reach_plus: Tuple[Tuple[bool, ...], ...]

    def reaches(self, i: int, j: int) -> bool:
        """Reflexive-transitive reachability."""
        return i == j or self.reach_plus[i][j]

    def component(self, i: int) -> frozenset[int]:
        """{j : i ->+ j ->+ i}; possibly empty."""
        return frozenset(
            j
            for j in range(self.n)
            if self.reach_plus[i][j] and self.reach_plus[j][i]
        )

    def strong_components(self) -> list[frozenset[int]]:
        seen = set()
        out = []
        for i in range(self.n):
            c = self.component(i)
            if c and c not in seen:
                seen.add(c)
                out.append(c)
        return out


def dependency(sys: SetSystem) -> Digraph:
    k = sys.k
    adj = [[False] * k for _ in range(k)]
    for i, eq in enumerate(sys.equations):
        for t in eq:
            for j in range(k):
                if t.uses(j):
                    adj[i][j] = True
    reach = [row[:] for row in adj]
    for mid in range(k):
        for i in range(k):
            if reach[i][mid]:
                for j in range(k):
                    if reach[mid][j]:
                        reach[i][j] = True
    edges = frozenset(
        (i, j) for i in range(k) for j in range(k) if adj[i][j]
    )
    return Digraph(k, edges, tuple(tuple(row) for row in reach))


def digraph_dot(sys: SetSystem) -> str:
    """DOT rendering, strong components clustered."""
    dg = dependency(sys)
    lines = ["digraph dependencies {"]
    clustered = set()
    for idx, comp in enumerate(dg.strong_components()):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append("    style=dashed;")
        for i in sorted(comp):
            lines.append(f'    "{sys.variables[i]}";')
            clustered.add(i)
        lines.append("  }")
    for i in range(dg.n):
        if i not in clustered:
            lines.append(f'  "{sys.variables[i]}";')
    for i, j in sorted(dg.edges):
        lines.append(f'  "{sys.variables[i]}" -> "{sys.variables[j]}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# symbolic evaluation on EPSets, and the minimum and gcd parameters by
# integer formulas


Stars = dict  # (index set, value) -> star(index set, value)


def _star(stars: Stars, e: EPSet, v: EPSet) -> EPSet:
    """star(e, v), computed once per table."""
    key = (e, v)
    if key not in stars:
        stars[key] = star(e, v)
    return stars[key]


def gamma_eval(sys: SetSystem, vec: Sequence[EPSet], stars: Stars | None = None) -> list[EPSet]:
    """One application of Gamma to a vector of EPSets; stars is the star
    table of the solve it belongs to, a fresh one by default."""
    if sys.has_enumerated():
        raise SemanticError("cannot apply Gamma with an enumerated index set")
    if stars is None:
        stars = {}
    out = []
    for eq in sys.equations:
        fins: list[int] = []
        blocks: list[Tuple[int, int]] = []
        for t in eq:
            v = t.base
            for j, e in t.factors():
                v = sumset(v, _star(stars, e, vec[j]))
                if v.is_empty:
                    break
            f, b = decompose(v)
            fins += f
            blocks += b
        out.append(normalize(fins, blocks))
    return out


def min_vector(sys: SetSystem) -> list[Union[int, float]]:
    """Per-variable minimum of the least solution (inf for empty coordinates).

    The minimum turns union into min and sumset into +, and min(E*Y) is
    min(E)*min(Y), or 0 when 0 is in E even for an empty Y. So round n of
    this min-plus pass from all-inf gives the minima of Gamma^n(emptyset).
    Its costs are non-negative, so k rounds reach its least fixed point
    (Knuth, "A generalization of Dijkstra's algorithm", IPL 1977).
    """
    families = [
        [(index_min(t.base), list(map(index_min, t.exponents))) for t in eq]
        for eq in sys.equations
    ]
    m: list[Union[int, float]] = [math.inf] * sys.k
    for _ in range(sys.k):
        m = [
            min((b + sum(w * y for w, y in zip(ws, m) if w) for b, ws in eq), default=math.inf)
            for eq in families
        ]
    return m


@dataclass(frozen=True)
class QReport:
    q: Tuple[int, ...]
    per_equation: Tuple[int, ...]


def _family_gcd(t: GammaTerm, m: Sequence[int], target: int) -> int:
    """gcd of {x - target : x in base + m1*E1 + ... + mk*Ek}."""
    low, g = index_min(t.base), params(t.base).q
    for l, e in t.factors():
        low += m[l] * index_min(e)
        g = math.gcd(g, m[l] * index_q(e))
    return math.gcd(g, abs(low - target))


def _q_report(sys: SetSystem, m: Sequence[int], dg: Digraph) -> QReport:
    per_eq = [
        math.gcd(*(_family_gcd(t, m, m[j]) for t in eq))
        for j, eq in enumerate(sys.equations)
    ]
    q = [
        math.gcd(*(per_eq[j] for j in range(sys.k) if dg.reaches(i, j)))
        for i in range(sys.k)
    ]
    return QReport(tuple(q), tuple(per_eq))


def q_report(sys: SetSystem) -> QReport:
    """Closed-form gcd parameters: per_equation[j] is the gcd of the
    families of equation j at the minima, shifted down by m_j, and q[i]
    the gcd of per_equation over the variables that i reaches."""
    cls = classify(sys)
    if cls.empties:
        raise SemanticError(f"empty components: {sorted(cls.empties)}")
    return _q_report(sys, cls.minima, dependency(sys))


def q_vector(sys: SetSystem) -> list[int]:
    return list(q_report(sys).q)


# ---------------------------------------------------------------------------
# exact least solutions by Newton iteration, one strong component at a time

CERT_LINEAR = "CertifiedLinear"
CERT_DOUBLING = "CertifiedDoubling"
CERT_FINITE = "CertifiedFiniteConvergence"


@dataclass(frozen=True)
class VariableSolution:
    name: str
    closed_form: EPSet
    certificate: str
    params: PeriodicityParams


@dataclass(frozen=True)
class SpectrumSolution:
    horizon: int
    variables: Tuple[VariableSolution, ...]
    classification: SystemClassification


def _is_linear(t: GammaTerm, k: int) -> bool:
    """At most one variable used, with an exponent set inside {0,1}."""
    used = [j for j in range(k) if t.uses(j)]
    if not used:
        return True
    return len(used) == 1 and not index_reaches(t.exponents[used[0]], 2)


def _solve_linear(c: list[list[EPSet]], d: list[EPSet]) -> list[EPSet]:
    """Least solution of X_i = d_i | U_j (c_ij + X_j) by Gauss-Jordan
    elimination over the (union, sum, closure) algebra; consumes c and d."""
    n = len(d)
    for i in range(n):
        if not c[i][i].is_empty:
            # uncached: each Newton step brings new entries, and their
            # closures can have large finite parts
            clo = epset._natstar.__wrapped__(c[i][i])
            d[i] = sumset(clo, d[i])
            for j in range(n):
                if j != i and not c[i][j].is_empty:
                    c[i][j] = sumset(clo, c[i][j])
            c[i][i] = EMPTY
        for l in range(n):
            if l == i or c[l][i].is_empty:
                continue
            coef = c[l][i]
            c[l][i] = EMPTY
            if not d[i].is_empty:
                d[l] = union(d[l], sumset(coef, d[i]))
            for j in range(n):
                if not c[i][j].is_empty:
                    c[l][j] = union(c[l][j], sumset(coef, c[i][j]))
    return d


def _derivative(e: EPSet) -> EPSet:
    """{x - 1 : x in e, x >= 1}, the index set of d(e*Y)/dY."""
    fins, blocks = decompose(e)
    return normalize(
        [x - 1 for x in fins if x], [(s - 1 if s else p - 1, p) for s, p in blocks]
    )


def _jacobian(sys: SetSystem, nu: Sequence[EPSet], stars: Stars) -> list[list[EPSet]]:
    """Entry (i, j) is the union, over the families of equation i that use
    Y_j, of the base, the other factors at nu and (E_j - 1)*nu_j."""
    k = sys.k
    c = [[EMPTY] * k for _ in range(k)]
    for i, eq in enumerate(sys.equations):
        for t in eq:
            factors = {j: _star(stars, e, nu[j]) for j, e in t.factors()}
            for j, e in t.factors():
                v = sumset(t.base, _star(stars, _derivative(e), nu[j]))
                for l, f in factors.items():
                    if l != j:
                        v = sumset(v, f)
                c[i][j] = union(c[i][j], v)
    return c


def _newton(sys: SetSystem, stars: Stars) -> list[EPSet]:
    """Least solution of a system without enumerated index sets.

    Each step replaces nu by the least solution of X = Gamma(nu) | J(nu) X,
    starting from Gamma(0). Over a commutative idempotent semiring, here
    (union, sum, closure), k equations reach their least fixed point in at
    most k steps (Hopkins & Kozen, LICS 1999; Esparza, Kiefer & Luttenberger,
    J. ACM 2010). On a system without unit rules (_without_units), a
    positive nu = Gamma(nu) is the least solution however it was reached.
    """
    nu = gamma_eval(sys, [EMPTY] * sys.k, stars)
    for _ in range(sys.k + 1):
        image = gamma_eval(sys, nu, stars)
        if image == nu:
            return nu
        nu = _solve_linear(_jacobian(sys, nu, stars), image)
    raise AssertionError(f"Newton iteration did not settle in {sys.k} steps")


def _component_system(
    sys: SetSystem, comp: Sequence[int], values: Sequence[EPSet], stars: Stars
) -> SetSystem:
    """The equations of comp alone, with the values of the variables
    outside it folded into the family bases."""
    pos = {v: n for n, v in enumerate(comp)}
    eqs = []
    for i in comp:
        terms = []
        for t in sys.equations[i]:
            base = t.base
            exps = [ZERO] * len(comp)
            for j, e in t.factors():
                if j in pos:
                    exps[pos[j]] = e
                else:
                    base = sumset(base, _star(stars, e, values[j]))
            if not base.is_empty:
                terms.append(GammaTerm(base, tuple(exps)))
        eqs.append(tuple(terms))
    return SetSystem(tuple(sys.variables[i] for i in comp), tuple(eqs))


def _components(dg: Digraph) -> list[Tuple[int, ...]]:
    """Strong components, with each variable outside every cycle on its
    own, every component after all the components it reaches."""
    comps = {tuple(sorted(dg.component(i) or {i})) for i in range(dg.n)}
    return sorted(comps, key=lambda c: (sum(dg.reaches(c[0], j) for j in range(dg.n)), c))


def _doubling_condition(sys: SetSystem, dg: Digraph, i: int) -> bool:
    """Some equation in i's strong component has a family with total
    component-internal weight at least 2."""
    comp = dg.component(i)
    if not comp:
        return False
    for j in comp:
        for t in sys.equations[j]:
            members = [l for l in comp if t.uses(l)]
            if not members:
                continue
            if len(members) >= 2 or index_reaches(t.exponents[members[0]], 2):
                return True
    return False


def _cut(sys: SetSystem, bound: int, tail: list) -> SetSystem:
    """sys with each enumerated index set cut to its members up to bound,
    joined with the blocks of tail."""
    def cut(e: IndexSet) -> IndexSet:
        return normalize(e.members_upto(bound), tail) if isinstance(e, EnumeratedSet) else e

    eqs = [[GammaTerm(t.base, tuple(map(cut, t.exponents))) for t in eq] for eq in sys.equations]
    return SetSystem(sys.variables, tuple(map(tuple, eqs)))


def _classes(e: EPSet) -> list[EPSet]:
    """The non-empty parts of e in {0}, {1} and 2+N."""
    parts = [ZERO if member(e, 0) else EMPTY, ONE if member(e, 1) else EMPTY]
    return [c for c in parts + [shift(_derivative(_derivative(e)), 2)] if not c.is_empty]


def _without_units(sys: SetSystem) -> SetSystem:
    """Gamma', Gamma with its unit rules eliminated, as for unit productions
    of a grammar (Hopcroft & Ullman, 1979).

    A family with 0 in its base and weight below 2 splits into one with the
    base less 0, and families of base {0} with each exponent set cut into
    its parts in {0}, {1} and 2+N. A part with one factor at {1} and the
    rest at {0} is the unit rule Y_i >= Y_j. Equation i then takes the other
    families of every j it reaches by unit rules. Gamma' has the least
    solution of Gamma, and bit n of Gamma'(Y) reads only bits below n of a
    positive Y, so that least solution is its one positive fixed point.
    Gamma' is Gamma on an elementary system.
    """
    rest: list[list[GammaTerm]] = [[] for _ in range(sys.k)]
    units: list[list[GammaTerm]] = [[] for _ in range(sys.k)]
    for i, eq in enumerate(sys.equations):
        for t in eq:
            if not member(t.base, 0) or t.min_weight() >= 2:
                rest[i].append(t)
                continue
            positive = shift(_derivative(t.base), 1)
            if not positive.is_empty:
                rest[i].append(GammaTerm(positive, t.exponents))
            for exps in itertools.product(*map(_classes, t.exponents)):
                part = GammaTerm(ZERO, exps)
                (units if part.min_weight() == 1 else rest)[i].append(part)
    dg = dependency(SetSystem(sys.variables, tuple(map(tuple, units))))
    eqs = [
        tuple(t for j in range(sys.k) if dg.reaches(i, j) for t in rest[j])
        for i in range(sys.k)
    ]
    return SetSystem(sys.variables, tuple(eqs))


def _least(sys: SetSystem, dg: Digraph, horizon: int) -> list[EPSet]:
    """Least solution of a basic system with dependency digraph dg, proven
    on all of N.

    Newton solves Gamma', below first, one strong component at a time. Its
    closing test Gamma'(nu) = nu proves nu the least solution once nu is
    positive, which solve checks against min_vector.

    Gamma is monotone in each enumerated index set E, so with E cut to
    E_lo = {e in E : e <= P} and E_hi = E_lo | P+1+N the least solutions
    rise from E_lo through E to E_hi (Tarski, Pacific J. Math. 1955): the
    one for E_lo is the one for E once it solves the E_hi system. P doubles
    from 2 until then, and up to the horizon. The components that reach no
    enumerated index set are the same at every P and are solved once.

    Every star is computed once, in one table for the whole call."""
    stars: Stars = {}
    enumerated = [
        i for i, eq in enumerate(sys.equations)
        if any(isinstance(e, EnumeratedSet) for t in eq for e in t.exponents)
    ]
    settled = {i for i in range(sys.k) if not any(dg.reaches(i, j) for j in enumerated)}
    nu = [EMPTY] * sys.k
    bound = 2
    while True:
        lo = _cut(sys, bound, []) if enumerated else sys
        flat = _without_units(lo)
        for comp in _components(dependency(flat)):
            if bound > 2 and settled.issuperset(comp):
                continue  # solved at the first bound
            for i, v in zip(comp, _newton(_component_system(flat, comp, nu, stars), stars)):
                nu[i] = v
        if lo is sys:
            return nu
        image = gamma_eval(_cut(sys, bound, [(bound + 1, 1)]), nu, stars)
        for name, v, w in zip(sys.variables, nu, image):
            if not is_subset(v, w):  # Gamma_hi lies above Gamma_lo, which fixes nu
                raise AssertionError(f"exact answer for {name} is no fixed point of the cut system")
        if image == nu:
            return nu
        if bound >= horizon:
            raise SemanticError(f"enumerated index sets cut at {bound} leave the solution open")
        bound *= 2


def solve(sys: SetSystem, horizon: int = 512) -> SpectrumSolution:
    """Least solution of Y = Gamma(Y), in closed form.

    _least solves the system exactly and proves the answer, with each
    enumerated index set bracketed between two eventually periodic ones
    (SemanticError if the bracket is open at the horizon, which bounds
    nothing else). Certificates follow the structure: CertifiedLinear if
    every equation reached is linear, CertifiedDoubling if the component in
    the reduced system meets the doubling condition, else
    CertifiedFiniteConvergence. min_vector checks every m, which makes the
    answer positive as the proof needs, and on a reduced system q_vector
    checks every q.
    """
    if horizon < 1:
        raise SemanticError("horizon must be at least 1")
    cls = classify(sys)
    if not cls.is_basic:
        raise SemanticError("system does not map positive-sets into positive-sets")
    dg = dependency(sys)
    k = sys.k
    reached = [[j for j in range(k) if dg.reaches(i, j)] for i in range(k)]
    linear = [all(_is_linear(t, k) for j in r for t in sys.equations[j]) for r in reached]
    live = [i for i in range(k) if i not in cls.empties]
    doubling = set()
    if live:
        red = reduce(sys, cls.empties)
        rdg = dependency(red)
        doubling = {live[n] for n in range(red.k) if _doubling_condition(red, rdg, n)}

    closed = _least(sys, dg, horizon)

    # the gcd formula holds on reduced systems
    gcds = _q_report(sys, cls.minima, dg).q if cls.is_reduced else None
    out = []
    for i in range(k):
        pp = params(closed[i])
        if linear[i]:
            cert = CERT_LINEAR
        elif i in doubling:
            if pp.p != pp.q:
                raise AssertionError(
                    f"{sys.variables[i]} meets the doubling condition but p != q"
                )
            cert = CERT_DOUBLING
        else:
            cert = CERT_FINITE
        if pp.m != cls.minima[i]:
            raise AssertionError(f"minimum of {sys.variables[i]} disagrees with min_vector")
        if gcds is not None and pp.q != gcds[i]:
            raise AssertionError(f"gcd of {sys.variables[i]} disagrees with q_vector")
        out.append(VariableSolution(sys.variables[i], closed[i], cert, pp))
    return SpectrumSolution(horizon, tuple(out), cls)


def solution_json(sol: SpectrumSolution) -> dict:
    """The published JSON schema for a solved system."""
    return {
        "variables": [v.name for v in sol.variables],
        "classification": {
            "basic": sol.classification.is_basic,
            "elementary": sol.classification.is_elementary,
            "reduced": sol.classification.is_reduced,
            "empties": sorted(sol.classification.empties),
        },
        "solution": [
            {
                "var": v.name,
                "closed_form": format_epset(v.closed_form),
                "m": None if v.params.m == math.inf else int(v.params.m),
                "q": v.params.q,
                "p": v.params.p,
                "c": v.params.c,
                "certificate": v.certificate,
            }
            for v in sol.variables
        ],
    }
