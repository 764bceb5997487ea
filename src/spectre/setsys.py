"""Set-equation systems Y = Gamma(Y): classification, dependency analysis,
exact solving, and the closed-form minimum/gcd parameter formulas."""
from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Sequence, Tuple, Union

from .epset import (
    EMPTY,
    ZERO,
    EPSet,
    EnumeratedSet,
    IndexSet,
    PeriodicityParams,
    SemanticError,
    _bits,
    _closure,
    _Value,
    format_epset,
    index_down,
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
    unshift,
)

ONE = singleton(1)


class GammaTerm(_Value):
    """One product family: base + E*Y_j summed over its pairs (j, E).

    base is the coefficient set; in a pair (j, E), E is a set of admissible
    repeat counts of variable j. A variable has at most one eventually
    periodic pair, and one more pair per enumerated exponent (see family).
    Pairs go by increasing j, the periodic one first. The constructor leaves
    out a pair with E = {0}, which is absent, so every listed E has a member
    >= 1. Bit j of used is set iff j is listed, and of twice iff Y_j can be
    used twice: an E of j has a member >= 2, or j is listed twice. Both are
    computed on first read.
    """

    base: EPSet
    factors: Tuple[Tuple[int, IndexSet], ...]

    def __init__(self, base: EPSet, factors: Iterable[Tuple[int, IndexSet]]):
        if base.is_empty:
            raise ValueError("term base must be non-empty")
        pairs = [p for p in factors if p[1] != ZERO]
        ordered, last = True, -1
        for j, e in pairs:
            if e == EMPTY:
                raise ValueError("exponent sets must be non-empty")
            if j <= last:
                ordered = False
            last = j
        if not ordered:  # sort, then look for two periodic pairs of one variable
            pairs.sort(key=lambda p: (p[0], p[1].name if isinstance(p[1], EnumeratedSet) else ""))
            if any(a[0] == b[0] and isinstance(b[1], EPSet) for a, b in zip(pairs, pairs[1:])):
                raise ValueError("a variable is listed twice")
        super().__init__(base, tuple(pairs))

    @cached_property
    def used(self) -> int:
        return reduce(or_, (1 << j for j, _ in self.factors), 0)

    @cached_property
    def twice(self) -> int:
        bits = seen = 0
        for j, e in self.factors:
            if seen >> j & 1 or index_reaches(e, 2):
                bits |= 1 << j
            seen |= 1 << j
        return bits

    def min_weight(self) -> int:
        return sum(index_min(e) for _, e in self.factors)


def family(base: EPSet, pairs: Iterable[Tuple[int, IndexSet]]) -> GammaTerm:
    """The family base + E*Y_j over the pairs (j, E), which may list a
    variable more than once. Its eventually periodic exponents sum into one,
    since star(A, Y) + star(B, Y) = star(A + B, Y), and each enumerated one
    keeps a pair of its own: its sum with another exponent is no index set."""
    periodic: dict[int, EPSet] = {}
    enumerated = []
    for j, e in pairs:
        if isinstance(e, EnumeratedSet):
            enumerated.append((j, e))
        else:
            periodic[j] = sumset(periodic[j], e) if j in periodic else e
    return GammaTerm(base, [*periodic.items(), *enumerated])


class SetSystem(_Value):
    variables: Tuple[str, ...]
    equations: Tuple[Tuple[GammaTerm, ...], ...]

    def __init__(self, variables: Tuple[str, ...], equations: Tuple[Tuple[GammaTerm, ...], ...]):
        k = len(variables)
        if k < 1 or len(equations) != k:
            raise ValueError("need one equation per variable")
        for eq in equations:
            for t in eq:
                if any(not 0 <= j < k for j, _ in t.factors):
                    raise ValueError("term arity mismatch")
        super().__init__(variables, equations)

    @property
    def k(self) -> int:
        return len(self.variables)

    @cached_property
    def enumerated(self) -> int:
        """Bit i is set iff equation i has an enumerated index set."""
        return sum(
            1 << i for i, eq in enumerate(self.equations)
            if any(isinstance(e, EnumeratedSet) for t in eq for _, e in t.factors)
        )


class SystemClassification(_Value):
    is_basic: bool
    is_elementary: bool
    is_reduced: bool
    empties: frozenset[int]
    minima: Tuple[Union[int, float], ...]


def classify(sys: SetSystem) -> SystemClassification:
    """Basic / elementary / reduced classification, and the minima of the
    least solution, whose infinite ones are the empties."""
    at_zero = [t for eq in sys.equations for t in eq if member(t.base, 0)]
    basic = not any(all(index_member(e, 0) for _, e in t.factors) for t in at_zero)
    elem = basic and all(t.min_weight() >= 2 for t in at_zero)
    m = min_vector(sys)
    emp = frozenset(i for i, v in enumerate(m) if v == math.inf)
    return SystemClassification(basic, elem, not emp and elem, emp, tuple(m))


class Digraph(_Value):
    """Dependency digraph with transitive closure and strong components:
    bit j of reach[i] is set iff i ->+ j."""

    n: int
    edges: frozenset[Tuple[int, int]]
    reach: Tuple[int, ...]

    def closure(self, i: int) -> int:
        """The mask of {j : i ->* j}."""
        return self.reach[i] | 1 << i

    def components(self) -> list[Tuple[int, ...]]:
        """Every strong component as a sorted tuple, with each variable
        outside every cycle on its own, every component after all the
        components it reaches. i and j share one iff their closures agree."""
        comps: dict[int, list[int]] = {}
        for i in range(self.n):
            comps.setdefault(self.closure(i), []).append(i)
        return sorted(map(tuple, comps.values()), key=lambda c: (self.closure(c[0]).bit_count(), c))

    def strong_components(self) -> list[Tuple[int, ...]]:
        """The components on a cycle, by least member."""
        return sorted(c for c in self.components() if self.reach[c[0]] >> c[0] & 1)


def dependency(sys: SetSystem) -> Digraph:
    """Edges i -> j for every family of equation i that uses Y_j, closed
    by Warshall's algorithm on row masks."""
    adj = [0] * sys.k
    for i, eq in enumerate(sys.equations):
        for t in eq:
            adj[i] |= t.used
    reach = adj[:]
    for mid, row in enumerate(reach):
        if not row:
            continue  # ORing 0 into a row changes nothing
        for i, r in enumerate(reach):
            if r >> mid & 1:
                reach[i] = r | row
    edges = frozenset((i, j) for i, a in enumerate(adj) for j in _bits(a))
    return Digraph(sys.k, edges, tuple(reach))


def digraph_dot(sys: SetSystem) -> str:
    """DOT rendering, strong components clustered."""
    dg = dependency(sys)
    lines = ["digraph dependencies {"]
    clustered = set()
    for idx, comp in enumerate(dg.strong_components()):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append("    style=dashed;")
        for i in comp:
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


# The star table of a solve: (index set, value) -> star(index set, value),
# with the n-fold sums (n, value) -> n·value and the closures (NAT, value)
# that the stars and _solve_linear build and read (epset._power, _closure).
Stars = dict


def _star(stars: Stars, e: EPSet, v: EPSet) -> EPSet:
    """star(e, v), computed once per table."""
    key = (e, v)
    value = stars.get(key)
    if value is None:
        value = stars[key] = star(e, v, stars)
    return value


def gamma_eval(sys: SetSystem, vec: Sequence[EPSet], stars: Stars | None = None) -> list[EPSet]:
    """One application of Gamma to a vector of EPSets; stars is the star
    table of the solve it belongs to, a fresh one by default."""
    if sys.enumerated:
        raise SemanticError("cannot apply Gamma with an enumerated index set")
    if stars is None:
        stars = {}
    out = []
    for eq in sys.equations:
        values = []
        for t in eq:
            v = t.base
            for j, e in t.factors:
                v = sumset(v, _star(stars, e, vec[j]))
                if v.is_empty:
                    break
            values.append(v)
        out.append(union(*values))
    return out


def min_vector(sys: SetSystem) -> list[Union[int, float]]:
    """Per-variable minimum of the least solution (inf for empty coordinates).

    The minimum turns union into min and sumset into +, and min(E*Y) is
    min(E)*min(Y), or 0 when 0 is in E even for an empty Y. So round n of
    this min-plus pass from all-inf gives the minima of Gamma^n(emptyset).
    Its costs are non-negative, so k rounds reach its least fixed point
    (Knuth, "A generalization of Dijkstra's algorithm", IPL 1977). Each
    round is a function of the one before, so a round that changes nothing
    has reached it already.
    """
    families = [
        [(index_min(t.base), [(j, index_min(e)) for j, e in t.factors]) for t in eq]
        for eq in sys.equations
    ]
    m: list[Union[int, float]] = [math.inf] * sys.k
    for _ in range(sys.k):
        last, m = m, [
            min((b + sum(w * m[j] for j, w in ws if w) for b, ws in eq), default=math.inf)
            for eq in families
        ]
        if m == last:
            break
    return m


class QReport(_Value):
    q: Tuple[int, ...]
    per_equation: Tuple[int, ...]


def _family_gcd(t: GammaTerm, m: Sequence[int], target: int) -> int:
    """gcd of {x - target : x in base + m1*E1 + ... + mk*Ek}."""
    low, g = index_min(t.base), params(t.base).q
    for l, e in t.factors:
        low += m[l] * index_min(e)
        g = math.gcd(g, m[l] * index_q(e))
    return math.gcd(g, abs(low - target))


def _q_report(sys: SetSystem, m: Sequence[int], dg: Digraph) -> QReport:
    per_eq = [
        math.gcd(*(_family_gcd(t, m, m[j]) for t in eq))
        for j, eq in enumerate(sys.equations)
    ]
    # q is one value per strong component: the gcd of its own entries and
    # of the q of the components it reads, which come before it
    succ = [0] * sys.k
    for i, j in dg.edges:
        succ[i] |= 1 << j
    q = per_eq[:]
    for comp in dg.components():
        reads = 0
        for i in comp:
            reads |= succ[i]
        g = math.gcd(*(per_eq[i] for i in comp), *(q[j] for j in _bits(reads)))
        for i in comp:
            q[i] = g
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


class VariableSolution(_Value):
    name: str
    closed_form: EPSet
    certificate: str
    params: PeriodicityParams


class SpectrumSolution(_Value):
    horizon: int
    variables: Tuple[VariableSolution, ...]
    classification: SystemClassification


def _solve_linear(c: list[dict[int, EPSet]], d: list[EPSet], stars: Stars) -> list[EPSet]:
    """Least solution of X_i = d_i | U_j (c_ij + X_j) over the (union, sum,
    closure) algebra, where row c[i] holds the non-empty c_ij; consumes c
    and d, and reads the closures from the star table. Gaussian
    elimination leaves row i reading only X_j for j > i, and back
    substitution solves the rows from the last up."""
    n = len(d)
    for i, row in enumerate(c):
        loop = row.pop(i, None)
        if loop is not None:
            clo = _closure(stars, loop)
            d[i] = sumset(clo, d[i])
            for j, e in row.items():
                row[j] = sumset(clo, e)
        for l in range(i + 1, n):
            coef = c[l].pop(i, None)
            if coef is None:
                continue
            if not d[i].is_empty:
                d[l] = union(d[l], sumset(coef, d[i]))
            below = c[l]
            for j, e in row.items():
                e = sumset(coef, e)
                below[j] = union(below[j], e) if j in below else e
    for i in reversed(range(n)):
        d[i] = union(d[i], *(sumset(e, d[j]) for j, e in c[i].items()))
    return d


def _jacobian(sys: SetSystem, nu: Sequence[EPSet], stars: Stars) -> list[dict[int, EPSet]]:
    """Row i maps j to entry (i, j) when it is non-empty: the union, over
    the families of equation i that use Y_j, of the base, the other factors
    at nu and (E_j - 1)*nu_j, where E_j - 1 = {x - 1 : x in E_j, x >= 1}."""
    c = []
    for eq in sys.equations:
        row: dict[int, EPSet] = {}
        for t in eq:
            factors = {j: _star(stars, e, nu[j]) for j, e in t.factors}
            for j, e in t.factors:
                v = sumset(t.base, _star(stars, unshift(e, 1), nu[j]))
                for l, f in factors.items():
                    if l != j:
                        v = sumset(v, f)
                if not v.is_empty:
                    row[j] = union(row[j], v) if j in row else v
        c.append(row)
    return c


def _newton(sys: SetSystem, stars: Stars) -> list[EPSet]:
    """Least solution of a system without enumerated index sets.

    Each step replaces nu by the least solution of X = Gamma(nu) | J(nu) X,
    starting from Gamma(0). Over a commutative idempotent semiring, here
    (union, sum, closure), k equations reach their least fixed point in at
    most k steps (Hopkins & Kozen, LICS 1999; Esparza, Kiefer & Luttenberger,
    J. ACM 2010). On a system in normal form (_normal_form), a positive
    nu = Gamma(nu) is the least solution however it was reached.
    """
    nu = gamma_eval(sys, [EMPTY] * sys.k, stars)
    for _ in range(sys.k + 1):
        image = gamma_eval(sys, nu, stars)
        if image == nu:
            return nu
        nu = _solve_linear(_jacobian(sys, nu, stars), image, stars)
    raise AssertionError(f"Newton iteration did not settle in {sys.k} steps")


def _component_system(
    sys: SetSystem, comp: Sequence[int], values: Sequence[EPSet], stars: Stars
) -> SetSystem:
    """The equations of comp alone, with the values of the variables
    outside it folded into the family bases; sys itself when comp is every
    variable."""
    if len(comp) == sys.k:
        return sys
    pos = {v: n for n, v in enumerate(comp)}
    eqs = []
    for i in comp:
        terms = []
        for t in sys.equations[i]:
            base = t.base
            inner = []
            for j, e in t.factors:
                if j in pos:
                    inner.append((pos[j], e))
                else:
                    base = sumset(base, _star(stars, e, values[j]))
            if not base.is_empty:
                terms.append(GammaTerm(base, inner))
        eqs.append(tuple(terms))
    return SetSystem(tuple(sys.variables[i] for i in comp), tuple(eqs))


def _doubling_condition(sys: SetSystem, comp: Sequence[int]) -> bool:
    """Some equation in the strong component comp has a family with total
    component-internal weight at least 2. A variable outside every cycle
    has no family that uses it, so it never meets the condition."""
    inside = sum(1 << l for l in comp)
    return any(
        (t.used & inside).bit_count() > 1 or t.twice & inside
        for j in comp for t in sys.equations[j]
    )


def _live(sys: SetSystem, minima: Sequence[Union[int, float]]) -> SetSystem:
    """sys with only the families whose minimum at minima is finite: the
    reduced system's families, on all the variables. An empty variable
    keeps no family."""
    def finite(t: GammaTerm) -> bool:
        return all(minima[j] < math.inf or index_min(e) == 0 for j, e in t.factors)

    return SetSystem(sys.variables, tuple(tuple(filter(finite, eq)) for eq in sys.equations))


def _cut(sys: SetSystem, bound: int, tail: list) -> SetSystem:
    """sys with each enumerated index set cut to its members up to bound,
    joined with the blocks of tail."""
    def cut(e: IndexSet) -> IndexSet:
        return normalize(e.members_upto(bound), tail) if isinstance(e, EnumeratedSet) else e

    eqs = [
        [family(t.base, [(j, cut(e)) for j, e in t.factors]) for t in eq]
        for eq in sys.equations
    ]
    return SetSystem(sys.variables, tuple(map(tuple, eqs)))


def _from(e: IndexSet, n: int) -> IndexSet:
    """The members of e from n on: all of Primes for n <= 2."""
    return shift(unshift(e, n), n) if index_min(e) < n else e


def _normal_form(sys: SetSystem, minima: Sequence[Union[int, float]]) -> SetSystem:
    """Gamma+: Gamma with its empty and unit rules eliminated, as for a
    grammar (Hopcroft & Ullman, 1979), for the positive parts Y+ of its
    least solution. On a nullable variable (minimum 0) E*Y = down(E)*Y+.
    A family with 0 in its base and weight below 2 splits into its base
    less 0 and, per factor j that can be the first not at 0, the factors
    before j at 0, E_j less 0 at j and the later ones whole; the all-0
    choice, the empty word, goes. At weight 1 that splits by j at 1 or
    2+N, and at 1 by the first later factor not at 0, or by none: the unit
    rule Y_i >= Y_j. Equation i takes the other families of each j it
    reaches by unit rules. A family of Gamma+ reads only bits below n of a
    positive Y for bit n, so Y+ is its one positive fixed point.
    """
    rest: list[list[GammaTerm]] = [[] for _ in range(sys.k)]
    units: list[list[GammaTerm]] = [[] for _ in range(sys.k)]
    for i, eq in enumerate(sys.equations):
        for t in eq:
            if any(not minima[j] for j, _ in t.factors):
                t = family(t.base, [(j, e if minima[j] else index_down(e)) for j, e in t.factors])
            if not member(t.base, 0) or t.min_weight() >= 2:
                rest[i].append(t)
                continue
            if t.base != ZERO:
                rest[i].append(GammaTerm(_from(t.base, 1), t.factors))
            for n, (j, e) in enumerate(t.factors):
                later = t.factors[n + 1:]
                first = GammaTerm(ZERO, [(j, _from(e, 1)), *later])
                if first.min_weight() > 1:
                    rest[i].append(first)
                else:
                    units[i].append(GammaTerm(ZERO, [(j, ONE)]))
                    if index_reaches(e, 2):
                        rest[i].append(GammaTerm(ZERO, [(j, _from(e, 2)), *later]))
                    rest[i] += [
                        GammaTerm(ZERO, [(j, ONE), (l, _from(f, 1)), *later[m + 1:]])
                        for m, (l, f) in enumerate(later)
                    ]
                if not index_member(e, 0):
                    break
    dg = dependency(SetSystem(sys.variables, tuple(map(tuple, units))))
    eqs = [
        tuple(t for j in _bits(dg.closure(i)) for t in rest[j])
        for i in range(sys.k)
    ]
    return SetSystem(sys.variables, tuple(eqs))


def _least(flat: SetSystem, dg: Digraph, horizon: int) -> list[EPSet]:
    """Least solution of flat, Gamma's normal form, proven on all of N; dg
    is the dependency digraph of Gamma.

    Newton solves flat one component of dg at a time, below first. A unit
    rule Y_i >= Y_j comes from an edge i -> j of Gamma, so every edge of
    flat is a path of Gamma: each component of dg is a union of components
    of flat, solved after everything it reads, and Newton's bound of k
    steps holds on any k equations.

    Gamma is monotone in each enumerated index set E, so with E cut to
    E_lo = {e in E : e <= P} and E_hi = E_lo | P+1+N the least solutions
    rise from E_lo through E to E_hi (Tarski, Pacific J. Math. 1955): the
    one for E_lo is the one for E once it solves the E_hi system. P doubles
    from 2 until then, and up to the horizon. The components that reach no
    enumerated index set are the same at every P and are solved once.
    Primes, the one enumerated index set, is never split: down(Primes) = N
    on a nullable variable, and elsewhere Primes starts at 2, so a family
    with it weighs >= 2 and stays whole; its cuts keep flat in normal form.

    Every star is computed once, in one table for the whole call."""
    stars: Stars = {}
    comps = dg.components()
    nu = [EMPTY] * flat.k
    bound = 2
    while True:
        lo = _cut(flat, bound, []) if flat.enumerated else flat
        for comp in comps:
            for i, v in zip(comp, _newton(_component_system(lo, comp, nu, stars), stars)):
                nu[i] = v
        if lo is flat:
            return nu
        image = gamma_eval(_cut(flat, bound, [(bound + 1, 1)]), nu, stars)
        for name, v, w in zip(flat.variables, nu, image):
            if not is_subset(v, w):  # Gamma_hi lies above Gamma_lo, which fixes nu
                raise AssertionError(f"exact answer for {name} is no fixed point of the cut system")
        if image == nu:
            return nu
        if bound >= horizon:
            raise SemanticError(f"enumerated index sets cut at {bound} leave the solution open")
        comps = [c for c in comps if dg.closure(c[0]) & flat.enumerated]
        bound *= 2


def solve(sys: SetSystem, horizon: int = 512) -> SpectrumSolution:
    """Least solution of Y = Gamma(Y), in closed form, for every system.

    _least solves Gamma's normal form exactly and proves the answer, with
    each enumerated index set bracketed between two eventually periodic ones
    (SemanticError if the bracket is open at the horizon, which bounds
    nothing else); 0 then joins the nullable variables. Certificates read
    Gamma as written: CertifiedLinear if every equation reached is linear,
    CertifiedDoubling if the variable's component meets the doubling
    condition on the live families (those of the reduced system, where the
    condition gives p = q), else CertifiedFiniteConvergence. min_vector
    checks every m, and q_vector every q on a reduced system, never a
    non-basic one.
    """
    if horizon < 1:
        raise SemanticError("horizon must be at least 1")
    cls = classify(sys)
    dg = dependency(sys)
    k = sys.k
    # the equations with a family that uses two variables, or one with an
    # exponent set reaching 2
    nonlinear = sum(
        1 << j for j, eq in enumerate(sys.equations)
        if any(t.used.bit_count() > 1 or t.twice for t in eq)
    )
    live = _live(sys, cls.minima) if cls.empties else sys
    ldg = dependency(live) if cls.empties else dg
    doubling = {i for comp in ldg.components() if _doubling_condition(live, comp) for i in comp}

    closed = _least(_normal_form(sys, cls.minima), dg, horizon)
    closed = [union(v, ZERO) if m == 0 else v for v, m in zip(closed, cls.minima)]

    # the gcd formula holds on reduced systems
    gcds = _q_report(sys, cls.minima, dg).q if cls.is_reduced else None
    out = []
    for i in range(k):
        pp = params(closed[i])
        if not dg.closure(i) & nonlinear:
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


def solution_json(sol: SpectrumSolution, k: int | None = None) -> dict:
    """The published JSON schema for a solved system, on its first k variables."""
    shown = sol.variables[:k]
    return {
        "variables": [v.name for v in shown],
        "classification": {
            "basic": sol.classification.is_basic,
            "elementary": sol.classification.is_elementary,
            "reduced": sol.classification.is_reduced,
            "empties": sorted(i for i in sol.classification.empties if i < len(shown)),
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
            for v in shown
        ],
    }
