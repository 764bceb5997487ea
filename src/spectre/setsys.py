"""Set-equation systems Y = Gamma(Y): classification, dependency analysis,
exact solving, and the closed-form minimum/gcd parameter formulas."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from . import epset
from .epset import (
    EMPTY,
    ZERO,
    EPSet,
    EnumeratedSet,
    IndexSet,
    PeriodicityParams,
    enumerate_range,
    format_epset,
    gcd_of,
    has_positive,
    index_members,
    is_subset,
    member,
    normalize,
    nstar,
    params,
    scalar_mul,
    shift,
    singleton,
    star,
    sumset,
    union,
)

ONE = singleton(1)


class TrivialEquation(ValueError):
    """An equation consisting of a bare variable; substitute it away."""


class NotReduced(ValueError):
    """Operation requires a system with no empty solution components."""


class NotBasic(ValueError):
    """Operation requires a system mapping positive-sets to positive-sets."""


class HorizonTooSmall(ValueError):
    """The truncation horizon cannot support closed-form inference."""


def _is_zero_only(e: IndexSet) -> bool:
    return isinstance(e, EPSet) and e == ZERO


def _index_min(e: IndexSet) -> int:
    if isinstance(e, EnumeratedSet):
        return e.first()
    if e.is_empty:
        raise ValueError("empty exponent set")
    return e.finite_part[0] if e.finite_part else e.threshold


def _index_contains_zero(e: IndexSet) -> bool:
    return isinstance(e, EPSet) and member(e, 0)


def _index_has_positive(e: IndexSet) -> bool:
    if isinstance(e, EnumeratedSet):
        return True
    return has_positive(e)


def _index_max_at_least(e: IndexSet, n: int) -> bool:
    """True iff e contains an element >= n."""
    if isinstance(e, EnumeratedSet):
        return True
    if e.period is not None:
        return True
    return bool(e.finite_part) and e.finite_part[-1] >= n


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
        for e in self.exponents:
            if isinstance(e, EPSet) and e.is_empty:
                raise ValueError("exponent sets must be non-empty")

    def uses(self, j: int) -> bool:
        return _index_has_positive(self.exponents[j])

    def min_weight(self) -> int:
        return sum(_index_min(e) for e in self.exponents)


def term(base: EPSet, k: int, **by_index) -> GammaTerm:
    """Convenience constructor: term(base, k, e0=EPSet, e2=EPSet)."""
    exps: list[IndexSet] = [ZERO] * k
    for key, val in by_index.items():
        exps[int(key[1:])] = val
    return GammaTerm(base, tuple(exps))


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
    diagnostics: Tuple[str, ...] = ()


def classify(sys: SetSystem) -> SystemClassification:
    """Basic / elementary / reduced classification with diagnostics."""
    diags = []
    for i, eq in enumerate(sys.equations):
        if len(eq) == 1:
            t = eq[0]
            positives = [j for j in range(sys.k) if t.uses(j)]
            if (
                t.base == ZERO
                and len(positives) == 1
                and t.exponents[positives[0]] == ONE
            ):
                raise TrivialEquation(
                    f"equation for {sys.variables[i]} is a bare variable "
                    f"{sys.variables[positives[0]]}; substitute it away"
                )
    basic = True
    elem = True
    for i, eq in enumerate(sys.equations):
        for t in eq:
            if member(t.base, 0):
                if all(_index_contains_zero(e) for e in t.exponents):
                    basic = False
                    diags.append(
                        f"{sys.variables[i]}: constant family base contains 0"
                    )
                if t.min_weight() < 2:
                    elem = False
                    diags.append(
                        f"{sys.variables[i]}: base contains 0 with total weight < 2"
                    )
    elem = elem and basic
    emp = empties(sys)
    return SystemClassification(basic, elem, not emp and elem, frozenset(emp), tuple(diags))


def empties(sys: SetSystem) -> set[int]:
    """Indices whose solution coordinate is empty (stable after k rounds)."""
    nonempty = [False] * sys.k
    for _ in range(sys.k):
        nonempty = [
            any(
                all(_index_contains_zero(t.exponents[j]) or nonempty[j] for j in range(sys.k))
                for t in eq
            )
            for eq in sys.equations
        ]
    return {i for i in range(sys.k) if not nonempty[i]}


def reduce(sys: SetSystem) -> SetSystem:
    """Drop empty variables, deleting term families that require them."""
    emp = empties(sys)
    if not emp:
        return sys
    keep = [i for i in range(sys.k) if i not in emp]
    new_eqs = []
    for i in keep:
        terms = []
        for t in sys.equations[i]:
            if any(not _index_contains_zero(t.exponents[j]) for j in emp):
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
# symbolic evaluation on EPSets


def star_index(e: IndexSet, y: EPSet, cap: int = 64) -> EPSet:
    """e * y where e may be an enumerated index set (capped enumeration)."""
    if isinstance(e, EPSet):
        return star(e, y)
    if y.is_empty:
        return EMPTY
    acc = EMPTY
    for x in e.members_upto(10 ** 9, cap=cap):
        acc = union(acc, nstar(x, y))
    return acc


def gamma_eval(sys: SetSystem, vec: Sequence[EPSet], cap: int = 64) -> list[EPSet]:
    """One application of Gamma to a vector of EPSets."""
    out = []
    for eq in sys.equations:
        acc = EMPTY
        for t in eq:
            v = t.base
            for j, e in enumerate(t.exponents):
                if _is_zero_only(e):
                    continue
                v = sumset(v, star_index(e, vec[j], cap=cap))
                if v.is_empty:
                    break
            acc = union(acc, v)
        out.append(acc)
    return out


def symbolic_iterate(sys: SetSystem, n: int, cap: int = 64) -> list[list[EPSet]]:
    """The iterates Gamma^(1)(emptyset) .. Gamma^(n)(emptyset)."""
    vec = [EMPTY] * sys.k
    out = []
    for _ in range(n):
        vec = gamma_eval(sys, vec, cap=cap)
        out.append(vec)
    return out


def min_vector(sys: SetSystem, cap: int = 64) -> list[Union[int, float]]:
    """Per-variable minimum of the solution (inf for empty coordinates)."""
    vec = symbolic_iterate(sys, sys.k, cap=cap)[-1]
    return [params(a).m for a in vec]


@dataclass(frozen=True)
class QReport:
    q: Tuple[int, ...]
    per_equation: Tuple[int, ...]
    uncertified: Tuple[bool, ...]  # per equation: enumeration-based gcd


def _gcd_shifted(s: EPSet, t: int) -> int:
    """gcd over {x - t : x in s} for non-empty s."""
    pp = params(s)
    return math.gcd(pp.q, abs(pp.m - t))


def q_report(
    sys: SetSystem,
    cap: int = 64,
    window: int = 8,
) -> QReport:
    """Closed-form gcd parameters with per-equation contributions."""
    cls = classify(sys)
    if cls.empties:
        raise NotReduced(f"empty components: {sorted(cls.empties)}")
    mins = min_vector(sys, cap=cap)
    m = [int(v) for v in mins]
    per_eq = []
    flags = []
    for j, eq in enumerate(sys.equations):
        g = 0
        flagged = False
        for t in eq:
            exact = t.base
            enum_parts = []
            for l, e in enumerate(t.exponents):
                if _is_zero_only(e):
                    continue
                if isinstance(e, EnumeratedSet):
                    enum_parts.append((m[l], e))
                else:
                    exact = sumset(exact, scalar_mul(m[l], e))
            if not enum_parts:
                g = math.gcd(g, _gcd_shifted(exact, m[j]))
            else:
                flagged = True
                pp = params(exact)
                g = math.gcd(g, pp.q)
                streams = [
                    [ml * v for v in e.members_upto(10 ** 9, cap=cap)]
                    for ml, e in enum_parts
                ]
                stable = 0
                for combo in itertools.product(*streams):
                    new = math.gcd(g, abs(pp.m + sum(combo) - m[j]))
                    if new == g:
                        stable += 1
                        if stable >= window:
                            break
                    else:
                        g = new
                        stable = 0
                    if g == 1:
                        break
        per_eq.append(g)
        flags.append(flagged)
    dg = dependency(sys)
    q = []
    for i in range(sys.k):
        g = 0
        for j in range(sys.k):
            if dg.reaches(i, j):
                g = math.gcd(g, per_eq[j])
        q.append(g)
    return QReport(tuple(q), tuple(per_eq), tuple(flags))


def q_vector(sys: SetSystem, cap: int = 64, window: int = 8) -> list[int]:
    return list(q_report(sys, cap=cap, window=window).q)


# ---------------------------------------------------------------------------
# truncated Kleene solving on bitmask membership arrays


def _mask_of(a: EPSet, h: int) -> int:
    m = 0
    for n in enumerate_range(a, 0, h):
        m |= 1 << n
    return m


def _mask_to_set(m: int) -> set[int]:
    out = set()
    while m:
        low = m & -m
        out.add(low.bit_length() - 1)
        m ^= low
    return out


def _mask_sum(a: int, b: int, full: int) -> int:
    if a == 0 or b == 0:
        return 0
    out = 0
    x = a
    while x:
        low = x & -x
        out |= b << (low.bit_length() - 1)
        x ^= low
    return out & full


def _mask_nstar(n: int, b: int, full: int) -> int:
    result = 1
    power = b
    while n:
        if n & 1:
            result = _mask_sum(result, power, full)
            if result == 0:
                return 0
        n >>= 1
        if n:
            power = _mask_sum(power, power, full)
    return result


def _mask_star(e: IndexSet, y: int, h: int, full: int) -> int:
    if y == 0:
        return 1 if _index_contains_zero(e) else 0
    if y == 1:  # y = {0}
        return 1
    if y & 1:
        # argument contains 0: fold it into a downward-closed index set
        y0 = y & ~1
        if isinstance(e, EnumeratedSet) or e.period is not None:
            idx = list(range(h + 1))
        else:
            idx = list(range(e.finite_part[-1] + 1))
        return _mask_star_sorted(idx, y0, h, full)
    return _mask_star_sorted(index_members(e, h), y, h, full)


def _mask_star_sorted(elems: list[int], y: int, h: int, full: int) -> int:
    out = 0
    cur = 1
    prev = 0
    for e in elems:
        if e == 0:
            out |= 1
            continue
        cur = _mask_sum(cur, _mask_nstar(e - prev, y, full), full)
        prev = e
        if cur == 0:
            break
        out |= cur
    return out


def _kleene(sys: SetSystem, h: int, seed: Optional[Sequence[int]] = None) -> list[int]:
    full = (1 << (h + 1)) - 1
    vec = list(seed) if seed is not None else [0] * sys.k
    base_masks = [[_mask_of(t.base, h) for t in eq] for eq in sys.equations]
    rounds = 0
    limit = h * sys.k + sys.k + 2
    while True:
        new = []
        for i, eq in enumerate(sys.equations):
            acc = 0
            for ti, t in enumerate(eq):
                v = base_masks[i][ti]
                for j, e in enumerate(t.exponents):
                    if _is_zero_only(e):
                        continue
                    v = _mask_sum(v, _mask_star(e, vec[j], h, full), full)
                    if v == 0:
                        break
                acc |= v
            new.append(acc)
        rounds += 1
        if new == vec:
            return vec
        vec = new
        if rounds > limit:
            raise AssertionError("Kleene iteration failed to stabilize")


# ---------------------------------------------------------------------------
# closed forms and certificates

CERT_LINEAR = "CertifiedLinear"
CERT_DOUBLING = "CertifiedDoubling"
CERT_FINITE = "CertifiedFiniteConvergence"
CERT_HEURISTIC = "Heuristic"


@dataclass(frozen=True)
class VariableSolution:
    name: str
    closed_form: EPSet
    truncation: Tuple[bool, ...]
    certificate: str
    params: PeriodicityParams


@dataclass(frozen=True)
class SpectrumSolution:
    horizon: int
    variables: Tuple[VariableSolution, ...]
    classification: SystemClassification
    notes: Tuple[str, ...] = ()


def linear_closed_form(g0: EPSet, g1: EPSet) -> EPSet:
    """Solution of Y = G0 | (G1 + Y): G0 plus the closure of G1."""
    if g1.is_empty or g0.is_empty:
        return g0
    return sumset(g0, epset._natstar(g1))


def _term_linear_parts(t: GammaTerm, k: int):
    """For a linear term return (constant_part, {var: coefficient}), else None.

    Linear means: at most one variable used, with exponent set inside {0,1}.
    """
    used = [j for j in range(k) if t.uses(j)]
    if not used:
        return t.base, {}
    if len(used) > 1:
        return None
    j = used[0]
    e = t.exponents[j]
    if isinstance(e, EnumeratedSet):
        return None
    zero_one = normalize((0, 1))
    if not is_subset(e, zero_one):
        return None
    const = t.base if member(e, 0) else EMPTY
    return const, {j: t.base}


def _solve_linear_subsystem(sys: SetSystem, vars_subset: set[int]) -> dict[int, EPSet]:
    """Gauss-Jordan elimination over the (union, sum, closure) algebra."""
    idx = sorted(vars_subset)
    pos = {v: n for n, v in enumerate(idx)}
    n = len(idx)
    c = [[EMPTY] * n for _ in range(n)]
    d = [EMPTY] * n
    for row, v in enumerate(idx):
        for t in sys.equations[v]:
            parts = _term_linear_parts(t, sys.k)
            assert parts is not None
            const, coeffs = parts
            if not const.is_empty:
                d[row] = union(d[row], const)
            for j, coef in coeffs.items():
                c[row][pos[j]] = union(c[row][pos[j]], coef)
    for i in range(n):
        if not c[i][i].is_empty:
            clo = epset._natstar(c[i][i])
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
    return {v: d[pos[v]] for v in idx}


def _infer_epset_from_mask(mask: int, h: int) -> EPSet:
    """Fit a canonical EPSet to a truncated membership mask.

    The tail on the upper half of the window must be periodic with some
    period at most h/4; otherwise the horizon is declared too small.
    """
    bits = [(mask >> n) & 1 for n in range(h + 1)]
    if not any(bits):
        return EMPTY
    top = max(n for n in range(h + 1) if bits[n])
    if top < h // 2:
        return normalize([n for n in range(h + 1) if bits[n]])
    period = None
    for p in range(1, h // 4 + 1):
        if all(bits[n] == bits[n + p] for n in range(h // 2, h + 1 - p)):
            period = p
            break
    if period is None:
        raise HorizonTooSmall(
            f"no tail period up to {h // 4} fits the horizon-{h} truncation"
        )
    t = h // 2
    while t > 0 and bits[t - 1] == bits[t - 1 + period]:
        t -= 1
    fins = [n for n in range(t) if bits[n]]
    blocks = []
    for r in range(period):
        first = next((n for n in range(t, t + period) if n % period == r % period and bits[n]), None)
        if first is not None:
            blocks.append((first, period))
    cand = normalize(fins, blocks)
    if _mask_of(cand, h) != mask:
        raise AssertionError("closed-form inference disagrees with truncation")
    return cand


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
            if len(members) >= 2 or _index_max_at_least(t.exponents[members[0]], 2):
                return True
    return False


def solve(
    sys: SetSystem,
    horizon: int = 512,
    cap: int = 64,
    window: int = 8,
) -> SpectrumSolution:
    """Least solution of Y = Gamma(Y), truncated and in closed form."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    cls = classify(sys)
    if not cls.is_basic:
        raise NotBasic("system does not map positive-sets into positive-sets")
    masks = _kleene(sys, horizon)
    dg = dependency(sys)
    k = sys.k
    notes: list[str] = []

    linear_eq = [
        all(_term_linear_parts(t, k) is not None for t in eq) for eq in sys.equations
    ]
    linear_vars = {
        i
        for i in range(k)
        if all(linear_eq[j] for j in range(k) if dg.reaches(i, j))
    }
    linear_closed: dict[int, EPSet] = {}
    if linear_vars:
        closure_set = {
            j for i in linear_vars for j in range(k) if dg.reaches(i, j)
        }
        linear_closed = _solve_linear_subsystem(sys, closure_set)

    fixpoint_tried = False
    fixpoint_vec: Optional[list[EPSet]] = None

    def try_symbolic_fixpoint() -> Optional[list[EPSet]]:
        # Kleene iteration on EPSets; abandoned as soon as iterates grow
        # past a size budget (non-converging iterates explode quickly).
        if sys.has_enumerated():
            return None
        vec = [EMPTY] * k
        for _ in range(2 * k + 8):
            nxt = gamma_eval(sys, vec, cap=cap)
            if nxt == vec:
                return vec
            if any(
                len(a.finite_part) > 64 or a.threshold > 4 * horizon for a in nxt
            ):
                return None
            vec = nxt
        return None

    out = []
    for i in range(k):
        closed: Optional[EPSet] = None
        cert = CERT_HEURISTIC
        if i in linear_vars:
            closed = linear_closed[i]
            cert = CERT_LINEAR
        if closed is None and _doubling_condition(sys, dg, i):
            cand = _infer_epset_from_mask(masks[i], horizon)
            if has_positive(cand):
                rhs_base = nstar(2, cand)
                for r in range(0, horizon // 4 + 1):
                    if is_subset(shift(rhs_base, r), cand):
                        epset.certify_doubling(cand, r, 2)
                        closed = cand
                        cert = CERT_DOUBLING
                        break
        if closed is None:
            if not fixpoint_tried:
                fixpoint_tried = True
                fixpoint_vec = try_symbolic_fixpoint()
            if fixpoint_vec is not None:
                closed = fixpoint_vec[i]
                cert = CERT_FINITE
        if closed is None:
            closed = _infer_epset_from_mask(masks[i], horizon)
            cert = CERT_HEURISTIC
        if _mask_of(closed, horizon) != masks[i]:
            raise AssertionError(
                f"closed form for {sys.variables[i]} disagrees with truncation"
            )
        trunc = tuple(bool((masks[i] >> n) & 1) for n in range(horizon + 1))
        out.append(
            VariableSolution(sys.variables[i], closed, trunc, cert, params(closed))
        )
    if sys.has_enumerated():
        notes.append("enumeration-based index sets present; results uncertified")
    return SpectrumSolution(horizon, tuple(out), cls, tuple(notes))


def solve_seeded(sys: SetSystem, horizon: int, seed_sets: Sequence[EPSet]) -> list[set[int]]:
    """Iterate from an arbitrary positive-set seed vector; returns the
    stabilized truncations (for uniqueness experiments)."""
    full = (1 << (horizon + 1)) - 1
    seed = [_mask_of(s, horizon) & full & ~1 for s in seed_sets]
    vec = seed
    for _ in range(horizon + sys.k + 2):
        new = []
        for i, eq in enumerate(sys.equations):
            acc = 0
            for t in eq:
                v = _mask_of(t.base, horizon)
                for j, e in enumerate(t.exponents):
                    if _is_zero_only(e):
                        continue
                    v = _mask_sum(v, _mask_star(e, vec[j], horizon, full), full)
                    if v == 0:
                        break
                acc |= v
            new.append(acc)
        if new == vec:
            break
        vec = new
    return [_mask_to_set(m) for m in vec]


def nonuniqueness_probe(
    sys: SetSystem, candidates: Sequence[Sequence[EPSet]]
) -> list[bool]:
    """Which candidate vectors satisfy Y = Gamma(Y) exactly."""
    out = []
    for cand in candidates:
        image = gamma_eval(sys, list(cand))
        out.append(all(image[i] == cand[i] for i in range(sys.k)))
    return out


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
