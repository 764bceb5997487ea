import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectre import epset
from spectre.epset import (
    EMPTY,
    NAT,
    ZERO,
    EPSet,
    SemanticError,
    decompose,
    enumerate_range,
    format_epset,
    gcd_of,
    member,
    nat_closure,
    normalize,
    nstar,
    params,
    shift,
    singleton,
    star,
    sumset,
    union,
)

import oracle
from conftest import members, vec

ODDS = normalize((), [(1, 2)])
LIN43 = union(normalize((), [(1, 3)]), normalize((), [(2, 3)]))  # n>=1, n%3 in {1,2}
FROB35 = normalize([0, 3, 5, 6], [(8, 1)])


@st.composite
def epsets(draw, max_elem=30, max_period=8):
    fins = draw(st.lists(st.integers(0, max_elem), max_size=5))
    blocks = draw(
        st.lists(
            st.tuples(st.integers(0, max_elem), st.integers(1, max_period)),
            max_size=2,
        )
    )
    return normalize(fins, blocks)


def nonempty(draw_result):
    assume(not draw_result.is_empty)
    return draw_result


# ---------------------------------------------------------------------------
# canonical form


class TestNormalize:
    def test_single_progression(self):
        assert ODDS.finite_part == ()
        assert ODDS.threshold == 1
        assert ODDS.period == 2
        assert ODDS.residues == (1,)

    def test_redundant_finite_elements_absorbed(self):
        assert normalize([1], [(3, 2)]) == ODDS

    def test_finite_set(self):
        a = normalize([4, 1, 4])
        assert a.finite_part == (1, 4)
        assert a.threshold == 5
        assert a.period is None

    def test_empty(self):
        assert EMPTY.is_empty
        assert EMPTY.threshold == 0

    def test_composite_blocks(self):
        comps = [n for n in range(4, 21) if any(n % d == 0 for d in range(2, n))]
        a = normalize((), [(c, 1) for c in comps])
        assert members(a, 64) == set(range(4, 65))

    @given(epsets())
    def test_retraction(self, a):
        fins, blocks = epset.decompose(a)
        assert normalize(fins, blocks) == a

    @given(epsets(), epsets())
    def test_equality_is_set_equality(self, a, b):
        same = members(a, 600) == members(b, 600)
        assert (a == b) == same


class TestMembership:
    def test_member(self):
        assert member(ODDS, 5)
        assert not member(ODDS, 4)
        assert not member(FROB35, 7)

    def test_enumerate(self):
        assert enumerate_range(ODDS, 0, 6) == [1, 3, 5]
        assert enumerate_range(EMPTY, 0, 100) == []
        assert enumerate_range(FROB35, 0, 10) == [0, 3, 5, 6, 8, 9, 10]

    def test_format(self):
        assert format_epset(normalize([1, 2], [(4, 3)])) == "{1,2} | 4+3*N"
        assert format_epset(ODDS) == "1+2*N"
        assert format_epset(EMPTY) == "{}"


# ---------------------------------------------------------------------------
# operations against spec'd values


class TestOps:
    def test_union(self):
        evens2 = normalize((), [(2, 2)])
        assert union(ODDS, evens2) == normalize((), [(1, 1)])
        b = normalize([3], [(5, 4)])
        assert union(EMPTY, b) == b

    def test_sum(self):
        assert sumset(ODDS, ODDS) == normalize((), [(2, 2)])
        b = normalize([1, 7], [(9, 3)])
        assert sumset(ZERO, b) == b
        assert sumset(EMPTY, ODDS) == EMPTY

    def test_nstar(self):
        assert nstar(0, normalize([1, 7])) == ZERO
        assert nstar(2, normalize([1, 2])) == normalize([2, 3, 4])
        assert nstar(5, ODDS) == normalize((), [(5, 2)])

    def test_star(self):
        b = normalize([2], [(5, 3)])
        assert star(singleton(1), b) == b
        assert star(NAT, normalize([3, 5])) == FROB35
        assert star(normalize((), [(2, 2)]), singleton(1)) == normalize((), [(2, 2)])
        assert star(EMPTY, b) == EMPTY
        assert star(normalize([0, 4]), EMPTY) == ZERO
        assert star(normalize([4]), EMPTY) == EMPTY

    def test_nat_closure(self):
        assert nat_closure(normalize([3, 5])) == FROB35
        assert nat_closure(normalize([4, 6])) == normalize([0], [(4, 2)])
        assert nat_closure(singleton(1)) == NAT
        with pytest.raises(SemanticError, match="closure argument has no positive element"):
            nat_closure(ZERO)
        with pytest.raises(SemanticError, match="closure argument has no positive element"):
            nat_closure(EMPTY)

    def test_gcd_of(self):
        assert gcd_of(normalize([4, 6])) == 2
        assert gcd_of(normalize((), [(3, 6)])) == 3
        assert gcd_of(normalize([5], [(7, 3)])) == 1
        assert gcd_of(EMPTY) == 0


class TestParams:
    def test_worked_examples(self):
        assert params(LIN43) == epset.PeriodicityParams(1, 1, 3, 1)
        assert params(ODDS) == epset.PeriodicityParams(1, 2, 2, 1)
        assert params(normalize([1, 2], [(4, 3)])) == epset.PeriodicityParams(
            1, 1, 3, 4
        )

    def test_empty_sentinel(self):
        pp = params(EMPTY)
        assert pp.m == math.inf and pp.q == 0 and pp.p == 0 and pp.c == 0

    def test_finite(self):
        pp = params(normalize([1, 5]))
        assert (pp.m, pp.q, pp.p, pp.c) == (1, 4, 0, 6)


# ---------------------------------------------------------------------------
# algebraic identities (canonical-form equalities)


class TestIdentities:
    @given(epsets(), epsets(), epsets())
    def test_sum_distributes_over_union(self, a, b, c):
        assert sumset(a, union(b, c)) == union(sumset(a, b), sumset(a, c))

    @given(st.integers(0, 4), epsets(), epsets())
    def test_nstar_of_sum(self, n, a, b):
        assert nstar(n, sumset(a, b)) == sumset(nstar(n, a), nstar(n, b))

    @given(epsets(max_elem=12), epsets(max_elem=12), epsets(max_elem=12))
    @settings(max_examples=40, deadline=None)
    def test_sum_star(self, a, b, c):
        assert star(sumset(a, b), c) == sumset(star(a, c), star(b, c))

    @given(st.integers(0, 3), st.integers(0, 3), epsets())
    def test_nested_nstar(self, m, n, b):
        assert nstar(m, nstar(n, b)) == nstar(m * n, b)

    @given(epsets(max_elem=12), epsets(max_elem=12), epsets(max_elem=12))
    @settings(max_examples=40, deadline=None)
    def test_union_star(self, a, b, c):
        assert star(union(a, b), c) == union(star(a, c), star(b, c))


class TestKarensTable:
    @given(epsets(), epsets())
    def test_union_row(self, a, b):
        assume(not a.is_empty and not b.is_empty)
        pa, pb, pu = params(a), params(b), params(union(a, b))
        assert pu.m == min(pa.m, pb.m)
        assert pu.q == math.gcd(pa.q, math.gcd(pb.q, abs(pb.m - pa.m)))

    @given(epsets(), epsets())
    def test_sum_row(self, a, b):
        assume(not a.is_empty and not b.is_empty)
        pa, pb, ps = params(a), params(b), params(sumset(a, b))
        assert ps.m == pa.m + pb.m
        assert ps.q == math.gcd(pa.q, pb.q)

    @given(epsets(max_elem=12), epsets(max_elem=12))
    @settings(max_examples=60, deadline=None)
    def test_star_row(self, a, b):
        assume(not a.is_empty and not b.is_empty)
        pa, pb, pstar = params(a), params(b), params(star(a, b))
        assert pstar.m == pa.m * pb.m
        if a == ZERO:
            assert pstar.q == 0
        else:
            assert pstar.q == math.gcd(pb.q, pa.q * pb.m)


class TestClosureLaws:
    @given(epsets())
    @settings(deadline=None)
    def test_closure_params(self, b):
        assume(epset.has_positive(b))
        c = nat_closure(b)
        pp = params(c)
        g = gcd_of(b)
        assert pp.p == g and pp.q == g
        # past the onset, the set is exactly a full progression
        tail = [n for n in range(pp.c, pp.c + 4 * g + 1) if member(c, n)]
        assert tail == list(range(pp.c, pp.c + 4 * g + 1, g))

    @given(epsets())
    def test_q_divides_p(self, a):
        pp = params(a)
        if pp.p:
            assert pp.p % pp.q == 0

    @given(epsets(), st.integers(1, 40))
    def test_period_predicate_matches_p(self, a, x):
        # x is an eventual period (n + x in a for every large n in a)
        # exactly when p divides it; a finite set has every x
        pp = params(a)
        tail = range(a.threshold, a.threshold + max(pp.p, 1))
        shifts = all(member(a, n + x) for n in tail if member(a, n))
        assert shifts == (pp.p == 0 or x % pp.p == 0)

    @given(epsets())
    def test_p_equals_q_iff_single_class(self, a):
        assume(a.period is not None)
        pp = params(a)
        single = all((n - pp.m) % pp.p == 0 for n in members(a, 300))
        assert (pp.p == pp.q) == single


# ---------------------------------------------------------------------------
# oracle cross-check (moderate size; the large seeded suite is in acceptance)


class TestOracle:
    H = 128

    @given(epsets(), epsets())
    @settings(max_examples=60, deadline=None)
    def test_union_sum(self, a, b):
        h = self.H
        va, vb = vec(a, h), vec(b, h)
        assert vec(union(a, b), h) == oracle.brute_set_op("union", va, vb, h)
        assert vec(sumset(a, b), h) == oracle.brute_set_op("sum", va, vb, h)

    @given(st.integers(0, 5), epsets())
    @settings(max_examples=60, deadline=None)
    def test_scalar_nstar(self, n, b):
        h = self.H
        vb = vec(b, h)
        assert vec(nstar(n, b), h) == oracle.brute_set_op("nstar", n, vb, h)

    @given(epsets(max_elem=12), epsets(max_elem=20))
    @settings(max_examples=40, deadline=None)
    def test_star(self, a, b):
        h = self.H
        va = vec(a, h)
        if a.period is not None and member(b, 0):
            # members of a beyond h all contribute the same truncated
            # result as a = h does, so one representative suffices
            va[h] = True
        got = oracle.brute_set_op("star", va, vec(b, h), h)
        assert vec(star(a, b), h) == got

    @given(epsets(max_elem=20))
    @settings(max_examples=40, deadline=None)
    def test_natstar(self, b):
        assume(epset.has_positive(b))
        h = self.H
        assert vec(nat_closure(b), h) == oracle.brute_set_op(
            "natstar", None, vec(b, h), h
        )


class TestStarOverManyMembers:
    """star over a finite index set reaches each power from the one before;
    the members are all below H, so no truncation is needed."""

    H = 256
    PRIMES = [n for n in range(2, 101) if all(n % d for d in range(2, n))]

    def check(self, index: list[int], b: EPSet) -> None:
        h = self.H
        got = oracle.brute_set_op("star", oracle.vec_of(index, h), vec(b, h), h)
        assert vec(star(normalize(index), b), h) == got

    @given(st.lists(st.integers(0, 199), min_size=2, max_size=40), epsets(max_elem=20))
    @settings(max_examples=40, deadline=None)
    def test_uneven_gaps(self, index, b):
        self.check(index, b)

    @pytest.mark.parametrize(
        "b",
        [singleton(1), normalize([3, 5]), normalize([0, 7]), ODDS, normalize([2], [(7, 3)])],
        ids=["one", "three-five", "zero-seven", "odds", "two-and-7+3N"],
    )
    def test_primes(self, b):
        self.check(self.PRIMES, b)


@given(epsets(max_elem=40, max_period=12), st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_shift_is_canonical(a, t):
    fins, blocks = decompose(a)
    assert shift(a, t) == normalize([n + t for n in fins], [(s + t, p) for s, p in blocks])


# ---------------------------------------------------------------------------
# the private bitmask sumset kernel


def naive_mask_sum(a: int, b: int) -> int:
    out = 0
    for x in range(a.bit_length()):
        if a >> x & 1:
            out |= b << x
    return out


def truncated_epset_mask(rng: random.Random) -> int:
    """Members up to a random horizon of a random EPSet with period 1-7
    and 0-3 residues (0 residues: a finite set)."""
    p = rng.randint(1, 7)
    residues = rng.sample(range(p), min(p, rng.randint(0, 3)))
    fins = rng.sample(range(60), rng.randint(0, 8))
    a = normalize(fins, [(rng.randrange(60) // p * p + r, p) for r in residues])
    h = rng.choice([8, 64, 300, 2100])
    return sum(1 << n for n in enumerate_range(a, 0, h))


def random_run_mask(rng: random.Random) -> int:
    """A few runs of consecutive members, or a few members, in a long mask."""
    m = 0
    for _ in range(rng.randint(1, 6)):
        m |= (1 << rng.randint(1, 400)) - 1 << rng.randrange(3000)
    return m if rng.random() < 0.5 else m & ~(m << 1)


class TestMaskSum:
    def test_against_shift_loop(self):
        rng = random.Random(1729)
        draws = [
            lambda: rng.getrandbits(rng.choice([1, 7, 64, 500])),
            lambda: truncated_epset_mask(rng),
            lambda: random_run_mask(rng),
            lambda: 0,
            lambda: 1 << rng.randrange(200),
        ]
        for _ in range(1500):
            a, b = (rng.choices(draws, [4, 4, 4, 1, 1])[0]() for _ in "ab")
            want = naive_mask_sum(a, b)
            assert epset._mask_sum(a, b) == want, (a, b)
            assert epset._mask_sum(b, a) == want, (a, b)


def sieve(hi: int) -> list[int]:
    """The primes up to hi by the sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (hi - 1)
    for n in range(2, math.isqrt(hi) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, hi + 1, n)))
    return [n for n in range(hi + 1) if flags[n]]


def test_primes_vs_sieve(monkeypatch):
    # one list grows on demand and serves every call: bounds rise and fall
    monkeypatch.setattr(epset, "_PRIMES", [2, 3])
    primes = epset.ENUMERATED_SETS["Primes"]
    ref = sieve(3000)
    for hi in (0, 2, 100, 3000, 50, 7, 2999, 1000, 1, 3000):
        assert primes.members_upto(hi) == [p for p in ref if p <= hi], hi
    assert primes.first() == 2


@pytest.mark.parametrize(
    "index, is_member",
    [
        (normalize([1, 4, 6]), lambda n: n in (1, 4, 6)),
        (normalize([0, 2], [(5, 3)]), lambda n: n in (0, 2) or (n >= 5 and n % 3 == 2)),
        (EMPTY, lambda n: False),
        (epset.ENUMERATED_SETS["Primes"], lambda n: n > 1 and all(n % d for d in range(2, n))),
    ],
    ids=["finite", "periodic", "empty", "Primes"],
)
def test_index_questions_vs_brute_force(index, is_member):
    hi = 60
    # members up to 2*hi answer every question about n <= hi: the periodic
    # set recurs with period 3, and a prime lies between n and 2n
    found = [n for n in range(2 * hi + 1) if is_member(n)]
    assert epset.index_min(index) == (found[0] if found else math.inf)
    low = found[0] if found else 0
    assert epset.index_q(index) == math.gcd(*(n - low for n in found))
    for n in range(hi + 1):
        assert epset.index_member(index, n) == is_member(n), n
        assert epset.index_reaches(index, n) == any(m >= n for m in found), n
        fins, blocks = epset.index_parts(index, n)
        assert all(f <= n for f in fins), n
        got = set(fins).union(*(range(s, n + 1, p) for s, p in blocks))
        assert got == {m for m in found if m <= n}, n
