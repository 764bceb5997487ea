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
    enumerate_range,
    format_epset,
    gaps_below,
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
    unshift,
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


@st.composite
def finite_or_cofinite(draw, max_elem=30):
    """A finite set, or a cofinite one: finite members and every n from a
    start on (a block of period 1)."""
    fins = draw(st.lists(st.integers(0, max_elem), max_size=6))
    starts = draw(st.lists(st.integers(0, max_elem), max_size=1))
    return normalize(fins, [(s, 1) for s in starts])


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
        assert ODDS.res == 0b10  # residue 1 mod 2

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
        assert normalize(a.finite_part, epset._blocks(a)) == a

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

    def test_gcd_vs_every_member(self):
        # q by mask tests on divisors of the first difference, against a gcd
        # over every finite member and tail progression; the members are
        # mostly m plus multiples of g
        rng = random.Random(604)
        for _ in range(3000):
            g = rng.choice([1, 2, 3, 4, 6, 12, 35])
            m = rng.randrange(20)
            fin = [m + g * x + (rng.random() < 0.1) * rng.randrange(1, 9)
                   for x in rng.sample(range(60), rng.randint(0, 9))]
            blocks = [(rng.randrange(80), rng.randint(1, 12)) for _ in range(rng.randint(0, 2))]
            a = normalize(fin, blocks)
            if a.is_empty:
                continue
            m = a.finite_part[0] if a.finite_part else a.threshold
            q = math.gcd(*(n - m for n in a.finite_part))
            for start, period in epset._blocks(a):
                q = math.gcd(q, start - m, period)
            assert (params(a).m, params(a).q) == (m, q), a


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
    @given(epsets(max_elem=40, max_period=12))
    def test_c_by_membership(self, a):
        # c is the least member x such that every member >= x stays in a
        # when p is added (one past the largest member for a finite set);
        # past threshold + p that holds or fails by periodicity
        pp = params(a)
        found = [n for n in range(a.threshold + pp.p + 1) if member(a, n)]
        if pp.p == 0:
            want = found[-1] + 1 if found else 0
        else:
            want = next(x for x in found if all(member(a, y + pp.p) for y in found if y >= x))
        assert pp.c == want

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

    @given(epsets(), epsets(), epsets())
    @settings(max_examples=60, deadline=None)
    def test_union_sum(self, a, b, c):
        h = self.H
        va, vb = vec(a, h), vec(b, h)
        assert vec(union(a, b), h) == oracle.brute_set_op("union", va, vb, h)
        assert vec(sumset(a, b), h) == oracle.brute_set_op("sum", va, vb, h)
        vab = oracle.brute_set_op("union", va, vb, h)
        assert vec(union(a, b, c), h) == oracle.brute_set_op("union", vab, vec(c, h), h)

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


class TestCofinite:
    """Operands that are finite or cofinite take the cut paths of sumset,
    union and ℕ⋆, and params reads a cofinite set off its threshold; each
    result must match the oracle and be canonical: its threshold least,
    and equal to normalize of its own finite part and blocks."""

    H = 128

    @staticmethod
    def canonical(a: EPSet) -> EPSet:
        # no stored bit past the threshold, and no lower threshold: a tail
        # from 1 starts after a gap, and a finite set ends at its largest
        assert a.low >> a.threshold == 0
        if a.period == 1:
            assert a.res == 1 and (a.threshold == 0 or not member(a, a.threshold - 1))
        elif a.period is None:
            assert a.res == 0 and a.low.bit_length() == a.threshold
        assert a == normalize(a.finite_part, epset._blocks(a))
        return a

    @given(finite_or_cofinite(), finite_or_cofinite(), finite_or_cofinite())
    @settings(max_examples=150, deadline=None)
    def test_sum_and_union(self, a, b, c):
        h = self.H
        va, vb, vc = vec(a, h), vec(b, h), vec(c, h)
        assert vec(self.canonical(sumset(a, b)), h) == oracle.brute_set_op("sum", va, vb, h)
        vab = oracle.brute_set_op("union", va, vb, h)
        assert vec(self.canonical(union(a, b)), h) == vab
        assert vec(self.canonical(union(a, b, c)), h) == oracle.brute_set_op("union", vab, vc, h)

    @given(finite_or_cofinite(max_elem=12), finite_or_cofinite())
    @settings(max_examples=60, deadline=None)
    def test_star(self, a, b):
        h = self.H
        va = vec(a, h)
        if a.period is not None and member(b, 0):
            va[h] = True  # as in TestOracle.test_star
        got = oracle.brute_set_op("star", va, vec(b, h), h)
        assert vec(self.canonical(star(a, b)), h) == got

    @given(finite_or_cofinite(max_elem=40))
    @settings(max_examples=150, deadline=None)
    def test_nat_closure(self, b):
        assume(epset.has_positive(b))
        h = self.H
        got = oracle.brute_set_op("natstar", None, vec(b, h), h)
        assert vec(self.canonical(nat_closure(b)), h) == got

    @given(finite_or_cofinite())
    @settings(max_examples=150, deadline=None)
    def test_params(self, a):
        # read off the members below H, past every start drawn: a cofinite
        # set has period 1 and its onset one past its last gap
        h = self.H
        found = [n for n in range(h) if member(a, n)]
        if not found:
            assert params(a) == epset.PeriodicityParams(math.inf, 0, 0, 0)
            return
        m = found[0]
        q = math.gcd(*(x - m for x in found))
        if found[-1] == h - 1:
            c = max((n + 1 for n in range(h) if not member(a, n)), default=0)
            assert params(a) == epset.PeriodicityParams(m, q, 1, c)
        else:
            assert params(a) == epset.PeriodicityParams(m, q, 0, found[-1] + 1)

    def test_closure_with_a_far_generator(self):
        # the window starts at Sylvester's bound for 4 and 9, not past
        # twice the largest generator
        closure = nat_closure(normalize([4, 6, 9, 99999999]))
        assert closure == normalize([0, 4, 6, 8, 9, 10], [(12, 1)])

    def test_closure_of_a_tail_from_twice_its_least_member(self):
        # b + b lies in the tail from 10, so b is closed but for 0
        b = normalize([5, 7], [(10, 1)])
        assert nat_closure(b) == normalize([0, 5, 7], [(10, 1)])
        # from 11 on, 5 + 5 = 10 joins
        assert nat_closure(normalize([5, 7], [(11, 1)])) == normalize([0, 5, 7], [(10, 1)])


class TestStarOverManyMembers:
    """star over a finite index set reads each power from the halves
    before it; the members are all below H, so no truncation is needed."""

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
    shifted = normalize([n + t for n in a.finite_part], [(s + t, p) for s, p in epset._blocks(a)])
    assert shift(a, t) == shifted


@given(epsets(max_elem=40, max_period=12), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_unshift_is_canonical(a, t):
    # the members >= t moved down by t: those up to the threshold, and
    # each tail progression from its first member >= t; t past the
    # threshold leaves only tail members
    down = [n - t for n in enumerate_range(a, t, max(t, a.threshold))]
    blocks = [(s + max(0, -(-(t - s) // p)) * p - t, p) for s, p in epset._blocks(a)]
    assert unshift(a, t) == normalize(down, blocks)


@given(epsets(max_elem=40, max_period=12), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_unshift_inverts_shift(a, t):
    assert unshift(shift(a, t), t) == a


@given(epsets(max_elem=40, max_period=12), st.integers(0, 80))
@settings(max_examples=200, deadline=None)
def test_gaps_below_by_membership(a, hi):
    assert gaps_below(a, hi) == [n for n in range(hi) if not member(a, n)]


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


def random_strided_mask(rng: random.Random) -> int:
    """A union of 1-4 progressions of stride 1-9, with up to 5 stray
    members."""
    m = 0
    for _ in range(rng.randint(1, 4)):
        d, s = rng.randint(1, 9), rng.randrange(1500)
        for i in range(rng.randint(1, 150)):
            m |= 1 << s + i * d
    for _ in range(rng.randint(0, 5)):
        m |= 1 << rng.randrange(2500)
    return m


class TestMaskSum:
    def test_strided_runs(self):
        # runs of every stride, smeared once per run, against a shift per
        # member
        rng = random.Random(2357)
        for _ in range(3000):
            a = random_strided_mask(rng)
            b = random_strided_mask(rng) if rng.random() < 0.7 else rng.getrandbits(300)
            assert epset._mask_sum(a, b) == naive_mask_sum(a, b), (a, b)

    def test_odd_sum_smears_once(self, monkeypatch):
        # the odd numbers below 10000 are one run of stride 2: one smear,
        # not 4999 shifts
        odd = sum(1 << n for n in range(1, 10000, 2))
        calls = []
        repeat = epset._repeat
        monkeypatch.setattr(epset, "_repeat", lambda *a: calls.append(a) or repeat(*a))
        assert epset._mask_sum(odd, odd) == sum(1 << n for n in range(2, 19999, 2))
        assert len(calls) <= 2

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


def test_repeat_against_shift_loop():
    # patterns up to 3p bits wide overlap their neighbours, as in _mask_sum,
    # which repeats a whole operand at stride 1
    rng = random.Random(1931)
    for _ in range(2000):
        p = rng.choice([1, 2, 3, 7, 64, 200])
        k = rng.randint(1, 300)
        pattern = rng.getrandbits(rng.randint(1, 3 * p))
        want = 0
        for n in range(k):
            want |= pattern << n * p
        assert epset._repeat(pattern, p, k) == want, (pattern, p, k)


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
