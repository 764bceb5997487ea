"""Exact algebra of eventually periodic subsets of the naturals.

The central value type is EPSet: a canonical representation of a set of
naturals as a finite part together with a union of residue classes past a
threshold, both kept as integer bitmasks.  All operations are pure and
return canonical values, so structural equality decides set equality.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Tuple, Union


class SemanticError(Exception):
    """Input that spectre refuses: well formed, but outside the method's
    scope or ill posed.  Every other exception is an internal failure."""


# Every member, progression start and period read from input, and the
# conductor bound of every closure that frobenius builds, must lie below
# SIZE_BOUND. An EPSet stores threshold + period bits, so a larger number
# has no cheap answer: a member of 10^15 asks for 125 terabytes.
SIZE_BOUND = 10**8


def bounded(n: int, what: str) -> int:
    """n, when it lies below SIZE_BOUND; what names it in the refusal."""
    if n >= SIZE_BOUND:
        raise SemanticError(f"{what} {n} is not below the size bound {SIZE_BOUND}")
    return n


class _Value:
    """Base of the package's value classes.  The fields are the names
    annotated in the class body, in order (_fields), and their values are
    kept as one tuple (_values): instances of one class are equal, and hash
    equal, when their values are.  The base __init__ takes the fields
    positionally; a class that checks its fields does so before calling it.
    Nothing assigns a field after construction."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        self._values = values
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"


class EPSet:
    """Canonical eventually periodic subset of the naturals.

    Denotes {n < threshold : bit n of low} ∪ {n >= threshold : bit
    (n mod period) of res}.  The threshold is the first member of the
    periodic tail, and period is the tail's least period.  Finite sets
    have period None, res 0 and threshold max+1 (0 when empty).
    Instances must be built through normalize() or the operations below;
    direct construction bypasses canonicalization.

    finite_part (the members below the threshold) is a sorted tuple,
    built from low on first read and kept.  The algebra reads only the
    masks.  Nothing assigns a field after construction, so the hash is
    computed once, on first use.
    """

    def __init__(self, low: int, threshold: int, period: Optional[int] = None, res: int = 0):
        self.low, self.threshold, self.period, self.res = low, threshold, period, res

    def __eq__(self, other):
        if other.__class__ is not EPSet:
            return NotImplemented
        return (self.low == other.low and self.threshold == other.threshold
                and self.period == other.period and self.res == other.res)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.low, self.threshold, self.period, self.res))
            return self._hash

    @cached_property
    def finite_part(self) -> Tuple[int, ...]:
        return tuple(_bits(self.low))

    @property
    def is_empty(self) -> bool:
        return not self.low and self.period is None

    def __repr__(self) -> str:
        return f"EPSet[{format_epset(self)}]"


class PeriodicityParams(_Value):
    """The four periodicity parameters of an eventually periodic set.

    m: minimum element (math.inf for the empty set)
    q: gcd of the set shifted down by its minimum (gcd of empty = 0)
    p: minimal eventual period (0 for finite sets)
    c: least member from which p is a period of the tail (max+1 for
       finite sets, 0 for the empty set)
    """

    m: Union[int, float]
    q: int
    p: int
    c: int


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(m: int) -> list[int]:
    """Positions of the set bits of m >= 0, ascending. A pass over every
    binary digit, linear in the length of m; but when fewer than about one
    digit in 16 is set, the set bits are isolated one at a time instead."""
    if 16 * m.bit_count() < m.bit_length() + 64:
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out
    digits = format(m, "b").encode()[::-1].translate(_BIT_DIGITS)
    return list(itertools.compress(range(len(digits)), digits))


def _lowest(m: int) -> int:
    """Position of the lowest set bit of m > 0."""
    return (m & -m).bit_length() - 1


def _mask(elems: Iterable[int], size: int) -> int:
    """The bitmask with bits elems set, all of them below size."""
    digits = bytearray(b"0") * size
    for n in elems:
        digits[n] = 49  # "1"
    return int(digits[::-1], 2)


def _rotate(m: int, t: int, p: int) -> int:
    """The p-bit mask m rotated up by t: bit r moves to bit (r + t) mod p."""
    t %= p
    return (m << t | m >> p - t) & ((1 << p) - 1)


def _repeat(pattern: int, p: int, k: int) -> int:
    """pattern | pattern << p | ... | pattern << (k - 1)·p for k >= 1, by
    doubling the copies while they fit, then one shift that overlaps them:
    about log2(k) shifts.  The pattern may be wider than p bits."""
    width = 1
    while 2 * width <= k:
        pattern |= pattern << width * p
        width *= 2
    return pattern | pattern << (k - width) * p if width < k else pattern


def _tail(a: EPSet) -> Tuple[int, int, int]:
    """The tail of an infinite a as (start, period, pattern): bit i of the
    pattern is set iff start + i + k·period is a member for every k."""
    return a.threshold, a.period, _rotate(a.res, -a.threshold, a.period)


def _blocks(a: EPSet) -> list[Tuple[int, int]]:
    """The tail of a as progressions (start, period), one per residue."""
    if a.period is None:
        return []
    t, p = a.threshold, a.period
    return [(t + (r - t) % p, p) for r in _bits(a.res)]


def _upto(a: EPSet, hi: int) -> int:
    """The bitmask of the members of a up to hi."""
    if hi < 0:
        return 0
    m = a.low
    if a.period is not None and hi >= a.threshold:
        s, p, pattern = _tail(a)
        m |= _repeat(pattern, p, (hi - s) // p + 1) << s
    return m & ((1 << hi + 1) - 1)


def normalize(finite: Iterable[int], blocks: Iterable[Tuple[int, int]] = ()) -> EPSet:
    """Canonical EPSet denoting finite ∪ ⋃ (start_i + step_i·ℕ)."""
    fin = [int(n) for n in finite]
    if fin and min(fin) < 0:
        raise ValueError(f"negative element {min(fin)}")
    mask = _mask(fin, max(fin) + 1) if fin else 0
    tails = []
    for s, p in blocks:
        s, p = int(s), int(p)
        if s < 0 or p <= 0:
            raise ValueError(f"bad progression ({s},{p})")
        tails.append((s, p, 1))
    return _canonical(mask, tails) if tails else EPSet(mask, mask.bit_length())


def _canonical(mask: int, tails: Iterable[Tuple[int, int, int]]) -> EPSet:
    """Canonical EPSet of the members of mask together with at least one
    periodic tail (start, period, pattern), as _tail gives them."""
    best: dict[Tuple[int, int], Tuple[int, int]] = {}
    for s, p, pattern in tails:
        key = (p, _rotate(pattern, s, p))  # the residues mod p
        if key not in best or s < best[key][0]:
            best[key] = (s, pattern)
    big = 1
    for p, _ in best:
        big = big * p // math.gcd(big, p)
    if big == 1:
        # one tail, of period 1 from s: its threshold is the start of the
        # run of members of mask that ends at s
        ((s, _),) = best.values()
        thr = (~mask & ((1 << s) - 1)).bit_length()
        return EPSet(mask & ((1 << thr) - 1), thr, 1, 1)
    start = max(max(s for s, _ in best.values()), mask.bit_length())
    size = start + big
    for (p, _), (s, pattern) in best.items():
        mask |= _repeat(pattern, p, -(-(size - s) // p)) << s

    # from start on, membership repeats with big; the period is the least
    # rotation that leaves one window of it unchanged
    window = mask >> start & ((1 << big) - 1)
    period = next(d for d in _divisors(big) if _rotate(window, d, big) == window)
    res = _rotate(window & ((1 << period) - 1), start, period)
    # one past the last n below start with membership unlike n + period's,
    # then up to the first member of the periodic tail
    t0 = ((mask ^ mask >> period) & ((1 << start) - 1)).bit_length()
    thr = t0 + _lowest(_rotate(res, -t0, period))
    return EPSet(mask & ((1 << thr) - 1), thr, period, res)


_STRIDES = range(1, 7)  # the run strides tried on an operand of 16 members or more


def _mask_sum(a: int, b: int) -> int:
    """The bitmask of {x + y : bit x of a and bit y of b set}; sumset
    passes it the stored masks of two finite parts.

    Shifts the denser operand once per member of the sparser one; or, when
    an operand is a few long runs s, s + d, ..., s + (n - 1)·d of some
    stride d, smears the other once per run. A run costs about log2(n)
    doublings plus a placement shift and an OR, and the cheapest method is
    taken. Strides past 1 are tried only on operands of 16 members or more.
    """
    ca, cb = a.bit_count(), b.bit_count()
    if ca > cb:
        a, b, ca, cb = b, a, cb, ca
    if ca <= 1:  # empty or a single member
        return b << a.bit_length() - 1 if a else 0
    cost, runs = ca, None
    for x, y, c in ((a, b, ca), (b, a, cb)):
        for d in _STRIDES if c >= 16 else (1,):
            # in every class mod d, a bit set at each run start and one
            # stride past each run end
            t = x ^ x << d
            r = t.bit_count() // 2
            smear = r * ((c // r).bit_length() + 2)
            if smear < cost:
                cost, runs = smear, (y, t, r, d)
    out = 0
    if runs is None:
        for n in _bits(a):
            out |= b << n
        return out
    y, t, r, d = runs
    starts: dict[int, int] = {}  # the open run of each class mod d
    smears: dict[int, int] = {}
    for e in _bits(t):
        s = starts.pop(e % d, None)
        if s is None:
            starts[e % d] = e
            continue
        n = (e - s) // d
        if n not in smears:
            smears[n] = _repeat(y, d, n)
        out |= smears[n] << s
    return out


EMPTY = normalize(())
ZERO = normalize((0,))
NAT = normalize((), [(0, 1)])
POS = normalize((), [(1, 1)])
EVEN = normalize((), [(0, 2)])
POS_EVEN = normalize((), [(2, 2)])
ODD = normalize((), [(1, 2)])

BUILTIN_SETS = {
    "N": NAT,
    "P": POS,
    "Even": EVEN,
    "PosEven": POS_EVEN,
    "Odd": ODD,
}


def singleton(n: int) -> EPSet:
    return normalize((n,))


def member(a: EPSet, n: int) -> bool:
    """Membership test."""
    if n < 0:
        return False
    if n < a.threshold:
        return bool(a.low >> n & 1)
    return a.period is not None and bool(a.res >> n % a.period & 1)


def enumerate_range(a: EPSet, lo: int, hi: int) -> list[int]:
    """All members of a in [lo, hi], sorted."""
    if lo > hi:
        raise ValueError("lo > hi")
    lo = max(lo, 0)
    return [n + lo for n in _bits(_upto(a, hi) >> lo)]


def gaps_below(a: EPSet, hi: int) -> list[int]:
    """The non-members of a below hi, sorted."""
    return _bits(~_upto(a, hi - 1) & ((1 << hi) - 1))


def shift(a: EPSet, t: int) -> EPSet:
    """a + t elementwise. Shifting keeps a canonical form canonical: the
    finite part and the threshold move by t, and the residues rotate."""
    if a.is_empty or t == 0:
        return a
    if a.period is None:
        return EPSet(a.low << t, a.threshold + t)
    return EPSet(a.low << t, a.threshold + t, a.period, _rotate(a.res, t, a.period))


def unshift(a: EPSet, t: int) -> EPSet:
    """{x - t : x in a, x >= t}, the inverse of shift(., t).

    Unshifting keeps a canonical form canonical. The finite mask moves
    down by t and the residues rotate back by t, which keeps their least
    period. No member below the old threshold joins the tail, and dropping
    the members below t moves the start of periodicity down by t, or to 0
    when it lies below t. So while t is at most the threshold, the
    threshold moves down by t too. Past it, every member left lies in the
    tail, and the threshold is the least of them.
    """
    if t == 0:
        return a
    if a.period is None:
        low = a.low >> t
        return EPSet(low, low.bit_length())
    res = _rotate(a.res, -t, a.period)
    if a.threshold >= t:
        return EPSet(a.low >> t, a.threshold - t, a.period, res)
    return EPSet(0, _lowest(res), a.period, res)


def union(*sets: EPSet) -> EPSet:
    """The union of any number of sets: their finite masks ORed, their
    tails joined in one canonical form."""
    sets = [s for s in sets if not s.is_empty]
    if len(sets) <= 1:
        return sets[0] if sets else EMPTY
    low = 0
    for s in sets:
        low |= s.low
    tails = [_tail(s) for s in sets if s.period is not None]
    return _canonical(low, tails) if tails else EPSet(low, low.bit_length())


@lru_cache(maxsize=None)
def _pair_step_closure(p1: int, p2: int) -> EPSet:
    """p1·ℕ + p2·ℕ as an EPSet (a two-generator numerical semigroup)."""
    return _natstar(normalize((p1, p2)))


def _least_per_residue(m: int, p: int) -> list[int]:
    """The least set bit of m in each residue class mod p."""
    least: dict[int, int] = {}
    while m and len(least) < p:
        x = _lowest(m)
        least.setdefault(x % p, x)
        m &= m - 1
    return list(least.values())


def sumset(a: EPSet, b: EPSet) -> EPSet:
    """Elementwise sums {x+y}; empty if either side is empty."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if a.period is None and not a.low & (a.low - 1):
        return shift(b, a.threshold - 1)
    if b.period is None and not b.low & (b.low - 1):
        return shift(a, b.threshold - 1)
    # pairwise sums of the finite parts
    acc = _mask_sum(a.low, b.low)
    if a.period is None and b.period is None:
        return EPSet(acc, acc.bit_length())
    # a finite member x adds x + the other set's tail, which the least
    # member of its residue class mod that tail's period already adds
    tails, starts = [], []
    for x, y in ((a, b), (b, a)):
        if y.period is not None:
            s, p, pattern = _tail(y)
            tails += [(s + n, p, pattern) for n in _least_per_residue(x.low, p)]
            starts.append(pattern << s)
    if len(starts) == 2:
        # the progressions s1 + p1·ℕ and s2 + p2·ℕ of the two tails, which
        # start in each tail's first period, add up to s1 + s2 + (p1·ℕ + p2·ℕ)
        clo = _pair_step_closure(a.period, b.period)
        offsets = _mask_sum(*starts)
        acc |= _mask_sum(offsets, clo.low)
        s, p, pattern = _tail(clo)
        tails += [(s + off, p, pattern) for off in _least_per_residue(offsets, p)]
    return _canonical(acc, tails)


def _power(table: dict, n: int, b: EPSet) -> EPSet:
    """n·b, the n-fold sum b + ... + b with 0·b = {0}, kept in table under
    (n, b). It is built from ⌊n/2⌋·b and ⌈n/2⌉·b, which are equal or
    consecutive, so each power in a table costs one sumset, and a new n
    adds at most two powers per halving."""
    if n <= 1:
        return b if n else ZERO
    key = (n, b)
    power = table.get(key)
    if power is None:
        power = table[key] = sumset(_power(table, n >> 1, b), _power(table, n - (n >> 1), b))
    return power


def nstar(n: int, b: EPSet) -> EPSet:
    """n-fold sumset b + ... + b, with 0-fold = {0}."""
    if n < 0:
        raise ValueError("negative repeat count")
    return _power({}, n, b)


def has_positive(a: EPSet) -> bool:
    return a.period is not None or a.low > 1


def gcd_of(a: EPSet) -> int:
    """gcd of all elements (0 for the empty set)."""
    return math.gcd(*_bits(a.low), *itertools.chain(*_blocks(a)))


def _scale(m: int, g: int) -> int:
    """The bitmask with bit g·x set for each set bit x of m."""
    if g == 1:
        return m
    return int(("0" * (g - 1)).join(format(m, "b")), 2)


def _natstar(b: EPSet) -> EPSet:
    """ℕ⋆b without preconditions: {0} for empty or zero-only arguments.

    Computed by an exact reachability bitmask over the gcd-reduced scale.
    The window grows until the top of the window carries a certified run
    of consecutive members: for finite generators, a run of n1 values
    (n1 the least reduced generator, so adding n1·g covers everything
    later); for infinite arguments, a run long enough that a nearby
    large member can be subtracted from any later value.
    """
    if not has_positive(b):
        return ZERO
    g = gcd_of(b)
    n1 = _lowest(_upto(b, b.threshold + (b.period or 0)) & ~1) // g
    if b.period is None:
        nk = (b.threshold - 1) // g
        run_needed = n1
        limit = 2 * max(n1, nk) + 2
    else:
        # infinite argument: members beyond the threshold recur with gaps
        # at most delta, so a covered stretch of tstart + delta values
        # certifies every later value (subtract a nearby large member)
        tail = [
            x // g
            for x in enumerate_range(b, b.threshold, b.threshold + 2 * b.period)
        ]
        delta = max((y - x for x, y in zip(tail, tail[1:])), default=1)
        run_needed = tail[0] + delta + 1
        limit = 2 * max(n1, run_needed) + 2
    while True:
        gens = [x // g for x in _bits(_upto(b, limit * g) & ~1)]
        mask = (1 << (limit + 1)) - 1
        reach = 1
        for x in gens:
            if (reach >> x) & 1:
                continue  # already a sum of smaller members
            # close under adding any multiple of x by doubling shifts
            s = x
            while s <= limit:
                reach |= (reach << s) & mask
                s *= 2
        zeros = ~reach & mask
        cond = zeros.bit_length()  # one past the largest non-member
        if limit + 1 - cond >= n1:
            below = _scale(reach & ((1 << cond) - 1), g)
            return _canonical(below, [(cond * g, g, 1)])
        limit *= 2


def conductor_bound(gens: Sequence[int]) -> int:
    """An upper bound on the conductor of the closure of positive gens,
    without building it. With g their gcd and a < b two of the gens
    divided by g, it is g·(a - 1)(b - 1): for the least and the largest
    (Schur's bound; Brauer, Amer. J. Math. 64, 1942), or for any coprime
    pair (Sylvester, 1884), whichever is least."""
    g = math.gcd(*gens)
    a = sorted({x // g for x in gens})
    pairs = [(x, y) for x, y in itertools.combinations(a, 2) if math.gcd(x, y) == 1]
    return g * min((x - 1) * (y - 1) for x, y in [(a[0], a[-1])] + pairs)


def nat_closure(b: EPSet) -> EPSet:
    """ℕ⋆b: all finite sums of elements of b (with the empty sum 0)."""
    if not has_positive(b):
        raise SemanticError("closure argument has no positive element")
    return _natstar(b)


def _closure(table: dict, b: EPSet) -> EPSet:
    """ℕ⋆b, kept in table under (NAT, b): it is star(NAT, b)."""
    key = (NAT, b)
    closure = table.get(key)
    if closure is None:
        closure = table[key] = _natstar(b)
    return closure


def star(a: EPSet, b: EPSet, table: Optional[dict] = None) -> EPSet:
    """⋃_{x in a} x-fold sumset of b. The n-fold sums and closures of b
    are read from table and kept there (see _power and _closure); a fresh
    table by default."""
    if a.is_empty:
        return EMPTY
    if b.is_empty:
        return ZERO if member(a, 0) else EMPTY
    if table is None:
        table = {}
    parts = [_power(table, x, b) for x in _bits(a.low)]
    for s, r in _blocks(a):
        parts.append(sumset(_power(table, s, b), _closure(table, _power(table, r, b))))
    return union(*parts)


def is_subset(a: EPSet, b: EPSet) -> bool:
    return union(a, b) == b


def params(a: EPSet) -> PeriodicityParams:
    """The periodicity parameters (m, q, p, c) of a."""
    if a.is_empty:
        return PeriodicityParams(math.inf, 0, 0, 0)
    m = _lowest(a.low) if a.low else a.threshold
    # q divides each member less m; one off the multiples of q at least halves q
    rest = a.low >> m & ~1
    q = _lowest(rest) if rest else 0
    while q > 1 and (off := rest & ~_repeat(1, q, rest.bit_length() // q + 1)):
        q = math.gcd(q, _lowest(off))
    for s, p in _blocks(a):
        q = math.gcd(q, s - m, p)
    if a.period is None:
        return PeriodicityParams(m, q, 0, a.threshold)
    # c is the least member x such that every member >= x stays in a when
    # the period is added; past the threshold that holds by periodicity,
    # and below it the members that leave are these
    leave = a.low & ~(_upto(a, a.threshold + a.period) >> a.period)
    top = leave.bit_length()
    c = _lowest((a.low | 1 << a.threshold) >> top << top)
    return PeriodicityParams(m, q, a.period, c)


def format_epset(a: EPSet) -> str:
    """Canonical textual form, e.g. '{1,2} | 4+3*N'."""
    if a.is_empty:
        return "{}"
    parts = []
    if a.finite_part:
        parts.append("{" + ",".join(map(str, a.finite_part)) + "}")
    for s, p in sorted(_blocks(a)):
        parts.append(f"{s}+{p}*N")
    return " | ".join(parts)


_PRIMES = [2, 3]


def _primes(hi: int) -> list[int]:
    """The primes found so far, first grown by trial division until they
    pass hi; one list serves the whole process."""
    known, n = _PRIMES, _PRIMES[-1]
    while known[-1] <= hi:
        n += 2
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, known)):
            known.append(n)
    return known


_GENERATORS = {"Primes": _primes}


class EnumeratedSet(_Value):
    """A strictly increasing set of naturals known only by enumeration.

    Used for index sets (like the primes) that are not eventually
    periodic.  The solver brackets them between two eventually periodic
    index sets.
    """

    name: str

    def members_upto(self, hi: int) -> list[int]:
        """The members in [0, hi]."""
        known = _GENERATORS[self.name](hi)
        return known[: bisect_right(known, hi)]

    def first(self) -> int:
        return _GENERATORS[self.name](0)[0]

    def __repr__(self) -> str:
        return f"EnumeratedSet({self.name})"


IndexSet = Union[EPSet, EnumeratedSet]

ENUMERATED_SETS = {"Primes": EnumeratedSet("Primes")}


def index_members(j: IndexSet, hi: int) -> list[int]:
    """All members of an index set in [0, hi], sorted."""
    if isinstance(j, EnumeratedSet):
        return j.members_upto(hi)
    return enumerate_range(j, 0, hi)


def index_min(j: IndexSet) -> Union[int, float]:
    """The least member of an index set, math.inf when it is empty."""
    if isinstance(j, EnumeratedSet):
        return j.first()
    if j.is_empty:
        return math.inf
    return _lowest(j.low) if j.low else j.threshold


def index_member(j: IndexSet, n: int) -> bool:
    return n in j.members_upto(n) if isinstance(j, EnumeratedSet) else member(j, n)


def index_down(j: IndexSet) -> EPSet:
    """[0, max j] for a finite non-empty index set j, else ℕ."""
    if isinstance(j, EnumeratedSet) or j.period is not None:
        return NAT
    return EPSet((1 << j.threshold) - 1, j.threshold)  # canonical: no gap below max + 1


def index_reaches(j: IndexSet, n: int) -> bool:
    """True iff the index set has a member >= n."""
    if isinstance(j, EnumeratedSet) or j.period is not None:
        return True
    return j.low.bit_length() > n


def index_parts(j: IndexSet, hi: int) -> Tuple[list[int], list[Tuple[int, int]]]:
    """The members up to hi outside the progressions of an index set, and
    its progressions (start, step); an enumerated set has none."""
    if isinstance(j, EnumeratedSet):
        return j.members_upto(hi), []
    return _bits(j.low & ((1 << max(hi + 1, 0)) - 1)), _blocks(j)


def index_q(j: IndexSet) -> int:
    """The gcd of an index set shifted down by its minimum. An enumerated
    set's gcd divides the difference of its first two members, so it is
    proven only when they are consecutive (2 and 3 for the primes)."""
    if isinstance(j, EPSet):
        return params(j).q
    low = j.first()
    if j.members_upto(low + 1) != [low, low + 1]:
        raise AssertionError(f"gcd of {j.name} is not proven to be 1")
    return 1
