"""Exact algebra of eventually periodic subsets of the naturals.

The central value type is EPSet: a canonical representation of a set of
naturals as a finite part together with a union of residue classes past a
threshold.  All operations are pure and return canonical values, so
structural equality decides set equality.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Tuple, Union


class SemanticError(Exception):
    """Input that spectre refuses: well formed, but outside the method's
    scope or ill posed.  Every other exception is an internal failure."""


@dataclass(frozen=True)
class EPSet:
    """Canonical eventually periodic subset of the naturals.

    Denotes finite_part ∪ {n >= threshold : n mod period in residues}.
    Finite sets carry no period/residues and threshold = max+1 (0 when
    empty).  Instances must be built through normalize(); direct
    construction bypasses canonicalization.
    """

    finite_part: Tuple[int, ...]
    threshold: int
    period: Optional[int] = None
    residues: Optional[Tuple[int, ...]] = None

    @property
    def is_empty(self) -> bool:
        return not self.finite_part and self.period is None

    def __repr__(self) -> str:
        return f"EPSet[{format_epset(self)}]"


@dataclass(frozen=True)
class PeriodicityParams:
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


def normalize(finite: Iterable[int], blocks: Iterable[Tuple[int, int]] = ()) -> EPSet:
    """Canonical EPSet denoting finite ∪ ⋃ (start_i + step_i·ℕ)."""
    fin = [int(n) for n in finite]
    if fin and min(fin) < 0:
        raise ValueError(f"negative element {min(fin)}")
    blocks = [(int(s), int(p)) for s, p in blocks]
    if not blocks:
        fp = tuple(n for n, _ in itertools.groupby(sorted(fin)))
        return EPSet(fp, fp[-1] + 1 if fp else 0)
    mem = bytearray(max(fin) + 1 if fin else 0)
    for n in fin:
        mem[n] = 1
    return _canonical(mem, blocks)


def _canonical(mem: bytearray, blocks: Iterable[Tuple[int, int]]) -> EPSet:
    """Canonical EPSet of the n with mem[n] == 1 together with at least one
    progression start + step·ℕ; extends mem in place."""
    best: dict[Tuple[int, int], int] = {}
    for s, p in blocks:
        if s < 0 or p <= 0:
            raise ValueError(f"bad progression ({s},{p})")
        key = (p, s % p)
        if key not in best or s < best[key]:
            best[key] = s
    blist = [(s, p) for (p, _), s in best.items()]

    big = 1
    for _, p in blist:
        big = big * p // math.gcd(big, p)
    start_m = max(max(s for s, _ in blist), len(mem))
    size = start_m + big
    mem.extend(bytes(size - len(mem)))
    for s, p in blist:
        mem[s::p] = b"\x01" * len(range(s, size, p))

    occupied = {
        (start_m + i) % big for i in itertools.compress(range(big), mem[start_m:])
    }
    period = big
    for d in _divisors(big):
        if all(((r + d) % big) in occupied for r in occupied):
            period = d
            break
    res = frozenset(r % period for r in occupied)

    # minimal point from which the residue pattern describes membership:
    # one past the last n below start_m with mem[n] != mem[n + period],
    # since from start_m on membership repeats with the period
    diff = int.from_bytes(mem[:start_m], "little") ^ int.from_bytes(
        mem[period : start_m + period], "little"
    )
    t0 = (diff.bit_length() + 7) // 8
    # advance to the first member of the periodic tail
    thr = t0
    while (thr % period) not in res:
        thr += 1
    fp = tuple(itertools.compress(range(thr), mem))
    return EPSet(fp, thr, period, tuple(sorted(res)))


_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _membership(m: int) -> bytes:
    """Byte n is 1 iff bit n of m >= 0 is set; linear in the length of m."""
    return format(m, "b").encode()[::-1].translate(_BIT_DIGITS)


def _bits(m: int) -> list[int]:
    """Positions of the set bits of m >= 0, ascending."""
    digits = _membership(m)
    return list(itertools.compress(range(len(digits)), digits))


def _mask(elems: Iterable[int], size: int) -> int:
    """The bitmask with bits elems set, all of them below size."""
    digits = bytearray(b"0") * size
    for n in elems:
        digits[n] = 49  # "1"
    return int(digits[::-1], 2)


def _positions(m: int, count: int) -> list[int]:
    """_bits(m) for an m with count set bits. _bits passes over every
    binary digit, so when fewer than about one digit in 16 is set, the
    set bits are isolated one at a time instead."""
    if 16 * count >= m.bit_length() + 64:
        return _bits(m)
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _smear(b: int, n: int) -> int:
    """b | b << 1 | ... | b << (n - 1), by doubling the covered shifts."""
    width = 1
    while 2 * width <= n:
        b |= b << width
        width *= 2
    return b | b << (n - width) if width < n else b


def _mask_sum(a: int, b: int) -> int:
    """The bitmask of {x + y : bit x of a and bit y of b set}.

    Shifts the denser operand once per member of the sparser one; or, when
    an operand is a few long runs of consecutive members, smears the other
    once per run. A run of length n costs about log2(n) doublings plus a
    placement shift and an OR, and the cheaper method is taken.
    """
    ca, cb = a.bit_count(), b.bit_count()
    if ca > cb:
        a, b, ca, cb = b, a, cb, ca
    if ca <= 1:  # empty or a single member
        return b << a.bit_length() - 1 if a else 0
    # bit set at each run start and one past each run end
    ta, tb = a ^ (a << 1), b ^ (b << 1)
    ra, rb = ta.bit_count() // 2, tb.bit_count() // 2
    sa = ra * ((ca // ra).bit_length() + 2)
    sb = rb * ((cb // rb).bit_length() + 2)
    out = 0
    if min(sa, sb) < ca:
        if sb < sa:
            a, b, ta, ra = b, a, tb, rb
        bounds = _positions(ta, 2 * ra)
        smears: dict[int, int] = {}
        for s, e in zip(bounds[0::2], bounds[1::2]):
            if e - s not in smears:
                smears[e - s] = _smear(b, e - s)
            out |= smears[e - s] << s
        return out
    for n in _positions(a, ca):
        out |= b << n
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
        fp = a.finite_part
        i = bisect_left(fp, n)
        return i < len(fp) and fp[i] == n
    if a.period is None:
        return False
    return (n % a.period) in a.residues


def enumerate_range(a: EPSet, lo: int, hi: int) -> list[int]:
    """All members of a in [lo, hi], sorted."""
    if lo > hi:
        raise ValueError("lo > hi")
    out = [n for n in a.finite_part if lo <= n <= hi]
    if a.period is not None:
        res = set(a.residues)
        start = max(lo, a.threshold)
        out.extend(n for n in range(start, hi + 1) if (n % a.period) in res)
    return out


def iter_members(a: EPSet) -> Iterator[int]:
    """Members in increasing order (infinite iterator for infinite sets)."""
    yield from a.finite_part
    if a.period is not None:
        res = set(a.residues)
        n = a.threshold
        while True:
            if (n % a.period) in res:
                yield n
            n += 1


def decompose(a: EPSet) -> Tuple[list[int], list[Tuple[int, int]]]:
    """Split into explicit elements and full arithmetic progressions."""
    fins = list(a.finite_part)
    blocks = []
    if a.period is not None:
        p = a.period
        for r in a.residues:
            start = a.threshold + ((r - a.threshold) % p)
            blocks.append((start, p))
    return fins, blocks


def shift(a: EPSet, t: int) -> EPSet:
    """a + t elementwise."""
    if a.is_empty or t == 0:
        return a
    fins, blocks = decompose(a)
    return normalize([n + t for n in fins], [(s + t, p) for s, p in blocks])


def union(a: EPSet, b: EPSet) -> EPSet:
    if a.is_empty or b.is_empty:
        return b if a.is_empty else a
    fa, ba = decompose(a)
    fb, bb = decompose(b)
    return normalize(fa + fb, ba + bb)


@lru_cache(maxsize=None)
def _pair_step_closure(p1: int, p2: int) -> EPSet:
    """p1·ℕ + p2·ℕ as an EPSet (a two-generator numerical semigroup)."""
    return _natstar(normalize((p1, p2)))


def _least_per_residue(fins: Tuple[int, ...], p: int) -> Iterable[int]:
    """The least member of each residue class mod p of a sorted tuple."""
    least: dict[int, int] = {}
    for x in fins:
        least.setdefault(x % p, x)
    return least.values()


def sumset(a: EPSet, b: EPSet) -> EPSet:
    """Elementwise sums {x+y}; empty if either side is empty."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if a == ZERO or b == ZERO:
        return b if a == ZERO else a
    fa, ba = decompose(a)
    fb, bb = decompose(b)
    # pairwise sums of the finite parts
    acc = _mask_sum(_mask(fa, fa[-1] + 1), _mask(fb, fb[-1] + 1)) if fa and fb else 0
    if not ba and not bb:
        fp = tuple(_bits(acc))
        return EPSet(fp, fp[-1] + 1)
    mem = bytearray(_membership(acc))
    # a finite member x adds x + s + p*N, which the least member of its
    # residue class mod p already contains
    blocks = [(x + s, p) for s, p in bb for x in _least_per_residue(fa, p)]
    blocks += [(y + s, p) for s, p in ba for y in _least_per_residue(fb, p)]
    for s1, p1 in ba:
        for s2, p2 in bb:
            clo = _pair_step_closure(p1, p2)
            cf, cb = decompose(clo)
            off = s1 + s2
            if cf:
                mem.extend(bytes(max(0, cf[-1] + off + 1 - len(mem))))
                for c in cf:
                    mem[c + off] = 1
            blocks.extend((s + off, p) for s, p in cb)
    return _canonical(mem, blocks)


def nstar(n: int, b: EPSet) -> EPSet:
    """n-fold sumset b + ... + b, with 0-fold = {0}."""
    if n < 0:
        raise ValueError("negative repeat count")
    result = ZERO
    power = b
    while n:
        if n & 1:
            result = sumset(result, power)
        n >>= 1
        if n:
            power = sumset(power, power)
    return result


def has_positive(a: EPSet) -> bool:
    return any(n > 0 for n in a.finite_part) or a.period is not None


def gcd_of(a: EPSet) -> int:
    """gcd of all elements (0 for the empty set)."""
    g = 0
    for n in a.finite_part:
        g = math.gcd(g, n)
    if a.period is not None:
        _, blocks = decompose(a)
        for s, p in blocks:
            g = math.gcd(g, math.gcd(s, p))
    return g


@lru_cache(maxsize=4096)
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
    n1 = next(x for x in iter_members(b) if x > 0) // g
    if b.period is None:
        nk = b.finite_part[-1] // g
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
        gens = sorted(
            {
                x // g
                for x in itertools.takewhile(
                    lambda m: m <= limit * g, iter_members(b)
                )
                if x > 0
            }
        )
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
            mem = bytearray(cond * g)
            mem[::g] = _membership(reach)[:cond]
            return _canonical(mem, [(cond * g, g)])
        limit *= 2


def nat_closure(b: EPSet) -> EPSet:
    """ℕ⋆b: all finite sums of elements of b (with the empty sum 0)."""
    if not has_positive(b):
        raise SemanticError("closure argument has no positive element")
    return _natstar(b)


def star(a: EPSet, b: EPSet) -> EPSet:
    """⋃_{x in a} x-fold sumset of b."""
    if a.is_empty:
        return EMPTY
    if b.is_empty:
        return ZERO if member(a, 0) else EMPTY
    fins, blocks = decompose(a)
    acc = EMPTY
    for x in fins:
        acc = union(acc, nstar(x, b))
    for s, r in blocks:
        piece = sumset(nstar(s, b), _natstar(nstar(r, b)))
        acc = union(acc, piece)
    return acc


def is_subset(a: EPSet, b: EPSet) -> bool:
    return union(a, b) == b


def params(a: EPSet) -> PeriodicityParams:
    """The periodicity parameters (m, q, p, c) of a."""
    if a.is_empty:
        return PeriodicityParams(math.inf, 0, 0, 0)
    m = a.finite_part[0] if a.finite_part else a.threshold
    q = 0
    for n in a.finite_part:
        q = math.gcd(q, n - m)
    fins, blocks = decompose(a)
    for s, p in blocks:
        q = math.gcd(q, math.gcd(s - m, p))
    if a.period is None:
        return PeriodicityParams(m, q, 0, a.finite_part[-1] + 1)
    # c is the least member x such that every member >= x stays in a when
    # the period is added; past the threshold that holds by periodicity
    c = a.threshold
    for x in reversed(a.finite_part):
        if not member(a, x + a.period):
            break
        c = x
    return PeriodicityParams(m, q, a.period, c)


def format_epset(a: EPSet) -> str:
    """Canonical textual form, e.g. '{1,2} | 4+3*N'."""
    if a.is_empty:
        return "{}"
    parts = []
    if a.finite_part:
        parts.append("{" + ",".join(str(n) for n in a.finite_part) + "}")
    _, blocks = decompose(a)
    for s, p in sorted(blocks):
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


@dataclass(frozen=True)
class EnumeratedSet:
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
    return j.finite_part[0] if j.finite_part else j.threshold


def index_member(j: IndexSet, n: int) -> bool:
    return n in j.members_upto(n) if isinstance(j, EnumeratedSet) else member(j, n)


def index_reaches(j: IndexSet, n: int) -> bool:
    """True iff the index set has a member >= n."""
    if isinstance(j, EnumeratedSet) or j.period is not None:
        return True
    return bool(j.finite_part) and j.finite_part[-1] >= n


def index_parts(j: IndexSet, hi: int) -> Tuple[list[int], list[Tuple[int, int]]]:
    """The members up to hi outside the progressions of an index set, and
    its progressions (start, step); an enumerated set has none."""
    if isinstance(j, EnumeratedSet):
        return j.members_upto(hi), []
    fins, blocks = decompose(j)
    return fins[: bisect_right(fins, hi)], blocks


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
