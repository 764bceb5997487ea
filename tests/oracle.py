"""Brute-force reference implementations, used only by the tests.

The brute-force references work on plain membership lists / integer sets
with direct double loops, sharing no code with the exact engines, and so
does the bitmask Kleene iteration, which shifts one integer mask per
member.  The exact reference answers are built on the engines instead,
for experiments that drive them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from spectre import compile as compile_mod
from spectre import epset, pseries, setsys
from spectre.epset import EMPTY, SemanticError, index_member, index_parts, member, sumset
from spectre.pseries import (
    Add,
    Const,
    Construct,
    Mul,
    Pow,
    PSSystem,
    SysExpr,
    Var,
    X,
    neumann_check,
)

BoolVec = list  # membership array on [0, H]


def vec_of(members, h: int) -> BoolVec:
    v = [False] * (h + 1)
    for n in members:
        if 0 <= n <= h:
            v[n] = True
    return v


def vec_members(v: BoolVec) -> set[int]:
    return {n for n, b in enumerate(v) if b}


def _ind(v: BoolVec) -> np.ndarray:
    return np.asarray(v, dtype=bool)


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indicator of the elementwise sumset, truncated to len(a)."""
    return np.convolve(a.astype(np.int64), b.astype(np.int64))[: len(a)] > 0


def _nstar_ind(n: int, b: np.ndarray) -> np.ndarray:
    acc = np.zeros(len(b), dtype=bool)
    acc[0] = True
    for _ in range(n):
        acc = _conv(acc, b)
    return acc


def _star_ind(a_members, b: np.ndarray) -> np.ndarray:
    out = np.zeros(len(b), dtype=bool)
    power = np.zeros(len(b), dtype=bool)
    power[0] = True
    cur = 0
    h = len(b) - 1
    for n in sorted(a_members):
        if n > h:
            break
        for _ in range(n - cur):
            power = _conv(power, b)
        cur = n
        out |= power
    return out


def brute_set_op(op: str, a, b, h: int) -> BoolVec:
    """Direct evaluation of a set operation, truncated to [0, h].

    `a` and `b` are membership arrays; for nstar, `a` is the integer
    repeat count instead.
    """
    bv = _ind(b) if b is not None else np.zeros(h + 1, dtype=bool)
    if op == "union":
        return list(_ind(a) | bv)
    if op == "sum":
        return list(_conv(_ind(a), bv))
    if op == "nstar":
        return list(_nstar_ind(a, bv))
    if op == "star":
        return list(_star_ind(vec_members(a), bv))
    if op == "natstar":
        v = bv.copy()
        v[0] = True
        while True:
            nxt = v | _conv(v, v)
            if (nxt == v).all():
                return list(v)
            v = nxt
    raise ValueError(op)


def brute_fixpoint(system, h: int) -> list[BoolVec]:
    """Kleene iteration of a set-equation system on [0, h] by naive
    term expansion."""
    k = system.k
    vals = [np.zeros(h + 1, dtype=bool) for _ in range(k)]
    while True:
        nxt = []
        for eq in system.equations:
            acc = np.zeros(h + 1, dtype=bool)
            for t in eq:
                piece = np.zeros(h + 1, dtype=bool)
                for n in _epset_members(t.base, h):
                    piece[n] = True
                for j, e in t.factors:
                    if not piece.any():
                        break
                    idx = _index_set_members(e, h)
                    if vals[j][0] and _reaches_past(e, h):
                        idx.add(h)  # e*Y up to h rises with e, and stops at h
                    piece = _conv(piece, _star_ind(idx, vals[j]))
                acc |= piece
            nxt.append(acc)
        if all((x == y).all() for x, y in zip(nxt, vals)):
            return [list(v) for v in vals]
        vals = nxt


# ---------------------------------------------------------------------------
# truncated Kleene iteration on bitmask membership arrays


def _mask_sum(a: int, b: int, full: int) -> int:
    """One shift of b per member of a, cut to full."""
    out = 0
    while a:
        low = a & -a
        out |= b << low.bit_length() - 1
        a ^= low
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


def _mask_natstar(b: int, full: int) -> int:
    """All finite sums of members of b, by doubling the number of summands."""
    acc = b | 1
    while True:
        nxt = _mask_sum(acc, acc, full)
        if nxt == acc:
            return acc
        acc = nxt


def _mask_star(e, y: int, h: int, full: int) -> int:
    """e * y: finite and enumerated members of e by an incremental walk,
    each block s + p*N in closed form as s-fold(y) + N*(p-fold(y))."""
    if y == 0:
        return 1 if index_member(e, 0) else 0
    # members past h add nothing to a y without 0; with 0 in y, e*y up to h
    # rises with e, and stops at h
    fins, blocks = index_parts(e, h)
    if y & 1 and _reaches_past(e, h):
        fins = fins + [h]
    out, cur, prev = 0, 1, 0
    for x in fins:
        cur = _mask_sum(cur, _mask_nstar(x - prev, y, full), full)
        prev = x
        if cur == 0:
            break
        out |= cur
    for s, p in blocks:
        tail = _mask_natstar(_mask_nstar(p, y, full), full)
        out |= _mask_sum(_mask_nstar(s, y, full), tail, full)
    return out


def _kleene(system, h: int, seed) -> list[int]:
    """Fixed point of the truncation of Gamma to [0, h], iterated from the
    bitmask vector seed."""
    full = (1 << (h + 1)) - 1
    vec = list(seed)
    terms = [
        [(sum(1 << n for n in _epset_members(t.base, h)), t.factors) for t in eq]
        for eq in system.equations
    ]
    rounds = 0
    limit = h * system.k + system.k + 2
    while True:
        new = []
        for eq in terms:
            acc = 0
            for v, factors in eq:
                if any(vec[j] == 0 and not index_member(e, 0) for j, e in factors):
                    continue  # a factor is still empty
                for j, e in factors:
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


def solve_seeded(system, h: int, seed_sets) -> list[set[int]]:
    """The truncations on [0, h] that a bitmask Kleene iteration reaches
    from an arbitrary positive-set seed vector (for uniqueness
    experiments)."""
    seed = [sum(1 << n for n in _epset_members(s, h) if n) for s in seed_sets]
    masks = _kleene(system, h, seed)
    return [{n for n in range(h + 1) if m >> n & 1} for m in masks]


# ---------------------------------------------------------------------------
# reference answers and checks built on the engines


def linear_closed_form(g0, g1):
    """Solution of Y = G0 | (G1 + Y): G0 plus the closure of G1."""
    if g1.is_empty or g0.is_empty:
        return g0
    return sumset(g0, epset._natstar(g1))


def nonuniqueness_probe(system, candidates) -> list[bool]:
    """Which candidate vectors satisfy Y = Gamma(Y) exactly."""
    out = []
    for cand in candidates:
        image = setsys.gamma_eval(system, list(cand))
        out.append(all(image[i] == cand[i] for i in range(system.k)))
    return out


@dataclass(frozen=True)
class EquivReport:
    ok: bool
    first_mismatch: Optional[Tuple[str, int]]
    degree: int


def spectral_equivalence_check(system: PSSystem, n: int) -> EquivReport:
    """Spectrum of the series solution vs. the set-system solution on [0,n]."""
    series_sol = pseries.fixed_point_solve(system, n)
    supports = [{i for i, c in enumerate(s.coeffs) if c} for s in series_sol]
    set_sol = setsys.solve(compile_mod.compile_system(system).system, horizon=n)
    for v, support in zip(set_sol.variables, supports):  # compile's hidden variables come last
        set_support = {d for d in range(n + 1) if member(v.closed_form, d)}
        if set_support != support:
            diff = sorted(set_support ^ support)
            return EquivReport(False, (v.name, diff[0]), n)
    return EquivReport(True, None, n)


def symbolic_iterate(system, n: int) -> list[list]:
    """The iterates Gamma^(1)(emptyset) .. Gamma^(n)(emptyset) as EPSets,
    by the solver's gamma_eval (which refuses enumerated index sets)."""
    vec = [EMPTY] * system.k
    out = []
    for _ in range(n):
        vec = setsys.gamma_eval(system, vec)
        out.append(vec)
    return out


def _epset_members(s, h: int) -> set[int]:
    out = set(n for n in s.finite_part if n <= h)
    if s.period is not None:
        out |= {n for n in range(s.threshold, h + 1) if s.res >> (n % s.period) & 1}
    return out


def _reaches_past(e, h: int) -> bool:
    """True iff the index set e has a member past h."""
    if hasattr(e, "members_upto") or e.period is not None:  # infinite
        return True
    return bool(e.finite_part) and e.finite_part[-1] > h


def _index_set_members(e, h: int) -> set[int]:
    if hasattr(e, "members_upto"):  # enumerated
        return set(e.members_upto(h))
    return _epset_members(e, h)


# ---------------------------------------------------------------------------
# schoolbook power series


def naive_add(a: Sequence, b: Sequence, n: int) -> list[Fraction]:
    return [
        Fraction(a[i] if i < len(a) else 0) + Fraction(b[i] if i < len(b) else 0)
        for i in range(n + 1)
    ]


def naive_mul(a: Sequence, b: Sequence, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        if i > n or x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > n:
                break
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def naive_compose(a: Sequence, b: Sequence, n: int) -> list[Fraction]:
    """a(b(x)); requires b(0) = 0."""
    if len(b) and Fraction(b[0]) != 0:
        raise ValueError("inner series must vanish at 0")
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for coeff in a[: n + 1]:
        c = Fraction(coeff)
        if c:
            out = naive_add(out, [c * p for p in power], n)
        power = naive_mul(power, b, n)
    return out


def naive_euler(a: Sequence, n: int, sizes=None) -> list[Fraction]:
    """Multiset construction over integer counts a_m >= 0:
    product over m of (1 - x^m)^(-a_m), optionally restricted to
    multisets whose total number of parts lies in `sizes`.

    Computed by explicit enumeration of part multiplicities.
    """
    counts = [int(c) for c in a[: n + 1]]
    if any(Fraction(c) != Fraction(int(c)) or c < 0 for c in a[: n + 1]):
        raise ValueError("integer non-negative coefficients required")
    # dp[(weight, parts)] = number of multisets
    dp = {(0, 0): 1}
    for m in range(1, n + 1):
        am = counts[m] if m <= len(counts) - 1 else 0
        if am == 0:
            continue
        # choose a multiset of atoms of size m: combinations with repetition
        ways = {0: 1}  # parts chosen of this size -> count
        # number of multisets of j atoms from am types: C(am+j-1, j)
        j = 1
        while m * j <= n:
            ways[j] = comb(am + j - 1, j)
            j += 1
        ndp = {}
        for (w, p), cnt in dp.items():
            for j2, wcnt in ways.items():
                if w + m * j2 > n:
                    continue
                key = (w + m * j2, p + j2)
                ndp[key] = ndp.get(key, 0) + cnt * wcnt
        dp = ndp
    out = [Fraction(0)] * (n + 1)
    for (w, p), cnt in dp.items():
        if sizes is None or p in sizes:
            out[w] += cnt
    return out


def naive_seq(a: Sequence, n: int, sizes=None) -> list[Fraction]:
    """Sequence construction: sum over j in sizes of a(x)^j."""
    if sizes is None:
        sizes = range(1, n + 2)
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    top = max((j for j in sizes if j <= n + 1), default=0)
    j = 0
    while j <= top:
        if j in sizes:
            out = naive_add(out, power, n)
        power = naive_mul(power, a, n)
        j += 1
    return out


def naive_series(op: str, *args) -> list[Fraction]:
    n = args[-1]
    if op == "add":
        return naive_add(args[0], args[1], n)
    if op == "mul":
        return naive_mul(args[0], args[1], n)
    if op == "compose":
        return naive_compose(args[0], args[1], n)
    if op == "euler":
        return naive_euler(args[0], n)
    if op == "seq":
        return naive_seq(args[0], n)
    raise ValueError(op)


# ---------------------------------------------------------------------------
# origin data of series right sides, one recursive walk per entry, at
# x = 0 and a point y0 of the unknowns (y = 0 when y0 is None)


def const_at_origin(expr, y0=None) -> Fraction:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, X):
        return Fraction(0)
    if isinstance(expr, Var):
        return Fraction(0) if y0 is None else y0[expr.index]
    if isinstance(expr, Add):
        return sum((const_at_origin(t, y0) for t in expr.terms), Fraction(0))
    if isinstance(expr, Mul):
        out = Fraction(1)
        for f in expr.factors:
            out *= const_at_origin(f, y0)
        return out
    if isinstance(expr, Pow):
        return const_at_origin(expr.base, y0) ** expr.exp
    if isinstance(expr, Construct):
        if const_at_origin(expr.arg, y0) != 0:
            raise SemanticError(
                f"{expr.kind} argument has a non-zero constant term"
            )
        # the empty structure: 0 is in the index set
        return Fraction(int(0 in _index_set_members(expr.index, 0)))
    raise TypeError(repr(expr))


def dy_at_origin(expr, j: int, y0=None) -> Fraction:
    """d expr / d y_j evaluated at x=0, y=y0."""
    if isinstance(expr, (Const, X)):
        return Fraction(0)
    if isinstance(expr, Var):
        return Fraction(1) if expr.index == j else Fraction(0)
    if isinstance(expr, Add):
        return sum((dy_at_origin(t, j, y0) for t in expr.terms), Fraction(0))
    if isinstance(expr, Mul):
        out = Fraction(0)
        for i, f in enumerate(expr.factors):
            part = dy_at_origin(f, j, y0)
            if part:
                for l, g in enumerate(expr.factors):
                    if l != i:
                        part *= const_at_origin(g, y0)
            out += part
        return out
    if isinstance(expr, Pow):
        if expr.exp == 0:
            return Fraction(0)
        b0 = const_at_origin(expr.base, y0)
        return expr.exp * b0 ** (expr.exp - 1) * dy_at_origin(expr.base, j, y0)
    if isinstance(expr, Construct):
        if const_at_origin(expr.arg, y0) != 0:
            raise SemanticError(
                f"{expr.kind} argument has a non-zero constant term"
            )
        # weight one: 1 is in a (non-enumerated) index set
        if hasattr(expr.index, "members_upto") or 1 not in _epset_members(expr.index, 1):
            return Fraction(0)
        return dy_at_origin(expr.arg, j, y0)
    raise TypeError(repr(expr))


def jacobian_at_origin(system, y0=None) -> tuple:
    return tuple(
        tuple(dy_at_origin(rhs, j, y0) for j in range(system.k))
        for rhs in system.right_sides
    )


def solution_constants(system):
    """The solution's constant terms: y0 <- G(0, y0) from y0 = 0 until it
    settles, for at most k + 1 rounds; None when it does not settle."""
    y0 = (Fraction(0),) * system.k
    for _ in range(system.k + 1):
        nxt = tuple(const_at_origin(rhs, y0) for rhs in system.right_sides)
        if nxt == y0:
            return y0
        y0 = nxt
    return None


def is_elementary(system) -> tuple[bool, list[str]]:
    """(verdict, diagnostics): every constant term first, then the
    Jacobian entries row by row."""
    diags = []
    for name, rhs in zip(system.variables, system.right_sides):
        c = const_at_origin(rhs)
        if c != 0:
            diags.append(f"{name}: constant term {c}")
    for i, row in enumerate(jacobian_at_origin(system)):
        for j, v in enumerate(row):
            if v != 0:
                diags.append(
                    f"{system.variables[i]}: linear term {v}*{system.variables[j]}"
                    " with constant coefficient"
                )
    return (not diags, diags)


# ---------------------------------------------------------------------------
# the hat transform: the polynomial rewrite (I-J)^{-1} (G - J y), the
# reference for the series engine's linear solve per degree.  It reads the
# origin data above and takes (I-J)^{-1} from pseries.neumann_check.
# Polynomials are dicts (xdeg, ytuple) -> coefficient.


class NotApplicable(ValueError):
    """Hat transform is not available for this system."""


def _poly_expand(expr: SysExpr, k: int) -> Dict[Tuple[int, Tuple[int, ...]], Fraction]:
    zero_y = (0,) * k
    if isinstance(expr, Const):
        return {(0, zero_y): expr.value} if expr.value else {}
    if isinstance(expr, X):
        return {(1, zero_y): Fraction(1)}
    if isinstance(expr, Var):
        u = [0] * k
        u[expr.index] = 1
        return {(0, tuple(u)): Fraction(1)}
    if isinstance(expr, Add):
        out: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
        for t in expr.terms:
            for key, c in _poly_expand(t, k).items():
                out[key] = out.get(key, Fraction(0)) + c
        return {key: c for key, c in out.items() if c}
    if isinstance(expr, Mul):
        out = {(0, zero_y): Fraction(1)}
        for f in expr.factors:
            out = _poly_mul(out, _poly_expand(f, k))
        return out
    if isinstance(expr, Pow):
        pb = _poly_expand(expr.base, k)
        out = {(0, zero_y): Fraction(1)}
        for _ in range(expr.exp):
            out = _poly_mul(out, pb)
        return out
    if isinstance(expr, Construct):
        raise NotApplicable(
            "hat transform supports polynomial right sides only"
        )
    raise TypeError(repr(expr))


def _poly_mul(a, b):
    out: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
    for (d1, u1), c1 in a.items():
        for (d2, u2), c2 in b.items():
            key = (d1 + d2, tuple(x + y for x, y in zip(u1, u2)))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


def poly_to_ast(poly: Dict[Tuple[int, Tuple[int, ...]], Fraction], k: int) -> SysExpr:
    """Canonical AST for a polynomial: terms sorted by total degree, then
    x-degree, then exponent vector."""
    keys = sorted(poly, key=lambda key: (key[0] + sum(key[1]), key[0], key[1]))
    terms = []
    for d, u in keys:
        c = poly[(d, u)]
        if not c:
            continue
        factors: list[SysExpr] = []
        if c != 1 or (d == 0 and not any(u)):
            factors.append(Const(c))
        if d == 1:
            factors.append(X())
        elif d > 1:
            factors.append(Pow(X(), d))
        for j, e in enumerate(u):
            if e == 1:
                factors.append(Var(j))
            elif e > 1:
                factors.append(Pow(Var(j), e))
        if len(factors) == 1:
            terms.append(factors[0])
        else:
            terms.append(Mul(tuple(factors)))
    if not terms:
        return Const(Fraction(0))
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def hat_transform(sys: PSSystem) -> PSSystem:
    """Equivalent elementary system (I-J)^{-1} (G - J y)."""
    jac = jacobian_at_origin(sys)
    if all(v == 0 for row in jac for v in row):
        return sys
    res = neumann_check(jac)
    if res.verdict != "NonnegInverse":
        raise NotApplicable(f"origin Jacobian check failed: {res.verdict}")
    k = sys.k
    polys = []
    for i, rhs in enumerate(sys.right_sides):
        p = dict(_poly_expand(rhs, k))
        for j in range(k):
            if jac[i][j]:
                u = [0] * k
                u[j] = 1
                key = (0, tuple(u))
                p[key] = p.get(key, Fraction(0)) - jac[i][j]
                if not p[key]:
                    del p[key]
        polys.append(p)
    inv = res.inverse
    new_rhs = []
    for i in range(k):
        acc: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
        for j in range(k):
            f = inv[i][j]
            if not f:
                continue
            for key, c in polys[j].items():
                acc[key] = acc.get(key, Fraction(0)) + f * c
        acc = {key: c for key, c in acc.items() if c}
        if any(c < 0 for c in acc.values()):
            raise NotApplicable("hat transform produced a negative coefficient")
        new_rhs.append(poly_to_ast(acc, k))
    out = PSSystem(sys.variables, tuple(new_rhs))
    ok, diags = is_elementary(out)
    if not ok:
        raise AssertionError("hat transform failed to produce an elementary system")
    return out
