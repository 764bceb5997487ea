"""Truncated exact power series, fixed points of non-negative systems
y = G(x,y), and origin data with the Neumann test.

One order-by-order engine evaluates expressions and solves systems.  A
system whose linear part M at the solution's constant terms is nonzero is
solved as it stands: each degree d >= 1 takes one exact linear solve,
y_d = (I - M)^-1 r_d, so no polynomial rewrite is needed and constructs
may appear anywhere."""
from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Dict, Optional, Sequence, Tuple, Union

from .epset import (
    IndexSet,
    POS,
    SemanticError,
    _Value,
    bounded,
    index_from,
    index_member,
    index_members,
    index_parts,
)


# ---------------------------------------------------------------------------
# series values


class Series(_Value):
    """Power series truncated at degree len(coeffs)-1, exact coefficients."""

    coeffs: Tuple[Fraction, ...]

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}")
        return "Series(" + (" + ".join(terms) if terms else "0") + f"; N={self.trunc})"


# ---------------------------------------------------------------------------
# system syntax


class Const(_Value):
    value: Fraction

    def __init__(self, value: Fraction):
        if value < 0:
            raise ValueError("constants must be non-negative")
        super().__init__(value)


class X(_Value):
    pass


class Var(_Value):
    index: int


class Add(_Value):
    terms: Tuple["SysExpr", ...]


class Mul(_Value):
    factors: Tuple["SysExpr", ...]


class Pow(_Value):
    base: "SysExpr"
    exp: int


class Construct(_Value):
    kind: str  # Seq | MSet | Cycle | DCycle
    index: IndexSet  # POS means unrestricted
    arg: "SysExpr"

    def __init__(self, kind: str, index: IndexSet, arg: "SysExpr"):
        if kind not in ("Seq", "MSet", "Cycle", "DCycle"):
            raise ValueError(f"unknown construction {kind}")
        super().__init__(kind, index, arg)


SysExpr = Union[Const, X, Var, Add, Mul, Pow, Construct]


class PSSystem(_Value):
    variables: Tuple[str, ...]
    right_sides: Tuple[SysExpr, ...]

    def __init__(self, variables: Tuple[str, ...], right_sides: Tuple["SysExpr", ...]):
        if len(variables) != len(right_sides):
            raise ValueError("need one right side per variable")
        super().__init__(variables, right_sides)

    @property
    def k(self) -> int:
        return len(self.variables)

    @cached_property
    def linear_part(self) -> "LinearPart":
        """Origin data and well-posedness verdict, read once per system."""
        return _linear_part(self)


# ---------------------------------------------------------------------------
# evaluation: one order-by-order engine
#
# Each node of an expression keeps a coefficient list of length n+1.
# Coefficient d of a node is computed from coefficients <= d of its children
# and < d of itself, so one sweep over d = 0..n evaluates every node, each
# coefficient once.  Coefficients are plain ints until a rational constant
# or an inexact division makes them Fractions; the Series handed out hold
# Fractions.


def _exact(v):
    """v as an int when it is an integral Fraction, else unchanged."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _div(v, k: int):
    """The exact quotient v / k, an int when k divides v."""
    if type(v) is int:
        q, r = divmod(v, k)
        return Fraction(v, k) if r else q
    return _exact(v / k)


def _conv(a: list, va: int, b: list, vb: int, d: int):
    """Coefficient d of a*b, where a[i] = 0 for i < va and b[i] = 0 for
    i < vb."""
    if d < va + vb:
        return 0
    return sum(map(mul, a[va : d - vb + 1], reversed(b[vb : d - va + 1])))


def _monomial(expr: SysExpr) -> Optional[Tuple[object, int]]:
    """(coefficient, x-degree) when expr is a constant times a power of x."""
    if isinstance(expr, Const):
        return _exact(expr.value), 0
    if isinstance(expr, X):
        return 1, 1
    if isinstance(expr, Pow):
        m = _monomial(expr.base)
        if m is not None:
            return m[0] ** expr.exp, m[1] * expr.exp
    return None


class _Node:
    """Coefficients c of one subexpression; val is a lower bound on its
    valuation (n+1 when it is zero); touch tells whether c[d] depends on
    coefficient d of the unknowns."""

    __slots__ = ("c", "val", "touch")

    def __init__(self, c: list, val: int, touch: bool = False):
        self.c = c
        self.val = val
        self.touch = touch


class _Engine:
    """Compiles expressions into nodes and an ordered list of steps; step
    f(d) fills coefficient d of one node.  Running every step for
    d = 0, 1, ..., n evaluates all nodes, children before parents."""

    def __init__(self, n: int, var_node):
        self.n = n
        self.var_node = var_node  # variable index -> _Node
        self.steps: list = []  # (step, touch)
        self.zero = _Node([0] * (n + 1), n + 1)
        self._nodes: Dict[object, _Node] = {}
        self._divisors: Optional[list] = None

    def run(self, d: int) -> None:
        for step, _ in self.steps:
            step(d)

    def node(self, expr: SysExpr) -> _Node:
        got = self._nodes.get(expr)
        if got is None:
            got = self._nodes[expr] = self._build(expr)
        return got

    def _build(self, expr: SysExpr) -> _Node:
        m = _monomial(expr)
        if m is not None:
            return self._monomial(*m)
        if isinstance(expr, Var):
            return self.var_node(expr.index)
        if isinstance(expr, Add):
            return self._sum([self.node(t) for t in expr.terms])
        if isinstance(expr, Mul):
            coef, shift, nodes = 1, 0, []
            for f in expr.factors:
                m = _monomial(f)
                if m is None:
                    nodes.append(self.node(f))
                else:
                    coef, shift = coef * m[0], shift + m[1]
            if not nodes:
                return self._monomial(coef, shift)
            out = nodes[0]
            for f in nodes[1:]:
                out = self._mul(out, f)
            return self._scaled(out, coef, shift)
        if isinstance(expr, Pow):
            return self._power(self.node(expr.base), expr.exp)
        if isinstance(expr, Construct):
            a = self.node(expr.arg)
            if a.val == 0:
                self._check_arg(expr.kind, a)
            if expr.kind == "Seq":
                return self._seq(a, expr.index)
            if expr.kind == "MSet":
                return self._mset(a, expr.index)
            raise SemanticError(
                f"{expr.kind} has spectrum-only semantics; no coefficient evaluation"
            )
        raise TypeError(f"not a system expression: {expr!r}")

    def _new(self, val: int, touch: bool, step_of) -> _Node:
        """A node with coefficients c, filled by step_of(c)."""
        c = [0] * (self.n + 1)
        self.steps.append((step_of(c), touch))
        return _Node(c, val, touch)

    def _monomial(self, coef, k: int) -> _Node:
        if not coef or k > self.n:
            return self.zero
        c = [0] * (self.n + 1)
        c[k] = coef
        return _Node(c, k)

    def _check_arg(self, kind: str, a: _Node) -> None:
        ac = a.c

        def step(d):
            if d == 0 and ac[0]:
                raise SemanticError(f"{kind} argument has constant term {ac[0]}")

        self.steps.append((step, False))

    def _sum(self, nodes: list) -> _Node:
        nodes = [t for t in nodes if t.val <= self.n]
        if not nodes:
            return self.zero
        if len(nodes) == 1:
            return nodes[0]
        lists = [t.c for t in nodes]

        def step_of(c):
            def step(d):
                c[d] = sum([t[d] for t in lists])

            return step

        return self._new(
            min(t.val for t in nodes), any(t.touch for t in nodes), step_of
        )

    def _scaled(self, a: _Node, coef, k: int) -> _Node:
        """coef * x^k * a."""
        if coef == 1 and k == 0:
            return a
        if not coef or a.val + k > self.n:
            return self.zero
        ac = a.c

        def step_of(c):
            def step(d):
                if d >= k:
                    c[d] = coef * ac[d - k]

            return step

        return self._new(a.val + k, a.touch and k == 0, step_of)

    def _mul(self, a: _Node, b: _Node) -> _Node:
        """a * b, one convolution per degree."""
        key = ("mul", id(a), id(b))
        got = self._nodes.get(key)
        if got is not None:
            return got
        va, vb = a.val, b.val
        if va + vb > self.n:
            return self.zero
        ac, bc = a.c, b.c

        def step_of(c):
            def step(d):
                c[d] = _conv(ac, va, bc, vb, d)

            return step

        touch = (a.touch and vb == 0) or (b.touch and va == 0)
        got = self._nodes[key] = self._new(va + vb, touch, step_of)
        return got

    def _power(self, a: _Node, e: int) -> _Node:
        """a^e as a chain of binary products (square and multiply)."""
        if e == 0:
            return self._monomial(1, 0)
        if e == 1:
            return a
        key = ("pow", id(a), e)
        got = self._nodes.get(key)
        if got is None:
            half = self._power(a, e // 2)
            got = self._mul(half, half)
            if e % 2:
                got = self._mul(got, a)
            self._nodes[key] = got
        return got

    def _seq(self, a: _Node, j: IndexSet) -> _Node:
        """Sum of a^i over i in j: powers for finite members, and for each
        block s + p*N the series T = a^s + a^p * T."""
        va = max(a.val, 1)  # a has no constant term
        top = self.n // va  # a^i vanishes to degree n for i > top
        fins, blocks = index_parts(j, top)
        terms = [self._power(a, i) for i in fins]
        for s, p in blocks:
            if s <= top:
                terms.append(self._geometric(self._power(a, s), self._power(a, p)))
        return self._sum(terms)

    def _geometric(self, head: _Node, ratio: _Node) -> _Node:
        """T = head + ratio * T, for ratio without constant term."""
        if head.val > self.n:
            return self.zero
        vh, vr = head.val, max(ratio.val, 1)
        hc, rc = head.c, ratio.c

        def step_of(c):
            def step(d):
                c[d] = hc[d] + _conv(rc, vr, c, vh, d)

            return step

        return self._new(vh, head.touch or (ratio.touch and vh == 0), step_of)

    def _mset(self, a: _Node, j: IndexSet) -> _Node:
        """Multisets of a with part count in j; the empty multiset is the
        constant 1."""
        n = self.n
        va = max(a.val, 1)
        empty = [self._monomial(1, 0)] if index_member(j, 0) else []
        if va > n:
            return self._sum(empty)
        ac = a.c
        if index_from(j, 1) == POS:
            # exp(sum_m a(x^m)/m) - 1 by the log-derivative recurrence
            # d*b_d = sum_i q_i*b_{d-i} with b_0 = 1, q_i = sum_{e|i} e*a_e
            if self._divisors is None:
                self._divisors = [[] for _ in range(n + 1)]
                for e in range(1, n + 1):
                    for m in range(e, n + 1, e):
                        self._divisors[m].append(e)
            divisors = self._divisors
            q = [0] * (n + 1)

            def step_of(b):
                def step(d):
                    if d >= va:
                        q[d] = sum([e * ac[e] for e in divisors[d]])
                        b[d] = _div(q[d] + _conv(q, va, b, va, d), d)

                return step

            return self._sum(empty + [self._new(va, a.touch, step_of)])
        # h[t] counts multisets of exactly t parts:
        # t*h_t = sum_{m=1..t} a(x^m) * h_{t-m}, with h_0 = 1 and h_1 = a
        wanted = [t for t in index_members(j, n // va) if t >= 1]
        if not wanted:
            return self._sum(empty)
        t_top = wanted[-1]
        h = [None, ac] + [[0] * (n + 1) for _ in range(2, t_top + 1)]
        high = [h[t] for t in wanted if t >= 2]

        def step_of(rest):
            def step(d):
                for t in range(2, min(t_top, d // va) + 1):
                    acc = ac[d // t] if d % t == 0 else 0  # m = t
                    for m in range(1, t):
                        prev = h[t - m]
                        hi = (d - (t - m) * va) // m
                        if hi >= va:
                            acc += sum(
                                map(
                                    mul,
                                    ac[va : hi + 1],
                                    reversed(prev[d - hi * m : d - va * m + 1 : m]),
                                )
                            )
                    h[t][d] = _div(acc, t)
                rest[d] = sum([ht[d] for ht in high])

            return step

        rest = self._new(2 * va, False, step_of) if high else self.zero
        return self._sum(empty + ([a, rest] if wanted[0] == 1 else [rest]))


def _series(c: list) -> Series:
    return Series(tuple(map(Fraction, c)))


def evaluate(expr: SysExpr, env: Sequence[Series], n: int) -> Series:
    """Exact coefficients of expr under env up to degree n."""

    def var_node(i: int) -> _Node:
        s = env[i]
        if s.trunc < n:
            raise ValueError("environment series truncated below target degree")
        c = [_exact(v) for v in s.coeffs[: n + 1]]
        return _Node(c, next((d for d, v in enumerate(c) if v), n + 1))

    engine = _Engine(n, var_node)
    root = engine.node(expr)
    for d in range(n + 1):
        engine.run(d)
    return _series(root.c)


# ---------------------------------------------------------------------------
# origin data: constant terms and Jacobian


def _origin(expr: SysExpr, y0: Sequence) -> Tuple[object, Dict[int, object]]:
    """Constant term of expr and the nonzero entries j: d expr / d y_j,
    both at x = 0, y = y0, in one walk. Values are ints, and Fractions only
    where a rational constant brings them in; y0 holds such values too."""
    if isinstance(expr, Const):
        return _exact(expr.value), {}
    if isinstance(expr, X):
        return 0, {}
    if isinstance(expr, Var):
        return y0[expr.index], {expr.index: 1}
    if isinstance(expr, Add):
        const, row = 0, {}
        for t in expr.terms:
            c, r = _origin(t, y0)
            const += c
            for j, v in r.items():
                row[j] = row.get(j, 0) + v
        return _exact(const), row
    if isinstance(expr, Mul):
        # product rule, one factor at a time: (P f)' = P' f(0) + P(0) f'
        const, row = 1, {}
        for f in expr.factors:
            c, r = _origin(f, y0)
            row = {j: v * c for j, v in row.items()} if c else {}
            if const:
                for j, v in r.items():
                    row[j] = row.get(j, 0) + const * v
            const *= c
        return _exact(const), row
    if isinstance(expr, Pow):
        c, r = _origin(expr.base, y0)
        if expr.exp == 0:
            return 1, {}
        scale = expr.exp * c ** (expr.exp - 1)
        return _exact(c ** expr.exp), ({j: scale * v for j, v in r.items()} if scale else {})
    if isinstance(expr, Construct):
        # the empty structure is the constant, one component the linear term
        c, r = _origin(expr.arg, y0)
        if c != 0:
            raise SemanticError(f"{expr.kind} argument has a non-zero constant term")
        return int(index_member(expr.index, 0)), (r if index_member(expr.index, 1) else {})
    raise TypeError(repr(expr))


RatMatrix = Tuple[Tuple[Fraction, ...], ...]


class LinearPart(_Value):
    """Origin data of y = G(x, y).  The diagnostics name the constant
    terms G(0, 0) and the nonzero entries of J = dG/dy at x = 0, y = 0; the
    system is elementary when there are none.  constants are the solution's
    constant terms, the least y0 = G(0, y0), and jacobian is M = dG/dy at
    x = 0, y = y0 (at y = 0 when y0 is not found).  verdict and inverse are
    neumann_check's on M, None when M = 0.  The system is well posed when
    y0 settles within k + 1 rounds from 0, or else is the exact solution of
    the linear part at 0 (_limit), no construct argument has a constant
    term at y0, and M = 0 or (I - M)^-1 exists and is non-negative;
    refusal says which of these fails."""

    constants: Tuple[Fraction, ...]
    jacobian: RatMatrix
    diagnostics: Tuple[str, ...]
    verdict: Optional[str]
    inverse: Optional[RatMatrix]
    refusal: Optional[str]

    def require_well_posed(self) -> None:
        if self.refusal:
            raise SemanticError(self.refusal)


def _linear_part(sys: PSSystem) -> LinearPart:
    names, k = sys.variables, sys.k
    y0 = (0,) * k
    origin = walk = [_origin(rhs, y0) for rhs in sys.right_sides]
    diags = [f"{name}: constant term {c}" for name, (c, _) in zip(names, origin) if c]
    for name, (_, row) in zip(names, origin):
        for j in sorted(row):
            diags.append(
                f"{name}: linear term {row[j]}*{names[j]} with constant coefficient"
            )
    # y0 <- G(0, y0) from y0 = 0; then M is read at y0
    refusal = None
    for _ in range(k + 1):
        consts = tuple(c for c, _ in walk)
        if consts == y0:
            break
        y0 = consts
        try:
            walk = [_origin(rhs, y0) for rhs in sys.right_sides]
        except SemanticError as e:
            refusal = str(e)
            break
    else:
        walk = _limit(sys.right_sides, origin)
        if walk is None:
            refusal = "coefficient 0 of the solution does not settle"
        else:
            y0 = tuple(c for c, _ in walk)
    rows = [row for _, row in (origin if refusal else walk)]
    jac = tuple(tuple(Fraction(row.get(j, 0)) for j in range(k)) for row in rows)
    verdict = inverse = None
    if any(rows):
        res = neumann_check(jac)
        verdict, inverse = res.verdict, res.inverse
        if refusal is None and verdict != "NonnegInverse":
            refusal = f"origin Jacobian check failed: {verdict}"
    return LinearPart(tuple(map(Fraction, y0)), jac, tuple(diags), verdict, inverse, refusal)


def _limit(right_sides: Sequence[SysExpr], origin: list) -> Optional[list]:
    """The walk at y1 = (I - M0)^-1 c0, where origin is the walk at y = 0
    with constants c0 and rows M0, when y1 is the least y0 = G(0, y0); None
    when that is not shown. G(0, y) >= c0 + M0 y on y >= 0, so where
    (I - M0)^-1 >= 0 every such y0 lies above y1, and y1 is the least once
    G(0, y1) = y1."""
    k = len(origin)
    res = neumann_check(tuple(tuple(Fraction(row.get(j, 0)) for j in range(k)) for _, row in origin))
    if res.verdict != "NonnegInverse":
        return None
    y1 = tuple(_exact(sum(v * c for v, (c, _) in zip(row, origin))) for row in res.inverse)
    try:
        walk = [_origin(rhs, y1) for rhs in right_sides]
    except SemanticError:
        return None
    return walk if tuple(c for c, _ in walk) == y1 else None


def fixed_point_solve(sys: PSSystem, n: int) -> Tuple[Series, ...]:
    """Unique solution of a well-posed system, truncated at degree n.

    The constant terms y_0 come from the linear part.  For d >= 1,
    coefficient d of the right sides is r_d + M*y_d: r_d is their value
    with y_d = 0, and M is the linear part at the constant terms, the same
    at every degree.  So y_d = (I - M)^-1 r_d, and then the nodes that
    read y_d are evaluated again.  When M = 0, y_d is r_d itself.  Every
    degree, 0 included, is checked against the right sides."""
    if n < 0:
        raise SemanticError("degree must be non-negative")
    bounded(n, "degree")
    linear = sys.linear_part
    linear.require_well_posed()
    ys = [[_exact(c)] + [0] * n for c in linear.constants]
    engine = _Engine(n, lambda i: _Node(ys[i], 0 if ys[i][0] else 1, True))
    roots = [engine.node(rhs).c for rhs in sys.right_sides]
    again = [step for step, touch in engine.steps if touch]
    inverse = linear.inverse and [[_exact(v) for v in row] for row in linear.inverse]
    for d in range(n + 1):
        engine.run(d)
        got = [r[d] for r in roots]
        if d:
            if inverse:
                got = [_exact(sum(map(mul, row, got))) for row in inverse]
            for y, v in zip(ys, got):
                y[d] = v
            for step in again:
                step(d)
            got = [r[d] for r in roots]
        if got != [y[d] for y in ys]:
            raise AssertionError(
                f"coefficient {d} of the right sides differs from the solution"
            )
    return tuple(_series(y) for y in ys)


# ---------------------------------------------------------------------------
# matrices and the Neumann test


def mat_inverse(m: RatMatrix) -> Optional[RatMatrix]:
    """Exact inverse by Gauss-Jordan elimination, or None if singular."""
    k = len(m)
    a = [list(row) + [Fraction(1 if i == j else 0) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(tuple(row[k:]) for row in a)


class NeumannResult(_Value):
    verdict: str  # NonnegInverse | Singular | NegativeEntries
    inverse: Optional[RatMatrix]


def neumann_check(m: RatMatrix) -> NeumannResult:
    """Is (I - M) invertible with an entrywise non-negative inverse?"""
    for row in m:
        for v in row:
            if v < 0:
                raise ValueError("matrix must be entrywise non-negative")
    inv = mat_inverse([[Fraction(i == j) - v for j, v in enumerate(r)] for i, r in enumerate(m)])
    if inv is None:
        return NeumannResult("Singular", None)
    if any(v < 0 for row in inv for v in row):
        return NeumannResult("NegativeEntries", inv)
    return NeumannResult("NonnegInverse", inv)


def format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
