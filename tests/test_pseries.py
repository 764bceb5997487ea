import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectre import cli, dsl, pseries
from spectre.epset import (
    EMPTY,
    ENUMERATED_SETS,
    NAT,
    POS,
    ZERO,
    SemanticError,
    index_members,
    normalize,
)
from spectre.pseries import (
    Add,
    Const,
    Construct,
    Mul,
    Pow,
    PSSystem,
    Series,
    Var,
    X,
    evaluate,
    fixed_point_solve,
    neumann_check,
)

import oracle
from oracle import NotApplicable, hat_transform, poly_to_ast
from conftest import FIXTURES, fixture_text, random_series_system

F = Fraction


def frac_list(*vals):
    return [F(v) for v in vals]


def binary_tree_system() -> PSSystem:
    # y = x * (1 + y^2)
    return PSSystem(
        ("T",),
        (Mul((X(), Add((Const(F(1)), Pow(Var(0), 2))))),),
    )


def blue_red_system() -> PSSystem:
    # y1 = x + 3x*y1*y2^2 + 3x*y1^2*y2 ; y2 = x + x*y3^2 ; y3 = y1 + y2
    return PSSystem(
        ("B", "R", "T"),
        (
            Add(
                (
                    X(),
                    Mul((Const(F(3)), X(), Var(0), Pow(Var(1), 2))),
                    Mul((Const(F(3)), X(), Pow(Var(0), 2), Var(1))),
                )
            ),
            Add((X(), Mul((X(), Pow(Var(2), 2))))),
            Add((Var(0), Var(1))),
        ),
    )


def half_linear_system() -> PSSystem:
    # y = x^2 + y/2 + x*y
    return PSSystem(
        ("Y",),
        (
            Add(
                (
                    Pow(X(), 2),
                    Mul((Const(F(1, 2)), Var(0))),
                    Mul((X(), Var(0))),
                )
            ),
        ),
    )


class TestEvaluate:
    def test_mset_unrestricted(self):
        got = evaluate(Construct("MSet", POS, X()), (), 6)
        assert got.coeffs == tuple(frac_list(0, 1, 1, 1, 1, 1, 1))

    def test_seq_pairs(self):
        env = (Series(tuple(frac_list(0, 1, 0, 1, 0, 0, 0))),)
        got = evaluate(Construct("Seq", normalize([2]), Var(0)), env, 6)
        assert got.coeffs == tuple(frac_list(0, 0, 1, 0, 2, 0, 1))

    def test_mset_pairs(self):
        # two-element multisets from one atom of size 1 and one of size 2:
        # {a,a}, {a,b}, {b,b} — one per degree
        env = (Series(tuple(frac_list(0, 1, 1, 0, 0))),)
        got = evaluate(Construct("MSet", normalize([2]), Var(0)), env, 4)
        assert got.coeffs == tuple(frac_list(0, 0, 1, 1, 1))
        assert list(got.coeffs) == oracle.naive_euler([0, 1, 1], 4, sizes={2})

    def test_nonzero_constant_rejected(self):
        bad = Add((Const(F(1)), X()))
        with pytest.raises(SemanticError, match="MSet argument has constant term 1"):
            evaluate(Construct("MSet", POS, bad), (), 4)

    def test_cycle_has_no_coefficients(self):
        with pytest.raises(SemanticError, match="Cycle has spectrum-only semantics"):
            evaluate(Construct("Cycle", POS, X()), (), 4)


class TestFixedPoint:
    def test_binary_tree_coefficients(self):
        (sol,) = fixed_point_solve(binary_tree_system(), 7)
        assert sol.coeffs == tuple(frac_list(0, 1, 0, 1, 0, 2, 0, 5))

    def test_sparse_linear_support(self):
        # y = x + x^3 * y
        sys_ = PSSystem(
            ("Y",), (Add((X(), Mul((Pow(X(), 3), Var(0))))),)
        )
        (sol,) = fixed_point_solve(sys_, 9)
        assert {i for i, c in enumerate(sol.coeffs) if c} == {1, 4, 7}

    def test_blue_red_second_iterate(self):
        sys_ = blue_red_system()
        n = 6
        env = (Series((F(0),) * (n + 1)),) * 3
        for _ in range(2):
            env = tuple(evaluate(r, env, n) for r in sys_.right_sides)
        assert env[0].coeffs == tuple(frac_list(0, 1, 0, 0, 6, 0, 0))
        assert env[1].coeffs == tuple(frac_list(0, 1, 0, 0, 0, 0, 0))
        assert env[2].coeffs == tuple(frac_list(0, 2, 0, 0, 0, 0, 0))

    def test_non_elementary_rejected(self):
        # y = x^2 + y: I - J is singular
        sys_ = PSSystem(("Y",), (Add((Pow(X(), 2), Var(0))),))
        with pytest.raises(SemanticError, match="check failed: Singular"):
            fixed_point_solve(sys_, 5)

    def test_constant_terms_from_empty_sequences(self):
        # A = Seq[N](x) = 1/(1-x) has constant term 1, and B = x + A^2
        # reads coefficient d of A at degree d
        seq = Construct("Seq", normalize((), [(0, 1)]), X())
        sys_ = PSSystem(("A", "B"), (seq, Add((X(), Pow(Var(0), 2)))))
        a, b = fixed_point_solve(sys_, 8)
        assert a.coeffs == tuple(frac_list(*[1] * 9))
        assert b.coeffs == tuple(frac_list(1, 3, 3, 4, 5, 6, 7, 8, 9))
        # Y = x + x*Seq[N](Y) = x + x/(1-Y): x plus x times the large
        # Schroeder numbers
        sys_ = PSSystem(
            ("Y",),
            (Add((X(), Mul((X(), Construct("Seq", seq.index, Var(0)))))),),
        )
        (y,) = fixed_point_solve(sys_, 8)
        assert y.coeffs == tuple(frac_list(0, 2, 2, 6, 22, 90, 394, 1806, 8558))
        # Y = 1/(1-x) + Y^2 has no power-series solution
        sys_ = PSSystem(("Y",), (Add((seq, Pow(Var(0), 2))),))
        with pytest.raises(SemanticError, match="coefficient 0 of the solution does not settle"):
            fixed_point_solve(sys_, 4)
        # Y = 1/(1-x) + x*MSet(Y) applies MSet to a constant term 1
        sys_ = PSSystem(
            ("Y",), (Add((seq, Mul((X(), Construct("MSet", POS, Var(0)))))),)
        )
        with pytest.raises(SemanticError, match="MSet argument has a non-zero constant term"):
            fixed_point_solve(sys_, 4)

    def test_linear_terms_of_empty_sequences(self):
        # Seq[N](x) = 1/(1-x) has constant term 1, so a factor Seq[N](x)
        # makes a linear term of the unknown it multiplies
        def solve(text):
            return [y.coeffs for y in fixed_point_solve(dsl.parse(text), 6)]

        # A = x + B/(1-x), B = x^2: a nilpotent linear part
        a, b = solve("vars A, B; mode series; A = x + Seq[N](x)*B; B = x^2;")
        assert a == tuple(frac_list(0, 1, 1, 1, 1, 1, 1))
        assert b == tuple(frac_list(0, 0, 1, 0, 0, 0, 0))
        # B = x + B/(2(1-x)) = 2x(1-x)/(1-2x)
        _, b = solve("vars A, B; mode series; A = Seq[N](x); B = x + 1/2*A*B;")
        assert b == tuple(frac_list(0, 2, 2, 4, 8, 16, 32))
        # Y = x + Y/(1-x): I - M is singular
        with pytest.raises(SemanticError, match="origin Jacobian check failed: Singular"):
            solve("vars Y; mode series; Y = x + Seq[N](x)*Y;")

    def test_catalan_high_degree(self):
        n = 256
        (sol,) = fixed_point_solve(dsl.parse(fixture_text("binary.spec")), n)
        want = [0] * (n + 1)
        for k in range((n - 1) // 2 + 1):
            want[2 * k + 1] = comb(2 * k, k) // (k + 1)
        assert list(sol.coeffs) == want
        assert all(type(c) is Fraction for c in sol.coeffs)

    def test_linear43_high_degree(self):
        # T = x + x^2 + x^3*T, so T = (x + x^2) / (1 - x^3)
        n = 300
        (sol,) = fixed_point_solve(dsl.parse(fixture_text("linear43.spec")), n)
        assert list(sol.coeffs) == [int(d % 3 != 0) for d in range(n + 1)]

    def test_rational_constants(self):
        # A = x/2 + (1/3) x B^2 ; B = x A + (2/5) x^2 A B
        sys_ = PSSystem(
            ("A", "B"),
            (
                Add(
                    (
                        Mul((Const(F(1, 2)), X())),
                        Mul((Const(F(1, 3)), X(), Pow(Var(1), 2))),
                    )
                ),
                Add(
                    (
                        Mul((X(), Var(0))),
                        Mul((Const(F(2, 5)), Pow(X(), 2), Var(0), Var(1))),
                    )
                ),
            ),
        )
        n = 20
        a, b = fixed_point_solve(sys_, n)
        x = [0, 1]
        mul = lambda *fs: _fold_mul(fs, n)
        want_a = oracle.naive_add(
            mul([F(1, 2)], x), mul([F(1, 3)], x, b.coeffs, b.coeffs), n
        )
        want_b = oracle.naive_add(
            mul(x, a.coeffs), mul([F(2, 5)], x, x, a.coeffs, b.coeffs), n
        )
        assert list(a.coeffs) == want_a and list(b.coeffs) == want_b
        assert a.coeffs[1] == F(1, 2) and b.coeffs[2] == F(1, 2)
        assert any(c.denominator > 1 for c in a.coeffs + b.coeffs)
        assert all(type(c) is Fraction for c in a.coeffs + b.coeffs)


def _fold_mul(factors, n):
    out = [F(1)]
    for f in factors:
        out = oracle.naive_mul(out, f, n)
    return out


class TestOriginData:
    def test_blue_red_jacobian(self):
        jac = blue_red_system().linear_part.jacobian
        assert jac == (
            (F(0), F(0), F(0)),
            (F(0), F(0), F(0)),
            (F(1), F(1), F(0)),
        )
        inv = neumann_check(jac).inverse
        assert inv == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(1), F(1), F(1)),
        )

    def test_half_linear_jacobian(self):
        assert half_linear_system().linear_part.jacobian == ((F(1, 2),),)

    def test_is_elementary(self):
        assert binary_tree_system().linear_part.diagnostics == ()
        assert len(half_linear_system().linear_part.diagnostics) == 1


def _jacobian(sys_):
    return sys_.linear_part.jacobian


def _diagnostics(sys_):
    return list(sys_.linear_part.diagnostics)


def _outcome(f, sys_):
    try:
        return ("ok", f(sys_))
    except SemanticError as e:
        return ("raises", str(e))


def _origin_inputs():
    """Series systems whose origin data is compared with the reference."""
    for path in sorted(FIXTURES.glob("*.spec")):
        sys_ = dsl.parse(path.read_text())
        if isinstance(sys_, PSSystem):
            yield path.name, sys_
    # the random systems of test_compile and of criterion 10
    for seed, count in ((5150, 20), (101010, 50)):
        rng = random.Random(seed)
        for i in range(count):
            yield f"random-{seed}-{i}", random_series_system(rng, rng.randint(1, 3))
    y0, y1 = Var(0), Var(1)
    lin = Add((y0, Mul((Const(F(2, 3)), y1)), X()))
    indices = {
        "N+": POS,
        "N": normalize([0], [(1, 1)]),
        "{1,4}": normalize([1, 4]),
        "{2}": normalize([2]),
        "2+2*N": normalize((), [(2, 2)]),
        "{0}": normalize([0]),
        "Primes": ENUMERATED_SETS["Primes"],
    }
    for kind in ("Seq", "MSet", "Cycle"):
        for name, idx in indices.items():
            rhs = Add((Mul((Const(F(1, 2)), Construct(kind, idx, lin))), Pow(y1, 2)))
            yield f"{kind}[{name}]", PSSystem(("A", "B"), (rhs, Mul((X(), y0))))
    yield "y^0", PSSystem(("A",), (Add((Pow(y0, 0), Mul((X(), y0)))),))
    yield "(1+A)^0 * A", PSSystem(("A",), (Mul((Pow(Add((Const(F(1)), y0)), 0), y0)),))
    yield "(1/2+A+B)^3", PSSystem(
        ("A", "B"), (Pow(Add((Const(F(1, 2)), y0, y1)), 3), Mul((Const(F(3)), y0, y1)))
    )
    yield "B*(2+A)*(1/3+B)", PSSystem(
        ("A", "B"),
        (Mul((y1, Add((Const(F(2)), y0)), Add((Const(F(1, 3)), y1)))), Add((X(), y0))),
    )
    yield "Seq[N+](1+A)", PSSystem(("A",), (Construct("Seq", POS, Add((Const(F(1)), y0))),))
    yield "MSet[N+](Seq[{2}](x+1))", PSSystem(
        ("A", "B"),
        (y1, Construct("MSet", POS, Add((y0, Construct("Seq", normalize([2]), Add((X(), Const(F(1))))))))),
    )
    yield "Seq[N+](2) in second equation", PSSystem(
        ("A", "B"), (Add((Const(F(1)), y0)), Mul((y1, Construct("Seq", POS, Const(F(2)))))),
    )
    seq = Construct("Seq", indices["N"], X())
    yield "Seq[N](x) then x + 1/2*A*B", PSSystem(
        ("A", "B"), (seq, Add((X(), Mul((Const(F(1, 2)), y0, y1))))),
    )
    yield "x + Seq[N](x)*A", PSSystem(("A",), (Add((X(), Mul((seq, y0)))),))
    yield "1 + A^2", PSSystem(("A",), (Add((Const(F(1)), Pow(y0, 2))),))


_ORIGIN_INPUTS = list(_origin_inputs())


def _reference_point(sys_):
    """The solution's constant terms by the reference, or None when they do
    not settle or a construct argument has a constant term there."""
    try:
        return oracle.solution_constants(sys_)
    except SemanticError:
        return None


def _reference_jacobian(sys_):
    """M at the solution's constant terms, at y = 0 when there are none."""
    return oracle.jacobian_at_origin(sys_, _reference_point(sys_))


class TestOriginReference:
    """The diagnostics (at y = 0), constant terms and Jacobian (at the
    solution's constant terms) of PSSystem.linear_part against the
    recursive reference in oracle: values, Fraction types, diagnostics in
    order, and the raised exception."""

    @pytest.mark.parametrize(
        "sys_", [s for _, s in _ORIGIN_INPUTS], ids=[n for n, _ in _ORIGIN_INPUTS]
    )
    def test_matches_reference(self, sys_):
        want = _outcome(lambda s: oracle.is_elementary(s)[1], sys_)
        assert _outcome(_diagnostics, sys_) == want
        got = _outcome(_jacobian, sys_)
        assert got == _outcome(_reference_jacobian, sys_)
        if got[0] == "ok":
            assert all(type(v) is Fraction for row in got[1] for v in row)
            y0 = _reference_point(sys_)
            linear = sys_.linear_part
            assert (linear.refusal is None) == (
                y0 is not None and linear.verdict in (None, "NonnegInverse")
            )
            if y0 is not None:
                assert linear.constants == y0

    def test_inputs_cover_every_outcome(self):
        outcomes = [_outcome(_diagnostics, s) for _, s in _ORIGIN_INPUTS]
        assert ("ok", []) in outcomes
        assert any(o[0] == "ok" and o[1] for o in outcomes)
        assert any(o[0] == "raises" for o in outcomes)
        parts = [s.linear_part for _, s in _ORIGIN_INPUTS if _outcome(_jacobian, s)[0] == "ok"]
        refusals = " ".join(p.refusal or "" for p in parts)
        assert "does not settle" in refusals
        assert "non-zero constant term" in refusals
        assert "check failed" in refusals
        assert any(p.refusal is None and any(p.constants) and p.verdict for p in parts)

    def test_ill_posed_construct_under_power_zero(self):
        # The reference Jacobian skips the base of a power 0; the one-pass
        # walk checks it, as evaluate does.
        sys_ = PSSystem(
            ("A",), (Add((X(), Pow(Construct("Seq", POS, Const(F(1))), 0))),)
        )
        assert oracle.jacobian_at_origin(sys_) == ((F(0),),)
        for check in (_jacobian, _diagnostics, oracle.is_elementary):
            with pytest.raises(SemanticError, match="Seq argument has a non-zero constant term"):
                check(sys_)


class TestNeumann:
    def test_identity_coefficient_singular(self):
        res = neumann_check(((F(1),),))
        assert res.verdict == "Singular"

    def test_supercritical(self):
        res = neumann_check(((F(2),),))
        assert res.verdict == "NegativeEntries"

    def test_subcritical(self):
        res = neumann_check(((F(1, 2),),))
        assert res.verdict == "NonnegInverse"
        assert res.inverse == ((F(2),),)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            neumann_check(((F(-1),),))


class TestHat:
    def test_half_linear(self):
        got = hat_transform(half_linear_system())
        expect = poly_to_ast({(2, (0,)): F(2), (1, (1,)): F(2)}, 1)
        assert got.right_sides == (expect,)

    def test_blue_red_third_equation(self):
        got = hat_transform(blue_red_system())
        z = (0, 0, 0)
        expect = poly_to_ast(
            {
                (1, z): F(2),
                (1, (1, 2, 0)): F(3),
                (1, (2, 1, 0)): F(3),
                (1, (0, 0, 2)): F(1),
            },
            3,
        )
        assert got.right_sides[2] == expect
        assert got.right_sides[0] == poly_to_ast(
            {(1, z): F(1), (1, (1, 2, 0)): F(3), (1, (2, 1, 0)): F(3)}, 3
        )
        assert not got.linear_part.diagnostics

    def test_identity_on_elementary(self):
        sys_ = binary_tree_system()
        assert hat_transform(sys_) is sys_

    def test_solution_preserved(self):
        # the hatted system has the same unique solution
        sys_ = half_linear_system()
        hatted = hat_transform(sys_)
        (sol,) = fixed_point_solve(hatted, 10)
        n = 10
        got = evaluate(sys_.right_sides[0], (sol,), n)
        assert got.coeffs == sol.coeffs

    def test_singular_not_applicable(self):
        sys_ = PSSystem(("Y",), (Add((Pow(X(), 2), Var(0))),))
        with pytest.raises(NotApplicable):
            hat_transform(sys_)

    def test_construct_not_applicable(self):
        sys_ = PSSystem(
            ("Y",),
            (
                Add(
                    (
                        Mul((Const(F(1, 2)), Var(0))),
                        Construct("MSet", POS, X()),
                    )
                ),
            ),
        )
        with pytest.raises(NotApplicable):
            hat_transform(sys_)


def _linear_system(rng: random.Random, constructs: bool) -> PSSystem:
    """Random series system with constant-coefficient linear terms c*Y_j
    beside terms that carry a factor x.  With constructs=True, Seq and
    MSet over a variable appear too, with or without a factor x, so they
    may add to the linear part."""
    k = rng.randint(1, 3)
    indices = (POS, normalize([2]), normalize([1, 3]), normalize((), [(2, 2)]))
    rhs = []
    for _ in range(k):
        terms = [X()] if rng.random() < 0.7 else []
        for _ in range(rng.randint(0, 2)):
            factors = [X()]
            for j in range(k):
                e = rng.choice((0, 0, 1, 2))
                if e:
                    factors.append(Var(j) if e == 1 else Pow(Var(j), e))
            terms.append(Mul(tuple(factors)) if len(factors) > 1 else X())
        for j in range(k):
            if rng.random() < 0.3:
                c = rng.choice((F(1, 3), F(1, 2), F(1, 2), F(1), F(2)))
                terms.append(Var(j) if c == 1 else Mul((Const(c), Var(j))))
        if constructs and rng.random() < 0.8:
            kind = rng.choice(("Seq", "MSet"))
            arg = Construct(kind, rng.choice(indices), Var(rng.randrange(k)))
            terms.append(arg if rng.random() < 0.5 else Mul((X(), arg)))
        if not terms:
            terms.append(Pow(X(), 2))
        rhs.append(terms[0] if len(terms) == 1 else Add(tuple(terms)))
    return PSSystem(tuple(f"Y{i}" for i in range(k)), tuple(rhs))


class TestDirectLinearSolve:
    """Systems with a nonzero linear part at the origin, solved degree by
    degree, against the hat transform in oracle where it applies."""

    def test_half_linear(self):
        sys_ = half_linear_system()
        assert fixed_point_solve(sys_, 12) == fixed_point_solve(hat_transform(sys_), 12)

    def test_random_systems(self):
        n = 8
        rng = random.Random(20240)
        seen = {"rewritten": 0, "construct": 0, "ill-posed": 0}
        for i in range(1200):
            sys_ = _linear_system(rng, constructs=i % 2 == 1)
            verdict = neumann_check(oracle.jacobian_at_origin(sys_)).verdict
            if verdict != "NonnegInverse":
                seen["ill-posed"] += 1
                with pytest.raises(SemanticError, match=f"check failed: {verdict}"):
                    fixed_point_solve(sys_, n)
                continue
            sol = fixed_point_solve(sys_, n)
            try:
                hatted = hat_transform(sys_)
            except NotApplicable as e:
                assert "polynomial right sides only" in str(e)
                seen["construct"] += 1
                for rhs, y in zip(sys_.right_sides, sol):
                    assert evaluate(rhs, sol, n).coeffs == y.coeffs
            else:
                seen["rewritten"] += hatted != sys_
                assert sol == fixed_point_solve(hatted, n)
        assert min(seen.values()) >= 150, seen


class TestZeroComponents:
    """check names the variables whose series is identically zero: the
    empty components of the compiled system, once the system is well
    posed."""

    @staticmethod
    def check(capsys, tmp_path, sys_):
        spec = tmp_path / "zero.spec"
        spec.write_text(dsl.print_system(sys_))
        code = cli.main(["check", str(spec)])
        out, err = capsys.readouterr()
        return code, out.splitlines()[-1], err

    def test_mutually_zero(self, capsys, tmp_path):
        sys_ = PSSystem(
            ("Y1", "Y2"),
            (Mul((X(), Var(1))), Mul((X(), Var(1)))),
        )
        assert self.check(capsys, tmp_path, sys_) == (0, "identically zero: Y1, Y2", "")

    def test_none_zero(self, capsys, tmp_path):
        assert self.check(capsys, tmp_path, binary_tree_system()) == (
            0, "identically zero: none", ""
        )

    def test_requires_elementary(self, capsys, tmp_path):
        # y = x + 2y: (I - J)^-1 = -1
        sys_ = PSSystem(("Y",), (Add((X(), Mul((Const(F(2)), Var(0))))),))
        code, _, err = self.check(capsys, tmp_path, sys_)
        assert code == 3 and "check failed: NegativeEntries" in err

    @pytest.mark.parametrize("kind", ["Seq", "MSet", "Cycle"])
    def test_construct_over_empty_index_set(self, capsys, tmp_path, kind):
        # no index, no object: x*Theta[{}](x) is zero, and so is Y2 = Y1;
        # x*Theta[{0}](x) is x
        sys_ = PSSystem(
            ("Y1", "Y2", "Y3"),
            (
                Mul((X(), Construct(kind, EMPTY, X()))),
                Var(0),
                Mul((X(), Construct(kind, ZERO, X()))),
            ),
        )
        assert self.check(capsys, tmp_path, sys_) == (0, "identically zero: Y1, Y2", "")


# ---------------------------------------------------------------------------
# algebraic properties and oracle cross-checks


nonneg_series = st.lists(st.integers(0, 4), min_size=1, max_size=8).map(
    lambda xs: Series(tuple(map(F, [0] + xs + [0] * (10 - len(xs)))))
)


class TestProperties:
    @given(nonneg_series, nonneg_series)
    @settings(max_examples=60, deadline=None)
    def test_euler_identity(self, a, b):
        # multisets over a disjoint union of atom families multiply:
        # 1 + MSet(A+B) = (1 + MSet(A)) * (1 + MSet(B))
        n = 10
        env = (a, b)
        one_plus_ms = lambda e: Add((Const(F(1)), Construct("MSet", POS, e)))
        left = evaluate(one_plus_ms(Add((Var(0), Var(1)))), env, n)
        right = evaluate(Mul((one_plus_ms(Var(0)), one_plus_ms(Var(1)))), env, n)
        assert left.coeffs == right.coeffs

    @given(nonneg_series)
    @settings(max_examples=60, deadline=None)
    def test_mset_vs_oracle(self, a):
        n = 10
        got = evaluate(Construct("MSet", POS, Var(0)), (a,), n)
        want = oracle.naive_euler(a.coeffs, n)
        want[0] -= 1  # drop the empty multiset
        assert list(got.coeffs) == want

    @given(nonneg_series)
    @settings(max_examples=60, deadline=None)
    def test_mset_over_every_count_vs_oracle(self, a):
        # MSet[N] is 1 + MSet[N+]: the empty multiset stays
        n = 10
        got = evaluate(Construct("MSet", NAT, Var(0)), (a,), n)
        assert list(got.coeffs) == oracle.naive_euler(a.coeffs, n)

    @given(nonneg_series, st.sets(st.integers(1, 6), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_restricted_mset_vs_oracle(self, a, sizes):
        n = 10
        idx = normalize(sorted(sizes))
        got = evaluate(Construct("MSet", idx, Var(0)), (a,), n)
        assert list(got.coeffs) == oracle.naive_euler(a.coeffs, n, sizes)

    @given(nonneg_series, st.sets(st.integers(1, 6), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_restricted_seq_vs_oracle(self, a, sizes):
        n = 10
        idx = normalize(sorted(sizes))
        got = evaluate(Construct("Seq", idx, Var(0)), (a,), n)
        assert list(got.coeffs) == oracle.naive_seq(a.coeffs, n, sizes)

    @given(nonneg_series, nonneg_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_vs_oracle(self, a, b):
        n = 10
        got = evaluate(Mul((Var(0), Var(1))), (a, b), n)
        assert list(got.coeffs) == oracle.naive_mul(a.coeffs, b.coeffs, n)

    @pytest.mark.parametrize(
        "index",
        [
            normalize((), [(2, 2)]),
            normalize([3], [(5, 3)]),
            ENUMERATED_SETS["Primes"],
        ],
        ids=["2+2*N", "{3}|5+3*N", "Primes"],
    )
    def test_infinite_index_sets_vs_oracle(self, index):
        rng = random.Random(17)
        n = 14
        sparse = Series(tuple(map(F, [0, 0, 1, 0, 2, 1] + [0] * (n - 5))))  # valuation 2
        for a in [sparse] + [
            Series(tuple(map(F, [0] + [rng.choice((0, 0, 1, 2)) for _ in range(n)])))
            for _ in range(8)
        ]:
            seq = evaluate(Construct("Seq", index, Var(0)), (a,), n)
            sizes = set(index_members(index, n + 1))
            assert list(seq.coeffs) == oracle.naive_seq(a.coeffs, n, sizes)
            mset = evaluate(Construct("MSet", index, Var(0)), (a,), n)
            sizes = set(index_members(index, n))
            assert list(mset.coeffs) == oracle.naive_euler(a.coeffs, n, sizes)

    def test_seq_unrestricted_is_geometric(self):
        rng = random.Random(9)
        n = 12
        for _ in range(20):
            a = Series(tuple(map(F, [0] + [rng.randint(0, 3) for _ in range(n)])))
            got = evaluate(Construct("Seq", POS, Var(0)), (a,), n)
            want = oracle.naive_seq(a.coeffs, n)
            assert list(got.coeffs) == want
