"""Acceptance gate: one test per release criterion, run with pytest -v for
a pass/fail line per criterion.  All arithmetic is exact; no tolerances
except the documented guard band in the matrix suite."""
import math
import random
from fractions import Fraction

import numpy as np

from spectre import compile as compile_mod
from spectre import cli, dsl, epset, pseries, setsys
from spectre.epset import (
    EMPTY,
    NAT,
    POS,
    ZERO,
    enumerate_range,
    gcd_of,
    member,
    nat_closure,
    normalize,
    nstar,
    params,
    singleton,
    star,
    sumset,
    union,
)
from spectre.pseries import Series, neumann_check
from spectre.setsys import SetSystem

import oracle
from conftest import (
    fixture_text,
    members,
    random_epset,
    random_nonempty_epset,
    random_series_system,
    term,
    vec,
)
from test_setsys import random_elementary_system, random_system

F = Fraction
ONE = singleton(1)


def test_criterion_01_path_length_system_parameters():
    sys_ = dsl.parse(fixture_text("paths.spec"))
    assert setsys.min_vector(sys_) == [2, 2, 1, 3]
    assert setsys.q_vector(sys_) == [1, 1, 1, 1]
    iterates = oracle.symbolic_iterate(sys_, 4)
    assert iterates[3] == [
        normalize([2, 3, 4]),
        normalize([2, 4]),
        normalize([1, 3, 4]),
        normalize([3]),
    ]


def test_criterion_02_structured_tree_parameters():
    series = dsl.parse(fixture_text("structured.spec"))
    sys_ = compile_mod.compile_system(series).system
    assert setsys.min_vector(sys_) == [7, 1, 1]
    rep = setsys.q_report(sys_)
    assert rep.q == (1, 1, 1)
    assert rep.per_equation[0] == 2
    assert rep.per_equation[1] == 1


def test_criterion_03_sparse_linear_spectrum():
    series = dsl.parse(fixture_text("linear43.spec"))
    sys_ = compile_mod.compile_system(series).system
    sol = setsys.solve(sys_, horizon=128)
    v = sol.variables[0]
    expect = union(normalize((), [(1, 3)]), normalize((), [(2, 3)]))
    assert v.closed_form == expect
    assert (v.params.m, v.params.q, v.params.p, v.params.c) == (1, 1, 3, 1)
    # x is an eventual period (n + x in the set for every member n >= c)
    # exactly when 3 divides it
    for x in range(1, 61):
        tail = [n for n in range(1, 4) if member(v.closed_form, n)]
        assert all(member(v.closed_form, n + x) for n in tail) == (x % 3 == 0)


def test_criterion_04_binary_trees():
    series = dsl.parse(fixture_text("binary.spec"))
    sys_ = compile_mod.compile_system(series).system
    sol = setsys.solve(sys_, horizon=128)
    v = sol.variables[0]
    assert v.closed_form == normalize((), [(1, 2)])
    assert v.certificate == setsys.CERT_DOUBLING
    (s,) = pseries.fixed_point_solve(series, 7)
    assert [s.coeffs[d] for d in (1, 3, 5, 7)] == [F(1), F(1), F(2), F(5)]


def test_criterion_05_frobenius_conductors():
    closure = nat_closure(normalize([3, 5]))
    pp = params(closure)
    assert pp.c == 8 == (3 - 1) * (5 - 1)
    assert pp.p == pp.q == gcd_of(normalize([3, 5])) == 1
    rng = random.Random(35)
    checked = 0
    h = 1024
    while checked < 40:
        b1 = rng.randint(2, 29)
        b2 = rng.randint(b1 + 1, 30)
        if math.gcd(b1, b2) != 1:
            continue
        closure = nat_closure(normalize([b1, b2]))
        pp = params(closure)
        assert pp.c == (b1 - 1) * (b2 - 1), (b1, b2)
        # against the brute-force closure oracle
        brute = oracle.brute_set_op("natstar", None, vec(normalize([b1, b2]), h), h)
        assert vec(closure, h) == brute
        checked += 1
    # a large pair: Sylvester's conductor and (b1-1)(b2-1)/2 gaps
    closure = nat_closure(normalize([97, 101]))
    pp = params(closure)
    assert pp.c == 96 * 100 == 9600
    assert pp.p == pp.q == 1
    gaps = [n for n in range(pp.c) if not member(closure, n)]
    assert len(gaps) == 4800 and gaps[-1] == 9599


def test_criterion_06_blue_red_hat_transform():
    sys_ = dsl.parse(fixture_text("bluered.spec"))
    n = 6
    env = (Series((F(0),) * (n + 1)),) * 3
    for _ in range(2):
        env = tuple(pseries.evaluate(r, env, n) for r in sys_.right_sides)
    # G^(2)(x, 0) = (6x^4 + x, x, 2x)
    assert env[0].coeffs == tuple(F(c) for c in (0, 1, 0, 0, 6, 0, 0))
    assert env[1].coeffs == tuple(F(c) for c in (0, 1, 0, 0, 0, 0, 0))
    assert env[2].coeffs == tuple(F(c) for c in (0, 2, 0, 0, 0, 0, 0))
    jac = sys_.linear_part.jacobian
    assert jac[0] == (F(0), F(0), F(0))
    assert jac[1] == (F(0), F(0), F(0))
    assert jac[2] == (F(1), F(1), F(0))
    inv = neumann_check(jac).inverse
    assert inv == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(1), F(1), F(1)),
    )
    hatted = oracle.hat_transform(sys_)
    # third equation: 2x + 3x*y1*y2^2 + 3x*y1^2*y2 + x*y3^2
    assert hatted.right_sides[2] == oracle.poly_to_ast(
        {
            (1, (0, 0, 0)): F(2),
            (1, (1, 2, 0)): F(3),
            (1, (2, 1, 0)): F(3),
            (1, (0, 0, 2)): F(1),
        },
        3,
    )
    assert not hatted.linear_part.diagnostics
    # the original system, solved degree by degree, has the same solution
    assert pseries.fixed_point_solve(sys_, 24) == pseries.fixed_point_solve(
        hatted, 24
    )


def test_criterion_07_nonuniqueness_and_hat_uniqueness():
    # Y = {2} | Y | {1} + Y has a one-parameter family of solutions
    sys_ = SetSystem(
        ("Y",),
        ((term(normalize([2])), term(ZERO, e0=ONE), term(ONE, e0=ONE)),),
    )
    tails = [NAT, normalize((), [(1, 1)]), normalize((), [(2, 1)])]
    assert oracle.nonuniqueness_probe(sys_, [[t] for t in tails]) == [
        True,
        True,
        True,
    ]
    assert oracle.nonuniqueness_probe(sys_, [[normalize((), [(3, 1)])]]) == [False]
    # removing the bare-variable family restores uniqueness
    hatted = SetSystem(
        ("Y",), ((term(normalize([2])), term(ONE, e0=ONE)),)
    )
    two_up = normalize((), [(2, 1)])
    assert oracle.nonuniqueness_probe(hatted, [[two_up]]) == [True]
    sol = setsys.solve(hatted, horizon=64)
    assert sol.variables[0].closed_form == two_up


def test_criterion_08_epset_operations_vs_oracle():
    rng = random.Random(80808)
    h = 512
    star_cases = 0
    for case in range(1000):
        a = random_epset(rng, max_elem=200, max_period=12)
        b = random_epset(rng, max_elem=200, max_period=12)
        n = rng.randint(0, 6)
        va, vb = vec(a, h), vec(b, h)
        # oracle agreement on the cheap operations at the full horizon
        assert vec(union(a, b), h) == oracle.brute_set_op("union", va, vb, h)
        assert vec(sumset(a, b), h) == oracle.brute_set_op("sum", va, vb, h)
        if case % 4 == 0:
            assert vec(nstar(n, b), h) == oracle.brute_set_op("nstar", n, vb, h)
        if case % 5 == 0 and epset.has_positive(b):
            assert vec(nat_closure(b), h) == oracle.brute_set_op(
                "natstar", None, vb, h
            )
        # star: small finite left operand at full horizon, infinite left
        # operand at a reduced horizon with a tail representative
        if case % 3 == 0:
            hs = 128
            sa = random_epset(rng, max_elem=24, max_period=6, max_fins=5)
            wa = vec(sa, hs)
            if sa.period is not None and member(b, 0):
                wa[hs] = True
            got = oracle.brute_set_op("star", wa, vec(b, hs), hs)
            assert vec(star(sa, b), hs) == got
            star_cases += 1
        # basic identities in canonical form
        c = random_epset(rng, max_elem=60, max_period=8)
        assert sumset(a, union(b, c)) == union(sumset(a, b), sumset(a, c))
        assert nstar(n, sumset(b, c)) == sumset(nstar(n, b), nstar(n, c))
        m2 = rng.randint(0, 3)
        assert nstar(m2, nstar(n, c)) == nstar(m2 * n, c)
        assert star(singleton(1), b) == b
        if case % 10 == 0:
            s1 = random_epset(rng, max_elem=10, max_period=4)
            s2 = random_epset(rng, max_elem=10, max_period=4)
            s3 = random_epset(rng, max_elem=10, max_period=4)
            assert star(sumset(s1, s2), s3) == sumset(star(s1, s3), star(s2, s3))
            assert star(union(s1, s2), s3) == union(star(s1, s3), star(s2, s3))
        # composition-parameter table
        if not a.is_empty and not b.is_empty:
            pa, pb = params(a), params(b)
            pu = params(union(a, b))
            assert pu.m == min(pa.m, pb.m)
            assert pu.q == math.gcd(pa.q, math.gcd(pb.q, abs(pb.m - pa.m)))
            ps = params(sumset(a, b))
            assert ps.m == pa.m + pb.m
            assert ps.q == math.gcd(pa.q, pb.q)
        if case % 10 == 0:
            s1 = random_epset(rng, max_elem=10, max_period=4)
            s2 = random_epset(rng, max_elem=10, max_period=4)
            if not s1.is_empty and not s2.is_empty:
                pa, pb = params(s1), params(s2)
                pstar = params(star(s1, s2))
                assert pstar.m == pa.m * pb.m
                if s1 == ZERO:
                    assert pstar.q == 0
                else:
                    assert pstar.q == math.gcd(pb.q, pa.q * pb.m)
    assert star_cases >= 300


def test_criterion_09_random_systems_vs_brute_fixpoint():
    # every other system may have nullable variables, which make it not basic
    rng = random.Random(90909)
    h = 256
    nullable = 0
    for case in range(200):
        draw = random_system if case % 2 else random_elementary_system
        sys_ = draw(rng, rng.randint(1, 4))
        cls = setsys.classify(sys_)
        assert cls.is_elementary or case % 2
        nullable += not cls.is_basic
        sol = setsys.solve(sys_, horizon=h)
        brute = oracle.brute_fixpoint(sys_, h)
        for i, v in enumerate(sol.variables):
            assert members(v.closed_form, h) == oracle.vec_members(brute[i]), sys_
        mv = setsys.min_vector(sys_)
        for i, v in enumerate(sol.variables):
            assert params(v.closed_form).m == mv[i]
        if cls.is_reduced:
            qv = setsys.q_vector(sys_)
            dg = setsys.dependency(sys_)
            for i, v in enumerate(sol.variables):
                assert params(v.closed_form).q == qv[i], sys_
            for i, j in dg.edges:
                assert qv[j] % qv[i] == 0
        if case % 4 == 0:
            base = [members(v.closed_form, h) for v in sol.variables]
            seeds = [
                normalize(sorted(rng.sample(range(1, h + 1), rng.randint(0, 10))))
                for _ in range(sys_.k)
            ]
            assert [
                set(s) for s in oracle.solve_seeded(sys_, h, seeds)
            ] == base
    assert nullable >= 30


def test_criterion_10_series_set_commutation(capsys, tmp_path):
    # every non-empty component has its least member on [0, n], so check's
    # zero components are the series that vanish there
    rng = random.Random(101010)
    n = 64
    spec = tmp_path / "series.spec"
    for _ in range(50):
        sys_ = random_series_system(rng, rng.randint(1, 3))
        rep = oracle.spectral_equivalence_check(sys_, n)
        assert rep.ok, sys_
        compiled = compile_mod.compile_system(sys_).system
        assert all(v <= n for v in setsys.min_vector(compiled) if v != math.inf), sys_
        spec.write_text(dsl.print_system(sys_))
        assert cli.main(["check", str(spec)]) == 0
        named = capsys.readouterr().out.splitlines()[-1]
        series = pseries.fixed_point_solve(sys_, n)
        zero = [v for v, s in zip(sys_.variables, series) if not any(s.coeffs)]
        assert named == f"identically zero: {', '.join(zero) or 'none'}", sys_


def test_criterion_11_neumann_vs_spectral_radius():
    rng = random.Random(111111)
    checked = 0
    for _ in range(500):
        k = rng.randint(1, 5)
        mat = tuple(
            tuple(
                F(rng.randint(0, 3), rng.randint(1, 6))
                if rng.random() < 0.6
                else F(0)
                for _ in range(k)
            )
            for _ in range(k)
        )
        rho = max(abs(np.linalg.eigvals(np.array(mat, dtype=float))))
        if abs(rho - 1.0) < 1e-6:
            continue  # guard band: the float oracle abstains
        verdict = neumann_check(mat).verdict
        assert (verdict == "NonnegInverse") == (rho < 1.0), (mat, rho, verdict)
        checked += 1
    assert checked >= 450
