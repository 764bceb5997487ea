import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectre import compile as compile_mod
from spectre import dsl, epset, setsys
from spectre.epset import (
    EMPTY,
    NAT,
    POS,
    ZERO,
    ENUMERATED_SETS,
    SemanticError,
    format_epset,
    member,
    normalize,
    params,
    singleton,
    sumset,
    union,
)
from spectre.setsys import (
    CERT_DOUBLING,
    CERT_LINEAR,
    GammaTerm,
    SetSystem,
    classify,
    dependency,
    min_vector,
    q_report,
    q_vector,
    reduce,
    solve,
)

import oracle
from oracle import linear_closed_form, nonuniqueness_probe, solve_seeded
from conftest import fixture_text, members, random_nonempty_epset, term

ODDS = normalize((), [(1, 2)])
LIN43 = union(normalize((), [(1, 3)]), normalize((), [(2, 3)]))
FROB35_POS = normalize([3, 5, 6], [(8, 1)])
ONE = singleton(1)
POS_EVEN = normalize((), [(2, 2)])


def binary_system() -> SetSystem:
    return SetSystem(
        ("Y",),
        ((term(ONE, 1), term(ONE, 1, e0=normalize([2]))),),
    )


def paths_system() -> SetSystem:
    k = 4
    return SetSystem(
        ("Y1", "Y2", "Y3", "Y4"),
        (
            (term(ONE, k, e1=ONE), term(ONE, k, e2=ONE)),
            (term(ONE, k, e2=ONE),),
            (term(ONE, k, e1=ONE), term(ONE, k), term(ONE, k, e3=ONE)),
            (term(ONE, k, e1=ONE),),
        ),
    )


def postage_system() -> SetSystem:
    d = normalize([3, 5])
    return SetSystem(("Y",), ((term(d, 1), term(d, 1, e0=ONE)),))


def lin43_system() -> SetSystem:
    return SetSystem(
        ("Y",),
        ((term(normalize([1, 2]), 1), term(normalize([3]), 1, e0=ONE)),),
    )


def structured_pair_system() -> SetSystem:
    primes = ENUMERATED_SETS["Primes"]
    return SetSystem(
        ("Y1", "Y2"),
        (
            (
                term(ONE, 2, e0=POS_EVEN),
                term(normalize([4]), 2, e1=normalize([3])),
            ),
            (
                GammaTerm(ONE, (ZERO, ZERO)),
                GammaTerm(ONE, (primes, normalize((), [(4, 6)]))),
            ),
        ),
    )


def nonuniq_system() -> SetSystem:
    return SetSystem(
        ("Y",),
        (
            (
                term(normalize([2]), 1),
                GammaTerm(ZERO, (ONE,)),
                term(ONE, 1, e0=ONE),
            ),
        ),
    )


# ---------------------------------------------------------------------------


class TestClassify:
    def test_binary(self):
        cls = classify(binary_system())
        assert cls.is_basic and cls.is_elementary and cls.is_reduced

    def test_zero_constant_not_basic(self):
        sys_ = SetSystem(
            ("Y1", "Y2"),
            ((term(ONE, 2), GammaTerm(ZERO, (ZERO, ONE))), (term(ZERO, 2),)),
        )
        cls = classify(sys_)
        assert not cls.is_basic

    def test_zero_base_with_weight_two_elementary(self):
        sys_ = SetSystem(
            ("Y",),
            ((GammaTerm(ZERO, (normalize([2]),)), term(normalize([2]), 1)),),
        )
        assert classify(sys_).is_elementary

    def test_bare_variable_equation_solved(self):
        # A = B is a unit rule, which solve eliminates
        sys_ = sets_system("A = B;", "B = {1} | {1} + B + B;")
        h = 64
        sol = solve(sys_, horizon=h)
        odd = normalize([], [(1, 2)])
        assert [v.closed_form for v in sol.variables] == [odd, odd]
        for v, b in zip(sol.variables, oracle.brute_fixpoint(sys_, h)):
            assert members(v.closed_form, h) == oracle.vec_members(b)


class TestEmptiesReduce:
    def two_empty(self):
        return SetSystem(
            ("Y1", "Y2"),
            ((term(ONE, 2, e1=ONE),), (term(normalize([2]), 2, e1=ONE),)),
        )

    def test_mutual_emptiness(self):
        assert classify(self.two_empty()).empties == {0, 1}

    def test_binary_no_empties(self):
        assert classify(binary_system()).empties == set()

    def test_paths_no_empties(self):
        assert classify(paths_system()).empties == set()

    def test_reduce_drops_empty(self):
        sys_ = SetSystem(
            ("Y1", "Y2"),
            (
                (term(ONE, 2), term(ONE, 2, e1=ONE)),
                (term(normalize([2]), 2, e1=ONE),),
            ),
        )
        red = reduce(sys_, classify(sys_).empties)
        assert red.variables == ("Y1",)
        assert red.equations == ((term(ONE, 1),),)
        sol = solve(red, horizon=32)
        assert sol.variables[0].closed_form == ONE

    def test_reduce_fixed_point(self):
        sys_ = paths_system()
        assert reduce(sys_, classify(sys_).empties) is sys_


class TestDependency:
    def test_paths_digraph(self):
        dg = dependency(paths_system())
        assert dg.edges == frozenset(
            {(0, 1), (0, 2), (1, 2), (2, 1), (2, 3), (3, 1)}
        )
        assert dg.component(1) == frozenset({1, 2, 3})
        assert dg.component(0) == frozenset()

    def test_self_loop(self):
        dg = dependency(binary_system())
        assert dg.component(0) == frozenset({0})

    def test_constant_equation(self):
        dg = dependency(SetSystem(("Y",), ((term(ONE, 1),),)))
        assert dg.edges == frozenset()
        assert dg.component(0) == frozenset()


class TestIterates:
    def test_paths_displayed_iterates(self):
        its = oracle.symbolic_iterate(paths_system(), 4)
        expect = [
            [EMPTY, EMPTY, ONE, EMPTY],
            [normalize([2]), normalize([2]), ONE, EMPTY],
            [normalize([2, 3]), normalize([2]), normalize([1, 3]), normalize([3])],
            [
                normalize([2, 3, 4]),
                normalize([2, 4]),
                normalize([1, 3, 4]),
                normalize([3]),
            ],
        ]
        assert its == expect

    def test_min_vector(self):
        assert min_vector(paths_system()) == [2, 2, 1, 3]
        assert min_vector(binary_system()) == [1]
        assert min_vector(structured_pair_system()) == [7, 1]

    def test_min_vector_empty_sentinel(self):
        sys_ = SetSystem(("Y",), ((term(ONE, 1, e0=ONE),),))
        assert min_vector(sys_) == [math.inf]


class TestQVector:
    def test_paths(self):
        assert q_vector(paths_system()) == [1, 1, 1, 1]

    def test_stamp_two(self):
        sys_ = SetSystem(
            ("Y",),
            ((term(normalize([2]), 1), term(normalize([2]), 1, e0=ONE)),),
        )
        assert q_vector(sys_) == [2]

    def test_structured_pair(self):
        rep = q_report(structured_pair_system())
        assert rep.q == (1, 1)
        assert rep.per_equation == (2, 1)

    def test_not_reduced_rejected(self):
        sys_ = SetSystem(("Y",), ((term(ONE, 1, e0=ONE),),))
        with pytest.raises(SemanticError, match=r"^empty components: \[0\]$"):
            q_vector(sys_)


class TestSolve:
    def test_binary(self):
        sol = solve(binary_system(), horizon=64)
        v = sol.variables[0]
        assert v.closed_form == ODDS
        assert v.certificate == CERT_DOUBLING
        assert (v.params.m, v.params.q, v.params.p, v.params.c) == (1, 2, 2, 1)

    def test_linear_43(self):
        sol = solve(lin43_system(), horizon=64)
        v = sol.variables[0]
        assert v.closed_form == LIN43
        assert v.certificate == CERT_LINEAR

    def test_postage(self):
        sol = solve(postage_system(), horizon=64)
        v = sol.variables[0]
        assert v.closed_form == FROB35_POS
        assert v.certificate == CERT_LINEAR

    def test_truncation_matches_closed_form(self):
        # the oracle's truncation to [0, 128]
        for sys_ in (binary_system(), paths_system(), postage_system()):
            sol = solve(sys_, horizon=128)
            for v, b in zip(sol.variables, oracle.brute_fixpoint(sys_, 128)):
                assert oracle.vec_members(b) == members(v.closed_form, 128)

    def test_strong_component_is_periodic(self):
        # variables inside a cycle solve to infinite eventually periodic
        # sets: past the onset, membership repeats with period p
        sol = solve(paths_system(), horizon=256)
        dg = dependency(paths_system())
        for i, v in enumerate(sol.variables):
            if dg.component(i):
                p, c = v.params.p, v.params.c
                assert p > 0
                for n in range(c, c + 3 * p + 1):
                    assert member(v.closed_form, n) == member(
                        v.closed_form, n + p
                    )


class TestLinearClosedForm:
    def test_examples(self):
        assert linear_closed_form(normalize([3, 5]), normalize([3, 5])) == FROB35_POS
        assert linear_closed_form(normalize([1, 2]), normalize([3])) == LIN43
        assert linear_closed_form(ONE, ONE) == normalize((), [(1, 1)])


class TestNonuniqueness:
    def test_three_solutions(self):
        sys_ = nonuniq_system()
        cands = [
            [NAT],
            [normalize((), [(1, 1)])],
            [normalize((), [(2, 1)])],
        ]
        assert nonuniqueness_probe(sys_, cands) == [True, True, True]

    def test_negative(self):
        assert nonuniqueness_probe(
            nonuniq_system(), [[normalize((), [(3, 1)])]]
        ) == [False]

    def test_hatted_unique(self):
        hatted = SetSystem(
            ("Y",),
            ((term(normalize([2]), 1), term(ONE, 1, e0=ONE)),),
        )
        two_up = normalize((), [(2, 1)])
        assert nonuniqueness_probe(hatted, [[two_up]]) == [True]
        sol = solve(hatted, horizon=64)
        assert sol.variables[0].closed_form == two_up


# ---------------------------------------------------------------------------
# randomized cross-checks (small; the larger sweeps are in test_acceptance)


def random_elementary_system(
    rng: random.Random, k: int, periodic: bool = False
) -> SetSystem:
    """Exponent sets are finite subsets of {0..5}, or with periodic=True
    also eventually periodic sets, with or without 0."""
    names = tuple(f"Y{i}" for i in range(k))
    eqs = []
    for _ in range(k):
        terms = []
        for _ in range(rng.randint(1, 3)):
            base = random_nonempty_epset(
                rng, max_elem=8, max_period=4, infinite_prob=0.2
            )
            exps = []
            for _ in range(k):
                if rng.random() < 0.55:
                    exps.append(ZERO)
                elif periodic and rng.random() < 0.5:
                    exps.append(
                        random_nonempty_epset(
                            rng, max_elem=5, max_period=3, infinite_prob=0.7
                        )
                    )
                else:
                    elems = sorted(
                        rng.sample(range(6), rng.randint(1, 3))
                    )
                    exps.append(normalize(elems))
            t = GammaTerm(base, tuple(exps))
            if member(base, 0) and t.min_weight() < 2:
                t = GammaTerm(sumset(base, normalize([2])), t.exponents)
            terms.append(t)
        eqs.append(tuple(terms))
    return SetSystem(names, tuple(eqs))


def with_primes(rng: random.Random, sys_: SetSystem) -> SetSystem:
    """sys_ with each exponent set replaced by Primes with probability 1/4,
    and at least one replaced."""
    primes = ENUMERATED_SETS["Primes"]
    while True:
        eqs = tuple(
            tuple(
                GammaTerm(t.base, tuple(primes if rng.random() < 0.25 else e for e in t.exponents))
                for t in eq
            )
            for eq in sys_.equations
        )
        out = SetSystem(sys_.variables, eqs)
        if out.has_enumerated():
            return out


UNIT_BASES = (ZERO, ZERO, ZERO, ONE, normalize([2]), normalize([0, 3]), normalize([0], [(2, 2)]))
UNIT_EXPONENTS = (ONE, ONE, ONE, normalize([0, 1]), normalize([1, 2]), normalize([0, 2]), POS, NAT)


def random_basic_system(rng: random.Random, k: int) -> SetSystem:
    """A random basic system, biased toward unit rules: most bases are {0}
    and most exponent sets {1}."""
    names = tuple(f"Y{i}" for i in range(k))
    eqs = []
    for _ in range(k):
        terms, size = [], rng.randint(1, 3)
        while len(terms) < size:
            exps = tuple(
                rng.choice(UNIT_EXPONENTS) if rng.random() < 0.4 else ZERO
                for _ in range(k)
            )
            t = GammaTerm(rng.choice(UNIT_BASES), exps)
            if not (member(t.base, 0) and t.min_weight() == 0):
                terms.append(t)
        eqs.append(tuple(terms))
    return SetSystem(names, tuple(eqs))


class TestIntegerFormulas:
    """min_vector, classify's empties and q_vector come from integer
    passes; the symbolic iterates and solve's closed forms pin them."""

    @pytest.mark.parametrize("periodic", [False, True])
    def test_min_and_empties_vs_iterates(self, periodic):
        rng = random.Random(3141)
        for _ in range(150):
            sys_ = random_elementary_system(rng, rng.randint(1, 4), periodic=periodic)
            last = oracle.symbolic_iterate(sys_, sys_.k)[-1]
            assert min_vector(sys_) == [params(a).m for a in last], sys_
            assert classify(sys_).empties == {i for i, a in enumerate(last) if a.is_empty}, sys_

    def test_primes_vs_closed_forms(self):
        rng = random.Random(1618)
        solved = 0
        for n in range(160):
            plain = random_elementary_system(rng, rng.randint(1, 3), periodic=n % 2 == 1)
            sys_ = with_primes(rng, plain)
            try:
                sol = solve(sys_, horizon=64)
            except SemanticError as e:
                if "leave the solution open" not in str(e):
                    raise
                continue  # a spectrum that is not eventually periodic
            solved += 1
            forms = [params(v.closed_form) for v in sol.variables]
            assert min_vector(sys_) == [pp.m for pp in forms], sys_
            if sol.classification.is_reduced:
                assert q_vector(sys_) == [pp.q for pp in forms], sys_
        assert solved >= 100

    def test_primes_with_periodic_exponents(self):
        # 18.6 s by symbolic iteration over the first 64 primes; a fraction
        # of a millisecond by the integer passes
        sys_ = sets_system(
            "Y0 = {4};",
            "Y1 = {1,5,8} + Primes*Y1 | {4,8} | {2,5,6} + {4,5}*Y1;",
            "Y2 = ({1,2,4,5,7,8} | 9+2*N) | (2+4*N) + {4}*Y2;",
        )
        start = time.perf_counter()
        assert min_vector(sys_) == [4, 4, 1]
        rep = q_report(sys_)
        assert time.perf_counter() - start < 1.0
        assert (rep.q, rep.per_equation) == ((0, 1, 1), (0, 1, 1))
        assert [params(v.closed_form).m for v in solve(sys_).variables] == [4, 4, 1]

    def test_gamma_eval_refuses_primes(self):
        # the first 64 primes are no solution of Y = Primes*Z; Z = {1}
        sys_ = sets_system("Y = Primes*Z;", "Z = {1};")
        first = normalize(ENUMERATED_SETS["Primes"].members_upto(311))
        assert len(first.finite_part) == 64
        with pytest.raises(SemanticError, match="cannot apply Gamma with an enumerated index set"):
            nonuniqueness_probe(sys_, [[first, ONE]])


class TestRandomSystems:
    def test_oracle_and_formulas(self):
        rng = random.Random(4242)
        h = 96
        for _ in range(40):
            sys_ = random_elementary_system(rng, rng.randint(1, 3))
            cls = classify(sys_)
            assert cls.is_elementary
            sol = solve(sys_, horizon=h)
            brute = oracle.brute_fixpoint(sys_, h)
            for i, v in enumerate(sol.variables):
                assert members(v.closed_form, h) == oracle.vec_members(brute[i]), sys_
            mv = min_vector(sys_)
            for i, v in enumerate(sol.variables):
                assert params(v.closed_form).m == mv[i]
            if not cls.empties:
                qv = q_vector(sys_)
                dg = dependency(sys_)
                for i, v in enumerate(sol.variables):
                    assert params(v.closed_form).q == qv[i], sys_
                for i, j in dg.edges:
                    assert qv[j] % qv[i] == 0

    def test_seeding_invariance(self):
        rng = random.Random(77)
        h = 64
        for _ in range(15):
            sys_ = random_elementary_system(rng, rng.randint(1, 3))
            base = solve_seeded(sys_, h, [EMPTY] * sys_.k)
            seeds = [
                normalize(sorted(rng.sample(range(1, h + 1), rng.randint(0, 8))))
                for _ in range(sys_.k)
            ]
            seeded = solve_seeded(sys_, h, seeds)
            assert [set(s) for s in seeded] == base


class TestWithoutUnits:
    """Gamma' has the least solution of Gamma as its one positive fixed
    point, on random basic systems that often close cycles of unit rules."""

    def test_random_basic_systems(self, monkeypatch):
        rng = random.Random(1979)
        h = 48
        changed = planted = non_least = faulted = 0
        for n in range(160):
            sys_ = random_basic_system(rng, rng.randint(1, 3))
            nu = [v.closed_form for v in solve(sys_, horizon=h).variables]
            for v, b in zip(nu, oracle.brute_fixpoint(sys_, h)):
                assert members(v, h) == oracle.vec_members(b), sys_
            flat = setsys._without_units(sys_)
            changed += flat != sys_
            assert setsys.gamma_eval(flat, nu) == nu
            # one member planted in a gap of a solution
            i = rng.randrange(sys_.k)
            gaps = sorted(set(range(1, h)) - members(nu[i], h))
            if gaps:
                wrong = list(nu)
                wrong[i] = union(nu[i], singleton(rng.choice(gaps)))
                assert setsys.gamma_eval(flat, wrong) != wrong, sys_
                planted += 1
            # a larger fixed point of Gamma, from nu | x+N upward
            y = [union(v, normalize((), [(rng.randint(1, 6), 1)])) for v in nu]
            image = setsys.gamma_eval(sys_, y)
            while image != y and all(map(epset.is_subset, y, image)):
                y, image = image, setsys.gamma_eval(sys_, image)
            if image == y != nu:
                assert setsys.gamma_eval(flat, y) != y, sys_
                non_least += 1
            # a fault inside Newton is an internal error or harmless
            if n % 3 == 0:
                solve_linear = setsys._solve_linear
                x = rng.randint(1, 12)
                fault = rng.choice([
                    lambda c, d: [union(v, singleton(x)) for v in solve_linear(c, d)],
                    lambda c, d: [POS] * len(d),
                ])
                with monkeypatch.context() as m:
                    m.setattr(setsys, "_solve_linear", fault)
                    try:
                        got = [v.closed_form for v in solve(sys_, horizon=h).variables]
                    except AssertionError:
                        faulted += 1
                        continue
                assert got == nu, sys_
        assert changed >= 60 and planted >= 100 and non_least >= 20 and faulted >= 5


# ---------------------------------------------------------------------------
# exact solving: closed forms that a finite truncation cannot show


def sets_system(*equations: str) -> SetSystem:
    names = [eq.split("=")[0].strip() for eq in equations]
    return dsl.parse(f"vars {', '.join(names)};\nmode sets;\n" + "\n".join(equations))


def fixture_system(name: str) -> SetSystem:
    """A bundled fixture as solve sees it, series files translated to sets."""
    sys_ = dsl.parse(fixture_text(name))
    return sys_ if isinstance(sys_, SetSystem) else compile_mod.compile_system(sys_).system


class TestExactSolve:
    def test_member_past_the_horizon(self):
        # at the default horizon 512 every truncation looks like 1+2*N
        sol = solve(sets_system("Y = {1} | {1} + {2}*Y | {10000};"))
        v = sol.variables[0]
        odds = ",".join(str(n) for n in range(1, 9998, 2))
        assert format_epset(v.closed_form) == "{" + odds + "} | 9999+1*N"
        assert v.certificate == CERT_DOUBLING
        assert (v.params.m, v.params.q, v.params.p, v.params.c) == (1, 1, 1, 9999)

    @pytest.mark.parametrize(
        "equations, h, last_gaps",
        [
            (("Y0 = {7} | {6} + (3+3*N)*Y0;",), 450, [406]),
            (
                (
                    "Y0 = ({2,3} | 8+4*N) + {0,1,4}*Y0;",
                    "Y1 = {8} + {0}*Y1 | {1,2} + {4}*Y1;",
                ),
                700,
                [1, 607],
            ),
        ],
    )
    def test_tail_starts_past_half_the_horizon(self, equations, h, last_gaps):
        sys_ = sets_system(*equations)
        sol = solve(sys_, horizon=512)
        brute = oracle.brute_fixpoint(sys_, h)
        for v, b, gap in zip(sol.variables, brute, last_gaps):
            assert members(v.closed_form, h) == oracle.vec_members(b)
            assert v.params.c == gap + 1

    def test_periodic_index_sets_vs_oracle(self):
        # closed forms solved at horizon 24 hold far past it
        rng = random.Random(2718)
        h = 96
        for _ in range(30):
            sys_ = random_elementary_system(rng, rng.randint(1, 3), periodic=True)
            sol = solve(sys_, horizon=24)
            brute = oracle.brute_fixpoint(sys_, h)
            for v, b in zip(sol.variables, brute):
                assert members(v.closed_form, h) == oracle.vec_members(b), sys_
                if v.certificate == CERT_DOUBLING:
                    assert v.params.p == v.params.q

    @pytest.mark.parametrize(
        "make, closes_at",
        [
            (structured_pair_system, 4),
            (lambda: fixture_system("structured.spec"), 4),
            (lambda: sets_system("Y = {1} | Primes*Y;"), 2),
            (lambda: sets_system("Y = {1} | {1} + Primes*Y;"), 4),
            (lambda: sets_system("Y = {2} | {3} + Primes*Y;"), 8),
        ],
        ids=["pair", "structured", "primes-star", "shifted", "late"],
    )
    def test_enumerated_index_sets_are_bracketed(self, monkeypatch, make, closes_at):
        # Primes is cut to the primes up to P, and to those plus P+1+N; the
        # answer for the lower cut is proven once it solves the upper one too,
        # and it holds far past the horizon
        sys_ = make()
        cut = setsys._cut
        bounds = []
        monkeypatch.setattr(
            setsys, "_cut", lambda s, bound, tail: bounds.append(bound) or cut(s, bound, tail)
        )
        sol = solve(sys_, horizon=64)
        assert max(bounds) == closes_at
        certified = {CERT_LINEAR, CERT_DOUBLING, setsys.CERT_FINITE}
        assert {v.certificate for v in sol.variables} <= certified
        h = 256
        for v, b in zip(sol.variables, oracle.brute_fixpoint(sys_, h)):
            assert members(v.closed_form, h) == oracle.vec_members(b)

    def test_non_periodic_spectrum_is_refused(self):
        # Y = Primes: the two cuts never agree, whatever the horizon
        sys_ = sets_system("Y = Primes*Z;", "Z = {1};")
        with pytest.raises(SemanticError, match="enumerated index sets cut at 64 leave the solution open"):
            solve(sys_, horizon=64)

    def test_non_elementary_least_solution(self):
        # every set containing 1 solves Y = {1} | {0} + Y; without the unit
        # rule Y >= Y only {1} does
        sys_ = sets_system("Y = {1} | {0} + Y;")
        assert not classify(sys_).is_elementary
        h = 64
        sol = solve(sys_, horizon=h)
        assert sol.variables[0].closed_form == ONE
        brute = oracle.brute_fixpoint(sys_, h)
        assert [members(v.closed_form, h) for v in sol.variables] == [
            oracle.vec_members(b) for b in brute
        ]

    def test_cost_is_independent_of_the_horizon(self, monkeypatch):
        # the horizon bounds only the bracket on Primes, which structured
        # closes at P = 4
        calls = []
        gamma_eval = setsys.gamma_eval
        monkeypatch.setattr(
            setsys, "gamma_eval", lambda *args: calls.append(1) or gamma_eval(*args)
        )
        for name in ("paths", "structured", "bluered"):
            counts = []
            for h in (512, 8192):
                calls.clear()
                solve(fixture_system(f"{name}.spec"), horizon=h)
                counts.append(len(calls))
            assert counts[0] == counts[1], name

    @pytest.mark.parametrize("name", ["paths", "bluered"])
    def test_each_star_computed_once(self, monkeypatch, name):
        # gamma_eval, the Jacobian and the folding of solved components
        # all read one star table per solve
        pairs = []
        real = setsys.star
        monkeypatch.setattr(setsys, "star", lambda e, b: pairs.append((e, b)) or real(e, b))
        solve(fixture_system(f"{name}.spec"))
        assert pairs and len(set(pairs)) == len(pairs), name

    def test_components_without_enumerated_sets_solved_once(self, monkeypatch):
        # the bracket on Primes doubles P up to 64; Z reaches no Primes
        solved = []
        newton = setsys._newton
        monkeypatch.setattr(
            setsys, "_newton", lambda s, stars: solved.append(s.variables) or newton(s, stars)
        )
        with pytest.raises(SemanticError, match="cut at 64 leave the solution open"):
            solve(sets_system("Y = Primes*Z;", "Z = {1};"), horizon=64)
        assert solved.count(("Z",)) == 1
        assert solved.count(("Y",)) == 6
