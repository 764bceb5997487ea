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
    EPSet,
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
    solution_json,
    solve,
)

import oracle
from oracle import linear_closed_form, nonuniqueness_probe, solve_seeded
from conftest import fixture_text, members, random_epset, random_nonempty_epset, term

ODDS = normalize((), [(1, 2)])
LIN43 = union(normalize((), [(1, 3)]), normalize((), [(2, 3)]))
FROB35_POS = normalize([3, 5, 6], [(8, 1)])
ONE = singleton(1)
POS_EVEN = normalize((), [(2, 2)])


def binary_system() -> SetSystem:
    return SetSystem(
        ("Y",),
        ((term(ONE), term(ONE, e0=normalize([2]))),),
    )


def paths_system() -> SetSystem:
    return SetSystem(
        ("Y1", "Y2", "Y3", "Y4"),
        (
            (term(ONE, e1=ONE), term(ONE, e2=ONE)),
            (term(ONE, e2=ONE),),
            (term(ONE, e1=ONE), term(ONE), term(ONE, e3=ONE)),
            (term(ONE, e1=ONE),),
        ),
    )


def postage_system() -> SetSystem:
    d = normalize([3, 5])
    return SetSystem(("Y",), ((term(d), term(d, e0=ONE)),))


def lin43_system() -> SetSystem:
    return SetSystem(
        ("Y",),
        ((term(normalize([1, 2])), term(normalize([3]), e0=ONE)),),
    )


def structured_pair_system() -> SetSystem:
    primes = ENUMERATED_SETS["Primes"]
    return SetSystem(
        ("Y1", "Y2"),
        (
            (
                term(ONE, e0=POS_EVEN),
                term(normalize([4]), e1=normalize([3])),
            ),
            (
                term(ONE),
                term(ONE, e0=primes, e1=normalize((), [(4, 6)])),
            ),
        ),
    )


def nonuniq_system() -> SetSystem:
    return SetSystem(
        ("Y",),
        (
            (
                term(normalize([2])),
                term(ZERO, e0=ONE),
                term(ONE, e0=ONE),
            ),
        ),
    )


# ---------------------------------------------------------------------------


def test_family_lists_the_variables_it_uses():
    # {0} means absent and is left out; the rest is ordered by variable
    t = GammaTerm(ONE, [(2, ONE), (0, ZERO), (1, POS)])
    assert t.factors == ((1, POS), (2, ONE))
    assert t == GammaTerm(ONE, ((1, POS), (2, ONE)))
    assert (t.used, t.twice, t.min_weight()) == (0b110, 0b010, 2)
    assert GammaTerm(ONE, [(0, ZERO)]) == term(ONE)


def test_a_family_repeats_a_variable_per_enumerated_exponent():
    # one periodic pair per variable, first, then one pair per enumerated
    # exponent; used and twice OR their bits
    primes = ENUMERATED_SETS["Primes"]
    t = GammaTerm(ONE, [(1, primes), (2, ONE), (1, POS), (1, primes)])
    assert t.factors == ((1, POS), (1, primes), (1, primes), (2, ONE))
    assert t == GammaTerm(ONE, [(2, ONE), (1, primes), (1, primes), (1, POS)])
    assert (t.used, t.twice, t.min_weight()) == (0b110, 0b010, 6)
    # two periodic exponents of one variable merge into one pair
    assert GammaTerm(ONE, [(0, primes), (0, ONE), (0, POS)]).factors == (
        (0, sumset(ONE, POS)), (0, primes),
    )


def test_family_sums_the_periodic_exponents():
    primes = ENUMERATED_SETS["Primes"]
    t = GammaTerm(ONE, [(1, primes), (0, ONE), (1, ONE), (0, POS), (1, primes), (2, ZERO)])
    assert t.factors == ((0, sumset(ONE, POS)), (1, ONE), (1, primes), (1, primes))
    assert GammaTerm(ZERO, [(0, ONE), (0, ONE)]) == term(ZERO, e0=normalize([2]))
    # a cut Primes merges with the other exponents of its variable
    cut = setsys._cut(SetSystem(("Y", "Z"), ((t,), (term(ONE),))), 5, [])
    assert cut.equations[0] == (
        term(ONE, e0=normalize([], [(2, 1)]), e1=normalize([5, 6, 7, 8, 9, 11])),
    )
    # and so does down(Primes) = N on a nullable variable
    sys_ = sets_system("Y = {1} + Z + Primes*Z + Primes*Z;", "Z = {0} | {1};")
    flat = setsys._normal_form(sys_, min_vector(sys_))
    assert flat.equations == ((term(ONE, e1=NAT),), (term(ONE),))


class TestClassify:
    def test_binary(self):
        cls = classify(binary_system())
        assert cls.is_basic and cls.is_elementary and cls.is_reduced

    def test_zero_constant_not_basic(self):
        sys_ = SetSystem(
            ("Y1", "Y2"),
            ((term(ONE), term(ZERO, e1=ONE)), (term(ZERO),)),
        )
        cls = classify(sys_)
        assert not cls.is_basic

    def test_zero_base_with_weight_two_elementary(self):
        sys_ = SetSystem(
            ("Y",),
            ((term(ZERO, e0=normalize([2])), term(normalize([2]))),),
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
            ((term(ONE, e1=ONE),), (term(normalize([2]), e1=ONE),)),
        )

    def test_mutual_emptiness(self):
        assert classify(self.two_empty()).empties == {0, 1}

    def test_binary_no_empties(self):
        assert classify(binary_system()).empties == set()

    def test_paths_no_empties(self):
        assert classify(paths_system()).empties == set()

    def test_dead_family_leaves_the_certificate(self):
        # Y + Y + W needs the empty W, so the reduced system drops it and
        # Y's component meets no doubling condition there: the certificate
        # is read on the live families, not on every family of the system
        sys_ = dsl.parse("vars Y, W; mode sets; Y = {1} | Y + Y + W; W = {1} + W;")
        doc = solution_json(solve(sys_))
        assert doc["classification"]["empties"] == [1]
        assert [(v["var"], v["certificate"]) for v in doc["solution"]] == [
            ("Y", setsys.CERT_FINITE),
            ("W", CERT_LINEAR),
        ]


class TestDependency:
    def test_paths_digraph(self):
        dg = dependency(paths_system())
        assert dg.edges == frozenset(
            {(0, 1), (0, 2), (1, 2), (2, 1), (2, 3), (3, 1)}
        )
        assert dg.strong_components() == [(1, 2, 3)]

    def test_self_loop(self):
        dg = dependency(binary_system())
        assert dg.strong_components() == [(0,)]

    def test_constant_equation(self):
        dg = dependency(SetSystem(("Y",), ((term(ONE),),)))
        assert dg.edges == frozenset()
        assert dg.strong_components() == []

    def test_reach_masks_vs_search(self):
        # bit j of reach[i] is set iff a path of one or more edges leads
        # from i to j; components() lists every component after the ones
        # it reaches, and strong_components() those on a cycle
        rng = random.Random(4242)
        for _ in range(60):
            sys_ = random_basic_system(rng, rng.randint(1, 7))
            dg = dependency(sys_)
            k = sys_.k
            assert dg.edges == {
                (i, j) for i, eq in enumerate(sys_.equations) for t in eq
                for j, e in t.factors if epset.index_reaches(e, 1)
            }
            reached = []
            for i in range(k):
                seen, todo = set(), [j for a, j in dg.edges if a == i]
                while todo:
                    j = todo.pop()
                    if j not in seen:
                        seen.add(j)
                        todo.extend(b for a, b in dg.edges if a == j)
                reached.append(seen)
                assert dg.reach[i] == sum(1 << j for j in seen), sys_
            comps = dg.components()
            assert set(comps) == {
                tuple(j for j in range(k) if j == i or j in reached[i] and i in reached[j])
                for i in range(k)
            }
            for n, c in enumerate(comps):
                for later in comps[n + 1:]:
                    assert not reached[c[0]] & set(later), sys_
            assert dg.strong_components() == sorted(c for c in comps if c[0] in reached[c[0]])


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

    def test_min_vector_slow_chain(self):
        # Y_i = {2} + Y_(i+1), Y_99 = {1}: the minimum of Y_0 first shows
        # in round 100, and every round before it changes some minimum
        k = 100
        eqs = [(term(normalize([2]), **{f"e{i + 1}": ONE}),) for i in range(k - 1)]
        sys_ = SetSystem(tuple(f"Y{i}" for i in range(k)), (*eqs, (term(ONE),)))
        assert min_vector(sys_) == [2 * (k - 1 - i) + 1 for i in range(k)]

    def test_min_vector_empty_sentinel(self):
        sys_ = SetSystem(("Y",), ((term(ONE, e0=ONE),),))
        assert min_vector(sys_) == [math.inf]


class TestQVector:
    def test_paths(self):
        assert q_vector(paths_system()) == [1, 1, 1, 1]

    def test_stamp_two(self):
        sys_ = SetSystem(
            ("Y",),
            ((term(normalize([2])), term(normalize([2]), e0=ONE)),),
        )
        assert q_vector(sys_) == [2]

    def test_structured_pair(self):
        rep = q_report(structured_pair_system())
        assert rep.q == (1, 1)
        assert rep.per_equation == (2, 1)

    def test_not_reduced_rejected(self):
        sys_ = SetSystem(("Y",), ((term(ONE, e0=ONE),),))
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
        on_cycle = {i for c in dependency(paths_system()).strong_components() for i in c}
        for i, v in enumerate(sol.variables):
            if i in on_cycle:
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
            ((term(normalize([2])), term(ONE, e0=ONE)),),
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
    """random_system with each family that has 0 in its base and weight
    below 2 moved up by 2."""
    def lifted(t: GammaTerm) -> GammaTerm:
        if member(t.base, 0) and t.min_weight() < 2:
            return GammaTerm(sumset(t.base, normalize([2])), t.factors)
        return t

    sys_ = random_system(rng, k, periodic)
    return SetSystem(sys_.variables, tuple(tuple(map(lifted, eq)) for eq in sys_.equations))


def random_system(rng: random.Random, k: int, periodic: bool = False) -> SetSystem:
    """Exponent sets are finite subsets of {0..5}, or with periodic=True
    also eventually periodic sets, with or without 0. A base may hold 0,
    so the system may be nullable, and is then not basic."""
    names = tuple(f"Y{i}" for i in range(k))
    eqs = []
    for _ in range(k):
        terms = []
        for _ in range(rng.randint(1, 3)):
            base = random_nonempty_epset(
                rng, max_elem=8, max_period=4, infinite_prob=0.2
            )
            exps = []
            for j in range(k):
                if rng.random() < 0.55:
                    continue
                elif periodic and rng.random() < 0.5:
                    exps.append((j, random_nonempty_epset(
                        rng, max_elem=5, max_period=3, infinite_prob=0.7
                    )))
                else:
                    elems = sorted(
                        rng.sample(range(6), rng.randint(1, 3))
                    )
                    exps.append((j, normalize(elems)))
            terms.append(GammaTerm(base, exps))
        eqs.append(tuple(terms))
    return SetSystem(names, tuple(eqs))


def with_primes(rng: random.Random, sys_: SetSystem) -> SetSystem:
    """sys_ with the exponent set of each variable in each family, {0} for
    an absent one, replaced by Primes with probability 1/4, and at least
    one replaced."""
    primes = ENUMERATED_SETS["Primes"]

    def replaced(t: GammaTerm) -> GammaTerm:
        exps = dict(t.factors)
        return GammaTerm(t.base, [
            (j, primes if rng.random() < 0.25 else exps.get(j, ZERO)) for j in range(sys_.k)
        ])

    while True:
        eqs = tuple(tuple(map(replaced, eq)) for eq in sys_.equations)
        out = SetSystem(sys_.variables, eqs)
        if out.enumerated:
            return out


UNIT_BASES = (ZERO, ZERO, ZERO, ONE, normalize([2]), normalize([0, 3]), normalize([0], [(2, 2)]))
UNIT_EXPONENTS = (ONE, ONE, ONE, normalize([0, 1]), normalize([1, 2]), normalize([0, 2]), POS, NAT)


def random_basic_system(rng: random.Random, k: int) -> SetSystem:
    """A random basic system, biased toward unit rules: most bases are {0}
    and most exponent sets {1}."""
    return random_unit_system(rng, k, basic=True)


def random_unit_system(rng: random.Random, k: int, basic: bool = False) -> SetSystem:
    """A random system, biased toward unit rules, and toward empty words
    unless basic=True, which draws again each family that takes 0 at the
    empty set."""
    names = tuple(f"Y{i}" for i in range(k))
    eqs = []
    for _ in range(k):
        terms, size = [], rng.randint(1, 3)
        while len(terms) < size:
            exps = [(j, rng.choice(UNIT_EXPONENTS)) for j in range(k) if rng.random() < 0.4]
            t = GammaTerm(rng.choice(UNIT_BASES), exps)
            if not (basic and member(t.base, 0) and t.min_weight() == 0):
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
    """Gamma+, the normal form, has the least solution of Gamma less 0 as
    its one positive fixed point, on random systems that often close
    cycles of unit rules and, unless basic, take the empty word."""

    @staticmethod
    def flat(sys_: SetSystem) -> SetSystem:
        return setsys._normal_form(sys_, min_vector(sys_))

    def test_random_basic_systems(self, monkeypatch):
        rng = random.Random(1979)
        h = 48
        changed = planted = non_least = faulted = 0
        for n in range(160):
            sys_ = random_basic_system(rng, rng.randint(1, 3))
            nu = [v.closed_form for v in solve(sys_, horizon=h).variables]
            for v, b in zip(nu, oracle.brute_fixpoint(sys_, h)):
                assert members(v, h) == oracle.vec_members(b), sys_
            flat = self.flat(sys_)
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
                    lambda c, d, stars: [union(v, singleton(x)) for v in solve_linear(c, d, stars)],
                    lambda c, d, stars: [POS] * len(d),
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

    def test_random_nullable_systems(self):
        # the positive parts of the least solution are Gamma+'s one
        # positive fixed point; 0 is in exactly the nullable variables
        rng = random.Random(1980)
        h = 48
        nullable = planted = non_least = 0
        for _ in range(160):
            sys_ = random_unit_system(rng, rng.randint(1, 3))
            sol = solve(sys_, horizon=h)
            nu = [v.closed_form for v in sol.variables]
            for v, b in zip(nu, oracle.brute_fixpoint(sys_, h)):
                assert members(v, h) == oracle.vec_members(b), sys_
            nullable += not classify(sys_).is_basic
            pos = [epset.index_from(v, 1) for v in nu]
            flat = self.flat(sys_)
            assert setsys.gamma_eval(flat, pos) == pos, sys_
            i = rng.randrange(sys_.k)
            gaps = sorted(set(range(1, h)) - members(nu[i], h))
            if gaps:
                wrong = list(pos)
                wrong[i] = union(pos[i], singleton(rng.choice(gaps)))
                assert setsys.gamma_eval(flat, wrong) != wrong, sys_
                planted += 1
            y = [union(v, normalize((), [(rng.randint(1, 6), 1)])) for v in nu]
            image = setsys.gamma_eval(sys_, y)
            while image != y and all(map(epset.is_subset, y, image)):
                y, image = image, setsys.gamma_eval(sys_, image)
            fixed, y = image == y, [epset.index_from(v, 1) for v in y]
            if fixed and y != pos:
                assert setsys.gamma_eval(flat, y) != y, sys_
                non_least += 1
        assert nullable >= 100 and planted >= 100 and non_least >= 30

    def test_enumerated_sets_start_at_two(self):
        # so a family with an enumerated index set on a variable that is not
        # nullable has weight >= 2, and _normal_form neither splits it nor
        # makes it a unit rule
        assert all(e.first() >= 2 for e in ENUMERATED_SETS.values())

    def test_primes_on_a_nullable_variable_is_every_count(self):
        # down(Primes) = N: Y >= Z is a unit rule, Y takes Z's family, and
        # 2+N is the rest of N less 0
        sys_ = sets_system("Y = {0} | Primes*Z;", "Z = {0} | {3} + Z;")
        flat = self.flat(sys_)
        assert not flat.enumerated
        assert flat.equations[0] == (
            GammaTerm(ZERO, [(1, normalize((), [(2, 1)]))]),
            GammaTerm(singleton(3), [(1, normalize([0, 1]))]),
        )
        assert [format_epset(v.closed_form) for v in solve(sys_).variables] == ["0+3*N"] * 2

    def test_primes_on_a_finite_nullable_variable_is_every_count(self):
        # Z = {0,1} is finite, so only down(Primes) = N closes Y's bracket:
        # each cut of Primes leaves Y finite, and its tail makes Y cofinite
        sys_ = sets_system("Y = Primes*Z;", "Z = {0} | {1};")
        assert not self.flat(sys_).enumerated
        sol = solve(sys_)
        assert [format_epset(v.closed_form) for v in sol.variables] == ["0+1*N", "{0,1}"]
        assert [v.certificate for v in sol.variables] == [
            "CertifiedFiniteConvergence",
            "CertifiedLinear",
        ]

    def test_cut_commutes_with_unit_elimination(self):
        # solve cuts Gamma+ for the bracket on Primes, not Gamma; a basic
        # system has no nullable variable, so Gamma+ keeps each Primes
        rng = random.Random(2009)
        changed = 0
        for _ in range(100):
            sys_ = with_primes(rng, random_basic_system(rng, rng.randint(1, 3)))
            flat = self.flat(sys_)
            changed += flat != sys_
            for bound in (2, 4, 8, 32):
                for tail in ([], [(bound + 1, 1)]):
                    cut = setsys._cut(sys_, bound, tail)
                    assert self.flat(cut) == setsys._cut(flat, bound, tail), sys_
        assert changed >= 30

    def test_random_systems_with_primes(self):
        rng = random.Random(2010)
        h = 160
        solved = 0
        for _ in range(40):
            sys_ = with_primes(rng, random_unit_system(rng, rng.randint(1, 3)))
            try:
                sol = solve(sys_, horizon=64)
            except SemanticError as e:
                assert "leave the solution open" in str(e)
                continue
            solved += 1
            for v, b in zip(sol.variables, oracle.brute_fixpoint(sys_, h)):
                assert members(v.closed_form, h) == oracle.vec_members(b), sys_
        assert solved >= 30

    def test_random_systems_with_repeated_primes(self):
        # families that list a variable once more per Primes exponent, on
        # systems with unit rules and nullable variables
        rng = random.Random(2011)
        primes = ENUMERATED_SETS["Primes"]
        h = 160
        solved = repeated = 0

        def more(t: GammaTerm, k: int) -> GammaTerm:
            extra = [(rng.randrange(k), primes) for _ in range(rng.randint(0, 2))]
            return GammaTerm(t.base, [*t.factors, *extra])

        for _ in range(40):
            base = random_unit_system(rng, rng.randint(1, 3))
            eqs = tuple(tuple(more(t, base.k) for t in eq) for eq in base.equations)
            sys_ = SetSystem(base.variables, eqs)
            repeated += any(len(t.factors) > t.used.bit_count() for eq in eqs for t in eq)
            assert dsl.parse(dsl.print_system(sys_)) == sys_
            try:
                sol = solve(sys_, horizon=64)
            except SemanticError as e:
                assert "leave the solution open" in str(e)
                continue
            solved += 1
            for v, b in zip(sol.variables, oracle.brute_fixpoint(sys_, h)):
                assert members(v.closed_form, h) == oracle.vec_members(b), sys_
        assert solved >= 30 and repeated >= 20, (solved, repeated)

    def test_families_grow_polynomially(self):
        # a w-wide family with 0 in its base splits by its first factor not
        # at 0, not into every choice of {0}, {1} and 2+N per factor
        def wide(w: int, nullable: bool) -> SetSystem:
            rhs = " + ".join(f"N*Y{j}" for j in range(2, w + 1))
            first, own = ("N*Y1", "{0} | {1}") if nullable else ("Y1", "{1}")
            return sets_system(
                f"Y0 = {{0}} + {first} + {rhs};",
                *(f"Y{j} = {own} | {{2}} + Y{j};" for j in range(1, w + 1)),
            )

        unit = wide(10, nullable=False)
        assert classify(unit).is_basic and len(self.flat(unit).equations[0]) <= 12
        empty = wide(16, nullable=True)
        assert not classify(empty).is_basic and len(self.flat(empty).equations[0]) <= 16**2
        for sys_ in (unit, empty):
            h = 40
            for v, b in zip(solve(sys_).variables, oracle.brute_fixpoint(sys_, h)):
                assert members(v.closed_form, h) == oracle.vec_members(b)

    def test_oracle_reads_members_past_the_horizon(self):
        # with 0 in Z, {200}*Z holds every count up to 200
        sys_ = sets_system("Y = {200}*Z;", "Z = {0} | {1};")
        h = 160
        assert [oracle.vec_members(b) for b in oracle.brute_fixpoint(sys_, h)] == [
            set(range(h + 1)), {0, 1}
        ]
        assert [format_epset(v.closed_form) for v in solve(sys_).variables] == [
            "{" + ",".join(map(str, range(201))) + "}", "{0,1}"
        ]
        assert oracle.solve_seeded(sys_, h, [EMPTY, EMPTY]) == [set(range(h + 1)), {0, 1}]


def linear_system(c: list[list[EPSet]], d: list[EPSet]) -> SetSystem:
    """X_i = d_i | U_j (c_ij + X_j) as a SetSystem."""
    eqs = [
        tuple(GammaTerm(e, [(j, ONE)]) for j, e in enumerate(row) if not e.is_empty)
        + ((term(b),) if not b.is_empty else ())
        for row, b in zip(c, d)
    ]
    return SetSystem(tuple(f"X{i}" for i in range(len(d))), tuple(eqs))


def sparse(c: list[list[EPSet]]) -> list[dict[int, EPSet]]:
    """The rows of c as _solve_linear takes them: their non-empty entries."""
    return [{j: e for j, e in enumerate(row) if not e.is_empty} for row in c]


def cycle(n: int) -> tuple[list[list[EPSet]], list[EPSet]]:
    """The linear system of the n-cycle X_i = {1} | {2} + X_(i+1)."""
    c = [[EMPTY] * n for _ in range(n)]
    for i in range(n):
        c[i][(i + 1) % n] = singleton(2)
    return c, [ONE] * n


class TestSolveLinear:
    """Gaussian elimination with back substitution over (union, sum,
    closure) gives the least solution of a linear system."""

    def test_vs_brute_fixpoint(self):
        rng = random.Random(1999)
        h = 60
        systems = [cycle(7)]
        for _ in range(60):
            n = rng.randint(1, 4)
            c = [
                [random_epset(rng, max_elem=12, max_period=5) if rng.random() < 0.5 else EMPTY
                 for _ in range(n)]
                for _ in range(n)
            ]
            systems.append((c, [random_epset(rng, max_elem=12, max_period=5) for _ in range(n)]))
        for c, d in systems:
            sys_ = linear_system(c, d)
            got = setsys._solve_linear(sparse(c), d[:], {})
            for v, b in zip(got, oracle.brute_fixpoint(sys_, h)):
                assert members(v, h) == oracle.vec_members(b), sys_

    def test_cycle_takes_linear_work(self, monkeypatch):
        # two unions per pivot, one per back substitution: linear, not n^2
        n = 200
        calls = []
        real = setsys.union
        monkeypatch.setattr(setsys, "union", lambda *a: calls.append(1) or real(*a))
        c, d = cycle(n)
        got = setsys._solve_linear(sparse(c), d, {})
        assert got == [normalize((), [(1, 2)])] * n
        assert len(calls) <= 3 * n


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
    def test_long_cycle_is_linear(self):
        # 150 variables, each one step from the next: every equation is
        # linear, so every variable is CertifiedLinear
        k = 150
        sol = solve(sets_system(*(f"Y{i} = {{1}} | {{2}} + Y{(i + 1) % k};" for i in range(k))))
        assert {(format_epset(v.closed_form), v.certificate) for v in sol.variables} == {
            ("1+2*N", CERT_LINEAR)
        }

    def test_nonlinear_equation_reached_through_a_chain(self):
        # Y0 reaches Y2's two-factor family only through Y1, and W reaches
        # none, so only W is CertifiedLinear
        sol = solve(sets_system(
            "Y0 = {1} + Y1;", "Y1 = {1} + Y2;", "Y2 = {1} | Y2 + Y2;", "W = {1} | {2} + W;"
        ))
        assert [v.certificate for v in sol.variables] == [
            setsys.CERT_FINITE, setsys.CERT_FINITE, CERT_DOUBLING, CERT_LINEAR
        ]

    def test_long_period(self):
        # the period's mask has ten million bits
        v = solve(sets_system("Y = {1} | 5+10000000*N;")).variables[0]
        assert format_epset(v.closed_form) == "{1} | 5+10000000*N"
        assert (v.params.p, v.params.c) == (10000000, 5)

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

    # sums counts the n-fold sums n·v with n >= 2 that a solve builds; a
    # star over a one-member v scales its index set and builds none
    @pytest.mark.parametrize(
        "name, sums", [("paths", 0), ("bluered", 3), ("structured", 12)],
        ids=["paths", "bluered", "structured"],
    )
    def test_each_star_computed_once(self, monkeypatch, name, sums):
        # gamma_eval, the Jacobian, _solve_linear and the folding of solved
        # components all read one star table per solve: a star is counted
        # when its call stores it, and a second table would store it again.
        # Every star reads its n-fold sums n·v and its closures from that
        # table too
        pairs, powers, closures = [], [], []
        real, power, closure = setsys.star, epset._power, epset._closure

        def counting_stars(e, b, table):
            fresh = (e, b) not in table
            value = real(e, b, table)
            if fresh and (e, b) in table:
                pairs.append((e, b))
            return value

        def counting(table, n, b):
            if n >= 2 and (n, b) not in table:
                powers.append((n, b))
            return power(table, n, b)

        def counting_closures(table, b):
            if (NAT, b) not in table:
                closures.append(b)
            return closure(table, b)

        monkeypatch.setattr(setsys, "star", counting_stars)
        monkeypatch.setattr(epset, "_power", counting)
        monkeypatch.setattr(epset, "_closure", counting_closures)
        solve(fixture_system(f"{name}.spec"))
        assert pairs and len(set(pairs)) == len(pairs), name
        assert len(powers) >= sums and len(set(powers)) == len(powers), name
        assert closures and len(set(closures)) == len(closures), name

    @pytest.mark.parametrize("name", ["paths", "structured"])
    def test_one_rewrite_and_two_digraphs(self, monkeypatch, name):
        # Gamma' is built once, and the digraphs closed are the system's and
        # its unit rules', however many bounds the bracket on Primes takes
        built, rewritten = [], []
        warshall, normal_form = setsys._warshall, setsys._normal_form
        monkeypatch.setattr(setsys, "_warshall", lambda adj: built.append(adj) or warshall(adj))
        monkeypatch.setattr(
            setsys, "_normal_form", lambda s, m: rewritten.append(s) or normal_form(s, m)
        )
        sys_ = fixture_system(f"{name}.spec")
        assert not classify(sys_).empties
        solve(sys_)
        assert len(rewritten) == 1 and len(built) <= 2

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
