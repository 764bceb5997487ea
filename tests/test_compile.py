import random
from fractions import Fraction

import pytest

from spectre import compile as compile_mod
from spectre import dsl, epset, pseries, setsys
from spectre.compile import compile_system
from spectre.epset import POS, ZERO, SemanticError, format_epset, normalize, singleton
from spectre.pseries import Construct, PSSystem, Series, Var, X, evaluate
from spectre.setsys import GammaTerm

import oracle
from conftest import fixture_text, random_series_system, script, term
from oracle import spectral_equivalence_check

ONE = singleton(1)
compare_outputs = script("compare_outputs")


class TestCompile:
    def test_binary_tree(self):
        sys_ = dsl.parse(fixture_text("binary.spec"))
        report = compile_system(sys_)
        assert report.system.equations == (
            (term(ONE), term(ONE, e0=normalize([2]))),
        )
        assert setsys.classify(report.system).is_elementary
        assert report.flags == ()

    def test_blue_red(self):
        sys_ = dsl.parse(fixture_text("bluered.spec"))
        report = compile_system(sys_)
        eqs = report.system.equations
        assert eqs[0] == (
            term(ONE),
            term(ONE, e0=ONE, e1=normalize([2])),
            term(ONE, e0=normalize([2]), e1=ONE),
        )
        assert eqs[1] == (term(ONE), term(ONE, e2=normalize([2])))
        assert eqs[2] == (
            term(ZERO, e0=ONE),
            term(ZERO, e1=ONE),
        )

    def test_structured_tree(self):
        sys_ = dsl.parse(fixture_text("structured.spec"))
        report = compile_system(sys_)
        eqs = report.system.equations
        pos_even = normalize((), [(2, 2)])
        primes = epset.ENUMERATED_SETS["Primes"]
        assert eqs[0] == (
            term(ONE, e0=pos_even),
            term(normalize([4]), e1=normalize([3])),
        )
        assert eqs[1] == (
            term(ONE),
            term(ONE, e0=primes, e1=normalize((), [(4, 6)])),
        )
        assert eqs[2] == (
            term(ZERO, e0=ONE),
            term(ZERO, e1=ONE),
        )
        assert report.flags == ("MSet[Primes]",)

    def test_constant_argument_star(self):
        # Seq over a constant spectrum collapses to a star of spectra
        sys_ = PSSystem(
            ("Y",), (Construct("Seq", POS, pseries.Add((X(), pseries.Pow(X(), 2)))),)
        )
        report = compile_system(sys_)
        expect = epset.star(POS, normalize([1, 2]))
        assert report.system.equations == ((term(expect),),)

    def test_equal_families_kept_once(self):
        # union is idempotent, so a repeated family adds nothing
        sys_ = dsl.parse("vars Y; mode series; Y = x + x + x*Y + x*Y;")
        report = compile_system(sys_)
        assert report.system.equations == ((term(ONE), term(ONE, e0=ONE)),)
        assert dsl.print_system(report.system).endswith("Y = {1} | {1} + Y;\n")

    def test_power_keeps_each_family_once(self):
        # (x + Y)^24 has 2^24 products but 25 distinct families; with the
        # 1 and x outside, the equation has 26
        sys_ = dsl.parse("vars Y; mode series; Y = x*(1 + (x + Y)^24);")
        report = compile_system(sys_)
        assert len(report.system.equations[0]) == 26
        assert format_epset(setsys.solve(report.system).variables[0].closed_form) == "1+24*N"

    def test_power_squares_and_multiplies(self, monkeypatch):
        # at most 2*log2(n) + 1 products of family lists, with the families
        # of the n-fold repeated product, in its order
        rng = random.Random(1024)
        bases = ["1", "x", "x^2", "Y", "Z", "x*Y", "Y*Z", "x*Z^2"]
        for n in range(13):
            rhs = " + ".join(rng.sample(bases, rng.randint(1, 4)))
            sys_ = dsl.parse(f"vars Y, Z; mode series; Y = ({rhs})^{n}; Z = x;")
            power = sys_.right_sides[0]
            calls = []
            mul = compile_mod._Compiler.mul
            c = compile_mod._Compiler(2)
            with monkeypatch.context() as m:
                m.setattr(compile_mod._Compiler, "mul", lambda s, fa, fb: calls.append(1) or mul(s, fa, fb))
                fams = c.expr(power.base)
                base_calls = len(calls)
                got = c.expr(power)
            want = [term(ZERO)]
            for _ in range(n):
                want = c.mul(want, fams)
            assert got == want, (rhs, n)
            assert len(calls) - 2 * base_calls <= 2 * n.bit_length() + 1, (rhs, n)

    def test_repeated_family_argument_is_a_variable(self):
        # (Y + Y)*1 is the one family Y, so Seq over it takes an index-set
        # exponent; 2Y has the support of Y
        sys_ = dsl.parse("vars Y; mode series; Y = x + x*Seq[(2+1*N)]((Y + Y)*1);")
        report = compile_system(sys_)
        assert report.system.equations == (
            (term(ONE), term(ONE, e0=normalize((), [(2, 1)]))),
        )

    def test_termwise_expansion_keeps_each_family_once(self):
        # Seq[{1,2}](1 + Y) is the one family {1,2}*Z with Z = 1 + Y, not
        # the termwise 1 | Y | 1 | Y | 2Y; the repeated construct reads the
        # same Z and its family is kept once
        sys_ = dsl.parse(
            "vars Y; mode series; Y = x + x*Seq[{1,2}](1 + Y) + x*Seq[{1,2}](1 + Y);"
        )
        report = compile_system(sys_)
        assert report.system.variables == ("Y", "_0")
        assert report.system.equations == (
            (term(ONE), term(ONE, e1=normalize([1, 2]))),
            (term(ZERO), term(ZERO, e0=ONE)),
        )

    def test_construct_over_zero_on_a_variable(self):
        # Cycle[{0}](Y) is the family {0}, with no variable left
        sys_ = dsl.parse("vars Y; mode series; Y = x + x*Cycle[{0}](Y);")
        report = compile_system(sys_)
        assert report.system.equations == ((term(ONE),),)
        sys_ = dsl.parse("vars Y; mode series; Y = x + Cycle[{0}](Y);")
        assert compile_system(sys_).system.equations == ((term(ONE), term(ZERO)),)

    def test_enumerated_over_constant_rejected(self):
        # MSet[Primes](x) is Primes*Z with Z = x: it compiles, and the
        # bracket refuses to solve it, since its spectrum is Primes
        primes = epset.ENUMERATED_SETS["Primes"]
        sys_ = PSSystem(("Y",), (Construct("MSet", primes, X()),))
        compiled = compile_system(sys_).system
        assert compiled.variables == ("Y", "_0")
        assert compiled.equations == ((term(ZERO, e1=primes),), (term(ONE),))
        with pytest.raises(SemanticError, match="leave the solution open"):
            setsys.solve(compiled)

    def test_finite_index_composite_argument(self):
        # MSet[{2}](x*Y) is the one family {2}*Z with Z = x*Y, and Seq[{1,2}]
        # over the same argument reads the same Z
        sys_ = dsl.parse("vars Y; mode series; Y = x + MSet[{2}](x*Y) + Seq[{1,2}](x*Y);")
        report = compile_system(sys_)
        assert report.system.variables == ("Y", "_0")
        assert report.system.equations == (
            (term(ONE), term(ZERO, e1=normalize([2])), term(ZERO, e1=normalize([1, 2]))),
            (term(ONE, e0=ONE),),
        )
        assert report.notes == ("MSet over a composite argument -> hidden variable",
                                "Seq over a composite argument -> hidden variable")

    def test_dcycle_note(self):
        sys_ = PSSystem(
            ("Y",),
            (pseries.Add((X(), pseries.Mul((X(), Construct("DCycle", POS, Var(0)))))),),
        )
        report = compile_system(sys_)
        assert any("DCycle" in n for n in report.notes)
        assert report.system.equations == (
            (term(ONE), term(ONE, e0=POS)),
        )


def composite_system(rng: random.Random, k: int, index: str) -> str:
    """A random series system of k variables whose constructs take
    composite arguments, and now and then constant ones; the first construct
    is over index, the rest over compare_outputs' index sets, {} or P."""
    names = [f"A{i + 1}" for i in range(k)]
    args = ["x*{a}", "x + {a}", "{a}*{b}", "x + x^2", "x*{a}^2", "1 + x*{a}", "{a} + {b}", "x"]
    indexes = [index]

    def construct() -> str:
        idx = indexes.pop() if indexes else rng.choice(compare_outputs.INDEX_SETS + ("{}", ""))
        arg = rng.choice(args).format(a=rng.choice(names), b=rng.choice(names))
        kind = rng.choice(["Seq", "MSet", "MSet", "Cycle"])
        return f"{kind}[{idx}]({arg})" if idx else f"{kind}({arg})"

    def product() -> str:
        factors = [rng.choice(["x", "x", "x^2", "2*x", "1"])] if rng.random() < 0.8 else []
        factors += [rng.choice(names) for _ in range(rng.randint(0, 1))]
        factors += [construct() for _ in range(rng.randint(0, 2))]
        return "*".join(factors) or "x"

    rhs = [" + ".join(product() for _ in range(rng.randint(1, 3))) for _ in names]
    rhs[0] = f"{rhs[0]} + x*{construct()}"
    return f"vars {', '.join(names)}; mode series;\n" + "".join(
        f"{n} = {r};\n" for n, r in zip(names, rhs)
    )


class TestHiddenVariables:
    def test_names_avoid_the_users(self):
        sys_ = dsl.parse(
            "vars _0, _2; mode series; _0 = x + x*Seq(x*_0);"
            " _2 = x*MSet(x + _2) + MSet[Primes](_0)*_0;"
        )
        compiled = compile_system(sys_).system
        assert compiled.variables == ("_0", "_2", "_1", "_3")
        assert compiled.equations[2:] == ((term(ONE, e0=ONE),), (term(ONE), term(ZERO, e1=ONE)))
        # MSet[Primes](_0)*_0 lists _0 twice, and takes no hidden variable
        primes = epset.ENUMERATED_SETS["Primes"]
        assert compiled.equations[1][1] == GammaTerm(ZERO, [(0, primes), (0, ONE)])
        assert dsl.parse(dsl.print_system(compiled)) == compiled

    def test_one_per_set_of_families(self):
        # 1 + Y + 1 + Y and Y + 1 are the one union {0} | Y, in another
        # order: both read the same hidden variable, printed as first seen
        sys_ = dsl.parse(
            "vars Y; mode series;"
            " Y = x + x*Seq[{1,2}](1 + Y + 1 + Y) + x*Seq[{1,2}](Y + 1);"
        )
        compiled = compile_system(sys_).system
        assert compiled.variables == ("Y", "_0")
        assert compiled.equations == (
            (term(ONE), term(ONE, e1=normalize([1, 2]))),
            (term(ZERO), term(ZERO, e0=ONE)),
        )

    def test_random_composite_arguments(self):
        # solve on the compiled system against Kleene iteration on [0, 120],
        # and against the support of the coefficients where coeffs answers
        rng = random.Random(2727)
        h, n = 120, 40
        hidden = solved = counted = 0
        for index in compare_outputs.INDEX_SETS * 10:
            text = composite_system(rng, rng.randint(1, 3), index)
            series = dsl.parse(text)
            compiled = compile_system(series).system
            hidden += compiled.k > series.k
            assert dsl.parse(dsl.print_system(compiled)) == compiled, text
            try:
                sol = setsys.solve(compiled, horizon=128)
            except SemanticError:
                continue  # the bracket cannot close on a spectrum like Primes
            solved += 1
            brute = oracle.brute_fixpoint(compiled, h)
            for v, want in zip(sol.variables, brute):
                assert set(epset.enumerate_range(v.closed_form, 0, h)) == oracle.vec_members(want), text
            try:
                coeffs = pseries.fixed_point_solve(series, n)
            except SemanticError:
                continue  # Cycle, or no power-series solution
            counted += 1
            for v, s in zip(sol.variables, coeffs):
                support = {d for d, c in enumerate(s.coeffs) if c}
                assert set(epset.enumerate_range(v.closed_form, 0, n)) == support, text
        assert hidden >= 80 and solved >= 80 and counted >= 10, (hidden, solved, counted)


class TestEquivalence:
    def test_binary_tree(self):
        rep = spectral_equivalence_check(dsl.parse(fixture_text("binary.spec")), 64)
        assert rep.ok
        assert rep.first_mismatch is None

    def test_blue_red(self):
        rep = spectral_equivalence_check(dsl.parse(fixture_text("bluered.spec")), 40)
        assert rep.ok

    def test_corrupted_detected(self, monkeypatch):
        # negative control: sabotage the compiled system (drop the constant
        # family) and verify the checker reports the first disagreement
        sys_ = dsl.parse(fixture_text("binary.spec"))
        real = compile_mod.compile_system

        def corrupt(s):
            rep = real(s)
            eqs = ((rep.system.equations[0][1],),)
            bad = setsys.SetSystem(rep.system.variables, eqs)
            return compile_mod.CompileReport(bad, rep.notes, rep.flags)

        monkeypatch.setattr(compile_mod, "compile_system", corrupt)
        rep = spectral_equivalence_check(sys_, 32)
        assert not rep.ok
        assert rep.first_mismatch == ("T", 1)


class TestConstructSpectra:
    def test_construct_spectrum_is_star(self):
        # support of Theta_J(a) equals J * support(a), truncated
        rng = random.Random(31)
        n = 48
        for _ in range(40):
            coeffs = [0] + [rng.choice((0, 0, 1, 2)) for _ in range(8)]
            if not any(coeffs):
                coeffs[1] = 1
            a = Series(tuple(map(Fraction, coeffs + [0] * (n + 1 - len(coeffs)))))
            if rng.random() < 0.5:
                idx = POS
            else:
                idx = normalize(sorted(rng.sample(range(1, 6), rng.randint(1, 3))))
            kind = rng.choice(("Seq", "MSet"))
            got = evaluate(Construct(kind, idx, Var(0)), (a,), n)
            support = {i for i, c in enumerate(got.coeffs) if c}
            arg_spec = normalize(
                [i for i, c in enumerate(coeffs) if c]
            )
            want = epset.star(idx, arg_spec)
            assert support == set(epset.enumerate_range(want, 0, n))


class TestRandomSystems:
    def test_random_equivalence(self):
        rng = random.Random(5150)
        for _ in range(20):
            sys_ = random_series_system(rng, rng.randint(1, 3))
            rep = spectral_equivalence_check(sys_, 48)
            assert rep.ok, sys_
