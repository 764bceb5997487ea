import random
from fractions import Fraction

import pytest

from spectre import compile as compile_mod
from spectre import epset, pseries, setsys
from spectre.dsl import ParseError, parse, print_system
from spectre.epset import POS, ZERO, normalize, singleton
from spectre.pseries import (
    Add,
    Const,
    Construct,
    Mul,
    Pow,
    PSSystem,
    Var,
    X,
)
from spectre.setsys import GammaTerm, SetSystem

from conftest import FIXTURES, fixture_text, term
from test_setsys import random_elementary_system

ONE = singleton(1)
SERIES_FIXTURES = [
    p for p in sorted(FIXTURES.glob("*.spec")) if isinstance(parse(p.read_text()), PSSystem)
]


class TestParseSeries:
    def test_binary_tree(self):
        sys_ = parse("vars T; mode series; T = x*(1 + T^2);")
        assert isinstance(sys_, PSSystem)
        assert sys_.variables == ("T",)
        assert sys_.right_sides == (
            Mul((X(), Add((Const(Fraction(1)), Pow(Var(0), 2))))),
        )

    def test_unrestricted_mset(self):
        sys_ = parse("vars T; mode series; T = x + MSet(T);")
        assert sys_.right_sides == (
            Add((X(), Construct("MSet", POS, Var(0)))),
        )

    def test_rational_coefficient(self):
        sys_ = parse("vars Y; mode series; Y = x^2 + 1/2*Y + x*Y;")
        assert sys_.right_sides[0].terms[1] == Mul(
            (Const(Fraction(1, 2)), Var(0))
        )

    def test_indexed_constructs(self):
        sys_ = parse(
            "vars R, B; mode series;\n"
            "R = x*Cycle[PosEven](R) + x^4*MSet[{3}](B);\n"
            "B = x + x*MSet[Primes](R)*Seq[4+6*N](B);\n"
        )
        r0 = sys_.right_sides[0]
        assert r0.terms[0].factors[1] == Construct(
            "Cycle", normalize((), [(2, 2)]), Var(0)
        )
        assert r0.terms[1].factors[1] == Construct(
            "MSet", normalize([3]), Var(1)
        )
        b1 = sys_.right_sides[1].terms[1]
        assert b1.factors[1] == Construct(
            "MSet", epset.ENUMERATED_SETS["Primes"], Var(0)
        )
        assert b1.factors[2] == Construct(
            "Seq", normalize((), [(4, 6)]), Var(1)
        )

    def test_union_in_a_construct_index(self):
        sys_ = parse("vars Y; mode series; Y = x*Seq[{1} | 3+2*N](x);")
        index = normalize((), [(1, 2)])  # {1} | 3+2*N
        assert sys_.right_sides == (Mul((X(), Construct("Seq", index, X()))),)
        assert parse(print_system(sys_)) == sys_
        system = compile_mod.compile_system(sys_).system
        assert setsys.solve(system).variables[0].closed_form == normalize((), [(2, 2)])


class TestParseSets:
    def test_binary_tree(self):
        sys_ = parse("vars T; mode sets; T = {1} | {1} + {2}*T;")
        assert isinstance(sys_, SetSystem)
        assert sys_.equations == (
            (term(ONE), term(ONE, e0=normalize([2]))),
        )

    def test_set_binding(self):
        sys_ = parse(fixture_text("postage.spec"))
        d = normalize([3, 5])
        assert sys_.equations == ((term(d), term(d, e0=ONE)),)

    def test_progressions_and_builtins(self):
        sys_ = parse(
            "vars Y; mode sets; Y = 4+3*N | 3*N + Y | Even + Odd*Y;"
        )
        eq = sys_.equations[0]
        assert eq[0] == term(normalize((), [(4, 3)]))
        assert eq[1] == term(normalize((), [(0, 3)]), e0=ONE)
        assert eq[2] == term(
            normalize((), [(0, 2)]), e0=normalize((), [(1, 2)])
        )

    def test_repeated_variable_accumulates_exponent(self):
        sys_ = parse("vars B, R; mode sets; B = {1} + B + {2}*R; R = {1} + R + R;")
        assert sys_.equations[0] == (
            term(ONE, e0=ONE, e1=normalize([2])),
        )
        assert sys_.equations[1] == (term(ONE, e1=normalize([2])),)

    def test_bare_integer_is_a_singleton(self):
        sys_ = parse("vars Y; mode sets; Y = {1} | 2 + Y;")
        assert sys_.equations == ((term(ONE), term(singleton(2), e0=ONE)),)
        assert parse(print_system(sys_)) == sys_
        assert setsys.solve(sys_).variables[0].closed_form == normalize((), [(1, 2)])

    def test_zero_exponent_family(self):
        # {0}*Y denotes {0}, as {0} does
        nullable = parse("vars Y; mode sets; Y = {0}*Y | {1};")
        assert nullable == parse("vars Y; mode sets; Y = {0} | {1};")
        assert [v.closed_form for v in setsys.solve(nullable).variables] == [normalize([0, 1])]
        sys_ = parse("vars Y; mode sets; Y = {0}*Y + {1} | {1} + Y + Y;")
        assert [v.closed_form for v in setsys.solve(sys_).variables] == [
            normalize((), [(1, 2)])
        ]


class TestErrors:
    def test_position(self):
        with pytest.raises(ParseError) as ei:
            parse("vars T;\nmode series;\nT = x + ;")
        assert ei.value.line == 3
        assert str(ei.value).startswith("3:")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse("vars T; mode series; U = x;")

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown"):
            parse("vars T; mode series; T = x + U;")

    def test_reserved_name(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("vars MSet; mode series; MSet = x;")

    def test_duplicate_equation(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("vars T; mode series; T = x; T = x;")

    def test_missing_equation(self):
        with pytest.raises(ParseError, match="missing equation"):
            parse("vars T, U; mode series; T = x;")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator"):
            parse("vars T; mode series; T = 1/0 + x;")

    def test_enumerated_set_in_base(self):
        with pytest.raises(ParseError, match="exponent"):
            parse("vars Y; mode sets; Y = Primes;")

    def test_enumerated_set_binding_rejected(self):
        with pytest.raises(ParseError, match="not allowed"):
            parse("vars Y; mode sets; set P2 = Primes; Y = {1};")

    @pytest.mark.parametrize(
        "text, message",
        [
            # str.isdigit accepts '²', which int() refuses
            ("vars Y;\nmode sets;\nY = {²};", "3:6: unexpected character '²'"),
            ("vars Y;\nmode sets;\nY = {1²};", "3:7: unexpected character '²'"),
            # blanks are space, tab, CR and LF only; a tab is one column
            (
                "vars Y;\n\tmode sets;\n\tY = {1} |\x0c Y;\n",
                "3:11: unexpected character '\\x0c'",
            ),
            # the end of a text that closes with a comment is at its '#'
            (
                "vars Y, Z; mode sets; Y = {1};\t# Z has no equation",
                "1:32: missing equation for Z",
            ),
            (
                "vars Y, Z; mode sets; Y = {1};\t# Z has no equation\n",
                "2:1: missing equation for Z",
            ),
            # a name starts with a letter or '_'
            ("vars ½Y; mode sets; ½Y = {1};\n", "1:6: unexpected character '½'"),
            ("# only a comment", "1:1: no variables declared"),
        ],
        ids=[
            "superscript", "superscript-after-digit", "form-feed", "eof-at-comment",
            "eof-after-comment-line", "fraction-starts-name", "only-comment",
        ],
    )
    def test_lexical_error(self, text, message):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vars Y mode sets;", "1:8: expected ';', found 'mode'"),
            ("vars Y; mode foo;", "1:14: mode must be series or sets"),
            ("vars Y; mode sets; ;", "1:20: unexpected ';'"),
            ("vars 1;", "1:6: expected variable name"),
            ("vars Y; mode sets; set Y = {1};", "1:24: 'Y' already declared"),
            ("vars Y; mode sets; Y = Foo;", "1:24: unknown set 'Foo'"),
            ("vars Y; mode sets; Y = ;", "1:24: expected a set"),
            ("vars Y; mode sets; Y = {1,};", "1:27: expected a number"),
        ],
        ids=[
            "missing-semicolon", "unknown-mode", "stray-semicolon", "number-as-variable",
            "binding-shadows-variable", "unknown-set", "empty-right-side", "trailing-comma",
        ],
    )
    def test_syntax_error(self, text, message):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value) == message

    def test_decimal_digits_are_numbers(self):
        # what int() reads is a number; '²' and '½' still belong in a name
        sys_ = parse("vars Y²; mode sets; Y² = {٣};")
        assert sys_.variables == ("Y²",)
        assert sys_.equations[0][0].base == singleton(3)
        sys_ = parse("vars Y½, é; mode sets; Y½ = {٣} | é; é = {1};")
        assert sys_.variables == ("Y½", "é")
        assert [t.base for t in sys_.equations[0]] == [singleton(3), ZERO]
        assert sys_.equations[0][1].factors == ((1, singleton(1)),)

    def test_mode_required_before_equation(self):
        with pytest.raises(ParseError, match="mode"):
            parse("vars T; T = x;")


class TestPrint:
    def test_compiled_binary_tree(self):
        series = parse(fixture_text("binary.spec"))
        compiled = compile_mod.compile_system(series).system
        assert print_system(compiled) == (
            "vars T;\nmode sets;\nT = {1} | {1} + {2}*T;\n"
        )

    def test_fixture_roundtrips(self):
        for name in (
            "binary.spec",
            "paths.spec",
            "postage.spec",
            "linear43.spec",
            "bluered.spec",
            "structured.spec",
            "compton.spec",
            "fdigraph.spec",
        ):
            sys_ = parse(fixture_text(name))
            assert parse(print_system(sys_)) == sys_

    @pytest.mark.parametrize(
        "text",
        [
            "vars Y; mode series; Y = 0;",
            "vars Y; mode series; Y = MSet[{}](Y);",
            *(p.read_text() for p in SERIES_FIXTURES),
        ],
        ids=["0", "MSet[{}](Y)", *(p.stem for p in SERIES_FIXTURES)],
    )
    def test_compiled_roundtrips(self, text):
        # an equation without families prints as {}, which parses back
        compiled = compile_mod.compile_system(parse(text)).system
        assert parse(print_system(compiled)) == compiled

    def test_families_over_the_empty_set_are_dropped(self):
        sys_ = parse("vars Y; mode sets; Y = {} | {}*Y | {2} + {}*Y;")
        assert sys_.equations == ((),)
        assert print_system(sys_) == "vars Y;\nmode sets;\nY = {};\n"
        sys_ = parse("vars Y; mode sets; set E = {}; Y = {1} | E*Y | E + Y;")
        assert sys_.equations == ((term(ONE),),)


def random_series_ast(rng: random.Random, k: int, depth: int) -> pseries.SysExpr:
    if depth == 0:
        return rng.choice(
            [X(), Var(rng.randrange(k)), Const(Fraction(rng.randint(0, 5), rng.randint(1, 4)))]
        )
    roll = rng.random()
    if roll < 0.3:
        n = rng.randint(2, 3)
        return Add(tuple(random_series_ast(rng, k, depth - 1) for _ in range(n)))
    if roll < 0.6:
        n = rng.randint(2, 3)
        return Mul(tuple(random_series_ast(rng, k, depth - 1) for _ in range(n)))
    if roll < 0.8:
        return Pow(random_series_ast(rng, k, depth - 1), rng.randint(2, 4))
    kind = rng.choice(("Seq", "MSet", "Cycle", "DCycle"))
    choice = rng.random()
    if choice < 0.4:
        idx = POS
    elif choice < 0.7:
        idx = normalize(sorted(rng.sample(range(8), rng.randint(1, 3))))
    elif choice < 0.9:
        idx = normalize((), [(rng.randrange(5), rng.randint(1, 6))])
    else:
        idx = epset.ENUMERATED_SETS["Primes"]
    return Construct(kind, idx, random_series_ast(rng, k, depth - 1))


class TestRoundtrip:
    def test_random_series_systems(self):
        rng = random.Random(8080)
        for _ in range(200):
            k = rng.randint(1, 3)
            sys_ = PSSystem(
                tuple(f"Y{i}" for i in range(k)),
                tuple(random_series_ast(rng, k, rng.randint(1, 3)) for _ in range(k)),
            )
            assert parse(print_system(sys_)) == sys_

    def test_random_set_systems(self):
        rng = random.Random(8081)
        for _ in range(200):
            sys_ = random_elementary_system(rng, rng.randint(1, 3))
            assert parse(print_system(sys_)) == sys_
