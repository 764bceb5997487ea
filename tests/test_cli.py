import functools
import json
import time

import pytest

from spectre import cli, dsl, pseries, setsys
from spectre.epset import POS, singleton, union

import oracle
from conftest import FIXTURES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestFrobenius:
    def test_three_five(self, capsys):
        code, out, _ = run(capsys, "frobenius", "3", "5")
        assert code == 0
        assert "gcd: 1" in out
        assert "conductor: 8" in out
        assert "gaps: [1, 2, 4, 7]" in out
        assert "closure: {0,3,5,6} | 8+1*N" in out

    def test_even_generators(self, capsys):
        code, out, _ = run(capsys, "frobenius", "4", "6")
        assert code == 0
        assert "gcd: 2" in out

    def test_nonpositive_rejected(self, capsys):
        code, _, err = run(capsys, "frobenius", "0", "5")
        assert code == 3
        assert "positive" in err

    def test_large_pair(self, capsys):
        code, out, _ = run(capsys, "frobenius", "97", "101")
        assert code == 0
        assert "conductor: 9600" in out
        gaps = json.loads(out.split("gaps: ")[1].splitlines()[0])
        assert len(gaps) == 4800 and gaps[-1] == 9599


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_quiet_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdout", _ClosedPipe())
        code = cli.main(["frobenius", "3", "5"])
        monkeypatch.undo()
        _, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert err == ""


class TestSolve:
    def test_postage_text(self, capsys):
        code, out, _ = run(capsys, "solve", fx("postage.spec"))
        assert code == 0
        assert "Y = {3,5,6} | 8+1*N" in out
        assert "[CertifiedLinear]" in out

    def test_binary_json(self, capsys):
        code, out, _ = run(capsys, "solve", fx("binary.spec"), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["variables"] == ["T"]
        sol = doc["solution"][0]
        assert sol["closed_form"] == "1+2*N"
        assert sol["certificate"] == "CertifiedDoubling"
        assert (sol["m"], sol["q"], sol["p"], sol["c"]) == (1, 2, 2, 1)
        assert doc["horizon"] == 512
        assert doc["classification"]["elementary"] is True

    def test_series_input_translated_directly(self, capsys):
        code, out, _ = run(capsys, "solve", fx("bluered.spec"))
        assert code == 0
        assert "note:" not in out
        assert "B = {1,4} | 6+1*N" in out
        assert "R = {1,3} | 5+1*N" in out
        assert "T = {1} | 3+1*N" in out

    def test_deterministic(self, capsys):
        a = run(capsys, "solve", fx("paths.spec"), "--format", "json")
        b = run(capsys, "solve", fx("paths.spec"), "--format", "json")
        assert a == b

    def test_aperiodic_spectrum_refused_cheaply(self, capsys, tmp_path):
        # the bracket on Primes stays open up to P = 8192; each star over
        # the cut primes walks them once, and Z is solved once
        spec = tmp_path / "primes.spec"
        spec.write_text("vars Y, Z;\nmode sets;\nY = Primes*Z;\nZ = {1};\n")
        start = time.perf_counter()
        result = run(capsys, "solve", str(spec), "--horizon", "8192")
        assert time.perf_counter() - start < 1.0
        assert result == (
            3, "", "spectre: enumerated index sets cut at 8192 leave the solution open\n"
        )


class TestParams:
    def test_paths_table(self, capsys):
        code, out, _ = run(capsys, "params", fx("paths.spec"))
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        table = {r[0]: tuple(int(v) for v in r[1:]) for r in rows}
        assert table["Y1"][:2] == (2, 1)
        assert table["Y2"][:2] == (2, 1)
        assert table["Y3"][:2] == (1, 1)
        assert table["Y4"][:2] == (3, 1)


class TestCoeffs:
    def test_binary_degree_7(self, capsys):
        code, out, _ = run(capsys, "coeffs", fx("binary.spec"), "--degree", "7")
        assert code == 0
        assert "T: [0, 1, 0, 1, 0, 2, 0, 5]" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", fx("binary.spec"), "--degree", "7", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["series"]["T"] == ["0", "1", "0", "1", "0", "2", "0", "5"]

    def test_json_hatted_is_valid(self, capsys):
        code, out, err = run(
            capsys, "coeffs", fx("bluered.spec"), "--degree", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        # B = x + 6x^4 + ..., R = x + 4x^3 + ..., T = B + R
        assert doc["series"]["B"][:5] == ["0", "1", "0", "0", "6"]
        assert doc["series"]["T"][:4] == ["0", "2", "0", "4"]
        assert "note:" not in out and err == ""

    def test_text_has_no_note(self, capsys):
        code, out, _ = run(capsys, "coeffs", fx("bluered.spec"), "--degree", "6")
        assert code == 0
        assert out.startswith("B: [0, 1, 0, 0, 6, ")
        assert "note:" not in out

    def test_sets_file_rejected(self, capsys):
        code, _, err = run(capsys, "coeffs", fx("paths.spec"))
        assert code == 3
        assert "series-mode" in err

    def test_cycle_node_rejected(self, capsys):
        code, _, err = run(capsys, "coeffs", fx("compton.spec"))
        assert code == 3

    def test_negative_degree_rejected(self, capsys):
        code, out, err = run(capsys, "coeffs", fx("binary.spec"), "--degree", "-1")
        assert (code, out) == (3, "")
        assert "degree must be non-negative" in err


class TestCheck:
    def test_series_elementary(self, capsys):
        code, out, _ = run(capsys, "check", fx("binary.spec"))
        assert code == 0
        assert "elementary: yes" in out
        assert "identically zero: none" in out

    def test_series_nonelementary(self, capsys):
        code, out, _ = run(capsys, "check", fx("bluered.spec"))
        assert code == 0
        assert "elementary: no" in out

    def test_sets(self, capsys):
        code, out, _ = run(capsys, "check", fx("paths.spec"))
        assert code == 0
        assert "basic: yes" in out
        assert "reduced: yes" in out


class TestCompileDigraph:
    def test_compile_roundtrips(self, capsys):
        code, out, _ = run(capsys, "compile", fx("structured.spec"))
        assert code == 0
        assert "# enumerated index set in use: MSet[Primes]" in out
        text = "\n".join(
            line for line in out.splitlines() if not line.startswith("#")
        )
        sys_ = dsl.parse(text)
        assert sys_.variables == ("R", "B", "T")

    def test_digraph_dot(self, capsys):
        code, out, _ = run(capsys, "digraph", fx("paths.spec"), "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"Y1" -> "Y2";' in out

    def test_digraph_text(self, capsys):
        code, out, _ = run(capsys, "digraph", fx("binary.spec"))
        assert code == 0
        assert "T -> T" in out
        assert "component: {T}" in out


class TestExitCodes:
    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["solve", "/nonexistent/file.spec"])
        assert ei.value.code == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["frobnicate"])
        assert ei.value.code == 1
        capsys.readouterr()

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("vars T;\nmode series;\nT = x + ;\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "3:" in err

    def test_non_periodic_spectrum(self, capsys, tmp_path):
        # the spectrum of Y is Primes, so no closed form can be proven
        spec = tmp_path / "primes.spec"
        spec.write_text("vars Y, Z; mode sets; Y = Primes*Z; Z = {1};")
        code, out, err = run(capsys, "solve", str(spec))
        assert code == 3
        assert out == ""
        assert "leave the solution open" in err

    def test_semantic_error(self, capsys, tmp_path):
        spec = tmp_path / "not_basic.spec"
        spec.write_text("vars Y; mode sets; Y = {0} | {1} + Y;")
        code, _, err = run(capsys, "solve", str(spec))
        assert code == 3
        assert err == "spectre: system does not map positive-sets into positive-sets\n"


class TestInputRefusals:
    """Every place where a command refuses its input by a check of its own:
    a zero period is a syntax error, the rest raise SemanticError."""

    @pytest.mark.parametrize(
        "argv, text, code, err",
        [
            (["solve", "{binary}", "--horizon", "0"], None, 3, "horizon must be at least 1"),
            (["coeffs", "{binary}", "--degree", "-1"], None, 3, "degree must be non-negative"),
            (["coeffs", "{paths}"], None, 3, "coeffs requires a series-mode file"),
            (["compile", "{paths}"], None, 3, "compile requires a series-mode file"),
            (["frobenius", "0", "3"], None, 3, "generators must be positive"),
            (
                ["solve", "{spec}"],
                "vars Y; mode sets; Y = {1} + (0*N)*Y;",
                2,
                "syntax error at 1:31: period must be positive",
            ),
            (
                ["solve", "{spec}"],
                "vars Y; mode sets;\nY = {1} | 2+0*N;",
                2,
                "syntax error at 2:13: period must be positive",
            ),
            (
                ["coeffs", "{spec}"],
                "vars Y; mode series; Y = x + Seq[2+0*N](x);",
                2,
                "syntax error at 1:36: period must be positive",
            ),
        ],
        ids=[
            "horizon", "degree", "coeffs-sets", "compile-sets", "frobenius",
            "period", "start-period", "seq-period",
        ],
    )
    def test_refused(self, capsys, tmp_path, argv, text, code, err):
        spec = tmp_path / "input.spec"
        if text is not None:
            spec.write_text(text)
        paths = {"spec": spec, "binary": fx("binary.spec"), "paths": fx("paths.spec")}
        argv = [a.format(**paths) for a in argv]
        assert run(capsys, *argv) == (code, "", f"spectre: {err}\n")


class TestInternalErrors:
    """Any exception but ParseError and SemanticError is an internal error,
    a bare ValueError included."""

    @pytest.mark.parametrize(
        "command, module, helper",
        [("solve", setsys, "min_vector"), ("coeffs", pseries, "_linear_part")],
        ids=["solve", "coeffs"],
    )
    def test_value_error_exits_4(self, capsys, monkeypatch, command, module, helper):
        def planted(*args):
            raise ValueError("planted")

        monkeypatch.setattr(module, helper, planted)
        code, out, err = run(capsys, command, fx("binary.spec"))
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == "spectre: internal error: ValueError('planted')\n"


class TestLeastnessProof:
    """A wrong answer inside Newton is an internal error. Gamma' (Gamma with
    its unit rules eliminated) has one positive fixed point, the least
    solution, so Newton's closing test Gamma'(nu) = nu, or the check of each
    minimum against min_vector, fails on any other answer."""

    def test_extra_member_elementary(self, capsys, monkeypatch):
        # postage is elementary; in structured, T = R | B are unit rules
        solve_linear, jacobian = setsys._solve_linear, setsys._jacobian
        faults = [
            ("_solve_linear", lambda c, d: [union(v, singleton(7)) for v in solve_linear(c, d)]),
            ("_solve_linear", lambda c, d: [POS] * len(d)),
            ("_jacobian", lambda s, nu, stars: [[union(e, singleton(1)) for e in row] for row in jacobian(s, nu, stars)]),
        ]
        for name in ("postage", "structured"):
            for target, fault in faults:
                with monkeypatch.context() as m:
                    m.setattr(setsys, target, fault)
                    code, out, err = run(capsys, "solve", fx(f"{name}.spec"))
                assert (code, out) == (cli.EXIT_INTERNAL, ""), (name, target)
                assert "Newton iteration did not settle" in err, (name, target)

    def test_non_least_fixed_point(self, capsys, tmp_path):
        spec = tmp_path / "y.spec"
        spec.write_text("vars Y;\nmode sets;\nY = {1} | {0} + Y;\n")
        sys_ = dsl.parse(spec.read_text())
        # 1+N solves Y = {1} | {0} + Y, but {1} is the least solution
        assert setsys.gamma_eval(sys_, [POS]) == [POS]
        assert setsys.gamma_eval(setsys._without_units(sys_), [POS]) == [singleton(1)]
        assert run(capsys, "solve", str(spec)) == (0, "Y = {1}   [CertifiedLinear]\n", "")


class TestHatNote:
    """A series system is well posed when its constant terms y0 settle and
    (I - M)^-1 >= 0 at y0; check, coeffs, solve and params read the one
    verdict."""

    @pytest.mark.parametrize("command", ["solve", "coeffs"])
    def test_no_note_on_a_constant_term(self, capsys, tmp_path, command):
        # the constant term settles and M = 0, so nothing is ill posed; the
        # direct translation Y = {0} | {1} + Y is out of solve's scope
        spec = tmp_path / "constant.spec"
        spec.write_text("vars Y;\nmode series;\nY = 1 + x*Y;\n")
        code, out, _ = run(capsys, command, str(spec))
        assert code == {"solve": 3, "coeffs": 0}[command]
        assert "note:" not in out

    def test_check_accepts_a_constant_term_that_settles(self, capsys, tmp_path):
        spec = tmp_path / "constant.spec"
        spec.write_text("vars Y;\nmode series;\nY = 1 + x*Y;\n")
        assert run(capsys, "check", str(spec)) == (
            0,
            "mode: series  variables: Y\nelementary: no\n  Y: constant term 1\n"
            "identically zero: none\n",
            "",
        )

    def test_one_rule_for_every_spelling_of_a_constant(self, capsys, tmp_path):
        outs = []
        for rhs in ("1 + x*Y", "Seq[N](x)"):
            spec = tmp_path / "constant.spec"
            spec.write_text(f"vars Y;\nmode series;\nY = {rhs};\n")
            outs.append(run(capsys, "coeffs", str(spec), "--degree", "5"))
        assert outs[0] == outs[1] == (0, "Y: [1, 1, 1, 1, 1, 1]\n", "")

    def test_check_prints_the_verdict(self, capsys):
        code, out, _ = run(capsys, "check", fx("bluered.spec"))
        assert code == 0
        assert "linear part at the origin: NonnegInverse\nidentically zero: none\n" in out

    @pytest.mark.parametrize("command", ["check", "coeffs"])
    def test_constant_and_linear_terms(self, capsys, tmp_path, command):
        # y0 = 1 + y0/2 is reached only in the limit
        spec = tmp_path / "constant.spec"
        spec.write_text("vars Y;\nmode series;\nY = 1 + x + 1/2*Y;\n")
        code, _, err = run(capsys, command, str(spec))
        assert (code, err) == (
            3, "spectre: coefficient 0 of the solution does not settle\n"
        )

    @pytest.mark.parametrize(
        "rhs, verdict", [("x^2 + Y", "Singular"), ("x + 2*Y", "NegativeEntries")]
    )
    def test_ill_posed(self, capsys, tmp_path, rhs, verdict):
        spec = tmp_path / "ill.spec"
        spec.write_text(f"vars Y;\nmode series;\nY = {rhs};\n")
        failed = f"spectre: origin Jacobian check failed: {verdict}\n"
        code, out, err = run(capsys, "check", str(spec))
        assert (code, err) == (3, failed)
        assert out.endswith(f"linear part at the origin: {verdict}\n")
        code, out, err = run(capsys, "coeffs", str(spec))
        assert (code, out, err) == (3, "", failed)
        note = f"note: linear part at the origin: {verdict}; reporting the"
        for command in ("solve", "params"):
            code, out, _ = run(capsys, command, str(spec))
            assert code == 0 and out.startswith(note)
        code, out, _ = run(capsys, "solve", str(spec), "--format", "json")
        assert "note:" not in out

    @pytest.mark.parametrize("command", ["solve", "params"])
    def test_no_note_before_a_refusal(self, capsys, tmp_path, command):
        # M is singular, and the direct translation is refused
        spec = tmp_path / "ill.spec"
        spec.write_text("vars Y;\nmode series;\nY = x + Y + x*MSet[2+2*N](x*Y);\n")
        code, out, err = run(capsys, command, str(spec))
        assert (code, out) == (3, "")
        assert "MSet with an infinite index set over a composite argument" in err

    @pytest.mark.parametrize("kind", ["Seq", "MSet", "Cycle"])
    def test_construct_over_an_index_set_with_zero(self, capsys, tmp_path, kind):
        # K[N](x) has constant term 1, so Y = x + K[N](x)*Y has M = 1
        spec = tmp_path / "ill.spec"
        spec.write_text(f"vars Y;\nmode series;\nY = x + {kind}[N](x)*Y;\n")
        failed = "spectre: origin Jacobian check failed: Singular\n"
        assert run(capsys, "check", str(spec)) == (
            3,
            "mode: series  variables: Y\nelementary: no\n"
            "  Y: linear term 1*Y with constant coefficient\n"
            "linear part at the origin: Singular\n",
            failed,
        )
        assert run(capsys, "coeffs", str(spec)) == (3, "", failed)
        note = "note: linear part at the origin: Singular; reporting the"
        for command in ("solve", "params"):
            code, out, _ = run(capsys, command, str(spec))
            assert code == 0 and out.startswith(note)


class TestOriginWalks:
    @pytest.mark.parametrize("command", ["check", "coeffs", "solve", "params"])
    def test_one_walk_per_right_side(self, capsys, monkeypatch, command):
        real, depth, walks = pseries._origin, [0], []

        def counting(expr, y0):
            if not depth[0]:
                walks.append(expr)
            depth[0] += 1
            try:
                return real(expr, y0)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(pseries, "_origin", counting)
        code, _, _ = run(capsys, command, fx("bluered.spec"))
        assert code == 0
        bluered = dsl.parse((FIXTURES / "bluered.spec").read_text())
        assert walks == list(bluered.right_sides)


class TestEnumeratedExponents:
    """An enumerated index set cannot be summed with another exponent of
    the same variable, in a set term or in a compiled product."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("solve", "vars Y; mode sets; Y = {1} + Primes*Y + Primes*Y;"),
            ("compile", "vars Y; mode series; Y = x + x*MSet[Primes](Y)*MSet[Primes](Y);"),
        ],
        ids=["set-term", "series-product"],
    )
    def test_semantic_error(self, capsys, tmp_path, command, text):
        spec = tmp_path / "enumerated.spec"
        spec.write_text(text)
        code, _, err = run(capsys, command, str(spec))
        assert code == 3
        assert err == (
            "spectre: cannot combine an enumerated index set with another exponent\n"
        )


class TestParameterInvariants:
    """solve checks m and, on a reduced system, q of every closed form
    against the integer formulas; a disagreement is an internal error."""

    @pytest.mark.parametrize(
        "helper, wrong, message",
        [
            ("min_vector", lambda m: [x + 1 for x in m], "minimum of Y1 disagrees with min_vector"),
            (
                "_q_report",
                lambda rep: setsys.QReport(tuple(x + 1 for x in rep.q), rep.per_equation),
                "gcd of Y1 disagrees with q_vector",
            ),
        ],
        ids=["m", "q"],
    )
    def test_wrong_formula_exits_4(self, capsys, monkeypatch, helper, wrong, message):
        right = getattr(setsys, helper)
        monkeypatch.setattr(setsys, helper, lambda *args: wrong(right(*args)))
        code, _, err = run(capsys, "solve", fx("paths.spec"))
        assert code == cli.EXIT_INTERNAL
        assert message in err


class TestIndexSets:
    """Constructs over index sets that contain 0 or are empty."""

    @pytest.mark.parametrize(
        "index, coeffs, spectrum",
        [
            ("N", "[0, 1, 1, 1, 1, 1, 1]", "1+1*N"),
            ("{0}", "[0, 1, 0, 0, 0, 0, 0]", "{1}"),
            ("{0,2}", "[0, 1, 0, 1, 0, 0, 0]", "{1,3}"),
        ],
        ids=["N", "{0}", "{0,2}"],
    )
    def test_mset_counts_the_empty_multiset(self, capsys, tmp_path, index, coeffs, spectrum):
        spec = tmp_path / "mset.spec"
        spec.write_text(f"vars Y;\nmode series;\nY = x*MSet[{index}](x);\n")
        assert run(capsys, "coeffs", str(spec), "--degree", "6") == (0, f"Y: {coeffs}\n", "")
        code, out, _ = run(capsys, "solve", str(spec))
        assert (code, out) == (0, f"Y = {spectrum}   [CertifiedLinear]\n")
        assert oracle.spectral_equivalence_check(dsl.parse(spec.read_text()), 24).ok

    @pytest.mark.parametrize("command", ["solve", "params", "compile", "digraph"])
    def test_construct_over_empty_index_set_on_a_variable(self, capsys, tmp_path, command):
        spec = tmp_path / "empty.spec"
        spec.write_text("vars Y;\nmode series;\nY = x*MSet[{}](Y) + x*Y;\n")
        code, out, err = run(capsys, command, str(spec))
        assert (code, err) == (0, "")
        if command == "solve":
            assert out == "Y = {}   [CertifiedLinear]\n"

    def test_check_finds_a_construct_over_empty_index_set_zero(self, capsys, tmp_path):
        # as coeffs and solve find it
        spec = tmp_path / "empty.spec"
        spec.write_text("vars Y;\nmode series;\nY = x*Seq[{}](x);\n")
        assert run(capsys, "check", str(spec))[1].endswith("identically zero: Y\n")
        assert run(capsys, "coeffs", str(spec), "--degree", "3")[1] == "Y: [0, 0, 0, 0]\n"
        assert run(capsys, "solve", str(spec))[1].startswith("Y = {}")

    def test_family_over_the_empty_set_is_dropped(self, capsys, tmp_path):
        spec = tmp_path / "empty.spec"
        spec.write_text("vars Y;\nmode sets;\nY = {} | {1};\n")
        assert run(capsys, "solve", str(spec)) == (0, "Y = {1}   [CertifiedLinear]\n", "")


class TestRemovedOptions:
    def test_enumeration_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["solve", fx("structured.spec"), "--enumeration-cap", "1"])
        assert ei.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments: --enumeration-cap 1" in capsys.readouterr().err


class TestParserReuse:
    """main may be called repeatedly in one process; it builds its parser
    once and every call still gets its own defaults."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        build = cli.build_parser

        def counting():
            count.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        return count

    def test_defaults_per_call(self, capsys, builds):
        f = fx("paths.spec")
        code, out, _ = run(capsys, "solve", f, "--horizon", "64", "--format", "json")
        assert code == 0 and json.loads(out)["horizon"] == 64
        code, out, _ = run(capsys, "solve", f, "--format", "json")
        assert code == 0 and json.loads(out)["horizon"] == 512
        code, out, _ = run(capsys, "coeffs", fx("binary.spec"), "--degree", "7")
        assert code == 0 and "T: [0, 1, 0, 1, 0, 2, 0, 5]" in out
        code, out, _ = run(capsys, "coeffs", fx("binary.spec"))
        assert code == 0 and len(out.split("[")[1].split(",")) == 33
        assert len(builds) == 1

    def test_usage_error_then_valid(self, capsys, builds):
        with pytest.raises(SystemExit) as ei:
            cli.main(["frobenius"])
        assert ei.value.code == 1
        assert "usage:" in capsys.readouterr().err
        code, out, err = run(capsys, "frobenius", "3", "5")
        assert code == 0 and err == ""
        assert out == (
            "generators: 3, 5\n"
            "gcd: 1\n"
            "conductor: 8\n"
            "gaps: [1, 2, 4, 7]\n"
            "closure: {0,3,5,6} | 8+1*N\n"
        )
        assert len(builds) == 1
