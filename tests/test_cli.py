import argparse
import contextlib
import functools
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from spectre import cli, dsl, epset, pseries, setsys
from spectre import compile as compile_mod
from spectre.epset import EMPTY, POS, singleton, union
from spectre.setsys import GammaTerm

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

    def test_mset_over_every_count_is_quadratic(self, capsys, tmp_path):
        # MSet[N] = 1 + MSet[N+] takes the log-derivative recurrence, not
        # the cubic one per part count, which takes about a second here
        spec = tmp_path / "mset.spec"
        spec.write_text("vars Y; mode series; Y = x + x*MSet[N](Y);")
        start = time.perf_counter()
        code, out, err = run(capsys, "coeffs", str(spec), "--degree", "160", "--format", "json")
        assert time.perf_counter() - start < 0.1
        assert (code, err) == (0, "")
        n = 12
        y = [0] * (n + 1)
        for _ in range(n):  # each round fixes one more coefficient
            e = oracle.naive_euler(y, n - 1)
            y = [0, 1 + e[0], *e[1:]]
        got = json.loads(out)["series"]["Y"]
        assert len(got) == 161 and got[: n + 1] == [str(c) for c in y]


def _digit_limit():
    """The interpreter's int <-> str digit limit, None where it has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def _no_digit_limit():
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestDigitLimit:
    """Numbers past the interpreter's 4300-digit int <-> str limit, in the
    answer and in the input, are read and printed exactly; main puts the
    limit back afterwards."""

    @pytest.mark.parametrize(
        "text, degree, expected",
        [
            ("vars Y; mode series; Y = x*(1 + 999999*Y);", 800, lambda: str(999999**799)),
            (
                f"vars Y; mode series; Y = x + {'1' * 5000}/3*x;",
                1,
                lambda: f"{(10**5000 - 1) // 9 + 3}/3",
            ),
        ],
        ids=["answer", "input"],
    )
    def test_exact(self, capsys, tmp_path, text, degree, expected):
        spec = tmp_path / "big.spec"
        spec.write_text(text)
        limit = _digit_limit()
        code, out, err = run(capsys, "coeffs", str(spec), "--degree", str(degree))
        assert (code, err) == (0, "")
        assert _digit_limit() == limit
        with _no_digit_limit():
            assert out.startswith("Y: [0, ") and out.endswith(f", {expected()}]\n")


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

    def test_non_utf8_is_a_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.spec"
        bad.write_bytes(b"vars Y; mode sets;\r\nY = {1}; # \xff\n")
        code, out, err = run(capsys, "solve", str(bad))
        assert (code, out) == (2, "")
        assert err == "spectre: syntax error at 2:12: byte 0xff is not UTF-8\n"

    def test_non_periodic_spectrum(self, capsys, tmp_path):
        # the spectrum of Y is Primes, so no closed form can be proven
        spec = tmp_path / "primes.spec"
        spec.write_text("vars Y, Z; mode sets; Y = Primes*Z; Z = {1};")
        code, out, err = run(capsys, "solve", str(spec))
        assert code == 3
        assert out == ""
        assert "leave the solution open" in err

    def test_semantic_error(self, capsys, tmp_path):
        # MSet(1 + Y) has no power series: the empty multiset of its
        # argument's constant term can be taken any number of times
        spec = tmp_path / "mset.spec"
        spec.write_text("vars Y; mode series; Y = x + x*MSet(1 + Y);")
        code, out, err = run(capsys, "coeffs", str(spec))
        assert (code, out) == (3, "")
        assert err == "spectre: MSet argument has a non-zero constant term\n"


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


class TestSizeBound:
    """A member, start or period of an index set, a generator, or the
    conductor bound of a closure at or past epset.SIZE_BOUND is refused
    before any mask is built."""

    @pytest.mark.parametrize(
        "argv, text, err",
        [
            (
                ["solve", "{spec}"],
                "vars Y; mode sets; Y = {1000000000000000};",
                "set member 1000000000000000 is not below the size bound 100000000",
            ),
            (
                ["frobenius", "100003", "100019"],
                None,
                "conductor bound 10002000036 is not below the size bound 100000000",
            ),
            (
                ["solve", "{spec}"],
                "vars Y; mode series; Y = x^1000000000000;",
                "exponent 1000000000000 is not below the size bound 100000000",
            ),
            (
                ["coeffs", "{spec}", "--degree", "100000000"],
                "vars Y; mode series; Y = x + Y^2;",
                "degree 100000000 is not below the size bound 100000000",
            ),
        ],
        ids=["member", "frobenius", "exponent", "degree"],
    )
    def test_refused_under_a_memory_cap(self, tmp_path, argv, text, err):
        # each exited 4 with MemoryError under a cap of 2 GB before the bound
        spec = tmp_path / "input.spec"
        if text is not None:
            spec.write_text(text)
        cap = 1 << 30
        code = (
            "import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from spectre import cli; sys.exit(cli.main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
        argv = [a.format(spec=spec) for a in argv]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (3, "", f"spectre: {err}\n")

    @pytest.mark.parametrize(
        "argv, text, err",
        [
            (["solve", "{spec}"], "vars Y; mode sets; Y = {1} | 5+100000000*N;", "period 100000000"),
            (["solve", "{spec}"], "vars Y; mode sets; Y = {1} | 100000000*N + Y;", "period 100000000"),
            (["solve", "{spec}"], "vars Y; mode sets; Y = 100000000+1*N;", "progression start 100000000"),
            (["coeffs", "{spec}"], "vars Y; mode series; Y = x*Seq[{2,100000000}](x);", "set member 100000000"),
            (["frobenius", "3", "100000000"], None, "generator 100000000"),
        ],
        ids=["period", "bare-period", "start", "seq-member", "generator"],
    )
    def test_refused(self, capsys, tmp_path, argv, text, err):
        spec = tmp_path / "input.spec"
        if text is not None:
            spec.write_text(text)
        argv = [a.format(spec=spec) for a in argv]
        assert run(capsys, *argv) == (
            3, "", f"spectre: {err} is not below the size bound 100000000\n"
        )

    def test_huge_power(self, capsys, tmp_path):
        # the set side, check included, refuses an exponent past the bound,
        # which coeffs never expands; one below it takes about log2 of it
        # products
        spec = tmp_path / "power.spec"
        spec.write_text("vars Y; mode series; Y = x^1000000000000;")
        assert run(capsys, "check", str(spec)) == (
            3,
            "mode: series  variables: Y\nelementary: yes\n",
            "spectre: exponent 1000000000000 is not below the size bound 100000000\n",
        )
        assert run(capsys, "coeffs", str(spec), "--degree", "3") == (0, "Y: [0, 0, 0, 0]\n", "")
        start = time.perf_counter()
        report = compile_mod.compile_system(dsl.parse("vars Y; mode series; Y = x^99999999;"))
        assert time.perf_counter() - start < 5.0
        assert report.system.equations == ((GammaTerm(singleton(99999999), ()),),)

    def test_members_just_below_the_bound(self, capsys, tmp_path):
        # a lone large member is a few shifts, and the closure's window
        # starts at Sylvester's bound for 4 and 9
        spec = tmp_path / "member.spec"
        spec.write_text("vars Y; mode sets; Y = {99999999};")
        start = time.perf_counter()
        assert run(capsys, "solve", str(spec)) == (0, "Y = {99999999}   [CertifiedLinear]\n", "")
        code, out, _ = run(capsys, "frobenius", "4", "6", "9", "99999999")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and "conductor: 12\n" in out and "closure: {0,4,6,8,9,10} | 12+1*N\n" in out

    def test_below_the_bound(self):
        assert epset.bounded(epset.SIZE_BOUND - 1, "period") == epset.SIZE_BOUND - 1
        # a large generator with a small coprime pair beside it keeps a
        # small conductor bound; the least and the largest give Schur's
        assert epset.conductor_bound([4, 6, 9, 99999999]) == 3 * 8
        assert epset.conductor_bound([100003, 100019]) == 100002 * 100018
        assert epset.conductor_bound([6, 10, 15]) == 5 * 14
        assert epset.conductor_bound([12, 18, 27]) == 3 * (4 - 1) * (9 - 1)
        assert epset.conductor_bound([7]) == 0


def _nested(mode: str, depth: int) -> str:
    """A file nested depth groups deep.  The series form puts a sum, a
    product, a power and a construct at every level, the most nodes per
    group that the series walkers recurse through."""
    if mode == "sets":
        return "vars Y; mode sets; Y = " + "(" * depth + "{1}" + ")" * depth + " | {2} + Y;"
    rhs = "x"
    for _ in range(depth):
        rhs = f"x + x*Seq({rhs})^2"
    return f"vars Y; mode series; Y = {rhs};"


class TestNesting:
    """Nesting deeper than dsl.MAX_NESTING is a syntax error, so that no
    command recurses past the interpreter's limit."""

    @pytest.mark.parametrize("mode", ["sets", "series"])
    def test_too_deep(self, capsys, tmp_path, mode):
        spec = tmp_path / "deep.spec"
        text = _nested(mode, dsl.MAX_NESTING + 1)
        spec.write_text(text)
        # the error sits at the ( of the first group too deep
        opening, at = "(" if mode == "sets" else "Seq(", -1
        for _ in range(dsl.MAX_NESTING + 1):
            at = text.index(opening, at + 1)
        col = at + len(opening)
        assert run(capsys, "solve", str(spec)) == (
            2, "", f"spectre: syntax error at 1:{col}: nesting too deep\n"
        )

    @pytest.mark.parametrize("mode", ["sets", "series"])
    def test_deepest_is_read(self, capsys, tmp_path, mode):
        spec = tmp_path / "deep.spec"
        spec.write_text(_nested(mode, dsl.MAX_NESTING))
        commands = ["check", "solve", "params", "digraph"]
        if mode == "series":
            commands += ["compile", "coeffs"]
        for command in commands:
            code, _, err = run(capsys, command, str(spec))
            assert code in (0, 3), (command, err)


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
            ("_solve_linear", lambda c, d, stars: [union(v, singleton(7)) for v in solve_linear(c, d, stars)]),
            ("_solve_linear", lambda c, d, stars: [POS] * len(d)),
            # every entry gains 1, the empty ones included
            ("_jacobian", lambda s, nu, stars: [
                {j: union(row.get(j, EMPTY), singleton(1)) for j in range(len(nu))}
                for row in jacobian(s, nu, stars)
            ]),
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
        flat = setsys._normal_form(sys_, setsys.min_vector(sys_))
        assert setsys.gamma_eval(flat, [POS]) == [singleton(1)]
        assert run(capsys, "solve", str(spec)) == (0, "Y = {1}   [CertifiedLinear]\n", "")


class TestHatNote:
    """A series system is well posed when its constant terms y0 settle and
    (I - M)^-1 >= 0 at y0; check, coeffs, solve and params read the one
    verdict."""

    @pytest.mark.parametrize("command", ["solve", "coeffs"])
    def test_no_note_on_a_constant_term(self, capsys, tmp_path, command):
        # the constant term settles and M = 0, so nothing is ill posed, and
        # solve answers the direct translation Y = {0} | {1} + Y
        spec = tmp_path / "constant.spec"
        spec.write_text("vars Y;\nmode series;\nY = 1 + x*Y;\n")
        code, out, _ = run(capsys, command, str(spec))
        assert code == 0
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

    @pytest.mark.parametrize("rhs", ["1 + x*Y", "Seq[N](x)", "1 + x*Y^2"])
    def test_solve_is_the_support_of_coeffs(self, rhs):
        # each direct translation has 0 in its base and a family of weight
        # below 2 that takes the empty word
        sys_ = dsl.parse(f"vars Y;\nmode series;\nY = {rhs};\n")
        assert oracle.spectral_equivalence_check(sys_, 60).ok
        sol = setsys.solve(compile_mod.compile_system(sys_).system)
        assert epset.format_epset(sol.variables[0].closed_form) == "0+1*N"

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
        # y0 = 1 + y0/2 is reached only in the limit, y0 = 2, which the
        # linear part at 0 gives exactly
        spec = tmp_path / "constant.spec"
        spec.write_text("vars Y;\nmode series;\nY = 1 + x + 1/2*Y;\n")
        degree = ["--degree", "3"] if command == "coeffs" else []
        code, out, err = run(capsys, command, str(spec), *degree)
        assert (code, err) == (0, "")
        if command == "coeffs":
            assert out == "Y: [2, 2, 0, 0]\n"
        else:
            assert out.endswith(
                "linear part at the origin: NonnegInverse\nidentically zero: none\n"
            )

    @pytest.mark.parametrize(
        "rhs, constants",
        [
            ("1/2 + 1/2*Y + x", (1,)),
            ("1/2*Z + x; Z = 1/2 + 1/2*Y", (Fraction(1, 3), Fraction(2, 3))),
            # y0 = 1/4 + y0^2 rises to 1/2, and the linear part gives 1/4
            ("1/4 + Y^2 + x", None),
        ],
        ids=["one", "two", "nonlinear"],
    )
    def test_constants_reached_in_the_limit(self, rhs, constants):
        names = "Y, Z" if "Z" in rhs else "Y"
        sys_ = dsl.parse(f"vars {names};\nmode series;\nY = {rhs};\n")
        if constants is None:
            assert sys_.linear_part.refusal == "coefficient 0 of the solution does not settle"
            return
        assert (sys_.linear_part.refusal, sys_.linear_part.constants) == (None, constants)
        series = pseries.fixed_point_solve(sys_, 6)
        assert tuple(s.coeffs[0] for s in series) == constants

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

    def test_note_on_a_construct_argument_with_a_constant_term(self, capsys, tmp_path):
        # Seq(1 + Y) has no linear part at the origin, but compile translates
        # it: solve and params note that and answer, in text and in JSON
        spec = tmp_path / "seq.spec"
        spec.write_text("vars Y; mode series; Y = x + x*Seq(1 + Y);\n")
        note = (
            "note: linear part at the origin: Seq argument has a non-zero constant"
            " term; reporting the least solution of the direct translation\n"
        )
        assert run(capsys, "solve", str(spec)) == (
            0, note + "Y = 1+1*N   [CertifiedDoubling]\n", ""
        )
        code, out, _ = run(capsys, "params", str(spec))
        assert code == 0 and out.startswith(note)
        code, out, _ = run(capsys, "solve", str(spec), "--format", "json")
        assert code == 0 and "note:" not in out
        assert json.loads(out)["solution"][0]["closed_form"] == "1+1*N"

    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("vars Y; mode series; Y = 1 + Y^2;", "coefficient 0 of the solution does not settle"),
            (
                "vars A1, A2; mode series; A1 = 1;"
                " A2 = 2*x*A1^2 + x*A2*A2^2 + 2*x*Cycle[P](A1);",
                "Cycle argument has a non-zero constant term",
            ),
        ],
        ids=["unsettled", "construct-at-y0"],
    )
    def test_note_on_every_refusal(self, capsys, tmp_path, text, refusal):
        # M is 0 at y = 0, so there is no verdict; the note names what check
        # and coeffs refuse
        spec = tmp_path / "ill.spec"
        spec.write_text(text)
        failed = f"spectre: {refusal}\n"
        code, _, err = run(capsys, "check", str(spec))
        assert (code, err) == (3, failed)
        assert run(capsys, "coeffs", str(spec)) == (3, "", failed)
        note = (
            f"note: linear part at the origin: {refusal}; reporting the least"
            " solution of the direct translation\n"
        )
        for command in ("solve", "params"):
            code, out, _ = run(capsys, command, str(spec))
            assert code == 0 and out.startswith(note)
        code, out, _ = run(capsys, "solve", str(spec), "--format", "json")
        assert code == 0 and "note:" not in out

    @pytest.mark.parametrize("command", ["solve", "params"])
    def test_no_note_before_a_refusal(self, capsys, tmp_path, command):
        # M is singular, and the direct translation is refused: its
        # spectrum holds the primes
        spec = tmp_path / "ill.spec"
        spec.write_text("vars Y;\nmode series;\nY = x + Y + MSet[Primes](x);\n")
        code, out, err = run(capsys, command, str(spec))
        assert (code, out) == (3, "")
        assert "enumerated index sets cut at 512 leave the solution open" in err

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

    def test_json_solve_walks_nothing(self, capsys, monkeypatch):
        # the note is printed only in text, so JSON solve never reads the
        # linear part
        walks = []
        monkeypatch.setattr(pseries, "_origin", lambda expr, y0: walks.append(expr))
        code, _, _ = run(capsys, "solve", fx("bluered.spec"), "--format", "json")
        assert (code, walks) == (0, [])


class TestEnumeratedExponents:
    """An enumerated index set cannot be summed with another exponent of
    the same variable, so a family lists the variable once more for it:
    star(A, Y) + star(Primes, Y) is the spectrum of K[A](Y)*K[Primes](Y)."""

    @pytest.mark.parametrize(
        "text",
        [
            "vars Y; mode sets; Y = {1} | {1} + Primes*Y + Primes*Y;",
            "vars Y; mode sets; Y = {1} | {1} + Y + Primes*Y + Y;",
            "vars Y, Z; mode sets; Y = {1} | {2} + Primes*Y + Z + Primes*Z;"
            " Z = {3} | Primes*Y + (2*N)*Y;",
        ],
        ids=["set-term", "summed", "two-variables"],
    )
    def test_set_term_solves(self, capsys, tmp_path, text):
        spec = tmp_path / "enumerated.spec"
        spec.write_text(text)
        code, out, err = run(capsys, "solve", str(spec))
        assert (code, err) == (0, "")
        sys_ = dsl.parse(text)
        assert dsl.parse(dsl.print_system(sys_)) == sys_
        brute = oracle.brute_fixpoint(sys_, 120)
        for v, want in zip(setsys.solve(sys_).variables, brute):
            assert set(epset.enumerate_range(v.closed_form, 0, 120)) == oracle.vec_members(want)

    def test_series_product_repeats_the_variable(self, capsys, tmp_path):
        spec = tmp_path / "enumerated.spec"
        spec.write_text("vars Y; mode series; Y = x + x*MSet[Primes](Y)*MSet[Primes](Y)*Y;")
        code, out, _ = run(capsys, "compile", str(spec))
        assert code == 0
        assert out.startswith("vars Y;\nmode sets;\nY = {1} | {1} + Y + Primes*Y + Primes*Y;\n")
        # 1 + p + q + y for primes p, q and y in Y starts at 1 + 2 + 2 + 1
        assert run(capsys, "solve", str(spec)) == (0, "Y = {1} | 6+1*N   [CertifiedDoubling]\n", "")

    def test_a_power_adds_no_variable(self, capsys, tmp_path):
        # the 40 factors are 40 pairs of Y in one family, not a chain of
        # 39 hidden variables that each copy it
        text = "vars Y; mode series; Y = x + x*MSet[Primes](Y)^40;"
        assert compile_mod.compile_system(dsl.parse(text)).system.variables == ("Y",)
        spec = tmp_path / "power.spec"
        spec.write_text(text)
        start = time.perf_counter()
        result = run(capsys, "solve", str(spec))
        assert time.perf_counter() - start < 0.1
        assert result == (0, "Y = {1} | 81+1*N   [CertifiedDoubling]\n", "")


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


_TOP = 'usage: spectre [-h] {check,solve,params,coeffs,digraph,compile,frobenius} ...\n'
_SOLVE = 'usage: spectre solve [-h] [--horizon HORIZON] [--format {text,json}] file\n'
_FROBENIUS = 'usage: spectre frobenius [-h] generators [generators ...]\n'


class TestParser:
    """The command line is read as argparse read it: these exit codes and
    error messages are those of the argparse parser the table replaced."""

    @pytest.mark.parametrize(
        "line, code, err",
        [
            ("", 1, _TOP + "spectre: error: the following arguments are required: command\n"),
            ("frobnicate", 1, _TOP + "spectre: error: argument command: invalid choice: "
             "'frobnicate' (choose from 'check', 'solve', 'params', 'coeffs', 'digraph', "
             "'compile', 'frobenius')\n"),
            ("solve", 1,
             _SOLVE + "spectre solve: error: the following arguments are required: file\n"),
            ("solve FILE --enumeration-cap 1", 1,
             _TOP + "spectre: error: unrecognized arguments: --enumeration-cap 1\n"),
            ("solve FILE --horizon abc", 1,
             _SOLVE + "spectre solve: error: argument --horizon: invalid int value: 'abc'\n"),
            ("solve FILE --format xml", 1, _SOLVE + "spectre solve: error: argument --format: "
             "invalid choice: 'xml' (choose from 'text', 'json')\n"),
            ("solve FILE --horizon", 1,
             _SOLVE + "spectre solve: error: argument --horizon: expected one argument\n"),
            ("solve FILE --horizon -1", 3, "spectre: horizon must be at least 1\n"),
            ("frobenius -3 5", 3, "spectre: generators must be positive\n"),
            ("solve FILE --hor 64 --format=json", 0, ""),
            ("solve FILE --h 64", 1, _SOLVE + "spectre solve: error: ambiguous option: --h could "
             "match --help, --horizon\n"),
            ("solve --horizon=64 FILE", 0, ""),
            ("solve FILE --horizon 0 --horizon 64", 0, ""),
            ("solve -- FILE", 0, ""),
            ("solve FILE -- --horizon 3", 1,
             _TOP + "spectre: error: unrecognized arguments: --horizon 3\n"),
            ("frobenius 3 x", 1, _FROBENIUS + "spectre frobenius: error: argument generators: "
             "invalid int value: 'x'\n"),
            ("frobenius", 1, _FROBENIUS + "spectre frobenius: error: the following arguments "
             "are required: generators\n"),
            ("check FILE --horizon 3", 1,
             _TOP + "spectre: error: unrecognized arguments: --horizon 3\n"),
            ("-hx", 1,
             _TOP + "spectre: error: argument -h/--help: ignored explicit argument 'x'\n"),
            ("--foo solve FILE --bar", 1,
             _TOP + "spectre: error: unrecognized arguments: --foo --bar\n"),
        ],
    )
    def test_line(self, capsys, line, code, err):
        argv = [fx("postage.spec") if a == "FILE" else a for a in line.split()]
        try:
            got = cli.main(argv)
        except SystemExit as e:
            got = e.code
        assert (got, capsys.readouterr().err) == (code, err)

    OPTIONS = {
        "check": {},
        "solve": {"--horizon": 512, "--format": "text"},
        "params": {"--horizon": 512},
        "coeffs": {"--degree": 32, "--format": "text"},
        "digraph": {"--format": "text"},
        "compile": {},
        "frobenius": {},
    }

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["-x", "--he", "solve"]])
    def test_top_level_help(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert ei.value.code == 0 and err == ""
        assert out.startswith(_TOP)
        listed = [line.split()[0] for line in out.split("commands:\n")[1].splitlines() if line]
        assert listed[: len(self.OPTIONS)] == list(self.OPTIONS)

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_command_help(self, capsys, command):
        with pytest.raises(SystemExit) as ei:
            cli.main([command, "-h"] if command == "frobenius" else [command, "FILE", "--help"])
        out, err = capsys.readouterr()
        assert ei.value.code == 0 and err == ""
        assert out.startswith(f"usage: spectre {command} [-h]")
        lines = out.splitlines()
        for flag, default in self.OPTIONS[command].items():
            assert any(
                line.split()[:1] == [flag] and line.endswith(f"default: {default}")
                for line in lines
            ), flag
        assert sum(line.lstrip().startswith("--") for line in lines) == len(self.OPTIONS[command])

    def test_no_argparse_gettext_or_locale(self):
        # solve on a set file loads dsl and setsys too; none of them may
        # pull in the heavy modules that a start-up would pay for
        heavy = ("argparse", "gettext", "locale", "dataclasses", "inspect")
        code = (
            "import sys; from spectre import cli; cli.main(['frobenius', '3', '5']); "
            f"cli.main(['solve', {fx('paths.spec')!r}]); "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-1] == "[]"


def _argparse_reference():
    """The argparse parser that the command table replaced, as a reference
    for how a command line is read."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            sys.exit(1)

    parser = Parser(prog="spectre")
    sub = parser.add_subparsers(dest="command", required=True)
    horizon = ("--horizon", int, 512, None)
    for name, func, options in [
        ("check", "cmd_check", []),
        ("solve", "cmd_solve", [horizon, ("--format", None, "text", ("text", "json"))]),
        ("params", "cmd_params", [horizon]),
        ("coeffs", "cmd_coeffs",
         [("--degree", int, 32, None), ("--format", None, "text", ("text", "json"))]),
        ("digraph", "cmd_digraph", [("--format", None, "text", ("text", "dot"))]),
        ("compile", "cmd_compile", []),
        ("frobenius", "cmd_frobenius", None),
    ]:
        p = sub.add_parser(name)
        if options is None:
            p.add_argument("generators", type=int, nargs="+")
        else:
            p.add_argument("file")
        for flag, kind, default, choices in options or []:
            p.add_argument(flag, type=kind, default=default, choices=choices)
        p.set_defaults(func=func)
    return parser


def _read(parser, argv):
    """What parser makes of argv: the values it read, or the exit code
    and error output; help counts as exit 0 whatever it prints."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = vars(parser.parse_args(argv))
    except SystemExit as e:
        return e.code, "" if e.code == 0 else err.getvalue()
    args.pop("command", None)
    func = args.pop("func")
    return getattr(func, "__name__", func), args


class TestReadsAsArgparse:
    # every token but a glued "--" (--format=--), which argparse turned
    # into an empty list of values and the table refuses
    TOKENS = [
        "solve", "check", "frobenius", "coeffs", "digraph", "params", "compile", "sol", "", "f",
        "3", "5", "-1", "-3", "0", "x", "1_0", " 7", "-1.5", "-.5", "-5x", "-", "--", "--",
        "-h", "--help", "--h", "--he", "-hx", "-hh", "-h=", "-h=h", "--help=", "--help=x",
        "--horizon", "--horizon=3", "--horizon=", "--hor", "--hor=9", "--ho", "--format",
        "--format=json", "--form", "--f", "--fo=dot", "json", "text", "dot", "xml", "--degree",
        "--deg=4", "--d", "--degree=-2", "--x", "-x", "--=x", "a b", "-a b", "-1 x", "---x",
        "--horizonx", "-h x", "--format=", "+3",
    ]

    def test_random_command_lines(self):
        rng = random.Random(0)
        reference, table = _argparse_reference(), cli.build_parser()
        commands = list(table.commands)
        for _ in range(3000):
            argv = [rng.choice(self.TOKENS) for _ in range(rng.randint(0, 6))]
            if argv and rng.random() < 0.7:
                argv[0] = rng.choice(commands)
            assert _read(table, argv) == _read(reference, argv), argv

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["solve", "FILE", "--horizon=--"], _SOLVE + "spectre solve: error: argument "
             "--horizon: invalid int value: '--'\n"),
            (["solve", "FILE", "--format=--"], _SOLVE + "spectre solve: error: argument "
             "--format: invalid choice: '--' (choose from 'text', 'json')\n"),
        ],
    )
    def test_glued_double_dash_is_a_value(self, capsys, argv, err):
        # argparse read no value here: --horizon=-- exited 4 and --format=--
        # printed text
        with pytest.raises(SystemExit) as ei:
            cli.main([fx("postage.spec") if a == "FILE" else a for a in argv])
        assert (ei.value.code, capsys.readouterr().err) == (1, err)


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
