"""Every bundled fixture through every command that applies to it."""
import shutil

import pytest

from spectre import cli, dsl
from spectre.pseries import PSSystem

from conftest import FIXTURES, script

COMMANDS = ("check", "solve", "params", "digraph")
SERIES_COMMANDS = ("compile", "coeffs")

# Out of scope until Cycle gets coefficients (ROADMAP item 3).
KNOWN_SEMANTIC_ERRORS = {
    ("compton", "coeffs"): "item 3: Cycle has spectrum-only semantics",
    ("fdigraph", "coeffs"): "item 3: Cycle has spectrum-only semantics",
    ("structured", "coeffs"): "item 3: Cycle has spectrum-only semantics",
}


def cases():
    for path in sorted(FIXTURES.glob("*.spec")):
        series = isinstance(dsl.parse(path.read_text()), PSSystem)
        for command in COMMANDS + (SERIES_COMMANDS if series else ()):
            marks = ()
            known = KNOWN_SEMANTIC_ERRORS.get((path.stem, command))
            if known:
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError, reason=f"ROADMAP {known}"
                )
            yield pytest.param(path.name, command, marks=marks, id=f"{path.stem}-{command}")


@pytest.mark.parametrize("name, command", list(cases()))
def test_fixture_command(capsys, name, command):
    code = cli.main([command, str(FIXTURES / name)])
    _, err = capsys.readouterr()
    if code == cli.EXIT_INTERNAL:
        pytest.fail(f"internal error: {err}")
    assert code == cli.EXIT_OK, err


def _tour():
    return script("run_fixtures")


class TestTourScript:
    def test_counts_exit_codes(self, capsys, tmp_path):
        shutil.copy(FIXTURES / "postage.spec", tmp_path)
        assert _tour().main(["--fixtures", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "4 commands: exit 0: 4"

    def test_bundled_fixtures(self, capsys):
        assert _tour().main([]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "32 commands: exit 0: 29, exit 3: 3"

    def test_internal_error_fails_the_run(self, capsys, tmp_path, monkeypatch):
        shutil.copy(FIXTURES / "postage.spec", tmp_path)
        codes = iter([0, cli.EXIT_INTERNAL, cli.EXIT_SEMANTIC, 0])
        monkeypatch.setattr(cli, "main", lambda argv: next(codes))
        assert _tour().main(["--fixtures", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "4 commands: exit 0: 2, exit 3: 1, exit 4: 1"

    def test_semantic_errors_do_not_fail_the_run(self, capsys, tmp_path, monkeypatch):
        shutil.copy(FIXTURES / "postage.spec", tmp_path)
        monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_SEMANTIC)
        assert _tour().main(["--fixtures", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "4 commands: exit 3: 4"


class TestConductorTable:
    def test_runs(self, capsys):
        assert script("conductor_table").main(["-n", "12"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("all conductors match (a-1)(b-1)")


class TestCompareOutputs:
    def test_a_checkout_matches_itself(self, capsys, tmp_path):
        shutil.copy(FIXTURES / "postage.spec", tmp_path)
        root = str(FIXTURES.parent)
        argv = [root, root, "--count", "3", "--fixtures", str(tmp_path)]
        assert script("compare_outputs").main(argv) == 0
        # postage 11, the zero periods 6 + 6 + 9, the seven origin systems 9
        # each, the six large set systems 7 each and the large series one
        # 10, the first five edge systems 6 each, the two nested ones 6 + 9,
        # the unit-rule cycle 6, the member past the size bound 6, the
        # product with Primes 9, the member just below the bound 6, the
        # power of a construct over Primes 9, the set term with Primes twice
        # 6 and the series power past the bound 9, three series systems 9
        # each, three set systems 6 each, 8 frobenius lines and 20 parser
        # lines
        assert capsys.readouterr().out == "316 command lines, 0 differ\n"

    def test_a_changed_output_is_reported(self):
        case = {"code": 0, "stdout": "Y = {1}\n", "stderr": "", "spec": "vars Y;\n"}
        changed = dict(case, stdout="Y = {2}\n")
        compare = script("compare_outputs").compare
        report = compare({"solve y.spec": case}, {"solve y.spec": changed})
        assert report[0] == "=== solve y.spec"
        assert "-Y = {1}" in report and "+Y = {2}" in report
