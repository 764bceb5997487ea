"""Every bundled fixture through every command that applies to it."""
import pytest

from spectre import cli, dsl
from spectre.pseries import PSSystem

from conftest import FIXTURES

COMMANDS = ("check", "solve", "params", "digraph")
SERIES_COMMANDS = ("compile", "coeffs")

# Out of scope until series systems get one normal form (ROADMAP item 3):
# composite construct arguments and constructs inside the hat transform.
KNOWN_SEMANTIC_ERRORS = {
    ("compton", "solve"): "Cycle with an infinite index set over a composite argument",
    ("compton", "params"): "Cycle with an infinite index set over a composite argument",
    ("compton", "digraph"): "Cycle with an infinite index set over a composite argument",
    ("compton", "compile"): "Cycle with an infinite index set over a composite argument",
    ("compton", "coeffs"): "Cycle has spectrum-only semantics",
    ("structured", "check"): "hat transform supports polynomial right sides only",
    ("structured", "coeffs"): "hat transform supports polynomial right sides only",
}


def cases():
    for path in sorted(FIXTURES.glob("*.spec")):
        series = isinstance(dsl.parse(path.read_text()), PSSystem)
        for command in COMMANDS + (SERIES_COMMANDS if series else ()):
            marks = ()
            known = KNOWN_SEMANTIC_ERRORS.get((path.stem, command))
            if known:
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError, reason=f"ROADMAP item 3: {known}"
                )
            yield pytest.param(path.name, command, marks=marks, id=f"{path.stem}-{command}")


@pytest.mark.parametrize("name, command", list(cases()))
def test_fixture_command(capsys, name, command):
    code = cli.main([command, str(FIXTURES / name)])
    _, err = capsys.readouterr()
    if code == cli.EXIT_INTERNAL:
        pytest.fail(f"internal error: {err}")
    assert code == cli.EXIT_OK, err
