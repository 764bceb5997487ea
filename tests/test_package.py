"""The package ships only what its commands and its own modules use."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

import spectre
from spectre.epset import EMPTY, NAT, EPSet, PeriodicityParams, singleton
from spectre.pseries import Const, Construct, PSSystem, Var, X
from spectre.setsys import GammaTerm, SetSystem

SOURCE = Path(spectre.__file__).resolve().parent

# public entry points of the library that no command calls
ENTRY_POINTS = {"evaluate", "nstar", "q_vector"}


def test_every_public_name_is_used_inside_the_package():
    defined, referenced = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update({node.name, node.asname})
    assert defined - referenced == ENTRY_POINTS


ONE = singleton(1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GammaTerm(EMPTY, ((0, ONE),)), "term base must be non-empty"),
        (lambda: GammaTerm(ONE, ((0, ONE), (1, EMPTY))), "exponent sets must be non-empty"),
        (lambda: GammaTerm(ONE, ((1, ONE), (0, ONE), (1, NAT))), "a variable is listed twice"),
        (lambda: SetSystem(("Y",), ((GammaTerm(ONE, ((1, ONE),)),),)), "term arity mismatch"),
        (lambda: Const(Fraction(-1, 2)), "constants must be non-negative"),
        (lambda: Construct("Set", NAT, X()), "unknown construction Set"),
        (lambda: PSSystem(("Y", "Z"), (X(),)), "need one right side per variable"),
    ],
    ids=["base", "exponent", "twice", "arity", "const", "construct", "system"],
)
def test_value_classes_check_their_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_value_class_contract():
    # equal sets built apart hash equal and find one dict entry
    a, b = EPSet(0b101, 3, 2, 1), EPSet(0b101, 3, 2, 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a" and len({a, b}) == 1
    assert a != EPSet(0b101, 3, 2, 0)
    # equality holds within one class only, as the dataclasses had it
    assert Var(0) != Const(0) and Var(0) == Var(0) and X() == X()
    assert hash(Var(2)) == hash(Var(2))
    assert PeriodicityParams(1, 1, 3, 1) != (1, 1, 3, 1)
    assert repr(Var(3)) == "Var(index=3)"
    assert repr(PeriodicityParams(1, 2, 0, 3)) == "PeriodicityParams(m=1, q=2, p=0, c=3)"
    with pytest.raises(TypeError):
        Var(1, 2)
