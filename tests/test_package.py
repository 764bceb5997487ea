"""The package ships only what its commands and its own modules use."""
import ast
from pathlib import Path

import spectre

SOURCE = Path(spectre.__file__).resolve().parent

# public entry points of the library that no command calls
ENTRY_POINTS = {"evaluate", "q_vector"}


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
