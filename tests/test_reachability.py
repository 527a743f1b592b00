"""Every module-level function and class of the package has a caller
outside the tests.

A name counts as used where non-test code (`src/`, `bench/`, `demos/`,
`tools/`) names it outside its own definition: as a name, as an
attribute, or as a string constant equal to it (`bench/layers.py` patches
functions by name). Import lines name it without using it, so they do
not count, and neither does re-exporting it from `dmlbench/__init__.py`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dmlbench"
CALLERS = [ROOT / d for d in ("src", "bench", "demos", "tools")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(tree: ast.AST) -> Counter:
    """How often each name appears in `tree` as a name, an attribute or a
    string constant; imports name nothing."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def package_definitions() -> list[tuple[str, ast.AST]]:
    """(module name, definition) of every module-level function and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, node) for node in tree.body if isinstance(node, DEFINITIONS)]
    return found


def uses_outside_tests() -> Counter:
    used = Counter()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            used += names_used(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_package_definition_has_a_caller_outside_the_tests():
    used = uses_outside_tests()
    # a recursive call or a name in its own body is not a caller
    unreached = [
        f"{module}.{node.name}"
        for module, node in package_definitions()
        if used[node.name] <= names_used(node)[node.name]
    ]
    assert not unreached, f"only tests reach {unreached}"
