"""Every function and method the package defines is named by code
somewhere in the source, test or benchmark trees besides its own ``def``:
a name, an attribute, an imported alias or a string constant that is a
dotted identifier (a tracer target such as ``"InitialIdealEngine.initial"``
names both parts).  Docstrings and comments do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perfbench")


def code_names(tree) -> set:
    """The names that the code of a parsed module refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_only_code_counts_as_a_reference():
    tree = ast.parse(
        'def f():\n    """Calls g."""\n    # g\n    return h.k("m.n", "p q")\n'
    )
    assert code_names(tree) == {"h", "k", "m", "n"}


def test_every_function_is_named_outside_its_def():
    names = set()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            names |= code_names(ast.parse(path.read_text()))
    unnamed = []
    for path in sorted((ROOT / "src" / "tropcrit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in names:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert not unnamed, f"defined but never named: {unnamed}"
