"""No function body of the package imports a private name (``_x``) from
another of its modules: such a reach-in hides a dependency on internals
that module-level imports would show."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tropcrit"


def _is_package_import(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "tropcrit"


def test_no_function_imports_a_private_name_from_the_package():
    reaches = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and _is_package_import(node):
                    reaches += [
                        f"{path.name}:{node.lineno} {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                    ]
    assert not reaches, f"function-local imports of private names: {reaches}"
