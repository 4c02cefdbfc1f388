"""No module of the package reads the environment: every run setting is a
command-line option and a ``JobConfig`` field, echoed in the report, so a
report never depends on a variable the user cannot see in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropcrit"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = node.attr in ENVIRONMENT and ast.unparse(node.value) == "os"
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(
                    alias.name in ENVIRONMENT for alias in node.names
                )
            else:
                continue
            if hit:
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"environment reads: {readers}"
