"""Every function and method the package defines is named somewhere in
the source, test or benchmark trees besides its own ``def`` line."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perfbench")
DEF_NAME = re.compile(r"^\s*(?:async\s+)?def\s+\w+")


def test_every_function_is_named_outside_its_def():
    words = set()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for line in path.read_text().splitlines():
                words.update(re.findall(r"\w+", DEF_NAME.sub("", line)))
    unnamed = []
    for path in sorted((ROOT / "src" / "tropcrit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in words:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert not unnamed, f"defined but never named: {unnamed}"
