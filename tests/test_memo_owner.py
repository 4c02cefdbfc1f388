"""The job's memo tables have one owner: ``Job.once`` is the only get-or-
make on them, so no function of the package outside ``Job``'s own methods
reads or writes a ``.memo`` attribute."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropcrit"


def test_only_job_methods_touch_the_memo():
    touches = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Job":
                owned.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "memo":
                if id(node) not in owned:
                    touches.append(f"{path.name}:{node.lineno}")
    assert not touches, f".memo outside Job: {touches}"
