"""Run-scoped state lives in the ``Job``, not in parameters: no function
of the package takes a random generator except ``sample_alpha``, which
tests drive with their own generators."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropcrit"


def test_only_sample_alpha_takes_a_generator():
    takers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "rng" in names and node.name != "sample_alpha":
                takers.append(f"{path.name}:{node.lineno} {node.name}")
    assert not takers, f"functions taking rng: {takers}"
