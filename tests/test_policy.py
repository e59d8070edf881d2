"""The threshold policy is written in one place: every float literal in
(0, 1e-3] in the package is the whole value of a module-level UPPER_CASE
constant of ``ctxlab.linalg``, or one of the report bounds of
``ctxlab.cli``."""

import ast
import pathlib

import ctxlab

PACKAGE = pathlib.Path(ctxlab.__file__).parent
REPORT_BOUNDS = {"STATE_EXTEND_BOUND", "CCR_BOUND", "CLASSICAL_BOUND_SLACK"}


def unnamed_thresholds(source: str, name: str) -> list:
    """``name:line: value`` for each small float literal outside the named
    constants allowed in module ``name``."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            allowed = target.isupper() if name == "linalg.py" else name == "cli.py" and target in REPORT_BOUNDS
            if allowed and isinstance(node.value, ast.Constant):
                named.add(id(node.value))
    return [
        f"{name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < node.value <= 1e-3
        and id(node) not in named
    ]


def test_every_threshold_is_named_in_linalg():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += unnamed_thresholds(path.read_text(), str(path.relative_to(PACKAGE)))
    assert found == []


def test_the_lint_finds_literal_thresholds():
    assert unnamed_thresholds("x = max(tol, 1e-8)\n", "staralg.py") == ["staralg.py:1: 1e-08"]
    assert unnamed_thresholds("FLOOR = 1e-8\n", "staralg.py") == ["staralg.py:1: 1e-08"]
    assert unnamed_thresholds("FLOOR = 1e-8\nx = -1e-9\n", "linalg.py") == ["linalg.py:2: 1e-09"]
    assert unnamed_thresholds("def f(tol=1e-10):\n    FLOOR = 1e-8\n", "linalg.py") == [
        "linalg.py:1: 1e-10",
        "linalg.py:2: 1e-08",
    ]
    assert unnamed_thresholds("CCR_BOUND = 1e-10\nOTHER = 1e-10\n", "cli.py") == ["cli.py:2: 1e-10"]
    assert unnamed_thresholds("FLOOR = 1e-8\nx = 0.5 + 2e-3\n", "linalg.py") == []
