"""Every import in the library sits at the top of its module.

A function-level import runs its lookup on every call (``MonoidRing.sample``
once re-imported the degree sampler on every draw) and hides a dependency
from the module header; every module the library needs is loaded by
``import grothloc.cli`` anyway (see tests/test_cold_start.py).
"""
import ast
from pathlib import Path

import grothloc

SRC = Path(grothloc.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner


def test_no_function_body_imports():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _local_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_a_function_level_import():
    tree = ast.parse("import os\ndef f():\n    from .rng import Lcg64\n    return Lcg64\n")
    assert [node.lineno for node in _local_imports(tree)] == [3]
