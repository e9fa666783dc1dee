"""The mutant catalogue still targets the code: each snippet occurs exactly
once in its file, and each test a mutant names is defined.  Running the
mutants themselves is ``python tests/mutants.py``, a CI job of its own."""
import ast

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.snippet != mutant.replacement


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_are_defined(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        tree = ast.parse((mutants.ROOT / path).read_text(encoding="utf-8"))
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name.split("[")[0] in defined, test_id


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
