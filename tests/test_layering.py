"""What each monoid and ring family answers lives with it, not in its callers.

``grothendieck.py`` holds the Smith normal form and ``GrothendieckGroup``
and imports nothing from ``monoid.py``; ``monoid.py`` imports from it.  Neither
``grothendieck.py``, ``isomorphisms.py`` nor ``ring.py`` asks ``isinstance``
of a monoid family: the family's own methods (``groth_key``,
``groth_structure``, ``t_generators``, ...) answer.  Neither
``localization.py`` nor ``isomorphisms.py`` asks it of a ring family: the
ring's ``grading``, ``corner`` and ``is_nonzerodivisor`` answer.  So a new
family edits no ladder there.
"""
import ast
from pathlib import Path

import grothloc

SRC = Path(grothloc.__file__).resolve().parent
FAMILIES = {
    "CayleyMonoid", "FreeCommutativeMonoid", "IntegerLatticeMonoid",
    "MonoidPresentation", "DirectSumMonoid",
}
RING_FAMILIES = {"IntegerRing", "ModRing", "MonoidRing"}


def _monoid_imports(tree):
    """Line numbers of imports that reach the monoid module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.strip(".").split(".")[-1] == "monoid" for n in names):
            yield node.lineno


def _family_isinstance(tree, families=FAMILIES):
    """Line numbers of isinstance calls whose second argument names one of
    ``families``, alone or in a tuple."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(k, "id", getattr(k, "attr", None)) in families for k in kinds):
                yield node.lineno


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_grothendieck_imports_nothing_from_monoid():
    assert list(_monoid_imports(_tree("grothendieck.py"))) == []


def test_no_family_ladder_in_grothendieck_or_isomorphisms():
    names = ("grothendieck.py", "isomorphisms.py")
    found = {name: list(_family_isinstance(_tree(name))) for name in names}
    assert found == {"grothendieck.py": [], "isomorphisms.py": []}


def test_no_monoid_family_ladder_in_ring():
    assert list(_family_isinstance(_tree("ring.py"))) == []


def test_no_ring_ladder_in_localization_or_isomorphisms():
    names = ("localization.py", "isomorphisms.py")
    found = {name: list(_family_isinstance(_tree(name), RING_FAMILIES)) for name in names}
    assert found == dict.fromkeys(names, [])


def test_the_guard_sees_planted_cases():
    tree = ast.parse(
        "from .monoid import CayleyMonoid\n"
        "from . import monoid\n"
        "import grothloc.monoid\n"
        "def f(m):\n"
        "    if isinstance(m, MonoidPresentation):\n"
        "        return 1\n"
        "    return isinstance(m, (int, monoid.FreeCommutativeMonoid)) or isinstance(m, dict)\n"
        "def g(r):\n"
        "    if isinstance(r, ring.ModRing):\n"
        "        return 1\n"
        "    return isinstance(r, (int, MonoidRing)) or isinstance(r, IntegerRing)\n"
    )
    assert sorted(_monoid_imports(tree)) == [1, 2, 3]
    assert sorted(_family_isinstance(tree)) == [5, 7]
    assert sorted(_family_isinstance(tree, RING_FAMILIES)) == [9, 11, 11]
