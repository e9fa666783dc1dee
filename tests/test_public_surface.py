"""Every public name has a caller inside the library, or a stated reason.

A name exported by ``grothloc/__init__.py`` must be referenced somewhere in
``src/grothloc`` outside ``__init__.py`` and outside its own definition, or
sit on ``ALLOWED`` with the reason it stays.  So a function that only tests
call cannot join the public surface unnoticed.
"""
import ast
import pathlib

import grothloc

PACKAGE = pathlib.Path(grothloc.__file__).parent

# exported names with no caller in the library, each with why it stays
ALLOWED = {
    "groth_classes": "perfbench probes it by name for its class-enumeration span",
    "group_ring_map_injective": "the acceptance battery and perfbench call it",
    "order_from_monoid_order": "the acceptance battery transports orders with it",
    "presentation_matrix": "the acceptance battery and perfbench call it",
    "sample_fraction": "the acceptance battery samples fractions with it",
    "universal_extend": "the universal property of G(M), a candidate CLI command",
}


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def library_references() -> set:
    """Names read anywhere in the library's modules, a top-level function or
    class's own body (a recursive call) not counted for that name."""
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            own = getattr(top, "name", None) if isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    seen.add(name)
    return seen


def test_every_export_has_a_library_caller_or_a_reason():
    refs = library_references()
    orphans = [n for n in exported_names() if n not in refs and n not in ALLOWED]
    assert orphans == []


def test_allowlist_is_current():
    """An allowed name is still exported and still has no library caller;
    once it gains one, it leaves the list."""
    names = set(exported_names())
    refs = library_references()
    assert [n for n in ALLOWED if n not in names] == []
    assert [n for n in ALLOWED if n in refs] == []


def test_exports_resolve():
    assert [n for n in exported_names() if not hasattr(grothloc, n)] == []
