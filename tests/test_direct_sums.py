"""Finite direct sums are handled component by component.

G(M1 + ... + Mk) = G(M1) + ... + G(Mk), and so are its keys, its invariant
factors and the quasi-zero elements.  A finite direct sum must not be walked
as one carrier of prod |Mi| tuples: with ``DirectSumMonoid.elements``
patched to raise, the structure, class equality, triviality and the
quasi-zero set must still come out.  The walk over the product carrier
stays as the reference: ``finite_groth_structure`` of the sum, the witness
test a+d+e = b+c+e with e read off the whole carrier, and the quasi-zero
scan x + e = e over every tuple.
"""
import json
import random

import pytest

from grothloc import cli
from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FGAbelianStructure,
    GrothElement,
    GrothendieckGroup,
    Lcg64,
    finite_groth_structure,
    monoid_groth_structure,
)
from grothloc.monoid import kernel_group

import zoo

# (table on 0..n-1, identity) for each operation
TABLES = {
    "add": (zoo.cyclic_table, lambda n: 0),
    "mult": (zoo.mult_mod_table, lambda n: 1 % n),
    "max": (zoo.join_chain_table, lambda n: 0),
    "min": (lambda n: [[min(i, j) for j in range(n)] for i in range(n)], lambda n: n - 1),
}


def table_monoid(op: str, n: int) -> CayleyMonoid:
    table, identity = TABLES[op]
    return CayleyMonoid(table(n), identity=identity(n))


def three_z30(op):
    return DirectSumMonoid([table_monoid(op, 30) for _ in range(3)])


@pytest.mark.parametrize("op, structure, trivial, quasi_zero", [
    ("add", FGAbelianStructure(0, (30, 30, 30)), False, 1),
    ("mult", FGAbelianStructure(0, ()), True, 30 ** 3),
], ids=["add", "mult"])
def test_sum_of_three_z30_never_walks_the_product(monkeypatch, op, structure, trivial,
                                                   quasi_zero):
    m = three_z30(op)

    def refuse(self):
        raise AssertionError("walked the 27 000-tuple carrier of a direct sum")

    monkeypatch.setattr(DirectSumMonoid, "elements", refuse)
    assert monoid_groth_structure(m) == structure
    g = GrothendieckGroup(m)
    rng = Lcg64(30)
    for _ in range(20):
        x = GrothElement(m.sample(rng), m.sample(rng))
        w = m.sample(rng)
        assert g.eq(x, g.add(x, GrothElement(w, w)))
        assert g.eq(g.add(x, g.neg(x)), g.zero())
    assert g.is_trivial() is trivial
    assert len(m.quasi_zeros()) == quasi_zero


def random_sum(rng: random.Random) -> DirectSumMonoid:
    return DirectSumMonoid(
        table_monoid(rng.choice(sorted(TABLES)), rng.randint(1, 6))
        for _ in range(rng.randint(1, 3))
    )


def test_random_sums_match_the_product_carrier():
    rng = random.Random(24)
    for _ in range(300):
        m = random_sum(rng)
        elems = list(m.elements())
        e = kernel_group(m.op, elems)[0]
        assert monoid_groth_structure(m) == finite_groth_structure(m), m
        assert m.quasi_zeros() == {x for x in elems if m.op(x, e) == e}, m
        g = GrothendieckGroup(m)
        for _ in range(30):
            a, b, c, d = (rng.choice(elems) for _ in range(4))
            want = m.op(m.op(a, d), e) == m.op(m.op(b, c), e)
            assert g.eq(GrothElement(a, b), GrothElement(c, d)) == want, (m, a, b, c, d)


def test_monoid_check_counts_the_quasi_zeros_of_a_sum(monkeypatch, tmp_path):
    """``monoid check`` and the corpus ``monoid`` kind multiply the
    components' quasi-zero counts and never build the 27 000-tuple set."""
    def refuse(self):
        raise AssertionError("built a direct sum's quasi-zero set")

    monkeypatch.setattr(DirectSumMonoid, "quasi_zeros", refuse)
    doc = three_z30("mult").to_dict()
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "corpus.json").write_text(json.dumps({"entries": [{
        "name": "z30-cubed", "kind": "monoid", "monoid": doc,
        "expected": {"quasi_zero_size": 30 ** 3},
    }]}), encoding="utf-8")
    for argv, results in (
        (["monoid", "check", str(path)], lambda rep: rep["results"]),
        (["corpus", "run", "--dir", str(tmp_path)],
         lambda rep: rep["results"]["entries"][0]["actual"]),
    ):
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(out)]) == 0, argv
        assert results(json.loads(out.read_text(encoding="utf-8")))["quasi_zero_size"] == 30 ** 3
