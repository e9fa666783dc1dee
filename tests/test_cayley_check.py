"""Cayley-table validation against the numpy check it replaced (tests/oracles.py).

The library decides associativity by Light's test on a greedy generating
set and scans all triples only for a table that fails.  On every table here
it must give the old check's verdict: accept both, or raise the same error
class, and for an axiom violation the same law and the same first witness
in row-major order.  The greedy set must generate the whole carrier.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothloc import AxiomViolationError, CayleyMonoid, InvalidInputError
from grothloc.monoid import _magma_generators

import zoo
from oracles import blocked_cayley_check
from test_class_keys import CYCLIC, TABLES, product_table


def outcome(check, table, identity):
    try:
        check(table, identity=identity)
    except AxiomViolationError as exc:
        return ("AxiomViolationError", exc.law, tuple(map(int, exc.witness)))
    except InvalidInputError:
        return ("InvalidInputError",)
    return ("ok",)


def generated(table, gens) -> set:
    """The submagma generated by gens, by products of all pairs to a fixed point."""
    inside = set(gens)
    while True:
        more = inside | {table[a][b] for a in inside for b in inside}
        if more == inside:
            return inside
        inside = more


def check_generators(table):
    gens = _magma_generators(table)
    assert generated(table, gens) == set(range(len(table)))
    # greedy in carrier order: each choice is the least element not yet generated
    for k, g in enumerate(gens):
        before = generated(table, gens[:k]) if k else set()
        assert g not in before
        assert all(x in before for x in range(g))


def assert_same_verdict(table, identity):
    want = outcome(blocked_cayley_check, table, identity)
    assert outcome(CayleyMonoid, table, identity) == want
    return want


def mutations(table):
    """Every single-entry change that keeps the table square.

    Symmetric changes keep commutativity and may break associativity or the
    identity; one-sided changes break commutativity; the value n breaks
    closure.
    """
    n = len(table)
    for i in range(n):
        for j in range(i, n):
            for v in range(n + 1):
                if v == table[i][j]:
                    continue
                out = [list(row) for row in table]
                out[i][j] = out[j][i] = v
                yield out
                if i != j:
                    out = [list(row) for row in table]
                    out[i][j] = v
                    yield out


ZOO = {
    "t2": (zoo.join_chain_table(2), 0),
    "t3": (zoo.join_chain_table(3), 0),
    "z2": (zoo.cyclic_table(2), 0),
    "z4": (zoo.cyclic_table(4), 0),
    "z6_add": (zoo.cyclic_table(6), 0),
    "z4_mult": (zoo.mult_mod_table(4), 1),
    "z6_mult": (zoo.mult_mod_table(6), 1),
    "subsets2": (zoo.union_table(), 0),
    "t2_plus_z2": product_table((zoo.join_chain_table(2), 0), (zoo.cyclic_table(2), 0)),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_tables_and_every_identity(name):
    table, identity = ZOO[name]
    assert assert_same_verdict(table, identity) == ("ok",)
    check_generators(table)
    for e in range(len(table)):
        assert_same_verdict(table, e)


def test_zoo_single_entry_mutations():
    laws = set()
    for name, (table, identity) in sorted(ZOO.items()):
        for bad in mutations(table):
            verdict = assert_same_verdict(bad, identity)
            laws.add(verdict[1] if len(verdict) > 1 else verdict[0])
    # the mutations reach every law the check can report
    assert laws == {"ok", "closure", "commutativity", "associativity", "identity"}


def test_every_small_table():
    """All 16 tables on two elements and all 729 commutative ones on three."""
    laws = set()
    for n, symmetric in ((2, False), (3, True)):
        cells = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
        for values in itertools.product(range(n), repeat=len(cells)):
            table = [[0] * n for _ in range(n)]
            for (i, j), v in zip(cells, values):
                table[i][j] = v
                if symmetric:
                    table[j][i] = v
            verdict = assert_same_verdict(table, 0)
            laws.add(verdict[1] if len(verdict) > 1 else verdict[0])
    assert laws == {"ok", "commutativity", "associativity", "identity"}


@given(TABLES)
def test_generated_tables(spec):
    table, identity = spec
    assert assert_same_verdict(table, identity) == ("ok",)
    check_generators(table)


@settings(max_examples=40)
@given(st.one_of(TABLES, CYCLIC).flatmap(lambda spec: st.tuples(
    st.just(spec),
    st.integers(0, len(spec[0]) - 1),
    st.integers(0, len(spec[0]) - 1),
    st.integers(0, len(spec[0])),
    st.booleans(),
    st.integers(0, len(spec[0]) - 1),
)))
def test_generated_single_entry_mutations(case):
    (table, identity), i, j, v, symmetric, e = case
    bad = [list(row) for row in table]
    bad[i][j] = v
    if symmetric:
        bad[j][i] = v
    assert_same_verdict(bad, identity)
    assert_same_verdict(bad, e)


@pytest.mark.parametrize("table, identity", [
    ([[0, 1, 2], [0, 1, 2], [2, 2, 2]], 0),
    ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0),
    (zoo.cyclic_table(3), 1),
    ([[0, 1], [1, 5]], 0),
    ([[0, 1], [1, -1]], 0),
    ([[0, 1], [1, 0]], 2),
    ([[0, 1.7], [1.2, 1]], 0),
    ([[0, 1.0], [1.0, 1]], 0),
    ([[False, True], [True, True]], 0),
    ([[0, "1"], [1, 1]], 0),
    ([[0, 2**70], [2**70, 1]], 0),
    ([[0, -2**70], [-2**70, 1]], 0),
    ([[0, 1], [1]], 0),
    ([[0, 1], [1, 1], [1, 1]], 0),
    ([[0, 1], 1], 0),
    ([], 0),
    ([[]], 0),
    ([[0]], 0),
    ([[0]], 1),
    (zoo.join_chain_table(2), False),
    (zoo.join_chain_table(2), 0.0),
    (np.array(zoo.mult_mod_table(6)), np.int64(1)),
    ([[np.int32(x) for x in row] for row in zoo.cyclic_table(3)], 0),
])
def test_edge_cases(table, identity):
    assert_same_verdict(table, identity)


def test_large_multiplication_table():
    table = zoo.mult_mod_table(300)
    assert assert_same_verdict(table, 1) == ("ok",)
    gens = _magma_generators(table)
    assert generated(table, gens) == set(range(300))


def test_late_associativity_witness():
    """The 252-element chain topped by a non-associative pair {250, 251}."""
    n = 252
    table = zoo.join_chain_table(n)
    table[250][250] = 251
    table[250][251] = table[251][250] = 250
    table[251][251] = 250
    assert assert_same_verdict(table, 0) == ("AxiomViolationError", "associativity", (250, 250, 251))
    gens = _magma_generators(table)
    assert gens == list(range(251)) and generated(table, gens) == set(range(n))
