"""Monoid criteria against the sweeps that they replaced.

eps_m is a non-zero-divisor of R[M] (R != 0) exactly when x -> m+x is
injective on M, and R[M] -> R[G(M)] is injective exactly when M -> G(M)
is.  The library decides both on M alone; ``tests/oracles.py`` keeps the
sweeps over every element of R[M], which must agree on the finite zoo and
on generated tables, with coefficients in Z/2, Z/3, Z/4 (not a domain) and
Z/6, wherever q^|M| stays within SWEEP_LIMIT.

Quasi-zeros, cancellativity and being a group are read off e, the
idempotent power of the sum of all of a finite M; the pair scans they
replaced must agree on the zoo, on cyclic, multiplication-mod-n and
join-chain tables up to n = 60, and on generated tables.
"""
import pytest
from hypothesis import given, settings

import zoo
from grothloc import (
    CayleyMonoid,
    GrothendieckGroup,
    ModRing,
    MonoidRing,
    group_ring_map_injective,
    is_cancellative,
    monomial_is_nonzerodivisor,
    quasi_zero_submonoid,
)

from oracles import (
    mod_units,
    sweep_group_ring_map_injective,
    sweep_is_abelian_group,
    sweep_is_cancellative,
    sweep_monomial_is_nonzerodivisor,
    sweep_quasi_zero_submonoid,
)
from test_class_keys import FINITE_ZOO, TABLES

COEFFS = (2, 3, 4, 6)
SWEEP_LIMIT = 10_000


def check_against_sweeps(m) -> int:
    """Compare every monomial and the group-ring map for each coefficient
    ring small enough to sweep; returns how many rings were compared."""
    group = GrothendieckGroup(m)
    compared = 0
    for q in COEFFS:
        if q ** m.size() > SWEEP_LIMIT:
            continue
        mring = MonoidRing(ModRing(q), m)
        for x in m.elements():
            assert monomial_is_nonzerodivisor(mring, x) == sweep_monomial_is_nonzerodivisor(mring, x), (q, x)
        want = sweep_group_ring_map_injective(mring, group)
        assert group_ring_map_injective(mring, group) == want, q
        assert group_ring_map_injective(mring) == want, q
        compared += 1
    return compared


@pytest.mark.parametrize("build", FINITE_ZOO, ids=lambda b: b.__name__)
def test_zoo_matches_sweeps(build):
    assert check_against_sweeps(build()) >= 3


@settings(max_examples=40)
@given(TABLES)
def test_generated_tables_match_sweeps(spec):
    table, identity = spec
    assert check_against_sweeps(CayleyMonoid(table, identity=identity)) >= 1


@pytest.mark.parametrize("n", [40, 60])
def test_carriers_far_beyond_any_sweep(n):
    """6^n elements of R[M] could never be swept; the criteria need |M|^2 steps."""
    cyclic = CayleyMonoid([[(x + y) % n for y in range(n)] for x in range(n)])
    mult = CayleyMonoid([[x * y % n for y in range(n)] for x in range(n)], identity=1)
    for m in (cyclic, mult):
        mring = MonoidRing(ModRing(6), m)
        flags = [monomial_is_nonzerodivisor(mring, x) for x in range(n)]
        assert group_ring_map_injective(mring) == all(flags) == is_cancellative(m)
    # multiplication mod n: eps_x is a non-zero-divisor exactly for the units
    mring = MonoidRing(ModRing(6), mult)
    assert [monomial_is_nonzerodivisor(mring, x) for x in range(n)] == [
        x in mod_units(n) for x in range(n)
    ]
    assert all(monomial_is_nonzerodivisor(MonoidRing(ModRing(6), cyclic), x) for x in range(n))



def check_against_pair_scans(m):
    assert quasi_zero_submonoid(m) == sweep_quasi_zero_submonoid(m)
    if isinstance(m, CayleyMonoid):
        cancellative = sweep_is_cancellative(m)
        assert is_cancellative(m) == cancellative
        assert sweep_is_abelian_group(m) == cancellative


@pytest.mark.parametrize("build", FINITE_ZOO, ids=lambda b: b.__name__)
def test_zoo_matches_pair_scans(build):
    check_against_pair_scans(build())


@pytest.mark.parametrize("table,identity", [
    (zoo.cyclic_table, lambda n: 0),
    (zoo.mult_mod_table, lambda n: 1 % n),
    (zoo.join_chain_table, lambda n: 0),
], ids=["cyclic", "mult_mod", "join_chain"])
def test_table_families_match_pair_scans(table, identity):
    for n in range(1, 61):
        check_against_pair_scans(CayleyMonoid(table(n), identity=identity(n)))


@given(TABLES)
def test_generated_tables_match_pair_scans(spec):
    table, identity = spec
    check_against_pair_scans(CayleyMonoid(table, identity=identity))
