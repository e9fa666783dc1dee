"""Non-zero-divisors decided from structure, against the references they replaced.

``is_nonzerodivisor`` on each ring is compared with a sweep of the finite
ring, each family's ``translation_injective(a)`` with a scan of a bounded
box, the ``MultiplicativeSet`` flag (every generator a non-zero-divisor)
with the earlier flag read off the generators' product, and each family's
``cancellative()`` with the earlier keyed test of m -> [m, 0] (all in tests/oracles.py).  Over Z/n
with a free or lattice M, McCoy's rule is compared with a search for a
killer in a bounded box of multipliers.
"""
import itertools
import random
from math import gcd

import pytest
from hypothesis import given

from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    GrothendieckGroup,
    HMapContext,
    IntegerLatticeMonoid,
    IntegerRing,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    UnsupportedFamilyError,
    canonical_map_injective,
    group_ring_map_injective,
    monomial_is_nonzerodivisor,
    verify_isomorphism,
)

import zoo
from oracles import key_canonical_map_injective, product_nzd_flag, sweep_is_nzd
from test_class_keys import FINITE_ZOO, TABLES


@pytest.mark.parametrize("q, build", [
    (2, zoo.t2), (4, zoo.z2), (6, zoo.t2), (2, zoo.t2_plus_z2),
], ids=["z2_t2", "z4_z2", "z6_t2", "z2_t2_plus_z2"])
def test_every_element_of_a_finite_monoid_ring_matches_sweep(q, build):
    mring = MonoidRing(ModRing(q), build())
    for f in mring.elements():
        assert mring.is_nonzerodivisor(f) == sweep_is_nzd(mring, f), f


def test_integers_and_domains():
    zz = IntegerRing()
    assert [zz.is_nonzerodivisor(a) for a in (-2, -1, 0, 1, 7)] == [True, True, False, True, True]
    for ring in (IntegerRing(), ModRing(7)):
        for m in (FreeCommutativeMonoid(2), IntegerLatticeMonoid(2)):
            mring = MonoidRing(ring, m)
            assert mring.is_nonzerodivisor(mring.one + mring.epsilon((1, 0)))
            assert not mring.is_nonzerodivisor(mring.zero)
    # over Z/6 a scalar zero-divisor stays one in (Z/6)[N]: 2 * 3 = 0
    z6x = MonoidRing(ModRing(6), FreeCommutativeMonoid(1))
    assert not z6x.is_nonzerodivisor(z6x.element({(1,): 2}))
    assert z6x.is_nonzerodivisor(z6x.element({(1,): 5}))


def _t2_plus(infinite):
    return DirectSumMonoid([zoo.t2(), infinite])


@pytest.mark.parametrize("infinite, box", [
    (FreeCommutativeMonoid(1), range(0, 6)),
    (IntegerLatticeMonoid(1), range(-3, 4)),
], ids=["t2_plus_n", "t2_plus_z"])
def test_translation_on_t2_plus_infinite_matches_box_scan(infinite, box):
    """On the box {0, 1} x B, x -> a+x collides exactly when a's T2 slot is 1."""
    m = _t2_plus(infinite)
    points = [(t, (k,)) for t in (0, 1) for k in box]
    for a in points:
        images = {m.op(a, x) for x in points}
        assert m.translation_injective(a) == (len(images) == len(points)), a
        mring = MonoidRing(ModRing(5), m)
        assert monomial_is_nonzerodivisor(mring, a) == m.translation_injective(a)


def test_translation_on_presentations_is_refused():
    with pytest.raises(UnsupportedFamilyError):
        zoo.numsg_2_3().translation_injective((1, 0))


def test_identity_translation_needs_no_cancellativity():
    """x -> 0 + x is the identity map, so a scalar of R[<2,3>] is a
    non-zero-divisor when it is one of R, and S = {3} over Z localizes by
    cross-multiplication although <2,3>'s cancellativity is undecided."""
    m = zoo.numsg_2_3()
    assert m.translation_injective(m.identity)
    mring = MonoidRing(IntegerRing(), m)
    assert mring.is_nonzerodivisor(mring.scalar(3))
    z6 = MonoidRing(ModRing(6), m)
    assert not z6.is_nonzerodivisor(z6.scalar(3))
    loc = LocalizedRing(mring, MultiplicativeSet(mring, [mring.scalar(3)]))
    assert loc.strategy == "cross-multiplication"


def _random_element(mring, rng):
    degs = list(mring.monoid.elements())
    n = mring.coeff_ring.n
    return mring.element({d: rng.randrange(n) for d in rng.sample(degs, rng.randint(0, len(degs)))})


def test_flag_matches_product_flag_over_zmod():
    rng = random.Random(14)
    for n in range(2, 61):
        ring = ModRing(n)
        for _ in range(12):
            gens = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            flag = MultiplicativeSet(ring, gens).nzd_flag
            assert flag == product_nzd_flag(ring, gens), (n, gens)


@pytest.mark.parametrize("q, build", [
    (2, zoo.t2), (3, zoo.z2), (4, zoo.z2), (6, zoo.t2), (2, zoo.z4),
    (3, zoo.t2_plus_z2), (2, zoo.z4_mult), (5, zoo.t3),
], ids=lambda v: str(v) if isinstance(v, int) else v.__name__)
def test_flag_matches_product_flag_over_finite_monoid_rings(q, build):
    mring = MonoidRing(ModRing(q), build())
    rng = random.Random(q * 100 + mring.monoid.size())
    for _ in range(40):
        gens = [_random_element(mring, rng) for _ in range(rng.randint(0, 3))]
        flag = MultiplicativeSet(mring, gens).nzd_flag
        assert flag == product_nzd_flag(mring, gens), gens
    monomials = [mring.element({d: c}) for d in mring.monoid.elements() for c in range(1, q)]
    for f in monomials:
        assert MultiplicativeSet(mring, [f]).nzd_flag == product_nzd_flag(mring, [f]), f


def _check_canonical_map(m):
    group = GrothendieckGroup(m)
    want = key_canonical_map_injective(group)
    assert m.cancellative() == canonical_map_injective(group) == want
    if m.is_finite:
        assert group_ring_map_injective(MonoidRing(ModRing(2), m), group) == want


def t2_plus_n():
    return _t2_plus(FreeCommutativeMonoid(1))


def z2_plus_n():
    return DirectSumMonoid([zoo.z2(), FreeCommutativeMonoid(1)])


def n2():
    return FreeCommutativeMonoid(2)


def z1():
    return IntegerLatticeMonoid(1)


@pytest.mark.parametrize(
    "build", FINITE_ZOO + [n2, z1, t2_plus_n, z2_plus_n], ids=lambda b: b.__name__
)
def test_canonical_map_matches_keys_on_the_zoo(build):
    _check_canonical_map(build())


@given(TABLES)
def test_canonical_map_matches_keys_on_generated_tables(spec):
    table, identity = spec
    _check_canonical_map(CayleyMonoid(table, identity=identity))


def test_declared_flag_gives_the_decided_answers():
    """Declaring nzd=True, as callers that know S holds non-zero-divisors may,
    changes nothing where the rings decide the same."""
    for ring, consts in ((ModRing(7), [3]), (IntegerRing(), [2, 3])):
        monoid = FreeCommutativeMonoid(2)
        mring = MonoidRing(ring, monoid)
        gens = [mring.scalar(c) for c in consts] + [mring.epsilon((1, 0))]
        declared = MultiplicativeSet(mring, gens, nzd=True)
        assert declared.nzd_flag == MultiplicativeSet(mring, gens).nzd_flag
        loc = LocalizedRing(mring, declared)
        assert loc.strategy == "cross-multiplication"
        ctx = HMapContext(ring, monoid, consts, nzd=True)
        plain = HMapContext(ring, monoid, consts)
        assert ctx.sset.nzd_flag == plain.sset.nzd_flag
        assert ctx.tloc.strategy == plain.tloc.strategy == "cross-multiplication"
        assert verify_isomorphism(ctx, samples=30, seed=1)["all_ok"]


def test_zero_divisor_in_s_makes_t_exhaustive():
    """Over Z/12 the constant 4 is a zero-divisor, so T in (Z/12)[Z/2] is too."""
    ctx = HMapContext(ModRing(12), zoo.z2(), [4])
    assert not ctx.sset.nzd_flag and not ctx.tset.nzd_flag
    assert ctx.tloc.strategy == "exhaustive-witness"


def _counting_rows(table, counter):
    """The rows of ``table``, counting lookups: one per index, |M| per scan."""

    class Row(tuple):
        def __getitem__(self, i):
            counter[0] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            counter[0] += len(self)
            return tuple.__iter__(self)

    return tuple(map(Row, table))


def test_translations_of_a_group_table_scan_no_row():
    """Cancellativity is decided once per table, so HMapContext's |M|
    translations eps_m cost no Cayley row scan (|M|^2 lookups in all)."""
    n = 600
    m = CayleyMonoid([[(i + j) % n for j in range(n)] for i in range(n)])
    lookups = [0]
    m.table = _counting_rows(m.table, lookups)
    ctx = HMapContext(ModRing(5), m, [2])
    assert ctx.tset.nzd_flag and ctx.tloc.strategy == "cross-multiplication"
    assert lookups[0] <= 3 * n
    # a table that is not a group still scans the row it is asked about
    mult = CayleyMonoid([[i * j % 12 for j in range(12)] for i in range(12)], identity=1)
    assert [mult.translation_injective(a) for a in (1, 5, 2, 0)] == [True, True, False, False]


def _box_killer(mring, f, exps):
    """A g != 0 with f*g = 0 among those supported on ``exps``, or None."""
    n = mring.coeff_ring.n
    for coeffs in itertools.product(range(n), repeat=len(exps)):
        g = mring.element(dict(zip(exps, coeffs)))
        if not g.is_zero() and (f * g).is_zero():
            return g
    return None


def _check_mccoy(mring, f, box):
    n = mring.coeff_ring.n
    verdict = mring.is_nonzerodivisor(f)
    assert verdict == (_box_killer(mring, f, box) is None), f.coeffs
    if not verdict:
        r = n // gcd(n, *f.coeffs.values())
        assert r % n and (mring.scalar(r) * f).is_zero(), (f.coeffs, r)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12])
def test_mccoy_over_zmod_polynomials_matches_box_search(n):
    """Over (Z/n)[x] f is a non-zero-divisor exactly when no g != 0 of degree
    <= 1 kills it, and each zero-divisor is killed by n / gcd(n, c_i)."""
    mring = MonoidRing(ModRing(n), FreeCommutativeMonoid(1))
    rng = random.Random(n)
    box = [(0,), (1,)]
    for _ in range(25):
        degs = rng.sample(range(4), rng.randint(2, 3))
        f = mring.element({(d,): rng.randrange(1, n) for d in degs})
        _check_mccoy(mring, f, box)


@pytest.mark.parametrize("monoid, box", [
    (FreeCommutativeMonoid(2), [(0, 0), (1, 0), (0, 1)]),
    (IntegerLatticeMonoid(1), [(-1,), (0,), (1,)]),
    (IntegerLatticeMonoid(2), [(0, 0), (-1, 0), (0, 1)]),
], ids=["free2", "lattice1", "lattice2"])
def test_mccoy_over_z6_in_several_variables_matches_box_search(monoid, box):
    mring = MonoidRing(ModRing(6), monoid)
    rng = random.Random(monoid.rank)
    lo = -2 if isinstance(monoid, IntegerLatticeMonoid) else 0
    for _ in range(25):
        degs = set()
        while len(degs) < 2:
            degs.add(tuple(rng.randint(lo, 2) for _ in range(monoid.rank)))
        f = mring.element({d: rng.randrange(1, 6) for d in degs})
        _check_mccoy(mring, f, box)


def test_one_plus_x_over_z6_localizes_by_cross_multiplication():
    z6x = MonoidRing(ModRing(6), FreeCommutativeMonoid(1))
    x = z6x.epsilon((1,))
    for f in (z6x.one + x, z6x.scalar(2) + z6x.scalar(3) * x):
        loc = LocalizedRing(z6x, MultiplicativeSet(z6x, [f]))
        assert loc.strategy == "cross-multiplication"
    # 2 + 4x is killed by the constant 3
    assert not MultiplicativeSet(z6x, [z6x.scalar(2) + z6x.scalar(4) * x]).nzd_flag
