"""Localization: closure, fraction congruence, grading, saturation, units."""
import itertools

import pytest

from grothloc import (
    FreeCommutativeMonoid,
    GrothElement,
    GrothendieckGroup,
    IntegerRing,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    UndecidableConfigurationError,
    decompose_fraction,
    enumerate_ideals,
    fraction_degree,
    groth_units_embedding,
    groth_units_iso,
    kx_counterexample_check,
    localization_classes,
    maximal_ideals,
    one_plus_ideal_check,
    prime_ideals,
    sample_fraction,
    saturate,
    sum_components,
    support_submonoid,
    units_of_localization,
)

import zoo


@pytest.fixture
def z12_at_4():
    ring = ModRing(12)
    sset = MultiplicativeSet(ring, [4])
    return ring, sset, LocalizedRing(ring, sset)


class TestMultiplicativeSet:
    def test_closure_of_4_mod_12(self, z12_at_4):
        _, sset, _ = z12_at_4
        assert sorted(sset.closure) == [1, 4]
        assert sset.complete

    def test_witnesses_reproduce_members(self, z12_at_4):
        ring, sset, _ = z12_at_4
        for s, w in sset.closure.items():
            assert sset.product_of(w) == s

    def test_infinite_closure_is_depth_limited(self):
        ring = IntegerRing()
        sset = MultiplicativeSet(ring, [2], nzd=True, depth=5)
        assert sorted(sset.closure) == [2 ** k for k in range(6)]
        assert not sset.complete

    def test_homogeneous_flag(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
        x = mring.epsilon((1,))
        assert MultiplicativeSet(mring, [x]).homogeneous_flag
        assert not MultiplicativeSet(mring, [x + mring.one]).homogeneous_flag

    def test_nzd_detection_on_finite_ring(self):
        ring = ModRing(12)
        assert not MultiplicativeSet(ring, [4]).nzd_flag
        assert MultiplicativeSet(ring, [5]).nzd_flag


class TestFractionCongruence:
    def test_matches_raw_definition_exhaustively(self, z12_at_4):
        """r/s = r'/s' iff some t in S kills r s' - r' s; the library answer
        must agree with the brute-force scan for every pair of fractions."""
        ring, sset, loc = z12_at_4
        fracs = [
            loc.frac(r, s)
            for r in ring.elements()
            for s in sset.closure
        ]
        svals = list(sset.closure)
        for f in fracs:
            for g in fracs:
                raw = any(
                    ring.is_zero(
                        ring.mul(t, ring.sub(ring.mul(f.num, g.den),
                                             ring.mul(g.num, f.den)))
                    )
                    for t in svals
                )
                assert loc.eq(f, g) == raw

    def test_class_count(self, z12_at_4):
        _, _, loc = z12_at_4
        assert len(localization_classes(loc)) == 3

    def test_arithmetic_respects_classes(self, z12_at_4):
        ring, sset, loc = z12_at_4
        fracs = [loc.frac(r, s) for r in range(12) for s in (1, 4)]
        # pick equivalent pairs and check sums stay equivalent
        for f, f2 in itertools.combinations(fracs, 2):
            if loc.eq(f, f2):
                for g in fracs[:8]:
                    assert loc.eq(loc.add(f, g), loc.add(f2, g))
                    assert loc.eq(loc.mul(f, g), loc.mul(f2, g))

    def test_field_laws_on_classes(self, z12_at_4):
        _, _, loc = z12_at_4
        reps = localization_classes(loc)
        for f in reps:
            assert loc.eq(loc.add(f, loc.zero), f)
            assert loc.is_zero(loc.sub(f, f))
            assert loc.eq(loc.mul(f, loc.one), f)
            for g in reps:
                assert loc.eq(loc.add(f, g), loc.add(g, f))
                for h in reps:
                    assert loc.eq(
                        loc.mul(f, loc.add(g, h)),
                        loc.add(loc.mul(f, g), loc.mul(f, h)),
                    )

    def test_strategies(self):
        zx = MonoidRing(IntegerRing(), FreeCommutativeMonoid(1))
        x = zx.epsilon((1,))
        good = LocalizedRing(zx, MultiplicativeSet(zx, [x], nzd=True))
        assert good.strategy == "cross-multiplication"
        ring = ModRing(12)
        finite = LocalizedRing(ring, MultiplicativeSet(ring, [4]))
        assert finite.strategy == "exhaustive-witness"
        with pytest.raises(UndecidableConfigurationError):
            LocalizedRing(zx, MultiplicativeSet(zx, [x]))

    def test_witness_concatenation(self):
        ring = ModRing(12)
        sset = MultiplicativeSet(ring, [4])
        loc = LocalizedRing(ring, sset)
        f = loc.frac(3, 4)
        g = loc.frac(5, 4)
        prod = loc.mul(f, g)
        assert prod.den == 4  # 4 * 4 = 16 = 4 mod 12
        assert sset.product_of(prod.den_witness) == prod.den


class TestDecomposition:
    @pytest.fixture
    def f5x_at_x(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
        sset = MultiplicativeSet(mring, [mring.epsilon((1,))], nzd=True)
        return mring, LocalizedRing(mring, sset)

    def test_invariants_on_samples(self, f5x_at_x):
        mring, loc = f5x_at_x
        group = loc.groth_group
        rng = Lcg64(17)
        for _ in range(40):
            f = sample_fraction(loc, rng)
            parts = decompose_fraction(loc, f)
            assert loc.eq(sum_components(loc, list(parts.values())), f)
            keys = list(parts)
            for k1, k2 in itertools.combinations(keys, 2):
                assert not group.eq(k1, k2)
            for key, part in parts.items():
                again = decompose_fraction(loc, part)
                assert len(again) <= 1
                assert group.eq(fraction_degree(loc, part), key)

    def test_degree_additive_products(self, f5x_at_x):
        mring, loc = f5x_at_x
        group = loc.groth_group
        rng = Lcg64(23)
        for _ in range(25):
            f = sample_fraction(loc, rng)
            g = sample_fraction(loc, rng)
            fparts = decompose_fraction(loc, f)
            gparts = decompose_fraction(loc, g)
            for ka, pa in fparts.items():
                for kb, pb in gparts.items():
                    prod = loc.mul(pa, pb)
                    if not loc.is_zero(prod):
                        assert group.eq(
                            fraction_degree(loc, prod), group.add(ka, kb)
                        )

    def test_negative_degrees_appear(self, f5x_at_x):
        mring, loc = f5x_at_x
        group = loc.groth_group
        one_over_x = loc.frac(mring.one, mring.epsilon((1,)))
        key = fraction_degree(loc, one_over_x)
        assert group.eq(key, group.element((0,), (1,)))

    def test_zero_fraction_has_no_components(self, f5x_at_x):
        mring, loc = f5x_at_x
        z = loc.frac(mring.zero, mring.epsilon((1,)))
        assert decompose_fraction(loc, z) == {}


class TestSupportSubmonoid:
    def test_plane_localized_at_x(self):
        """Supports of K[x,y] localized at x: x-degree free, y-degree not."""
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(2))
        x = mring.epsilon((1, 0))
        loc = LocalizedRing(mring, MultiplicativeSet(mring, [x], nzd=True))
        degs = [(a, b) for a in range(3) for b in range(3)]
        sup = support_submonoid(loc, m_degrees=degs, depth=6)
        group = loc.groth_group
        assert sup.contains(group.element((0, 0), (2, 0)))   # x^-2
        assert sup.contains(group.element((0, 2), (1, 0)))   # y^2 / x
        assert not sup.contains(group.element((0, 0), (0, 1)))  # y^-1

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_denominators_are_products_of_at_most_depth_generators(self, depth):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
        loc = LocalizedRing(mring, MultiplicativeSet(mring, [mring.epsilon((1,))], nzd=True))
        sup = support_submonoid(loc, m_degrees=[(0,)], depth=depth, rounds=0)
        group = loc.groth_group
        assert len(sup) == depth + 1
        assert sup.contains(group.element((0,), (depth,)))
        assert not sup.contains(group.element((0,), (depth + 1,)))

    def test_requires_homogeneous_denominators(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
        f = mring.one + mring.epsilon((1,))
        loc = LocalizedRing(mring, MultiplicativeSet(mring, [f], nzd=True))
        from grothloc import PreconditionError
        with pytest.raises(PreconditionError):
            support_submonoid(loc, m_degrees=[(0,)])


class TestSaturation:
    def test_saturation_of_4_mod_12(self, z12_at_4):
        ring, sset, _ = z12_at_4
        sat = saturate(ring, sset)
        assert sorted(sat.elements) == [1, 2, 4, 5, 7, 8, 10, 11]
        for a in sat.elements:
            b = sat.witnesses[a]
            assert sset.contains(ring.mul(a, b))

    def test_saturation_is_saturated(self, z12_at_4):
        """a*b landing in the saturation pulls both factors in."""
        ring, sset, _ = z12_at_4
        sat = saturate(ring, sset)
        members = set(sat.elements)
        for a in ring.elements():
            for b in ring.elements():
                if ring.mul(a, b) in members:
                    assert a in members and b in members

    def test_witness_search(self, z12_at_4):
        ring, sset, _ = z12_at_4
        sat = saturate(ring, sset)
        assert 2 in sat.elements
        assert sset.contains(ring.mul(2, sat.witnesses[2]))
        assert 3 not in sat.elements and 3 not in sat.witnesses

    def test_units_already_saturated(self):
        ring = ModRing(12)
        sset = MultiplicativeSet(ring, [5, 7, 11])
        sat = saturate(ring, sset)
        assert sorted(sat.elements) == [1, 5, 7, 11]


class TestUnitCorrespondence:
    def test_unit_group_of_z12_at_4(self, z12_at_4):
        _, _, loc = z12_at_4
        units = units_of_localization(loc)
        assert units.order() == 2
        assert units.class_count() == 3
        from grothloc import is_abelian_group
        assert is_abelian_group(units.to_cayley())

    def test_embedding_report(self, z12_at_4):
        """S = {1, 4} is idempotent at 4, so G(S) itself is trivial; the
        embedding is the trivial one and the order-2 group only appears
        through the saturation."""
        _, sset, loc = z12_at_4
        rep = groth_units_embedding(sset, loc)
        assert rep.morphism_ok
        assert rep.injective
        assert rep.group_order == 1

    def test_embedding_of_cancellative_set(self):
        """S = {1, 5} is a two-element group under multiplication mod 12, so
        G(S) has order 2 and embeds onto two distinct unit classes."""
        ring = ModRing(12)
        sset = MultiplicativeSet(ring, [5])
        loc = LocalizedRing(ring, sset)
        rep = groth_units_embedding(sset, loc)
        assert rep.morphism_ok
        assert rep.injective
        assert rep.group_order == 2

    def test_iso_report(self, z12_at_4):
        _, sset, loc = z12_at_4
        rep = groth_units_iso(sset, loc)
        assert rep.iso
        assert rep.groth_order == rep.unit_order == 2

    def test_iso_at_nonzerodivisors(self):
        """Localizing Z/12 at its non-zero-divisors gives the total ring of
        fractions; its four units match the completion of the (already
        saturated) multiplicative set."""
        ring = ModRing(12)
        nzds = [a for a in ring.elements()
                if not any(not ring.is_zero(b) and ring.is_zero(ring.mul(a, b))
                           for b in ring.elements())]
        assert sorted(nzds) == [1, 5, 7, 11]
        sset = MultiplicativeSet(ring, nzds)
        loc = LocalizedRing(ring, sset)
        rep = groth_units_iso(sset, loc)
        assert rep.iso
        assert rep.unit_order == 4


class TestIdeals:
    def test_ideals_of_z12_are_divisor_generated(self):
        ring = ModRing(12)
        ideals = enumerate_ideals(ring)
        expected = []
        for d in (1, 2, 3, 4, 6, 12):
            expected.append(frozenset(range(0, 12, d)) if d < 12
                            else frozenset({0}))
        assert sorted(map(sorted, ideals)) == sorted(map(sorted, expected))

    def test_maximal_and_prime_ideals(self):
        ring = ModRing(12)
        maxes = {frozenset(i) for i in maximal_ideals(ring)}
        assert maxes == {frozenset(range(0, 12, 2)), frozenset(range(0, 12, 3))}
        assert {frozenset(i) for i in prime_ideals(ring)} == maxes

    def test_one_plus_ideal_reports(self):
        ring = ModRing(12)
        rep4 = one_plus_ideal_check(ring, [4])
        assert rep4["s_size"] == 3       # {1, 5, 9}
        assert rep4["t_size"] == 6       # odd residues
        assert rep4["saturation_equals_t"]
        assert rep4["iso_ok"]
        assert rep4["unit_count"] == rep4["groth_order"] == 2
        rep0 = one_plus_ideal_check(ring, [])
        assert rep0["t_size"] == 4
        assert rep0["unit_count"] == 4
        assert rep0["iso_ok"]
        repr_ = one_plus_ideal_check(ring, [1])
        assert repr_["iso_ok"]


class TestPolynomialCounterexample:
    def test_x_saturates_in_but_stays_out(self):
        rep = kx_counterexample_check(5, samples=20, seed=0)
        assert rep["modulus"] == 5
        assert not rep["x_in_s"]
        assert rep["x_in_saturation"]
        assert not rep["degree_one_reachable"]
        assert rep["rewrite_example_ok"]
        assert rep["unit_rewrites_ok"] == rep["unit_samples"] == 20

    def test_other_modulus(self):
        rep = kx_counterexample_check(3, samples=10, seed=1)
        assert rep["rewrite_example_ok"]
        assert rep["unit_rewrites_ok"] == 10
