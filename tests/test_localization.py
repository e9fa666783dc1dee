"""Localization: closure, fraction congruence, grading, saturation, units."""
import itertools
import time

import pytest

from grothloc import (
    FreeCommutativeMonoid,
    GrothElement,
    IntegerRing,
    InvalidInputError,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    PreconditionError,
    UndecidableConfigurationError,
    decompose_fraction,
    degree_of,
    groth_units_embedding,
    groth_units_iso,
    ideal_closure,
    kx_counterexample_check,
    localization_classes,
    one_plus_ideal_check,
    sample_fraction,
    saturate,
    sum_components,
    units_of_localization,
)
from grothloc import localization

from oracles import (
    closure_kx_counterexample_check,
    complement_of_maximals_over,
    enumerate_ideals,
    ideal_closure as fixpoint_ideal_closure,
    maximal_ideals,
    prime_ideals,
)


def fraction_degree(f):
    """[deg numerator, deg denominator] of a homogeneous nonzero fraction."""
    return GrothElement(degree_of(f.num), degree_of(f.den))


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
        sset = MultiplicativeSet(ring, [2])
        assert localization.CLOSURE_DEPTH == 8
        assert sorted(sset.closure) == [2 ** k for k in range(localization.CLOSURE_DEPTH + 1)]
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
        declared = LocalizedRing(zx, MultiplicativeSet(zx, [x], nzd=True))
        assert declared.strategy == "cross-multiplication"
        # Z[x] is a domain, so x is decided to be a non-zero-divisor
        decided = LocalizedRing(zx, MultiplicativeSet(zx, [x]))
        assert decided.strategy == "cross-multiplication"
        ring = ModRing(12)
        finite = LocalizedRing(ring, MultiplicativeSet(ring, [4]))
        assert finite.strategy == "exhaustive-witness"
        # 2*3 = 0 in Z/6, so the scalar 2 kills 3 in the infinite (Z/6)[x]
        z6x = MonoidRing(ModRing(6), FreeCommutativeMonoid(1))
        with pytest.raises(UndecidableConfigurationError):
            LocalizedRing(z6x, MultiplicativeSet(z6x, [z6x.scalar(2)]))

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
        sset = MultiplicativeSet(mring, [mring.epsilon((1,))])
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
                assert group.eq(fraction_degree(part), key)

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
                        assert group.eq(fraction_degree(prod), group.add(ka, kb))

    def test_negative_degrees_appear(self, f5x_at_x):
        mring, loc = f5x_at_x
        group = loc.groth_group
        one_over_x = loc.frac(mring.one, mring.epsilon((1,)))
        key = fraction_degree(one_over_x)
        assert group.eq(key, group.element((0,), (1,)))

    def test_zero_fraction_has_no_components(self, f5x_at_x):
        mring, loc = f5x_at_x
        z = loc.frac(mring.zero, mring.epsilon((1,)))
        assert decompose_fraction(loc, z) == {}

    def test_requires_homogeneous_denominators(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
        f = mring.one + mring.epsilon((1,))
        loc = LocalizedRing(mring, MultiplicativeSet(mring, [f]))
        with pytest.raises(PreconditionError):
            decompose_fraction(loc, loc.from_witness(mring.one, (0,)))


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
        assert len(units.class_reps) == 3
        assert units.to_cayley().cancellative()

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

    def test_one_plus_ideal_matches_maximal_ideal_oracle(self):
        """T read off I + Ra = R is the complement of the enumerated maximal
        ideals over I, and the sum of principal ideals is the fixpoint closure."""
        for n in range(2, 49):
            ring = ModRing(n)
            maximals = maximal_ideals(ring)
            for gens in [[g] for g in range(n)] + [[], [2, 3]]:
                ideal = fixpoint_ideal_closure(ring, gens)
                assert ideal_closure(ring, gens) == ideal, (n, gens)
                s_elems = sorted({ring.add(ring.one, i) for i in ideal})
                sset = MultiplicativeSet(ring, s_elems)
                iso = groth_units_iso(sset, LocalizedRing(ring, sset))
                t_elems = complement_of_maximals_over(ring, ideal, maximals)
                assert one_plus_ideal_check(ring, gens) == {
                    "ideal_size": len(ideal),
                    "s_size": len(s_elems),
                    "t_size": len(t_elems),
                    "saturation_equals_t": sorted(iso.saturation.elements) == t_elems,
                    "iso_ok": iso.iso,
                    "unit_count": iso.unit_order,
                    "groth_order": iso.groth_order,
                }, (n, gens)

    def test_one_plus_ideal_ring_operations(self, monkeypatch):
        """Z/120 at (4): at most 2*120^2 ring operations, where enumerating
        every ideal took tens of millions."""
        calls = [0]
        for name in ("mul", "add", "sub"):
            method = getattr(ModRing, name)

            def counted(self, a, b, _method=method):
                calls[0] += 1
                return _method(self, a, b)

            monkeypatch.setattr(ModRing, name, counted)
        rep = one_plus_ideal_check(ModRing(120), [4])
        assert rep["t_size"] == 60 and rep["saturation_equals_t"]
        assert calls[0] <= 2 * 120 ** 2


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

    @pytest.mark.parametrize("p, seed", [
        (p, seed) for p in (3, 5, 7, 11) for seed in range(3)
    ] + [(101, 0)])
    def test_reports_match_the_closure_lookup(self, p, seed):
        """Witnesses built from degrees give the reports that looking every
        element up in the depth-8 closure gave, from the same draws."""
        got = kx_counterexample_check(p, samples=40, seed=seed)
        assert got == closure_kx_counterexample_check(p, samples=40, seed=seed)

    def test_large_prime_builds_no_closure(self, monkeypatch):
        """p - 2 constant generators: their depth-8 closure did not finish
        in 20 s at p = 1009."""
        class NoClosure(MultiplicativeSet):
            @property
            def closure(self):
                raise AssertionError("closure built")

        monkeypatch.setattr(localization, "MultiplicativeSet", NoClosure)
        start = time.perf_counter()
        rep = kx_counterexample_check(1009, samples=50, seed=0)
        assert time.perf_counter() - start < 2.0
        assert rep["unit_rewrites_ok"] == 50 and rep["x_in_saturation"] and not rep["x_in_s"]

    @pytest.mark.parametrize("p", [4, 6])
    def test_composite_modulus_rejected(self, p):
        """Over Z/p with p = a*b the constants a and b put 0 = a*b in S, so
        S does not hold only non-zero-divisors, as the check assumes."""
        with pytest.raises(InvalidInputError):
            kx_counterexample_check(p, samples=5)
