"""Monoid rings: arithmetic axioms, grading laws, zero-divisor sweeps."""
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    BaseMismatchError,
    FreeCommutativeMonoid,
    GroupRing,
    GrothendieckGroup,
    IntegerRing,
    Lcg64,
    ModRing,
    MonoidRing,
    NotHomogeneousError,
    ZeroDegreeError,
    degree_of,
    group_ring_map_injective,
    homogeneous_components,
    is_cancellative,
    monomial_is_nonzerodivisor,
    ring_from_dict,
)

from grothloc.ring import _is_prime

import zoo
from oracles import canonical_to_group_ring


class TestCoefficientRings:
    def test_mod_ring_wraps(self):
        r = ModRing(6)
        assert r.add(4, 5) == 3
        assert r.mul(4, 5) == 2
        assert r.neg(2) == 4
        assert r.validate(-1) == 5
        assert r.validate(13) == 1

    def test_mod_ring_field_flag(self):
        """Z/n is a field exactly when n is prime."""
        assert _is_prime(5)
        assert _is_prime(2)
        assert not _is_prime(6)
        assert not _is_prime(4)

    def test_units_of_z12(self):
        r = ModRing(12)
        assert [a for a in r.elements() if r.is_nonzerodivisor(a)] == [1, 5, 7, 11]

    def test_large_prime_modulus_builds_at_once(self):
        """No primality test runs at construction: trial division up to
        sqrt(2^61 - 1) would take hours."""
        r = ModRing(2**61 - 1)
        assert r.mul(2**60, 2) == 1

    def test_integer_ring_is_exact(self):
        r = IntegerRing()
        big = 10 ** 30
        assert r.mul(big, big) == 10 ** 60
        assert r.sub(big, big) == 0

    def test_ring_from_dict(self):
        assert ring_from_dict({"kind": "Z"}) == IntegerRing()
        assert ring_from_dict({"kind": "Zmod", "n": 7}) == ModRing(7)
        from grothloc import InvalidInputError
        with pytest.raises(InvalidInputError):
            ring_from_dict({"kind": "GF8"})

    @pytest.mark.parametrize("n", [5.5, 7.0, "7", True, None, 1])
    def test_modulus_is_an_int_of_at_least_two(self, n):
        from grothloc import InvalidInputError
        with pytest.raises(InvalidInputError):
            ModRing(n)
        with pytest.raises(InvalidInputError):
            ring_from_dict({"kind": "Zmod", "n": n})


@pytest.fixture(scope="module")
def small():
    mring = MonoidRing(ModRing(2), zoo.subsets2())
    return mring, list(mring.elements())


class TestMonoidRingAxioms:
    """(Z/2)[union semilattice] has 16 elements; every law is checked on
    every triple."""

    def test_carrier_size(self, small):
        mring, elems = small
        assert len(elems) == 16
        assert mring.size() == 16

    def test_additive_group(self, small):
        mring, elems = small
        zero = mring.zero
        for f in elems:
            assert f + zero == f
            assert f + (-f) == zero
            for g in elems:
                assert f + g == g + f
                for h in elems:
                    assert (f + g) + h == f + (g + h)

    def test_multiplicative_monoid(self, small):
        mring, elems = small
        one = mring.one
        for f in elems:
            assert f * one == f
            for g in elems:
                assert f * g == g * f
                for h in elems:
                    assert (f * g) * h == f * (g * h)

    def test_distributivity(self, small):
        mring, elems = small
        for f in elems:
            for g in elems:
                for h in elems:
                    assert f * (g + h) == f * g + f * h

    def test_zero_pruning_makes_eq_structural(self, small):
        mring, _ = small
        f = mring.element({0: 1, 1: 1})
        g = mring.element({1: 1})
        assert (f + g).coeffs == {0: 1}

    def test_base_mismatch_rejected(self):
        a = MonoidRing(ModRing(2), zoo.t2()).one
        b = MonoidRing(ModRing(3), zoo.t2()).one
        c = MonoidRing(ModRing(2), zoo.z2()).one
        with pytest.raises(BaseMismatchError):
            a + b
        with pytest.raises(BaseMismatchError):
            a * c


class TestConvolution:
    def test_epsilon_multiplication(self):
        mring = MonoidRing(ModRing(7), FreeCommutativeMonoid(2))
        assert mring.epsilon((1, 0)) * mring.epsilon((0, 2)) == \
            mring.epsilon((1, 2))

    def test_polynomial_identity_over_z(self):
        zx = MonoidRing(IntegerRing(), FreeCommutativeMonoid(1))
        x = zx.epsilon((1,))
        one = zx.one
        assert (x + one) * (x - one) == x * x - one

    def test_sample_round_trips_through_lists(self):
        mring = MonoidRing(IntegerRing(), FreeCommutativeMonoid(2))
        rng = Lcg64(3)
        for _ in range(25):
            f = mring.sample(rng)
            assert mring.from_list(mring.to_list(f)) == f

    def test_to_list_sorted_by_degree(self):
        mring = MonoidRing(IntegerRing(), FreeCommutativeMonoid(1))
        f = mring.element({(3,): 1, (0,): 2, (1,): 5})
        assert [d for _, d in mring.to_list(f)] == [[0], [1], [3]]


class TestGrading:
    def test_components_sum_back(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(2))
        rng = Lcg64(8)
        for _ in range(30):
            f = mring.sample(rng)
            parts = homogeneous_components(f)
            total = mring.zero
            for part in parts:
                assert degree_of(part.value) == part.degree
                total = total + part.value
            assert total == f

    def test_product_of_homogeneous_is_homogeneous(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(2))
        m = mring.monoid
        for a, b in itertools.product([(0, 0), (1, 0), (2, 1)], repeat=2):
            f = mring.element({a: 2})
            g = mring.element({b: 3})
            assert degree_of(f * g) == m.op(a, b)

    def test_degree_errors(self):
        mring = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
        with pytest.raises(ZeroDegreeError):
            degree_of(mring.zero)
        with pytest.raises(NotHomogeneousError):
            degree_of(mring.one + mring.epsilon((1,)))


class TestZeroDivisorSweeps:
    def test_semilattice_monomial_is_zero_divisor(self):
        mring = MonoidRing(ModRing(2), zoo.t2())
        assert monomial_is_nonzerodivisor(mring, 0)
        assert not monomial_is_nonzerodivisor(mring, 1)
        # the witness: eps_1 * (eps_0 + eps_1) = eps_1 + eps_1 = 0
        f = mring.element({0: 1, 1: 1})
        assert (mring.epsilon(1) * f).is_zero()

    def test_group_monomials_are_units(self):
        mring = MonoidRing(ModRing(2), zoo.z4())
        for k in range(4):
            assert monomial_is_nonzerodivisor(mring, k)

    def test_canonical_group_ring_map_kills_collapse(self):
        mring = MonoidRing(ModRing(2), zoo.t2())
        assert not group_ring_map_injective(mring)
        mring2 = MonoidRing(ModRing(2), zoo.z4())
        assert group_ring_map_injective(mring2)

    @pytest.mark.parametrize("build", [zoo.t2, zoo.z4, zoo.z6_mult])
    @pytest.mark.parametrize("n", [2, 6])
    def test_four_way_equivalence(self, build, n):
        """Cancellativity, canonical-map injectivity, monomials being
        non-zero-divisors, and group-ring-map injectivity stand or fall
        together."""
        from grothloc import canonical_map_injective
        m = build()
        mring = MonoidRing(ModRing(n), m)
        group = GrothendieckGroup(m)
        i = is_cancellative(m)
        ii = canonical_map_injective(group)
        iii = all(monomial_is_nonzerodivisor(mring, x) for x in m.elements())
        iv = group_ring_map_injective(mring, group)
        assert i == ii == iii == iv


class TestGroupRing:
    def test_terms_merge_by_class(self):
        group = GrothendieckGroup(zoo.t2())
        gring = GroupRing(group, ModRing(5))
        u = gring.from_terms([
            (group.canonical(0), 2),
            (group.canonical(1), 1),
        ])
        # both classes coincide, so a single merged term remains
        assert len(u.terms) == 1
        assert u.terms[0][1] == 3

    def test_ring_laws_on_samples(self):
        group = GrothendieckGroup(zoo.z4())
        gring = GroupRing(group, ModRing(3))
        rng = Lcg64(4)

        def sample():
            return gring.from_terms([
                (group.element(rng.below(4), rng.below(4)), rng.below(3))
                for _ in range(3)
            ])

        for _ in range(40):
            u, v, w = sample(), sample(), sample()
            assert gring.eq(gring.add(u, v), gring.add(v, u))
            assert gring.eq(gring.mul(u, v), gring.mul(v, u))
            assert gring.eq(gring.mul(u, gring.add(v, w)),
                            gring.add(gring.mul(u, v), gring.mul(u, w)))
            assert gring.is_zero(gring.sub(u, u))
            assert gring.eq(gring.mul(u, gring.one()), u)

    def test_canonical_map_is_a_ring_map(self):
        m = zoo.z4()
        mring = MonoidRing(ModRing(3), m)
        group = GrothendieckGroup(m)
        gring = GroupRing(group, ModRing(3))
        rng = Lcg64(6)
        for _ in range(30):
            f = mring.sample(rng)
            g = mring.sample(rng)
            assert gring.eq(
                canonical_to_group_ring(mring.add(f, g), gring),
                gring.add(canonical_to_group_ring(f, gring),
                          canonical_to_group_ring(g, gring)),
            )
            assert gring.eq(
                canonical_to_group_ring(mring.mul(f, g), gring),
                gring.mul(canonical_to_group_ring(f, gring),
                          canonical_to_group_ring(g, gring)),
            )

    def test_collapse_example(self):
        """1 + eps_1 over Z/2[T2] dies in the group ring."""
        mring = MonoidRing(ModRing(2), zoo.t2())
        group = GrothendieckGroup(zoo.t2())
        gring = GroupRing(group, ModRing(2))
        f = mring.element({0: 1, 1: 1})
        assert not f.is_zero()
        assert canonical_to_group_ring(f, gring).is_zero()


@given(st.integers(2, 9), st.integers(-20, 20), st.integers(-20, 20))
def test_mod_ring_is_a_quotient(n, a, b):
    r = ModRing(n)
    assert r.add(r.validate(a), r.validate(b)) == (a + b) % n
    assert r.mul(r.validate(a), r.validate(b)) == (a * b) % n
