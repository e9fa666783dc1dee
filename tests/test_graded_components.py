"""Graded components of a localized monoid ring, split in one pass.

``decompose_fraction`` is checked against the per-degree split it replaced
(``oracles.per_degree_decompose_fraction``): the same keys in the same order,
and each part with the same numerator (insertion order included),
denominator and witness.  Over a cancellative base no class key may be
computed at all.  ``sum_components`` adds the parts of one fraction over
their shared denominator; it is checked against adding them one by one.
"""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    DirectSumMonoid,
    GrothendieckGroup,
    IntegerLatticeMonoid,
    IntegerRing,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    PreconditionError,
    decompose_fraction,
    sample_fraction,
    sum_components,
)

import zoo
from oracles import fold_sum_components, per_degree_decompose_fraction


def localized(ring, monoid, sgens):
    """R[M] localized at the monomials given as coefficient dicts."""
    mring = MonoidRing(ring, monoid)
    sset = MultiplicativeSet(mring, [mring.element(g) for g in sgens])
    return LocalizedRing(mring, sset)


# bases whose group strategy is cancellative-cross-sum: every degree is its
# own component
CANCELLATIVE = {
    "free2_over_Z_at_2_x": lambda: localized(
        IntegerRing(), zoo.free(2), [{(0, 0): 2}, {(1, 0): 1}]),
    "free2_over_Z7_at_3y": lambda: localized(ModRing(7), zoo.free(2), [{(0, 1): 3}]),
    "lattice2_over_Z7_at_3y": lambda: localized(
        ModRing(7), IntegerLatticeMonoid(2), [{(0, 1): 3}]),
    "z4_over_Z_at_2": lambda: localized(IntegerRing(), zoo.z4(), [{0: 2}]),
    "z4_over_Z5_at_2e1": lambda: localized(ModRing(5), zoo.z4(), [{1: 2}]),
    # 2 divides zero in Z/6: exhaustive-witness, with e = 4
    "z4_over_Z6_at_2": lambda: localized(ModRing(6), zoo.z4(), [{0: 2}]),
    # 2 * 2 = 0 in Z/4, so 0 is in S and every component vanishes
    "z4_over_Z4_at_2": lambda: localized(ModRing(4), zoo.z4(), [{0: 2}]),
    "z2+z2_over_Z_at_3e": lambda: localized(IntegerRing(), zoo.z2_plus_z2(), [{(1, 0): 3}]),
    "z4+Z_over_Z5": lambda: localized(
        ModRing(5), DirectSumMonoid([zoo.z4(), IntegerLatticeMonoid(1)]), [{(1, (-1,)): 2}]),
}

# bases where distinct degrees share a class
MERGING = {
    "t2_over_Z3_at_e1": lambda: localized(ModRing(3), zoo.t2(), [{1: 1}]),
    "t2_over_Z_at_5": lambda: localized(IntegerRing(), zoo.t2(), [{0: 5}]),
    "z6_mult_over_Z5_at_e0": lambda: localized(ModRing(5), zoo.z6_mult(), [{0: 1}]),
    "z6_mult_over_Z_at_5": lambda: localized(IntegerRing(), zoo.z6_mult(), [{1: 5}]),
    # the CI zero-in-S configuration: 2 * 2 = 0 in Z/4
    "z6_mult_over_Z4_at_2": lambda: localized(ModRing(4), zoo.z6_mult(), [{1: 2}]),
    "t2+N_over_Z_at_2e": lambda: localized(
        IntegerRing(), DirectSumMonoid([zoo.t2(), zoo.free(1)]), [{(0, (1,)): 2}]),
    "t2+N_over_Z5_at_e": lambda: localized(
        ModRing(5), DirectSumMonoid([zoo.t2(), zoo.free(1)]), [{(0, (1,)): 1}]),
    "numsg_2_3_over_Z": lambda: localized(IntegerRing(), zoo.numsg_2_3(), []),
    "n_cross_z2_over_Z5": lambda: localized(ModRing(5), zoo.n_cross_z2(), []),
}

CONTEXTS = {**CANCELLATIVE, **MERGING}


def test_the_families_are_what_they_say():
    for name, make in CONTEXTS.items():
        strategy = make().groth_group.strategy
        assert (strategy == "cancellative-cross-sum") == (name in CANCELLATIVE), name
    strategies = {make().strategy for make in CONTEXTS.values()}
    assert strategies == {"cross-multiplication", "exhaustive-witness"}


def assert_same_decomposition(loc, f):
    got = decompose_fraction(loc, f)
    want = per_degree_decompose_fraction(loc, f)
    assert list(got) == list(want)
    for (x, part), old in zip(got.items(), want.values()):
        assert list(part.num.coeffs.items()) == list(old.num.coeffs.items()), x
        assert part.den == old.den
        assert part.den_witness == old.den_witness
    return got


def fraction_from(loc, terms, witness):
    """The fraction with these (degree seed, coefficient) terms over the
    product of the generators ``witness``; each degree is drawn from its
    seed, and coefficients at one degree are added."""
    mring = loc.ring
    coeffs = {}
    for seed, c in terms:
        d = mring.monoid.sample(Lcg64(seed), 4)
        coeffs[d] = coeffs.get(d, 0) + c
    gens = len(loc.sset.generators)
    wit = tuple(i % gens for i in witness) if gens else ()
    return loc.from_witness(mring.element(coeffs), wit)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_seeded_fractions_match_the_per_degree_split(name):
    loc = CONTEXTS[name]()
    rng = Lcg64(3100)
    merged = 0
    for _ in range(60):
        f = sample_fraction(loc, rng, max_powers=3, max_support=8, exp_bound=4)
        parts = assert_same_decomposition(loc, f)
        merged += sum(len(p.num.coeffs) > 1 for p in parts.values())
    if name in CANCELLATIVE:
        assert merged == 0


def test_merging_bases_do_merge():
    """Each merging family that has a nonzero component merges two degrees
    into one component on some seeded fraction, so the differential test
    covers the per-class dicts."""
    for name in ("t2_over_Z_at_5", "z6_mult_over_Z_at_5", "t2+N_over_Z_at_2e",
                 "numsg_2_3_over_Z", "n_cross_z2_over_Z5"):
        loc = MERGING[name]()
        rng = Lcg64(3100)
        fracs = [sample_fraction(loc, rng, max_powers=3, max_support=8, exp_bound=4)
                 for _ in range(60)]
        assert any(len(p.num.coeffs) > 1
                   for f in fracs for p in decompose_fraction(loc, f).values()), name


@pytest.mark.parametrize("name", sorted(CONTEXTS))
@given(
    terms=st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(-30, 30)), max_size=10),
    witness=st.lists(st.integers(0, 5), max_size=3),
)
def test_hypothesis_fractions_match_the_per_degree_split(name, terms, witness):
    loc = CONTEXTS[name]()
    assert_same_decomposition(loc, fraction_from(loc, terms, witness))


@pytest.mark.parametrize("name", sorted(CANCELLATIVE))
def test_no_class_key_over_a_cancellative_base(name, monkeypatch):
    loc = CANCELLATIVE[name]()
    loc.groth_group
    calls = []
    key = GrothendieckGroup.key

    def spy(self, x):
        calls.append(x)
        return key(self, x)

    monkeypatch.setattr(GrothendieckGroup, "key", spy)
    rng = Lcg64(3101)
    total = 0
    for _ in range(40):
        f = sample_fraction(loc, rng, max_powers=2, max_support=6, exp_bound=4)
        total += len(decompose_fraction(loc, f))
    assert calls == []
    if name != "z4_over_Z4_at_2":
        assert total > 0


def test_zero_in_s_leaves_no_component():
    """Over Z/4 at 2, e = 0: every fraction is zero in S^-1 R[M]."""
    for name in ("z4_over_Z4_at_2", "z6_mult_over_Z4_at_2"):
        loc = CONTEXTS[name]()
        rng = Lcg64(3102)
        for _ in range(30):
            f = sample_fraction(loc, rng, max_powers=2, max_support=6, exp_bound=4)
            assert decompose_fraction(loc, f) == {}


# -- sum_components


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_sum_components_matches_the_fold_and_the_fraction(name):
    loc = CONTEXTS[name]()
    rng = Lcg64(3103)
    for _ in range(40):
        f = sample_fraction(loc, rng, max_powers=3, max_support=8, exp_bound=4)
        parts = list(decompose_fraction(loc, f).values())
        got = sum_components(loc, parts)
        assert loc.eq(got, fold_sum_components(loc, parts))
        assert loc.eq(got, f)
        if parts:
            assert got.den == f.den and got.den_witness == f.den_witness
        else:
            assert got is loc.zero


def test_sum_components_of_many_parts_keeps_one_denominator():
    """2 000 components of one fraction over x: the sum is over x, not x^2000,
    and its numerator is the fraction's."""
    loc = CANCELLATIVE["free2_over_Z7_at_3y"]()
    mring = loc.ring
    f = loc.from_witness(mring.element({(i, 0): 1 + i % 6 for i in range(2000)}), (0,))
    parts = list(decompose_fraction(loc, f).values())
    assert len(parts) == 2000
    got = sum_components(loc, parts)
    assert got.num == f.num and got.den == f.den and got.den_witness == (0,)


@pytest.mark.parametrize(
    "name", ["free2_over_Z_at_2_x", "z6_mult_over_Z5_at_e0", "t2+N_over_Z_at_2e"])
def test_sum_components_refuses_mixed_denominators(name):
    loc = CONTEXTS[name]()
    mring = loc.ring
    d = mring.monoid.sample(Lcg64(0), 2)
    f = loc.from_witness(mring.element({d: 1}), ())
    g = loc.from_witness(mring.element({d: 1}), (0,))
    assert not mring.eq(f.den, g.den)
    with pytest.raises(PreconditionError):
        sum_components(loc, [f, g])
    with pytest.raises(PreconditionError):
        sum_components(loc, [g, f, g])
