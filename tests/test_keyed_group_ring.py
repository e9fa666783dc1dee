"""Group-ring elements keep the class keys they were merged by.

``GroupRing.add``, ``sub``, ``neg`` and ``eq`` work on the keys each element
carries, and ``mul`` and ``from_terms`` key each term once.  Every result is
checked term for term against tests/oracles.py's ``RekeyedGroupRing``, which
keys every term again at each step: same representatives in the same order,
same coefficients, and ``class_keys`` equal to the keys of the terms.  The
families cover keys of every kind, and elements built through the
constructor from terms that are not in canonical form.

``h_forward`` merges its image as it builds it; over the same families its
result is checked against ``from_terms`` on the pair list it once built.
"""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    DirectSumMonoid,
    FreeCommutativeMonoid,
    Fraction,
    GrothElement,
    GrothendieckGroup,
    GroupRing,
    GroupRingElement,
    HMapContext,
    IntegerLatticeMonoid,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    PreconditionError,
    h_forward,
    sample_element,
)

import zoo
from oracles import RekeyedGroupRing


def _mod(n):
    def build():
        return ModRing(n), lambda rng: rng.below(n)
    return build


def _loc(n, gens):
    """Z/n at gens, fractions over random products of the generators."""
    def build():
        ring = ModRing(n)
        sset = MultiplicativeSet(ring, gens)

        def draw(rng):
            wit = tuple(rng.below(len(gens)) for _ in range(rng.below(3)))
            return Fraction(rng.below(n), sset.product_of(wit), wit)
        return LocalizedRing(ring, sset), draw
    return build


# (monoid, coefficient ring with a coefficient draw); the coefficient draws
# include 0, and over Z/12 at 2 the fraction 3/1 is zero though 3 != 0
FAMILIES = {
    "free": (lambda: FreeCommutativeMonoid(2), _loc(12, [2])),
    "lattice": (lambda: IntegerLatticeMonoid(2), _mod(6)),
    "cayley_t2": (zoo.t2, _mod(5)),
    "mult_mod_6": (zoo.z6_mult, _loc(12, [5])),
    "presentation": (zoo.n_cross_z2, _mod(4)),
    "t2_plus_n": (lambda: DirectSumMonoid([zoo.t2(), FreeCommutativeMonoid(1)]), _mod(5)),
}


def _group_ring(name):
    build_monoid, build_coeff = FAMILIES[name]
    m = build_monoid()
    coeff, draw = build_coeff()
    return GroupRing(GrothendieckGroup(m), coeff), draw


def _shifted(m, rep, w):
    """[a+w, b+w]: the class of [a, b] under another representative."""
    return GrothElement(m.op(rep.first, w), m.op(rep.second, w))


def _draw_terms(gr, draw, rng, max_terms=4):
    """Raw terms: some classes repeated under other representatives, some
    coefficients zero."""
    m = gr.group.base
    terms = []
    for _ in range(rng.below(max_terms + 1)):
        if terms and rng.below(3) == 0:
            rep = _shifted(m, terms[rng.below(len(terms))][0], sample_element(m, rng, 2))
        else:
            rep = GrothElement(sample_element(m, rng, 2), sample_element(m, rng, 2))
        terms.append((rep, draw(rng)))
    return terms


def _rewritten(gr, terms, draw, rng, shuffle):
    """The same element under other terms: each representative shifted, each
    coefficient split in two, and a zero term added, in shuffled order."""
    m = gr.group.base
    coeff = gr.coeff
    out = []
    for rep, c in terms:
        part = draw(rng)
        out.append((_shifted(m, rep, sample_element(m, rng, 2)), part))
        out.append((_shifted(m, rep, sample_element(m, rng, 2)), coeff.sub(c, part)))
    extra = GrothElement(sample_element(m, rng, 2), sample_element(m, rng, 2))
    out.append((extra, coeff.zero))
    shuffle(out)
    return out


def _plain(terms):
    return [
        (rep, (c.num, c.den, c.den_witness) if isinstance(c, Fraction) else c)
        for rep, c in terms
    ]


def _same(gr, u, want):
    assert _plain(u.terms) == _plain(want)
    assert u.class_keys == [gr.group.key(rep) for rep, _ in u.terms]


def _check_against_rekeying(name, rng, shuffle, rounds):
    """Returns the set of eq outcomes seen."""
    gr, draw = _group_ring(name)
    ref = RekeyedGroupRing(gr)
    outcomes = set()
    for _ in range(rounds):
        raws = [_draw_terms(gr, draw, rng) for _ in range(2)]
        raws.append(_rewritten(gr, raws[0], draw, rng, shuffle))
        raws.append([(rep, gr.coeff.zero) for rep, _ in raws[1]])
        elems = []
        for raw in raws:
            u = gr.from_terms(raw)
            built = GroupRingElement(gr, raw)
            _same(gr, u, ref.canonical(raw))
            _same(gr, built, ref.canonical(raw))
            assert gr.is_zero(u) == built.is_zero() == ref.is_zero(raw)
            _same(gr, gr.neg(u), ref.neg(raw))
            elems.append((built, raw))
            elems.append((u, raw))
        for u, a in elems:
            for v, b in elems:
                _same(gr, gr.add(u, v), ref.add(a, b))
                _same(gr, gr.sub(u, v), ref.sub(a, b))
                _same(gr, gr.mul(u, v), ref.mul(a, b))
                same = gr.eq(u, v)
                outcomes.add(same)
                assert same == ref.eq(a, b), (u, v)
        assert gr.eq(elems[0][0], elems[4][0]) and gr.eq(elems[4][0], elems[0][0])
    return outcomes


def test_families_cover_every_key_strategy():
    strategies = {_group_ring(name)[0].group.strategy for name in FAMILIES}
    assert strategies == {
        "cancellative-cross-sum", "finite-witness-enumeration",
        "presentation-lattice", "componentwise",
    }


@pytest.mark.parametrize("name", FAMILIES)
def test_keyed_group_ring_matches_rekeying(name):
    assert _check_against_rekeying(name, Lcg64(61), random.Random(61).shuffle, 12) == {True, False}


@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2 ** 63))
def test_keyed_group_ring_matches_rekeying_hypothesis(name, seed):
    _check_against_rekeying(name, Lcg64(seed), random.Random(seed).shuffle, 1)


def test_a_merged_class_keeps_its_first_representative():
    """Over T2 every class is one: terms, sums and products show the first
    representative they saw."""
    gr, _ = _group_ring("cayley_t2")
    x, y = GrothElement(1, 0), GrothElement(0, 0)
    u = gr.from_terms([(x, 2), (y, 1)])
    v = GroupRingElement(gr, [(y, 4), (x, 0)])
    assert u.terms == [(x, 3)] and v.terms == [(y, 4)]
    assert gr.add(u, v).terms == [(x, 2)]
    assert gr.add(v, u).terms == [(y, 2)]
    assert gr.mul(v, u).terms == [(GrothElement(1, 0), 2)]
    assert gr.sub(u, gr.from_terms([(y, 3)])).terms == []


# ---------------------------------------------------------------------------
# h_forward against from_terms over the pairs it once listed

# (modulus, S generators) of S^-1 R for each family; 3 over Z/12 is not a
# unit, so coefficients may vanish in the localization.  Over an infinite
# monoid HMapContext needs S to hold units only.
H_RINGS = {
    "free": (12, [5]),
    "lattice": (6, []),
    "cayley_t2": (5, [2]),
    "mult_mod_6": (12, [5, 3]),
    "presentation": (4, [3]),
    "t2_plus_n": (5, [2, 3]),
}


def _h_context(name):
    """An HMapContext over the family's monoid.  A presentation and T2 (+) N
    have no T generator layout; there the context holds only its S side and
    group ring, which is all ``h_forward`` reads."""
    n, sgens = H_RINGS[name]
    ring, monoid = ModRing(n), FAMILIES[name][0]()
    try:
        return HMapContext(ring, monoid, sgens)
    except PreconditionError:
        ctx = object.__new__(HMapContext)
    ctx.ring, ctx.monoid = ring, monoid
    ctx.sset = MultiplicativeSet(ring, sgens)
    ctx.loc = LocalizedRing(ring, ctx.sset)
    ctx.mring = MonoidRing(ring, monoid)
    ctx.group = GrothendieckGroup(monoid)
    ctx.group_ring = GroupRing(ctx.group, ctx.loc)
    ctx._mono_offset = len(sgens)
    return ctx


def _h_fraction(ctx, rng):
    """num over s * eps_n, with a numerator of up to six degrees; the
    witness is s's alone, since h_forward reads only the S part."""
    mring, m = ctx.mring, ctx.monoid
    num = mring.element({
        sample_element(m, rng, 3): rng.below(ctx.ring.n)
        for _ in range(rng.below(7))
    })
    gens = ctx.sset.generators
    s_wit = tuple(rng.below(len(gens)) for _ in range(rng.below(3) if gens else 0))
    den = mring.element({sample_element(m, rng, 3): ctx.sset.product_of(s_wit)})
    return Fraction(num, den, s_wit)


def _h_forward_by_pairs(ctx, f):
    """h_forward as it was: a pair list over the sorted numerator, handed to
    ``from_terms``."""
    ((n, s),) = f.den.coeffs.items()
    s_wit = tuple(i for i in f.den_witness if i < ctx._mono_offset)
    return ctx.group_ring.from_terms(
        [(GrothElement(m, n), Fraction(c, s, s_wit)) for m, c in f.num.items()]
    )


def _check_h_forward(name, rng, rounds):
    """Returns how many images merged two numerator degrees into one class."""
    ctx = _h_context(name)
    merges = 0
    for _ in range(rounds):
        f = _h_fraction(ctx, rng)
        u, want = h_forward(ctx, f), _h_forward_by_pairs(ctx, f)
        assert _plain(u.terms) == _plain(want.terms)
        assert u.class_keys == want.class_keys
        ((n, _),) = f.den.coeffs.items()
        classes = {ctx.group.key(GrothElement(m, n)) for m in f.num.coeffs}
        merges += len(classes) < len(f.num.coeffs)
    return merges


@pytest.mark.parametrize("name", FAMILIES)
def test_h_forward_matches_from_terms(name):
    merges = _check_h_forward(name, Lcg64(67), 150)
    if name not in ("free", "lattice"):  # classes [m, n] with n fixed are distinct there
        assert merges > 0


@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2 ** 63))
def test_h_forward_matches_from_terms_hypothesis(name, seed):
    _check_h_forward(name, Lcg64(seed), 3)


def test_h_forward_keys_each_degree_once(monkeypatch):
    """One ``GrothendieckGroup.key`` call per numerator degree, and neither
    ``from_terms`` nor ``_keyed``."""
    calls = []
    real_key = GrothendieckGroup.key

    def key(self, x):
        calls.append(x)
        return real_key(self, x)

    def refused(*args):
        raise AssertionError("h_forward went through the pair-list path")

    ctx = _h_context("mult_mod_6")
    rng = Lcg64(71)
    fracs = [_h_fraction(ctx, rng) for _ in range(40)]
    monkeypatch.setattr(GrothendieckGroup, "key", key)
    monkeypatch.setattr(GroupRing, "from_terms", refused)
    monkeypatch.setattr(GroupRing, "_keyed", refused)
    for f in fracs:
        calls.clear()
        h_forward(ctx, f)
        assert len(calls) == len(f.num.coeffs)
    assert any(len(f.num.coeffs) > 1 for f in fracs)
