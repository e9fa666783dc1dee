"""Zero and equality tests of the graded layers against subtraction.

``LocalizedRing.eq`` compares r*s' with r'*s, ``LocalizedRing.is_zero``
reads r/s = 0 off r, and ``GroupRing.eq`` compares terms class by class.
tests/oracles.py keeps the earlier versions, which form the difference and
test it for zero.  The closure of a multiplicative set is built on first
read and must equal the one its constructor used to build.
"""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    DirectSumMonoid,
    FreeCommutativeMonoid,
    Fraction,
    GroupRing,
    HMapContext,
    IntegerLatticeMonoid,
    IntegerRing,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    laurent_iso,
)
from grothloc import isomorphisms
from grothloc.grothendieck import GrothElement
from grothloc.isomorphisms import sample_group_ring_element
from grothloc.localization import CLOSURE_DEPTH, sample_fraction
from grothloc.ring import GroupRingElement, MRElement

import zoo
from oracles import (
    canonical_to_group_ring,
    difference_group_ring_eq,
    difference_loc_eq,
    difference_loc_is_zero,
    eager_closure,
)
from test_class_keys import FINITE_ZOO


# ---------------------------------------------------------------------------
# localized rings under both strategies


def _z_at_2():
    ring = IntegerRing()
    return LocalizedRing(ring, MultiplicativeSet(ring, [2]))


def _zmod_at(n, gens):
    def build():
        ring = ModRing(n)
        return LocalizedRing(ring, MultiplicativeSet(ring, gens))
    build.__name__ = f"z{n}_at_{'_'.join(map(str, gens))}"
    return build


def _zp_nk():
    """Z/7[N^2] at 3 and x: infinite, cross-multiplication."""
    mring = MonoidRing(ModRing(7), FreeCommutativeMonoid(2))
    gens = [mring.scalar(3), mring.epsilon((1, 0))]
    return LocalizedRing(mring, MultiplicativeSet(mring, gens))


def _finite_mring_at(coeff_n, build_monoid, degrees, scale=1):
    """(Z/n)[M] at scale*eps_m for m in degrees: finite, strategy from the flag."""
    def build():
        mring = MonoidRing(ModRing(coeff_n), build_monoid())
        gens = [mring.element({m: scale}) for m in degrees]
        return LocalizedRing(mring, MultiplicativeSet(mring, gens))
    build.__name__ = f"z{coeff_n}_{build_monoid.__name__}_at_{degrees}"
    return build


LOC_CASES = [
    _z_at_2,
    _zmod_at(12, [2]),  # 3/1 = 0 here
    _zmod_at(12, [2, 3]),  # e = 0: every fraction is zero
    _zmod_at(12, [5]),  # a unit: cross-multiplication over a finite ring
    _zmod_at(30, [6]),
    _zp_nk,
    _finite_mring_at(2, zoo.t2, [1]),  # eps_1 is an idempotent zero-divisor
    _finite_mring_at(3, zoo.z2, [1]),  # eps_1 is a unit
    _finite_mring_at(4, zoo.z4_mult, [2], scale=2),
    _finite_mring_at(2, zoo.t2_plus_z2, [(1, 0), (0, 1)]),
]


def _sample_kw(loc):
    return {"max_support": 3, "exp_bound": 3} if isinstance(loc.ring, MonoidRing) else {}


def _rescaled(loc, f, wit):
    """f with numerator and denominator multiplied by t, the product of wit."""
    t = loc.sset.product_of(wit)
    r = loc.ring
    return Fraction(r.mul(f.num, t), r.mul(f.den, t), f.den_witness + wit)


def _random_witness(loc, rng, k=3):
    gens = loc.sset.generators
    return tuple(rng.below(len(gens)) for _ in range(rng.below(k + 1))) if gens else ()


def _check_loc_pairs(loc, rng, rounds):
    kw = _sample_kw(loc)
    for _ in range(rounds):
        f = sample_fraction(loc, rng, **kw)
        g = sample_fraction(loc, rng, **kw)
        # rt/st, a zero fraction over a random denominator, and f + (-f)
        ft = _rescaled(loc, f, _random_witness(loc, rng))
        zero = loc.from_witness(loc.ring.zero, _random_witness(loc, rng))
        cancelled = loc.add(f, loc.neg(ft))
        fracs = [f, g, ft, zero, cancelled, loc.zero, loc.one]
        for x in fracs:
            assert loc.is_zero(x) == difference_loc_is_zero(loc, x), x
            for y in fracs:
                assert loc.eq(x, y) == difference_loc_eq(loc, x, y), (x, y)
        assert loc.eq(f, ft) and loc.eq(ft, f)
        assert loc.is_zero(zero) and loc.is_zero(cancelled)


def test_cases_cover_both_strategies():
    assert {build().strategy for build in LOC_CASES} == {
        "cross-multiplication", "exhaustive-witness",
    }


@pytest.mark.parametrize("build", LOC_CASES, ids=lambda b: b.__name__)
def test_loc_eq_and_is_zero_match_subtraction(build):
    _check_loc_pairs(build(), Lcg64(11), 40)


@given(st.sampled_from(LOC_CASES), st.integers(0, 2 ** 63))
def test_loc_eq_and_is_zero_match_subtraction_hypothesis(build, seed):
    _check_loc_pairs(build(), Lcg64(seed), 3)


def test_three_is_zero_in_z12_at_2():
    """e = 4 kills 3, so 3/1 = 0 although 3 != 0."""
    loc = _zmod_at(12, [2])()
    assert loc.strategy == "exhaustive-witness"
    for s, wit in loc.sset.closure.items():
        f = Fraction(3, s, wit)
        assert loc.is_zero(f) and difference_loc_is_zero(loc, f)
        assert loc.eq(f, loc.zero) and loc.eq(Fraction(9, 1, ()), f)
    assert not loc.is_zero(Fraction(1, 2, (0,)))


def test_is_zero_does_not_call_eq(monkeypatch):
    calls = []
    for build in LOC_CASES:
        loc = build()
        monkeypatch.setattr(loc, "eq", lambda *a: calls.append(a))
        loc.is_zero(sample_fraction(loc, Lcg64(3), **_sample_kw(loc)))
    assert calls == []


# ---------------------------------------------------------------------------
# group rings


def _contexts():
    return [
        HMapContext(ModRing(5), FreeCommutativeMonoid(1), []),
        HMapContext(IntegerRing(), FreeCommutativeMonoid(2), [2, 3]),
        HMapContext(ModRing(12), zoo.z4(), [2]),
        HMapContext(ModRing(2), zoo.t2(), []),  # collapsing: G(T2) is trivial
        HMapContext(ModRing(3), zoo.z2(), []),
        HMapContext(ModRing(6), zoo.t2_plus_z2(), [2]),
    ]


def _same_element_rewritten(ctx, u, rng, shuffle):
    """u with its terms permuted, each key shifted to [a+c, b+c] and each
    coefficient r/s rewritten as rt/st: the same element, other terms."""
    monoid = ctx.monoid
    terms = []
    for key, c in u.terms:
        shift = monoid.sample(rng, 3)
        key = GrothElement(monoid.op(key.first, shift), monoid.op(key.second, shift))
        terms.append((key, _rescaled(ctx.loc, c, _random_witness(ctx.loc, rng, 2))))
    shuffle(terms)
    return GroupRingElement(ctx.group_ring, terms)


@pytest.mark.parametrize("index", range(6))
def test_group_ring_eq_matches_subtraction(index):
    ctx = _contexts()[index]
    gr = ctx.group_ring
    rng = Lcg64(20 + index)
    shuffle = random.Random(index).shuffle
    for _ in range(40):
        u = sample_group_ring_element(ctx, rng)
        v = sample_group_ring_element(ctx, rng)
        same = _same_element_rewritten(ctx, u, rng, shuffle)
        extra = gr.add(u, gr.monomial(GrothElement(ctx.monoid.sample(rng, 3),
                                                   ctx.monoid.identity)))
        elems = [u, v, same, extra, gr.add(u, v), gr.sub(u, v), gr.zero(), gr.one()]
        for x in elems:
            for y in elems:
                assert gr.eq(x, y) == difference_group_ring_eq(gr, x, y), (x, y)
        assert gr.eq(u, same) and gr.eq(same, u)


def test_group_ring_eq_over_base_coefficients():
    """R[G(M)] with plain Z/6 coefficients, images of sampled R[M] elements."""
    rng = Lcg64(5)
    for build in FINITE_ZOO:
        monoid = build()
        mring = MonoidRing(ModRing(6), monoid)
        gr = GroupRing(HMapContext(ModRing(6), monoid, []).group, ModRing(6))
        images = [canonical_to_group_ring(mring.sample(rng, exp_bound=3), gr)
                  for _ in range(8)]
        for x in images:
            for y in images:
                assert gr.eq(x, y) == difference_group_ring_eq(gr, x, y)


# ---------------------------------------------------------------------------
# the closure, built on first read


def _check_closure(ring, gens, depth=CLOSURE_DEPTH):
    """The first ``depth`` BFS rounds of the closure are the eager BFS to that
    depth; over a finite ring both run to completion."""
    sset = MultiplicativeSet(ring, gens)
    assert "closure" not in sset.__dict__
    want, complete = eager_closure(ring, sset.generators, depth)
    rounds = [(x, w) for x, w in sset.closure.items()
              if ring.is_finite or len(w) <= depth]
    assert rounds == list(want.items())
    if complete:
        assert sset.complete
    if ring.is_finite or depth == CLOSURE_DEPTH:
        assert sset.complete == complete
    # after the first read the closure is a plain attribute
    assert sset.__dict__["closure"] is sset.closure


@pytest.mark.parametrize("build", FINITE_ZOO, ids=lambda b: b.__name__)
def test_closure_matches_eager_bfs_on_zoo(build):
    monoid = build()
    mring = MonoidRing(ModRing(2), monoid)
    elems = list(monoid.elements())
    for m in elems:
        _check_closure(mring, [mring.epsilon(m)])
    _check_closure(mring, [mring.epsilon(m) for m in elems])
    _check_closure(mring, [mring.one + mring.epsilon(elems[-1])])


def test_complete_reads_the_closure():
    sset = MultiplicativeSet(IntegerRing(), [2, 3])
    assert "closure" not in sset.__dict__
    assert not sset.complete
    assert "closure" in sset.__dict__


@pytest.mark.parametrize("depth", [0, 1, 2, 5, CLOSURE_DEPTH])
def test_closure_matches_eager_bfs_off_the_zoo(depth):
    _check_closure(IntegerRing(), [2, 3], depth)
    _check_closure(IntegerRing(), [], depth)
    for gens in ([2], [3], [2, 3], [5, 7], []):
        _check_closure(ModRing(12 * 35), gens, depth)
    mring = MonoidRing(ModRing(3), FreeCommutativeMonoid(2))
    gens = [mring.scalar(2), mring.epsilon((1, 0)), mring.epsilon((0, 1))]
    _check_closure(mring, gens, depth)


# ---------------------------------------------------------------------------
# sorted supports and the Laurent battery


@pytest.mark.parametrize("monoid", [
    FreeCommutativeMonoid(3),
    IntegerLatticeMonoid(2),
    zoo.z6_add(),
    DirectSumMonoid([FreeCommutativeMonoid(1), zoo.z4(), IntegerLatticeMonoid(1)]),
    DirectSumMonoid([zoo.t2_plus_z2(), FreeCommutativeMonoid(2)]),
], ids=["free3", "lattice2", "z6", "free_z4_lattice", "nested_sum"])
def test_support_is_key_sorted(monoid):
    mring = MonoidRing(IntegerRing(), monoid)
    rng = Lcg64(9)
    for _ in range(30):
        f = mring.sample(rng, max_support=6, exp_bound=4)
        degs = f.support()
        assert degs == sorted(f.coeffs)
        assert all(a < b for a, b in zip(degs, degs[1:]))
        assert [d for d, _ in f.items()] == degs
        backwards = MRElement(f.ring, f.monoid, dict(reversed(list(f.coeffs.items()))))
        assert backwards.support() == degs and hash(backwards) == hash(f)


def test_laurent_builds_no_t_closure(monkeypatch):
    """Cross-multiplication reads no closure of T, so none is built: the
    parent's depth-12 BFS over 6 monomial generators made 74 454 products."""
    made = []

    class Recorded(HMapContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    calls = [0]
    mul = MRElement.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(isomorphisms, "HMapContext", Recorded)
    monkeypatch.setattr(MRElement, "__mul__", counted)
    report = laurent_iso(IntegerRing(), 6, samples=20)
    assert report["all_ok"]
    (ctx,) = made
    assert ctx.tloc.strategy == "cross-multiplication"
    assert "closure" not in ctx.tset.__dict__
    assert calls[0] <= 20 * 20  # 198 products here
