"""Each ring family's own answers against the isinstance ladders they replaced.

The ladders, kept verbatim in tests/oracles.py, are McCoy's rule on free and
lattice monoids over Z and Z/n, the corner ring's Z/n initialiser and the
four ``MonoidRing`` gates of the localization.  Each answer must equal the
ladder's, or both must raise the same exception type with the same message.
Two gates are read off ``LocalizedRing.groth_group`` now, so they raise its
message.  Where the ladder refused and the ring now decides (a cancellative
M with torsion-free G(M) that is neither free nor a lattice, such as N + Z),
the answer is checked against a bounded search for a killer g.
"""
import itertools
import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    IntegerLatticeMonoid,
    IntegerRing,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    UnsupportedFamilyError,
    decompose_fraction,
    sum_components,
)
from grothloc.monoid import idempotent_power

import zoo
from oracles import (
    LadderCornerRing,
    ladder_decompose_gate,
    ladder_groth_group,
    ladder_homogeneous_flag,
    ladder_is_nonzerodivisor,
    ladder_scalar_is_nonzerodivisor,
    ladder_sum_components_gate,
)
from test_class_keys import FINITE_ZOO


def outcome(fn, *args):
    """("ok", value) or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the type and message are what is compared
        return ("raised", type(exc), str(exc))


def trivial():
    return CayleyMonoid([[0]])


def n_plus_z():
    return DirectSumMonoid([FreeCommutativeMonoid(1), IntegerLatticeMonoid(1)])


def trivial_plus_n():
    return DirectSumMonoid([trivial(), FreeCommutativeMonoid(1)])


def t2_plus_n():
    return DirectSumMonoid([zoo.t2(), FreeCommutativeMonoid(1)])


def z2_plus_n():
    return DirectSumMonoid([zoo.z2(), FreeCommutativeMonoid(1)])


INFINITE_ZOO = [
    lambda: FreeCommutativeMonoid(1), lambda: FreeCommutativeMonoid(2),
    lambda: IntegerLatticeMonoid(1), lambda: IntegerLatticeMonoid(2),
    zoo.numsg_2_3, zoo.n_cross_z2, zoo.z4_presented, zoo.integers_presented,
    n_plus_z, trivial_plus_n, t2_plus_n, z2_plus_n,
]
ZOO = FINITE_ZOO + [trivial] + INFINITE_ZOO
COEFFS = [IntegerRing(), ModRing(2), ModRing(6)]


def newly_decided(monoid) -> bool:
    """Decided by McCoy's rule now, refused by the ladder: cancellative with
    torsion-free G(M), and neither free nor a lattice."""
    return (
        not isinstance(monoid, (FreeCommutativeMonoid, IntegerLatticeMonoid))
        and monoid.groth_strategy() == "cancellative-cross-sum"
        and not monoid.groth_structure().torsion_invariants
    )


def check_against_ladder(mring, f):
    got = outcome(mring.is_nonzerodivisor, f)
    want = outcome(ladder_is_nonzerodivisor, mring, f)
    if got == want:
        return
    assert want[:2] == ("raised", UnsupportedFamilyError) and got[0] == "ok", (f, got, want)
    assert newly_decided(mring.monoid), (mring, f)
    # McCoy's certificate: a zero-divisor is killed by a nonzero constant
    coeff = mring.coeff_ring
    if got[1]:
        assert not f.is_zero()
    elif isinstance(coeff, ModRing):
        r = coeff.n // gcd(coeff.n, *f.coeffs.values())
        assert r % coeff.n and (mring.scalar(r) * f).is_zero(), f
    else:
        assert f.is_zero()


def test_scalars_match_the_ladder():
    zz = IntegerRing()
    for a in range(-30, 31):
        assert zz.is_nonzerodivisor(a) == ladder_scalar_is_nonzerodivisor(zz, a)
    for n in range(2, 61):
        ring = ModRing(n)
        for a in range(n):
            assert ring.is_nonzerodivisor(a) == ladder_scalar_is_nonzerodivisor(ring, a), (n, a)


@pytest.mark.parametrize("coeff", COEFFS, ids=repr)
@pytest.mark.parametrize("build", ZOO, ids=lambda b: getattr(b, "__name__", "zoo"))
def test_monoid_rings_match_the_ladder(coeff, build):
    monoid = build()
    mring = MonoidRing(coeff, monoid)
    rng = random.Random(repr(monoid))
    elems = list(monoid.elements()) if monoid.is_finite else None
    for _ in range(20):
        if elems is not None:
            degs = rng.sample(elems, rng.randint(0, min(3, len(elems))))
            coeffs = {d: rng.randint(-5, 5) for d in degs}
        else:
            coeffs = {monoid.sample(_Draw(rng), 3): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))}
        check_against_ladder(mring, mring.element(coeffs))


class _Draw:
    """The one draw ``monoid.sample`` asks of an ``Lcg64``, from ``random``."""

    def __init__(self, rng):
        self.rng = rng

    def below(self, n):
        return self.rng.randrange(n)


LEAVES = st.sampled_from([
    lambda: FreeCommutativeMonoid(1), lambda: FreeCommutativeMonoid(2),
    lambda: IntegerLatticeMonoid(1), trivial, zoo.z2, zoo.t2, zoo.numsg_2_3,
])
SUMS = st.recursive(
    LEAVES.map(lambda b: b()),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(DirectSumMonoid),
    max_leaves=4,
)


@given(SUMS, st.sampled_from(COEFFS), st.integers(0, 2**32))
def test_nested_sums_match_the_ladder(monoid, coeff, seed):
    """An infinite N slot is added, so R[M] is infinite and McCoy's branch is
    reached; the finite branch is the ladder's own code."""
    monoid = DirectSumMonoid([monoid, FreeCommutativeMonoid(1)])
    mring = MonoidRing(coeff, monoid)
    rng = random.Random(seed)
    for _ in range(5):
        coeffs = {monoid.sample(_Draw(rng), 2): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))}
        check_against_ladder(mring, mring.element(coeffs))


def _killer(mring, f, box, values):
    """A g != 0 with f*g = 0 among those supported on ``box`` with
    coefficients in ``values``, or None."""
    for coeffs in itertools.product(values, repeat=len(box)):
        g = mring.element(dict(zip(box, coeffs)))
        if not g.is_zero() and (f * g).is_zero():
            return g
    return None


@pytest.mark.parametrize("coeff, values", [
    (ModRing(6), range(6)), (IntegerRing(), range(-2, 3)),
], ids=["z6", "z"])
@pytest.mark.parametrize("build, box", [
    (n_plus_z, [((0,), (0,)), ((1,), (0,)), ((0,), (-1,))]),
    (trivial_plus_n, [(0, (0,)), (0, (1,)), (0, (2,))]),
], ids=["n_plus_z", "trivial_plus_n"])
def test_newly_decided_sums_match_a_killer_search(coeff, values, build, box):
    """The box holds the identity, so a zero-divisor's constant killer
    n / gcd(n, c_i) lies in it, and a non-zero-divisor has no killer at all."""
    monoid = build()
    mring = MonoidRing(coeff, monoid)
    rng = random.Random(len(box) * 7 + coeff.characteristic)
    degrees = [monoid.sample(_Draw(rng), 3) for _ in range(8)]
    cases = [mring.zero] + [
        mring.element({d: rng.choice([1, 2, 3, 4, -1]) for d in rng.sample(degrees, rng.randint(2, 3))})
        for _ in range(25)
    ]
    for f in cases:
        if len(f.coeffs) != 1:
            with pytest.raises(UnsupportedFamilyError):
                ladder_is_nonzerodivisor(mring, f)
        assert mring.is_nonzerodivisor(f) == (_killer(mring, f, box, values) is None), f.coeffs


@pytest.mark.parametrize("n", range(2, 61))
def test_zmod_corners_match_the_ladder(n):
    """Every e of Z/n, idempotent or not: equal units and inverses, or the
    same failed certificate."""
    ring = ModRing(n)
    for e in range(n):
        got, want = outcome(ring.corner, e), outcome(LadderCornerRing, ring, e)
        if want[0] == "raised":
            assert got == want, (n, e)
            continue
        assert got[0] == "ok", (n, e, got)
        assert got[1].units == want[1].units, (n, e)
        assert [got[1].inverse(x) for x in range(n)] == [want[1].inverse(x) for x in range(n)]


def test_walked_corners_match_the_ladder():
    """Z and finite R[M] walk powers on both sides."""
    zz = IntegerRing()
    for e in (0, 1):
        got, want = zz.corner(e, 4), LadderCornerRing(zz, e, 4)
        assert [got.inverse(x) for x in range(-6, 7)] == [want.inverse(x) for x in range(-6, 7)]
    rng = random.Random(3)
    for coeff, build in ((ModRing(2), zoo.t2), (ModRing(3), zoo.z2), (ModRing(2), zoo.z4_mult)):
        mring = MonoidRing(coeff, build())
        elems = list(mring.elements())
        for f in rng.sample(elems, min(6, len(elems))):
            e = idempotent_power(mring.mul, f)
            assert mring.corner(e).units == LadderCornerRing(mring, e).units, f


def _rings():
    yield IntegerRing(), [[], [1], [2, 3], [0]]
    for n in range(2, 61):
        yield ModRing(n), [[], [1], [n - 1], [0, n - 1]]
    for coeff in COEFFS:
        for build in FINITE_ZOO + [trivial, lambda: FreeCommutativeMonoid(1), n_plus_z]:
            mring = MonoidRing(coeff, build())
            m = mring.monoid.identity
            yield mring, [[], [mring.epsilon(m)], [mring.one + mring.one], [mring.one + mring.epsilon(m)]]


def test_gates_match_the_ladder():
    for ring, gen_sets in _rings():
        for gens in gen_sets:
            sset = MultiplicativeSet(ring, gens)
            assert sset.homogeneous_flag == ladder_homogeneous_flag(ring, sset.generators), (ring, gens)
            loc = outcome(LocalizedRing, ring, sset)
            if loc[0] == "raised":
                continue
            loc = loc[1]
            got = outcome(lambda: loc.groth_group)
            want = outcome(ladder_groth_group, loc)
            if want[0] == "raised":
                assert got == want, ring
            else:
                assert (got[1].base, got[1].strategy) == (want[1].base, want[1].strategy)
            for new, old in ((lambda: decompose_fraction(loc, loc.one), ladder_decompose_gate),
                             (lambda: sum_components(loc, [loc.one]), ladder_sum_components_gate)):
                got, want = outcome(new), outcome(old, loc)
                if want[0] == "raised":
                    # read off groth_group: its type, and its message
                    assert got == ("raised", want[1], "grading needs a monoid-ring base"), ring
                else:
                    assert got[0] == "ok" or got[1] is not UnsupportedFamilyError, (ring, got)
