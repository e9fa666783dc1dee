"""Monoid-ring arithmetic on plain int coefficients against the protocol loops.

``MRElement`` adds, negates and multiplies, and ``MonoidRing`` builds and
samples elements, on int coefficients reduced mod n over Z/n.  Each is
compared with the loop it replaced (``tests/oracles.py``), which called the
coefficient ring's add/mul/neg/is_zero/validate per term.  Coefficient dicts
must be equal and in the same insertion order, so reports that iterate them
keep their bytes.
"""
import hashlib
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    IntegerLatticeMonoid,
    IntegerRing,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidPresentation,
    MonoidRing,
    MultiplicativeSet,
    UnsupportedFamilyError,
)

import zoo
from oracles import (
    element_sample,
    protocol_element,
    protocol_from_list,
    protocol_mr_add,
    protocol_mr_mul,
    protocol_mr_neg,
)

RINGS = {"Z": IntegerRing(), "Z7": ModRing(7), "Z6": ModRing(6)}

FAMILIES = {
    "free": FreeCommutativeMonoid(2),
    "lattice": IntegerLatticeMonoid(2),
    # multiplication mod 6 is not cancellative: 2*3 = 0*3, so products of
    # distinct degree pairs collide
    "cayley": zoo.z6_mult(),
    "presentation": MonoidPresentation(2, (((3, 0), (0, 2)),)),
    "direct_sum": DirectSumMonoid(
        [zoo.z4_mult(), FreeCommutativeMonoid(1), IntegerLatticeMonoid(1)]
    ),
}

CASES = [(r, f) for r in RINGS for f in FAMILIES]
IDS = [f"{r}-{f}" for r, f in CASES]


def same(got, want):
    """Equal coefficient dicts, in the same insertion order."""
    assert got.ring == want.ring and got.monoid == want.monoid
    assert got.coeffs == want.coeffs
    assert list(got.coeffs.items()) == list(want.coeffs.items())


@pytest.mark.parametrize("ring,family", CASES, ids=IDS)
def test_seeded_sums_and_products_match_the_protocol_loops(ring, family):
    mring = MonoidRing(RINGS[ring], FAMILIES[family])
    rng = Lcg64(20)
    els = [mring.sample(rng, max_support=5, exp_bound=3) for _ in range(150)]
    els += [f * f for f in els[:20]]  # wider supports with repeated degrees
    for f, g in zip(els, els[1:] + els[:1]):
        same(f + g, protocol_mr_add(f, g))
        same(f * g, protocol_mr_mul(f, g))
        same(-f, protocol_mr_neg(f))
        same(f - g, protocol_mr_add(f, protocol_mr_neg(g)))
        same(f + (-f), mring.zero)


@pytest.mark.parametrize("ring,family", CASES, ids=IDS)
def test_sample_is_element_of_the_same_draws(ring, family):
    mring = MonoidRing(RINGS[ring], FAMILIES[family])
    for seed in range(3):
        a, b = Lcg64(seed), Lcg64(seed)
        for _ in range(100):
            same(mring.sample(a), element_sample(mring, b))
        assert a.state == b.state


def test_composite_modulus_products_vanish_and_reinsert_last():
    """Over Z/6, 2*3 = 0: a term that reaches 0 is popped, and a later
    product at that degree goes to the end of the dict."""
    mring = MonoidRing(ModRing(6), FreeCommutativeMonoid(1))
    f = mring.element({(0,): 2, (1,): 3, (2,): 1})
    g = mring.element({(0,): 3, (1,): 4, (2,): 2})
    want = protocol_mr_mul(f, g)
    same(f * g, want)
    # (0,): 2*3 = 0 never enters; (3,): 3*2 = 0 first, then 1*4
    assert (0,) not in want.coeffs
    assert list(want.coeffs.items()) == [((1,), 5), ((2,), 1), ((3,), 4), ((4,), 2)]
    # x + x^3 sends (1,) to 0, so it is popped; x written again goes last
    h = mring.element({(1,): 1, (3,): 1})
    k = f * g + h
    same(k, protocol_mr_add(want, h))
    x = mring.epsilon((1,))
    same(k + x, protocol_mr_add(k, x))
    assert list((k + x).coeffs.items()) == [((2,), 1), ((3,), 5), ((4,), 2), ((1,), 1)]


def test_colliding_degrees_in_a_non_cancellative_monoid():
    mring = MonoidRing(ModRing(6), zoo.z6_mult())
    # 2*0 = 3*0 = 0 and 2*3 = 0: several products land on degree 0
    f = mring.element({2: 1, 3: 5, 0: 2})
    g = mring.element({3: 2, 0: 1, 4: 3})
    same(f * g, protocol_mr_mul(f, g))
    same(g * f, protocol_mr_mul(g, f))


@pytest.mark.parametrize("ring", list(RINGS), ids=list(RINGS))
def test_element_and_from_list_match_the_protocol_loops(ring):
    mring = MonoidRing(RINGS[ring], FreeCommutativeMonoid(2))

    class Coeff(IntEnum):
        SEVEN = 7
        MINUS = -1

    raw = {(0, 1): 7, (1, 0): -1, (2, 2): 0, (3, 0): Coeff.SEVEN, (0, 3): Coeff.MINUS,
           (4, 4): 10 ** 30}
    same(mring.element(raw), protocol_element(mring, raw))
    data = [[3, [1, 0]], [4, [1, 0]], [-1, [0, 0]], [6, [2, 1]], [1, [2, 1]],
            [Coeff.SEVEN, [0, 0]], [0, [5, 5]]]
    same(mring.from_list(data), protocol_from_list(mring, data))
    for bad in ({(0, 0): 1.0}, {(0, 0): True}, {(0, -1): 1}, {(0,): 1}):
        assert _failure(mring.element, bad) == _failure(protocol_element, mring, bad)
    for bad in ([[1, [0, 0]], [True, [1, 0]]], [[1, [0, 0], 2]], [[1, [0, "a"]]], "x"):
        assert _failure(mring.from_list, bad) == _failure(protocol_from_list, mring, bad)


def _failure(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("monoid", [zoo.t3(), zoo.z4(), zoo.t2_plus_z2()],
                         ids=["t3", "z4", "t2+z2"])
def test_finite_enumeration_keeps_nonzero_coefficients(monoid):
    mring = MonoidRing(ModRing(2), monoid)
    degs = list(monoid.elements())
    for f in mring.elements():
        assert all(f.coeffs.values())
        same(f, protocol_element(mring, {d: f.coeffs.get(d, 0) for d in degs}))


def _terms(degree, coeff):
    return st.lists(st.tuples(degree, coeff), max_size=6).map(dict)


free_degree = st.tuples(st.integers(0, 3), st.integers(0, 3))
lattice_degree = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
cayley_degree = st.integers(0, 5)
coefficient = st.one_of(st.integers(-12, 12), st.integers(-(10 ** 20), 10 ** 20))


@given(
    st.sampled_from(list(RINGS)),
    st.sampled_from([
        ("free", free_degree), ("presentation", free_degree),
        ("lattice", lattice_degree), ("cayley", cayley_degree),
    ]),
    st.data(),
)
def test_hypothesis_arithmetic_matches_the_protocol_loops(ring, family, data):
    name, degree = family
    mring = MonoidRing(RINGS[ring], FAMILIES[name])
    raw_f = data.draw(_terms(degree, coefficient))
    raw_g = data.draw(_terms(degree, coefficient))
    f, g = mring.element(raw_f), mring.element(raw_g)
    same(f, protocol_element(mring, raw_f))
    same(g, protocol_element(mring, raw_g))
    same(f + g, protocol_mr_add(f, g))
    same(f * g, protocol_mr_mul(f, g))
    same(-f, protocol_mr_neg(f))
    same(f * g * f, protocol_mr_mul(protocol_mr_mul(f, g), f))


def test_other_coefficient_rings_are_refused():
    base = MonoidRing(ModRing(5), FreeCommutativeMonoid(1))
    loc = LocalizedRing(ModRing(5), MultiplicativeSet(ModRing(5), [2]))
    for coeffs in (base, loc, object()):
        with pytest.raises(UnsupportedFamilyError, match="must be Z or Z/n"):
            MonoidRing(coeffs, FreeCommutativeMonoid(1))


# ---------------------------------------------------------------------------
# the sampling stream

# sha256 prefixes of repr(draws), recorded from the library before the draws
# were inlined and before sample stopped passing them through element
STREAM = {
    "below1": "08a1aa07da184f6f",
    "below2": "eb87d3689a67af1c",
    "below7": "db14162602a89916",
    "below1000": "dd708482a8598ccf",
    "below2147483647": "017a1ec5feb262f5",
    "below2147483648": "017a1ec5feb262f5",
    "randint": "3b1bf014f90bd7fb",
    "sample-Z-free": "4dcda0dfc6f2ba0b",
    "sample-Z-lattice": "a64c8007d2860509",
    "sample-Z-cayley": "1b48bee8f33ab16c",
    "sample-Z-dsum": "03e70e0b5af57209",
    "sample-Z7-free": "46181898bebd4c69",
    "sample-Z7-cayley": "8f3464c30cb86541",
    "sample-Z6-lattice": "ab88acfea357a2fe",
    "sample-Z6-dsum": "b04af2f8342364d4",
    "arith-Z-free": "3c8950c15785a613",
    "arith-Z-cayley": "48b4f9ab0c56fd79",
    "arith-Z7-lattice": "628125f6fd15b607",
    "arith-Z6-cayley": "c49c2c1d0ebf13b5",
    "arith-Z6-dsum": "8c065e530f36080a",
}


def _digest(vals) -> str:
    return hashlib.sha256(repr(vals).encode()).hexdigest()[:16]


def test_draws_up_to_two_to_the_31_are_unchanged():
    got = {}
    for n in (1, 2, 7, 1000, 2 ** 31 - 1, 2 ** 31):
        rng = Lcg64(11)
        got[f"below{n}"] = _digest([rng.below(n) for _ in range(2000)])
    rng = Lcg64(3)
    got["randint"] = _digest([rng.randint(-9, 9) for _ in range(2000)])
    cay = CayleyMonoid(zoo.mult_mod_table(6), identity=1)
    fams = {
        "free": FreeCommutativeMonoid(2), "lattice": IntegerLatticeMonoid(3), "cayley": cay,
        "dsum": DirectSumMonoid([cay, FreeCommutativeMonoid(1), IntegerLatticeMonoid(1)]),
    }
    for rname, ring in RINGS.items():
        for fname, m in fams.items():
            mring = MonoidRing(ring, m)
            rng = Lcg64(5)
            els = [mring.sample(rng) for _ in range(300)]
            got[f"sample-{rname}-{fname}"] = _digest([list(f.coeffs.items()) for f in els])
            out = [a * b for a, b in zip(els, els[1:])] + [a + b for a, b in zip(els, els[2:])]
            got[f"arith-{rname}-{fname}"] = _digest([list(f.coeffs.items()) for f in out])
    assert {k: got[k] for k in STREAM} == STREAM


def test_a_draw_is_one_step_of_the_generator_up_to_two_to_the_31():
    for n in (1, 3, 2 ** 20 + 7, 2 ** 31):
        a, b = Lcg64(9), Lcg64(9)
        for _ in range(200):
            assert a.below(n) == (b.next_u64() >> 33) % n
        assert a.state == b.state


def test_wide_moduli_reach_the_top_of_their_range():
    """Past 2**31 one step's 31 bits cannot cover the range; several are
    concatenated, so residues >= 2**31 are drawn."""
    ring = ModRing(2 ** 40)
    rng = Lcg64(0)
    draws = [ring.sample(rng) for _ in range(20_000)]
    assert all(0 <= x < 2 ** 40 for x in draws)
    assert max(draws) >= 2 ** 31
    assert sum(x >= 2 ** 39 for x in draws) > 5_000  # about half
    for wide in (2 ** 31 + 11, 10 ** 30):
        rng = Lcg64(1)
        draws = [rng.below(wide) for _ in range(2_000)]
        assert all(0 <= x < wide for x in draws)
        assert sum(x >= wide // 2 for x in draws) > 800
    with pytest.raises(ValueError):
        Lcg64(0).below(0)


def test_sample_element_draws_are_valid_degrees():
    """What lets ``MonoidRing.sample`` skip ``element``'s checks."""
    rng = Lcg64(4)
    for m in FAMILIES.values():
        for _ in range(200):
            d = m.sample(rng, 6)
            assert m.validate(d) == d
