"""Each monoid family computes its own G(M) and lays out its own T.

``groth_strategy``, ``groth_key`` and ``groth_structure`` must give the
labels, keys and structures of the ``isinstance`` ladders they replaced
(``oracles.LadderGroup`` and ``oracles.ladder_groth_structure``) on every
zoo monoid, on multiplication mod n as a presentation and on nested direct
sums of all five families.  ``t_generators`` and ``monomial_witness`` must
lay T out so that the generators a witness names sum back to its degree.
"""
import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    CommutativeMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    GrothElement,
    GrothendieckGroup,
    HMapContext,
    IntegerLatticeMonoid,
    Lcg64,
    ModRing,
    MonoidPresentation,
    PreconditionError,
    monoid_groth_structure,
)
from grothloc import grothendieck

import zoo
from oracles import LadderGroup, ladder_groth_structure
from test_class_keys import FINITE_ZOO
from test_snf import multiplication_relations


def zoo_monoids() -> list:
    """Every zoo builder that needs no argument and builds a monoid, and the
    free and lattice monoids of rank 0 to 3."""
    out = []
    for _, build in sorted(vars(zoo).items()):
        if inspect.isfunction(build) and all(
            p.default is not p.empty for p in inspect.signature(build).parameters.values()
        ):
            m = build()
            if isinstance(m, CommutativeMonoid):
                out.append(m)
    for k in range(4):
        out += [FreeCommutativeMonoid(k), IntegerLatticeMonoid(k)]
    return out


def assert_same_as_ladders(m, seed: int = 0, samples: int = 40):
    """Equal labels, keys and structures; a carrier of at most 16 elements
    is keyed on every pair, anything else on seeded samples."""
    group, ladder = GrothendieckGroup(m), LadderGroup(m)
    assert group.strategy == ladder.strategy
    if m.is_finite and m.size() <= 16:
        elems = list(m.elements())
        pairs = [(a, b) for a in elems for b in elems]
    else:
        rng = Lcg64(seed)
        pairs = [(m.sample(rng, 4), m.sample(rng, 4)) for _ in range(samples)]
    for a, b in pairs:
        x = GrothElement(a, b)
        assert group.key(x) == ladder.key(x), x
    assert m.groth_structure() == monoid_groth_structure(m) == ladder_groth_structure(m)


def test_the_zoo_holds_every_family():
    kinds = {type(m).__name__ for m in zoo_monoids()}
    assert kinds == {
        "CayleyMonoid", "FreeCommutativeMonoid", "IntegerLatticeMonoid",
        "MonoidPresentation", "DirectSumMonoid",
    }


@pytest.mark.parametrize("m", zoo_monoids(), ids=repr)
def test_zoo_matches_the_ladders(m):
    assert_same_as_ladders(m)


@pytest.mark.parametrize("n", range(1, 31))
def test_multiplication_mod_n_presentations_match_the_ladders(n):
    assert_same_as_ladders(MonoidPresentation(n, multiplication_relations(n)), seed=n)


CAYLEY = [zoo.t2, zoo.t3, zoo.z2, zoo.z4, zoo.z4_mult, zoo.z6_mult, zoo.subsets2]


@st.composite
def presentations(draw):
    g = draw(st.integers(0, 3))
    word = st.tuples(*[st.integers(0, 3)] * g)
    return MonoidPresentation(g, draw(st.lists(st.tuples(word, word), max_size=3)))


LEAVES = st.one_of(
    st.sampled_from(CAYLEY).map(lambda build: build()),
    st.integers(0, 2).map(FreeCommutativeMonoid),
    st.integers(0, 2).map(IntegerLatticeMonoid),
    presentations(),
)


def sums(depth: int):
    """Direct sums of one to three parts, nested up to ``depth`` levels."""
    part = LEAVES if depth == 1 else st.one_of(LEAVES, sums(depth - 1))
    return st.lists(part, min_size=1, max_size=3).map(DirectSumMonoid)


@given(sums(3), st.integers(0, 2**32))
def test_nested_sums_match_the_ladders(m, seed):
    assert_same_as_ladders(m, seed=seed)


# -- the layout of T


def witness_sum(m, n):
    """The sum of the T generators that ``monomial_witness(n, 0)`` names."""
    gens = m.t_generators()
    acc = m.identity
    for i in m.monomial_witness(n, 0):
        acc = m.op(acc, gens[i])
    return acc


def words(lo: int):
    return st.integers(0, 4).flatmap(lambda k: st.tuples(*[st.integers(lo, 6)] * k))


@given(words(0))
def test_free_witnesses_sum_to_the_degree(n):
    m = FreeCommutativeMonoid(len(n))
    assert witness_sum(m, n) == n
    assert m.monomial_witness(n, 3) == tuple(i + 3 for i in m.monomial_witness(n, 0))


@given(words(-6))
def test_lattice_witnesses_sum_to_the_degree(n):
    m = IntegerLatticeMonoid(len(n))
    assert witness_sum(m, n) == n
    assert m.monomial_witness(n, 3) == tuple(i + 3 for i in m.monomial_witness(n, 0))


FINITE = [build() for build in FINITE_ZOO] + [
    DirectSumMonoid([zoo.t2(), DirectSumMonoid([zoo.z2(), zoo.z4_mult()])]),
]


@pytest.mark.parametrize("m", FINITE, ids=repr)
def test_finite_witnesses_sum_to_the_element(m):
    assert m.t_generators() == list(m.elements())
    for n in m.elements():
        assert witness_sum(m, n) == n
        assert len(m.monomial_witness(n, 5)) == 1


@pytest.mark.parametrize("m", [
    zoo.numsg_2_3(),
    DirectSumMonoid([zoo.t2(), FreeCommutativeMonoid(1)]),
], ids=repr)
def test_no_layout_is_refused_by_name(m):
    with pytest.raises(PreconditionError, match=f"no T generator layout for {type(m).__name__}$"):
        m.t_generators()


@pytest.mark.parametrize("m", [
    zoo.numsg_2_3(),
    DirectSumMonoid([zoo.numsg_2_3(), zoo.t2()]),
], ids=repr)
def test_context_refuses_a_presentation_before_any_elimination(monkeypatch, m):
    """Nothing the context builds before it asks for T's layout reads the
    Smith normal form, so a refused context costs no elimination."""
    calls = []
    honest = grothendieck._eliminate

    def spy(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(grothendieck, "_eliminate", spy)
    with pytest.raises(PreconditionError, match="no T generator layout"):
        HMapContext(ModRing(5), m, [2])
    assert calls == []
