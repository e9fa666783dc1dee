"""GrothendieckGroup.key against the scan it replaced (tests/oracles.py).

On every quadruple (a, b, c, d) of a finite monoid, key([a, b]) ==
key([c, d]) must hold exactly when the old witness scan finds some m with
a+d+m = b+c+m, and eq and the earlier strategy-branched decision must
agree too.  Infinite bases are checked on
seeded samples.  groth_classes must return the scan's representatives in
the scan's order.  The structure of a finite G(M), read off the kernel
group, must equal the old match of element orders against divisor chains.
"""
import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    GrothElement,
    GrothendieckGroup,
    IntegerLatticeMonoid,
    MonoidPresentation,
    canonical_map_injective,
    class_index,
    finite_groth_structure,
    groth_classes,
)

import zoo
from oracles import matched_groth_structure, scan_classes, scan_eq, strategy_eq


def check_every_quadruple(m):
    g = GrothendieckGroup(m)
    elems = list(m.elements())
    pairs = [GrothElement(a, b) for a in elems for b in elems]
    keys = {x: g.key(x) for x in pairs}
    for x in pairs:
        for y in pairs:
            want = scan_eq(g, x, y)
            assert (keys[x] == keys[y]) == want, (x, y)
            assert g.eq(x, y) == want, (x, y)
            assert strategy_eq(g, x, y) == want, (x, y)
    reps = groth_classes(g)
    assert reps == scan_classes(g)
    assert [class_index(g, reps, x) for x in reps] == list(range(len(reps)))
    canon = [g.canonical(a) for a in elems]
    injective = not any(
        scan_eq(g, canon[i], canon[j])
        for i in range(len(elems)) for j in range(i + 1, len(elems))
    )
    assert canonical_map_injective(g) == injective
    assert g.is_trivial() == (len(reps) == 1)


FINITE_ZOO = [
    zoo.t2, zoo.t3, zoo.z2, zoo.z4, zoo.z6_add, zoo.z4_mult, zoo.z6_mult,
    zoo.subsets2, zoo.t2_plus_z2, zoo.z2_plus_z2,
]


@pytest.mark.parametrize("build", FINITE_ZOO, ids=lambda b: b.__name__)
def test_zoo_keys_match_witness_scan(build):
    check_every_quadruple(build())


@pytest.mark.parametrize("build", FINITE_ZOO, ids=lambda b: b.__name__)
def test_zoo_structure_matches_order_matching(build):
    m = build()
    assert finite_groth_structure(m) == matched_groth_structure(m)


# -- generated commutative tables: (table, identity)


def capped_add(k):
    return [[min(x + y, k) for y in range(k + 1)] for x in range(k + 1)], 0


def join_chain(n):
    return [[max(x, y) for y in range(n)] for x in range(n)], 0


def meet_chain(n):
    return [[min(x, y) for y in range(n)] for x in range(n)], n - 1


def divisor_lattice(n, op):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    pos = {d: i for i, d in enumerate(divs)}
    table = [[pos[op(a, b)] for b in divs] for a in divs]
    return table, pos[n if op is gcd else 1]


def mult_mod(n):
    return [[x * y % n for y in range(n)] for x in range(n)], 1 % n


def product_table(left, right):
    """The direct sum of two tables flattened to one, (i, j) at i*|right|+j."""
    (ta, ea), (tb, eb) = left, right
    na, nb = len(ta), len(tb)
    table = [
        [ta[i][k] * nb + tb[j][l] for k in range(na) for l in range(nb)]
        for i in range(na) for j in range(nb)
    ]
    return table, ea * nb + eb


TABLES = st.one_of(
    st.integers(1, 6).map(capped_add),
    st.integers(1, 7).map(join_chain),
    st.integers(1, 7).map(meet_chain),
    st.sampled_from([1, 4, 6, 8, 9, 12, 16, 18, 30]).flatmap(
        lambda n: st.sampled_from([gcd, lcm]).map(lambda op: divisor_lattice(n, op))
    ),
    st.integers(1, 8).map(mult_mod),
)


@given(TABLES)
def test_generated_tables(spec):
    table, identity = spec
    check_every_quadruple(CayleyMonoid(table, identity=identity))


SUM_PARTS = TABLES.filter(lambda spec: len(spec[0]) <= 3)


@given(TABLES)
def test_generated_structures(spec):
    m = CayleyMonoid(spec[0], identity=spec[1])
    assert finite_groth_structure(m) == matched_groth_structure(m)


# cyclic groups, so that G(M) has torsion with several primes and chains
CYCLIC = st.integers(1, 12).map(
    lambda n: ([[(x + y) % n for y in range(n)] for x in range(n)], 0)
)


@settings(max_examples=40)
@given(st.lists(st.one_of(CYCLIC, TABLES.filter(lambda spec: len(spec[0]) <= 4)),
                min_size=1, max_size=3).filter(lambda parts: prod(len(t) for t, _ in parts) <= 48))
def test_generated_sum_structures(parts):
    m = DirectSumMonoid([CayleyMonoid(t, identity=e) for t, e in parts])
    assert finite_groth_structure(m) == matched_groth_structure(m)


def test_known_torsion_chains():
    def sum_of_cyclic(*ns):
        return DirectSumMonoid([
            CayleyMonoid([[(x + y) % n for y in range(n)] for x in range(n)])
            for n in ns
        ])

    for ns, chain in (((2, 4), (2, 4)), ((4, 6), (2, 12)), ((2, 2, 2), (2, 2, 2)),
                      ((9, 3, 5), (3, 45)), ((8,), (8,)), ((1,), ())):
        assert finite_groth_structure(sum_of_cyclic(*ns)).torsion_invariants == chain


@settings(max_examples=25)
@given(SUM_PARTS, SUM_PARTS)
def test_generated_direct_sums(left, right):
    parts = [CayleyMonoid(t, identity=e) for t, e in (left, right)]
    check_every_quadruple(DirectSumMonoid(parts))
    table, identity = product_table(left, right)
    check_every_quadruple(CayleyMonoid(table, identity=identity))


# -- infinite bases, on seeded samples


def check_samples(m, draw, rng, count=300):
    g = GrothendieckGroup(m)
    for _ in range(count):
        x = GrothElement(draw(rng), draw(rng))
        y = GrothElement(draw(rng), draw(rng))
        want = scan_eq(g, x, y)
        assert (g.key(x) == g.key(y)) == want, (x, y)
        assert g.eq(x, y) == want, (x, y)
        assert strategy_eq(g, x, y) == want, (x, y)
        # [a + m, b + m] is another representative of [a, b]
        w = draw(rng)
        assert g.key(g.add(x, GrothElement(w, w))) == g.key(x)


def words(k, hi=4):
    return lambda rng: tuple(rng.randint(0, hi) for _ in range(k))


def lattice_words(k, hi=4):
    return lambda rng: tuple(rng.randint(-hi, hi) for _ in range(k))


PRESENTATIONS = [
    zoo.numsg_2_3(), zoo.n_cross_z2(), zoo.z4_presented(),
    zoo.integers_presented(1), zoo.integers_presented(2),
    # Z/2 + Z/6 + Z: torsion, a unit slot and a free slot together
    MonoidPresentation(3, (((2, 0, 0), (0, 0, 0)), ((0, 6, 0), (0, 0, 0)),
                           ((1, 2, 0), (0, 0, 1)), ((0, 0, 3), (1, 0, 0)))),
]


@pytest.mark.parametrize("p", PRESENTATIONS, ids=range(len(PRESENTATIONS)))
def test_presentation_keys_match_lattice_membership(p):
    check_samples(p, words(p.generators), random.Random(p.generators))


@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.tuples(*[st.tuples(*[st.integers(0, 4)] * k)] * 2), max_size=3
    ).map(lambda rels: MonoidPresentation(k, tuple(rels)))
), st.integers(0, 2**16))
def test_generated_presentations(p, seed):
    check_samples(p, words(p.generators), random.Random(seed), count=40)


def test_free_lattice_and_infinite_sums():
    rng = random.Random(0)
    check_samples(FreeCommutativeMonoid(3), words(3), rng)
    check_samples(IntegerLatticeMonoid(2), lattice_words(2), rng)
    m = DirectSumMonoid([FreeCommutativeMonoid(1), zoo.z4(), IntegerLatticeMonoid(1)])
    draw = lambda r: ((r.randint(0, 4),), r.randrange(4), (r.randint(-4, 4),))
    check_samples(m, draw, rng)
