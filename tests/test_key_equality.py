"""Every family that has a class key gets a group.

``GrothendieckGroup.eq`` compares keys (checked against the definition in
test_class_keys.py).  Infinite direct sums with a non-cancellative or
presented component are checked component by component against their
component groups and run through the graded layers and the command line.
Triviality is read off the structure, class lists key one row, direct-sum
torsion is re-chained by the Smith normal form, and lattices get a T
layout for the graded isomorphism.
"""
import json
import random

import pytest

from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FGAbelianStructure,
    FreeCommutativeMonoid,
    GrothElement,
    GrothendieckGroup,
    HMapContext,
    IntegerLatticeMonoid,
    IntegerRing,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidPresentation,
    MonoidRing,
    MultiplicativeSet,
    decompose_fraction,
    direct_sum_groth,
    groth_classes,
    monoid_groth_structure,
    sample_element,
    sum_components,
    verify_isomorphism,
)
from grothloc.cli import main

import zoo
from oracles import scan_classes, scan_eq, swapped_direct_sum_groth

FINITE_ZOO = [
    zoo.t2, zoo.t3, zoo.z2, zoo.z4, zoo.z6_add, zoo.z4_mult, zoo.z6_mult,
    zoo.subsets2, zoo.t2_plus_z2, zoo.z2_plus_z2,
]


def t2_plus_n():
    return DirectSumMonoid([zoo.t2(), FreeCommutativeMonoid(1)])


# infinite direct sums with a non-cancellative or presented component
COMPONENTWISE = {
    "t2_plus_n": t2_plus_n,
    "numsg_plus_n": lambda: DirectSumMonoid([zoo.numsg_2_3(), FreeCommutativeMonoid(1)]),
    "z4pres_t3_z": lambda: DirectSumMonoid(
        [zoo.z4_presented(), zoo.t3(), IntegerLatticeMonoid(1)]
    ),
    "nested": lambda: DirectSumMonoid(
        [t2_plus_n(), zoo.n_cross_z2(), zoo.z6_mult()]
    ),
}


# -- labels


@pytest.mark.parametrize("build, label", [
    (zoo.t2, "finite-witness-enumeration"),
    (zoo.z6_mult, "finite-witness-enumeration"),
    (zoo.t2_plus_z2, "componentwise"),
    (zoo.z4, "cancellative-cross-sum"),
    (zoo.z2_plus_z2, "cancellative-cross-sum"),
    (lambda: FreeCommutativeMonoid(2), "cancellative-cross-sum"),
    (lambda: IntegerLatticeMonoid(0), "cancellative-cross-sum"),
    (lambda: DirectSumMonoid([FreeCommutativeMonoid(1), zoo.z4()]), "cancellative-cross-sum"),
    (lambda: DirectSumMonoid([DirectSumMonoid([zoo.z4(), FreeCommutativeMonoid(1)]),
                              IntegerLatticeMonoid(1)]), "cancellative-cross-sum"),
    (zoo.numsg_2_3, "presentation-lattice"),
    *((build, "componentwise") for build in COMPONENTWISE.values()),
])
def test_strategy_labels(build, label):
    assert GrothendieckGroup(build()).strategy == label


# -- the newly accepted direct sums, component by component


def componentwise_eq(m, x, y) -> bool:
    if not isinstance(m, DirectSumMonoid) or m.is_finite:
        return scan_eq(GrothendieckGroup(m), x, y)
    return all(
        componentwise_eq(c, GrothElement(a, b), GrothElement(c2, d))
        for c, a, b, c2, d in zip(m.components, x.first, x.second, y.first, y.second)
    )


@pytest.mark.parametrize("build", COMPONENTWISE.values(), ids=COMPONENTWISE.keys())
def test_componentwise_sums_match_component_groups(build):
    m = build()
    g = GrothendieckGroup(m)
    rng = Lcg64(41)
    outcomes = set()
    for _ in range(150):
        x = GrothElement(sample_element(m, rng, 3), sample_element(m, rng, 3))
        w = sample_element(m, rng, 3)
        assert g.eq(x, g.add(x, GrothElement(w, w)))
        assert g.is_zero(g.add(x, g.neg(x)))
        y = GrothElement(sample_element(m, rng, 3), sample_element(m, rng, 3))
        want = componentwise_eq(m, x, y)
        outcomes.add(want)
        assert g.eq(x, y) == want, (x, y)
    assert outcomes == {True, False}
    parts = [monoid_groth_structure(c) for c in m.components]
    assert monoid_groth_structure(m) == direct_sum_groth(parts)
    assert not g.is_trivial()


def test_t2_coordinate_collapses():
    g = GrothendieckGroup(t2_plus_n())
    assert g.eq(g.element((1, (2,)), (0, (0,))), g.element((0, (3,)), (1, (1,))))
    assert not g.eq(g.element((1, (2,)), (0, (0,))), g.element((1, (3,)), (0, (0,))))


# -- triviality read off the structure


@pytest.mark.parametrize("m, trivial", [
    (FreeCommutativeMonoid(0), True),
    (IntegerLatticeMonoid(0), True),
    (DirectSumMonoid([FreeCommutativeMonoid(0), IntegerLatticeMonoid(0)]), True),
    (DirectSumMonoid([zoo.t2(), FreeCommutativeMonoid(0)]), True),
    (MonoidPresentation(0, ()), True),
    (FreeCommutativeMonoid(1), False),
    (IntegerLatticeMonoid(2), False),
    (zoo.z4_presented(), False),
], ids=["n0", "z0", "n0_plus_z0", "t2_plus_n0", "empty_presentation", "n1", "z2",
        "z4_presented"])
def test_is_trivial_reads_the_structure(m, trivial):
    assert GrothendieckGroup(m).is_trivial() is trivial


# -- the graded layers over T2 + N


def test_decompose_merges_degrees_differing_in_t2():
    """1*e(0,2) + 2*e(1,2) + 3*e(1,0) over 1: the first two degrees differ
    only in the T2 coordinate, which G(T2) = 0 forgets, so they merge."""
    m = t2_plus_n()
    mring = MonoidRing(ModRing(5), m)
    loc = LocalizedRing(mring, MultiplicativeSet(mring, []))
    num = mring.element({(0, (2,)): 1, (1, (2,)): 2, (1, (0,)): 3})
    f = loc.from_witness(num, ())
    parts = decompose_fraction(loc, f)
    group = loc.groth_group
    by_key = {group.key(k): part for k, part in parts.items()}
    assert set(by_key) == {(1, (2,)), (1, (0,))}
    assert by_key[1, (2,)].num == mring.element({(0, (2,)): 1, (1, (2,)): 2})
    assert by_key[1, (0,)].num == mring.element({(1, (0,)): 3})
    assert loc.eq(sum_components(loc, list(parts.values())), f)


# -- one keyed row


def relabelled(table, identity, seed):
    """The same monoid with its carrier permuted by a seeded shuffle."""
    n = len(table)
    p = list(range(n))
    random.Random(seed).shuffle(p)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = p[table[i][j]]
    return CayleyMonoid(out, identity=p[identity])


RELABELLED = [
    relabelled(zoo.cyclic_table(8), 0, seed=8),
    relabelled(zoo.t2_z2_table().table, 0, seed=4),
    relabelled(zoo.mult_mod_table(15), 1, seed=15),
    relabelled(zoo.join_chain_table(5), 0, seed=5),
]
CLASS_BASES = [*(build() for build in FINITE_ZOO), *RELABELLED]


@pytest.mark.parametrize("m", RELABELLED, ids=range(len(RELABELLED)))
def test_one_row_matches_the_scan_on_relabelled_tables(m):
    g = GrothendieckGroup(m)
    assert groth_classes(g) == scan_classes(g)


@pytest.mark.parametrize("m", CLASS_BASES, ids=range(len(CLASS_BASES)))
def test_classes_key_each_carrier_element_once(m):
    g = GrothendieckGroup(m)
    calls = [0]
    key = g.key

    def counted(x):
        calls[0] += 1
        return key(x)

    g.key = counted
    groth_classes(g)
    assert calls[0] == m.size()


# -- direct-sum torsion through the Smith normal form


def seeded_structure(rng):
    chain, d = [], 1
    for _ in range(rng.randint(0, 3)):
        d *= rng.choice((2, 3, 4, 5, 6, 9, 10))
        chain.append(d)
    return FGAbelianStructure(rng.randint(0, 2), tuple(chain))


def test_direct_sum_matches_gcd_lcm_swaps():
    rng = random.Random(7)
    for _ in range(3000):
        parts = [seeded_structure(rng) for _ in range(rng.randint(0, 4))]
        assert direct_sum_groth(parts) == swapped_direct_sum_groth(parts), parts


# -- the graded isomorphism on lattices


def test_lattice_t_layout_and_witnesses():
    ctx = HMapContext(ModRing(5), IntegerLatticeMonoid(2), [2])
    eps = ctx.mring.epsilon
    assert ctx.tset.generators == [
        ctx.mring.scalar(2), eps((1, 0)), eps((0, 1)), eps((-1, 0)), eps((0, -1)),
    ]
    for n in [(0, 0), (2, -1), (-3, 1), (0, -2)]:
        wit = ctx.monomial_witness(n)
        assert len(wit) == sum(map(abs, n))
        assert ctx.tset.product_of(wit) == eps(n)


def test_free_witnesses_keep_their_layout():
    ctx = HMapContext(ModRing(5), FreeCommutativeMonoid(3), [2, 3])
    assert ctx.monomial_witness((2, 0, 1)) == (2, 2, 4)


@pytest.mark.parametrize("ring, rank, sgens", [
    (ModRing(5), 1, [2]),
    (IntegerRing(), 1, [2]),
    (IntegerRing(), 2, []),
], ids=["z5_rank1_at_2", "z_rank1_at_2", "z_rank2"])
def test_lattice_isomorphism_verifies(ring, rank, sgens):
    ctx = HMapContext(ring, IntegerLatticeMonoid(rank), sgens)
    assert verify_isomorphism(ctx, samples=60, seed=3)["all_ok"]


# -- the command line


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_cli_decompose_over_t2_plus_n(tmp_path):
    m = tmp_path / "t2n.json"
    m.write_text(json.dumps({"kind": "direct_sum", "components": [
        {"kind": "cayley", "table": [[0, 1], [1, 1]]}, {"kind": "free", "rank": 1},
    ]}), encoding="utf-8")
    code, rep = run(
        tmp_path, "localize", "decompose", "--ring", '{"kind": "Zmod", "n": 5}',
        "--monoid", str(m), "--sgens", "[]",
        "--fraction", '{"num": [[1, [0, [2]]], [2, [1, [2]]], [3, [1, [0]]]], "den_witness": []}',
    )
    assert code == 0
    assert rep["results"]["component_count"] == 2
    assert all(rep["checks"].values())


@pytest.mark.parametrize("ring, rank, sgens", [
    ('{"kind": "Zmod", "n": 5}', 1, "[2]"),
    ('{"kind": "Z"}', 1, "[2]"),
    ('{"kind": "Z"}', 2, "[2]"),
], ids=["z5_rank1", "z_rank1", "z_rank2"])
def test_cli_iso_verify_on_lattices(tmp_path, ring, rank, sgens):
    m = tmp_path / "lattice.json"
    m.write_text(json.dumps({"kind": "lattice", "rank": rank}), encoding="utf-8")
    code, rep = run(tmp_path, "iso", "verify", "--ring", ring, "--monoid", str(m),
                    "--sgens", sgens, "--samples", "60")
    assert code == 0
    assert rep["checks"]["all_ok"] is True
