"""Smith normal form against independent oracles; group completion laws."""
import importlib
import itertools
import pkgutil
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import grothloc
from grothloc import (
    AxiomViolationError,
    CayleyMonoid,
    FGAbelianStructure,
    FreeCommutativeMonoid,
    GrothElement,
    GrothendieckGroup,
    IntegerLatticeMonoid,
    Lcg64,
    LocalizedRing,
    ModRing,
    MonoidPresentation,
    MultiplicativeSet,
    PreconditionError,
    TorsionWitnessError,
    build_total_order,
    canonical_map_injective,
    direct_sum_groth,
    finite_groth_structure,
    groth_classes,
    groth_units_iso,
    monoid_groth_structure,
    numeric_compare,
    order_from_monoid_order,
    presentation_matrix,
    smith_normal_form,
    structure_from_snf,
    universal_extend,
)
from grothloc.monoid import kernel_group

import zoo
from oracles import sweep_group_inverses, walk_kernel_group


# -- independent integer linear algebra, kept free of the package under test

def det(mat):
    """Exact determinant by cofactor expansion along the first row."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
    return total


def gcd_of_minors(mat, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    m, n = len(mat), len(mat[0]) if mat else 0
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, abs(det(sub)))
    return g


def matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def assert_snf_correct(mat):
    m, n = len(mat), len(mat[0])
    snf = smith_normal_form([row[:] for row in mat])
    assert det(snf.U) in (1, -1)
    assert det(snf.V) in (1, -1)
    assert matmul(matmul(snf.U, mat), snf.V) == snf.D
    diag = snf.invariant_factors
    assert len(diag) == min(m, n)
    for i, j in itertools.product(range(m), range(n)):
        if i != j:
            assert snf.D[i][j] == 0
    prod = 1
    for k, d in enumerate(diag, start=1):
        assert d >= 0
        prod *= d
        assert prod == gcd_of_minors(mat, k)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestSmithNormalForm:
    def test_seeded_square_matrices(self):
        rng = Lcg64(2024)
        for _ in range(30):
            assert_snf_correct(random_matrix(rng, 4, 4))

    def test_seeded_rectangular_matrices(self):
        rng = Lcg64(99)
        for shape in ((3, 5), (5, 2), (1, 4), (4, 1), (2, 2)):
            for _ in range(10):
                assert_snf_correct(random_matrix(rng, *shape))

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0], [0, 0]])
        assert snf.invariant_factors == [0, 0]

    def test_identity_matrix(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.invariant_factors == [1, 1]

    def test_empty_matrix_needs_ncols(self):
        snf = smith_normal_form([], ncols=3)
        assert snf.invariant_factors == []
        assert snf.ncols == 3

    def test_known_diagonalization(self):
        # gcd of entries 2, of 2x2 minors 4... hand-checked invariants
        snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf.invariant_factors == [2, 2, 156]

    def test_divisibility_repair(self):
        # diag(2, 3) must become diag(1, 6)
        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.invariant_factors == [1, 6]

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=2, max_size=3))
    def test_arbitrary_small_matrices(self, rows):
        assert_snf_correct(rows)


class TestGroupCompletion:
    @pytest.mark.parametrize("build", [zoo.t2, zoo.z4, zoo.z6_mult])
    def test_eq_is_an_equivalence(self, build):
        g = GrothendieckGroup(build())
        elems = list(g.base.elements())
        xs = [g.element(a, b) for a in elems for b in elems]
        for x in xs:
            assert g.eq(x, x)
        for x in xs:
            for y in xs:
                assert g.eq(x, y) == g.eq(y, x)
        # transitivity on the classes of a small monoid
        reps = groth_classes(g)
        for x in reps:
            for y in xs:
                for z in reps:
                    if g.eq(x, y) and g.eq(y, z):
                        assert g.eq(x, z)

    @pytest.mark.parametrize("build", [zoo.t2, zoo.z4, zoo.z6_mult])
    def test_group_laws(self, build):
        g = GrothendieckGroup(build())
        elems = list(g.base.elements())
        xs = [g.element(a, b) for a in elems for b in elems]
        for x in xs:
            assert g.eq(g.add(x, g.zero()), x)
            assert g.is_zero(g.add(x, g.neg(x)))
        for x in xs[:6]:
            for y in xs[:6]:
                assert g.eq(g.add(x, y), g.add(y, x))
                for z in xs[:6]:
                    assert g.eq(g.add(g.add(x, y), z), g.add(x, g.add(y, z)))

    def test_canonical_map_is_additive(self):
        g = GrothendieckGroup(zoo.z6_mult())
        for a in g.base.elements():
            for b in g.base.elements():
                lhs = g.canonical(g.base.op(a, b))
                rhs = g.add(g.canonical(a), g.canonical(b))
                assert g.eq(lhs, rhs)

    def test_semilattice_collapses(self):
        g = GrothendieckGroup(zoo.t2())
        assert g.strategy == "finite-witness-enumeration"
        assert g.is_trivial()
        assert g.eq(g.canonical(1), g.zero())

    def test_group_base_keeps_classes(self):
        g = GrothendieckGroup(zoo.z4())
        assert g.strategy == "cancellative-cross-sum"
        assert not g.is_trivial()
        assert len(groth_classes(g)) == 4

    def test_class_index_separates_classes(self):
        g = GrothendieckGroup(zoo.z4())
        reps = groth_classes(g)
        index = {g.key(r): i for i, r in enumerate(reps)}
        seen = {index[g.key(g.canonical(k))] for k in range(4)}
        assert seen == {0, 1, 2, 3}

    def test_injectivity_matches_cancellativity(self):
        for build in (zoo.t2, zoo.t3, zoo.z4, zoo.z6_add, zoo.z6_mult,
                      zoo.subsets2):
            m = build()
            assert canonical_map_injective(GrothendieckGroup(m)) == \
                m.cancellative()

    def test_nmul(self):
        g = GrothendieckGroup(zoo.z4())
        x = g.canonical(1)
        assert g.is_zero(g.nmul(4, x))
        assert g.eq(g.nmul(-1, x), g.neg(x))
        assert g.eq(g.nmul(3, x), g.canonical(3))


class TestPresentationStrategy:
    def test_agreement_with_cayley_on_cyclic_group(self):
        """The lattice decision for <g | 4g = 0> must match witness-based
        equality in the order-4 Cayley table, class by class."""
        pres = GrothendieckGroup(zoo.z4_presented())
        cay = GrothendieckGroup(zoo.z4())
        for a, b, c, d in itertools.product(range(4), repeat=4):
            lhs = pres.eq(pres.element((a,), (b,)), pres.element((c,), (d,)))
            rhs = cay.eq(cay.element(a, b), cay.element(c, d))
            assert lhs == rhs

    def test_absorbed_generator_normal_form(self):
        """In <a, b | a+b = b> the class of a word is its b-exponent
        difference; a is killed in the completion."""
        p = MonoidPresentation(2, (((1, 1), (0, 1)),))
        g = GrothendieckGroup(p)
        for u1, u2, v1, v2, w1, w2, x1, x2 in itertools.product(range(3),
                                                                repeat=8):
            lhs = g.eq(g.element((u1, u2), (v1, v2)),
                       g.element((w1, w2), (x1, x2)))
            assert lhs == ((u2 - v2) == (w2 - x2))

    def test_structure_values(self):
        assert zoo.numsg_2_3().groth_structure() == \
            FGAbelianStructure(1, ())
        assert zoo.n_cross_z2().groth_structure() == \
            FGAbelianStructure(1, (2,))
        assert zoo.z4_presented().groth_structure() == \
            FGAbelianStructure(0, (4,))
        assert MonoidPresentation(3, ()).groth_structure() == \
            FGAbelianStructure(3, ())

    def test_presentation_matrix_rows(self):
        assert presentation_matrix(zoo.numsg_2_3()) == [[3, -2]]


class TestStructures:
    def test_finite_structures(self):
        assert finite_groth_structure(zoo.z4()) == FGAbelianStructure(0, (4,))
        assert finite_groth_structure(zoo.z6_add()) == FGAbelianStructure(0, (6,))
        assert finite_groth_structure(zoo.t2()) == FGAbelianStructure(0, ())
        assert finite_groth_structure(zoo.z6_mult()) == FGAbelianStructure(0, ())

    def test_klein_four_vs_cyclic_four(self):
        from grothloc import CayleyMonoid
        klein = CayleyMonoid([[i ^ j for j in range(4)] for i in range(4)])
        assert finite_groth_structure(klein) == FGAbelianStructure(0, (2, 2))
        assert finite_groth_structure(zoo.z4()) == FGAbelianStructure(0, (4,))

    def test_cross_family_dispatch(self):
        assert monoid_groth_structure(FreeCommutativeMonoid(2)) == \
            FGAbelianStructure(2, ())
        assert monoid_groth_structure(IntegerLatticeMonoid(3)) == \
            FGAbelianStructure(3, ())
        assert monoid_groth_structure(zoo.numsg_2_3()) == \
            FGAbelianStructure(1, ())
        assert monoid_groth_structure(zoo.t2_plus_z2()) == \
            FGAbelianStructure(0, (2,))
        assert monoid_groth_structure(zoo.z2_plus_z2()) == \
            FGAbelianStructure(0, (2, 2))

    def test_direct_sum_rechains_invariants(self):
        a = FGAbelianStructure(0, (2,))
        b = FGAbelianStructure(0, (3,))
        assert direct_sum_groth([a, b]) == FGAbelianStructure(0, (6,))
        c = FGAbelianStructure(1, (2,))
        d = FGAbelianStructure(0, (4,))
        assert direct_sum_groth([c, d]) == FGAbelianStructure(1, (2, 4))
        e = FGAbelianStructure(0, (4,))
        f = FGAbelianStructure(0, (6,))
        assert direct_sum_groth([e, f]) == FGAbelianStructure(0, (2, 12))

    def test_torsion_free_predicate(self):
        assert not FGAbelianStructure(2, ()).torsion_invariants
        assert FGAbelianStructure(1, (2,)).torsion_invariants


class TestUniversalProperty:
    def test_extension_through_completion(self):
        """g: Z/6 -> Z/3 reduction extends to h on the completion with
        h o canonical = g and h a group morphism."""
        from grothloc import CayleyMonoid
        base = zoo.z6_add()
        z3 = CayleyMonoid(zoo.cyclic_table(3))
        group = GrothendieckGroup(base)
        g = {x: x % 3 for x in range(6)}
        h = universal_extend(group, g, z3)
        for x in range(6):
            assert h(group.canonical(x)) == g[x]
        elems = list(base.elements())
        xs = [group.element(a, b) for a in elems for b in elems]
        for x in xs[:12]:
            for y in xs[:12]:
                assert h(group.add(x, y)) == z3.op(h(x), h(y))
        # well defined on classes
        for x in xs:
            for y in xs:
                if group.eq(x, y):
                    assert h(x) == h(y)

    def test_non_morphism_rejected(self):
        group = GrothendieckGroup(zoo.z4())
        from grothloc import CayleyMonoid
        z2 = zoo.z2()
        with pytest.raises(AxiomViolationError):
            universal_extend(group, {0: 1, 1: 0, 2: 1, 3: 0}, z2)
        # g(1) = 1, g(2) = 0 is fine on Z/4 -> Z/2, but g(3) = 0 breaks it
        with pytest.raises(AxiomViolationError):
            universal_extend(group, {0: 0, 1: 1, 2: 0, 3: 0}, z2)

    def test_non_group_target_rejected(self):
        group = GrothendieckGroup(zoo.z4())
        with pytest.raises(PreconditionError):
            universal_extend(group, {x: x % 2 for x in range(4)}, zoo.t2())

    @pytest.mark.parametrize("base,target,g", [
        (zoo.z6_add, lambda: CayleyMonoid(zoo.cyclic_table(3)), lambda x: x % 3),
        (zoo.z4, zoo.z2, lambda x: x % 2),
        (zoo.z4_mult, lambda: CayleyMonoid([[0]]), lambda x: 0),
    ], ids=["z6-z3", "z4-z2", "z4mult-trivial"])
    def test_extension_matches_inverse_scan(self, base, target, g):
        """h built on the kernel group's inverses is the h of the row scan."""
        group, target = GrothendieckGroup(base()), target()
        h = universal_extend(group, g, target)
        inv = sweep_group_inverses(target)
        elems = list(group.base.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert h(group.element(a, b)) == target.op(g(a), inv[g(b)])

    def test_is_abelian_group(self):
        assert zoo.z4().cancellative()
        assert zoo.z2().cancellative()
        assert not zoo.t2().cancellative()
        assert not zoo.z6_mult().cancellative()


class TestKernelGroup:
    @pytest.mark.parametrize("build", [
        zoo.t2, zoo.t3, zoo.z2, zoo.z4, zoo.z6_add, zoo.z4_mult, zoo.z6_mult,
        zoo.subsets2, zoo.t2_plus_z2, zoo.z2_plus_z2,
    ])
    def test_zoo_matches_walk_of_every_element(self, build):
        m = build()
        elems = list(m.elements())
        assert kernel_group(m.op, elems) == walk_kernel_group(m.op, elems)

    @pytest.mark.parametrize("table, identity", [
        (zoo.cyclic_table, lambda n: 0),
        (zoo.mult_mod_table, lambda n: 1 % n),
        (zoo.join_chain_table, lambda n: 0),
    ], ids=["cyclic", "mult-mod", "join-chain"])
    def test_tables_match_walk_of_every_element(self, table, identity):
        for n in range(1, 61):
            m = CayleyMonoid(table(n), identity=identity(n))
            elems = list(m.elements())
            assert kernel_group(m.op, elems) == walk_kernel_group(m.op, elems), n

    def test_one_walk_per_cycle(self):
        """Additive Z/200 is one cycle: at most 3*200 products, where walking
        every element on its own takes about 200^2/2."""
        m = CayleyMonoid(zoo.cyclic_table(200))
        calls = [0]

        def op(a, b):
            calls[0] += 1
            return m.op(a, b)

        e, inv, order = kernel_group(op, list(m.elements()))
        assert calls[0] <= 3 * 200
        assert e == 0 and inv[1] == 199 and order[1] == order[199] == 200
        assert order[0] == 1 and order[100] == 2 and order[8] == 25

    @staticmethod
    def count_idempotent_powers(monkeypatch) -> list:
        """Wrap ``idempotent_power`` in every grothloc module that binds it;
        the returned list grows by one entry per call."""
        honest = grothloc.monoid.idempotent_power
        calls = []

        def counting(op, s):
            calls.append(s)
            return honest(op, s)

        for info in pkgutil.iter_modules(grothloc.__path__):
            if info.name == "__main__":
                continue
            mod = importlib.import_module(f"grothloc.{info.name}")
            if getattr(mod, "idempotent_power", None) is honest:
                monkeypatch.setattr(mod, "idempotent_power", counting)
        return calls

    def test_e_is_found_once_per_table(self, monkeypatch):
        """Cancellativity, quasi-zeros, class equality and the structure of
        G(M) on multiplication mod 60, then the universal extension over
        additive Z/5, find e once per table (7 times when each found it)."""
        calls = self.count_idempotent_powers(monkeypatch)
        m = CayleyMonoid(zoo.mult_mod_table(60), identity=1)
        assert not m.cancellative()
        assert len(m.quasi_zeros()) == 60  # e = 0 absorbs everything
        g = GrothendieckGroup(m)
        assert g.eq(g.element(7, 1), g.element(2, 3))
        assert finite_groth_structure(m) == monoid_groth_structure(m) == FGAbelianStructure(0, ())
        z5 = CayleyMonoid(zoo.cyclic_table(5))
        h = universal_extend(GrothendieckGroup(z5), lambda x: x, z5)
        assert h(GrothElement(1, 3)) == 3
        assert len(calls) == 2, len(calls)

    def test_units_iso_finds_e_once(self, monkeypatch):
        """The saturation, the fraction keys and the unit classes of Z/120 at
        [2] share one e (found twice when ``saturate`` found its own)."""
        calls = self.count_idempotent_powers(monkeypatch)
        ring = ModRing(120)
        sset = MultiplicativeSet(ring, [2])
        assert groth_units_iso(sset, LocalizedRing(ring, sset)).iso
        assert len(calls) == 1, len(calls)


class TestTotalOrders:
    def test_order_on_numerical_semigroup_completion(self):
        p = zoo.numsg_2_3()
        snf = smith_normal_form(presentation_matrix(p), ncols=2)
        structure = structure_from_snf(snf)
        order = build_total_order(structure, snf)
        group = GrothendieckGroup(p)
        rng = Lcg64(5)
        for _ in range(300):
            x = group.element(p.sample(rng, 4), p.sample(rng, 4))
            y = group.element(p.sample(rng, 4), p.sample(rng, 4))
            z = group.element(p.sample(rng, 4), p.sample(rng, 4))
            s = order.compare(x, y)
            assert s == -order.compare(y, x)
            if s == 0:
                assert group.eq(x, y)
            if s < 0:
                assert order.compare(group.add(x, z), group.add(y, z)) < 0

    def test_torsion_raises_with_witness(self):
        p = zoo.z4_presented()
        snf = smith_normal_form(presentation_matrix(p), ncols=1)
        with pytest.raises(TorsionWitnessError) as exc:
            build_total_order(structure_from_snf(snf), snf)
        assert exc.value.order == 4

    def test_mixed_presentation_torsion(self):
        p = zoo.n_cross_z2()
        snf = smith_normal_form(presentation_matrix(p), ncols=2)
        with pytest.raises(TorsionWitnessError) as exc:
            build_total_order(structure_from_snf(snf), snf)
        assert exc.value.order == 2

    @staticmethod
    def _torsion_free_presentations(count, seed=3):
        """Seeded presentations with 1-4 generators and 0-3 relations whose
        group completion is torsion-free, after fixed examples: the last
        two have a zero on the SNF diagonal (a trivial relation, and two
        dependent ones)."""
        found = [
            zoo.numsg_2_3(),
            MonoidPresentation(3, ()),
            zoo.integers_presented(2),
            MonoidPresentation(2, (((1, 1), (1, 1)),)),
            MonoidPresentation(3, (((1, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 2, 0)))),
        ]
        rng = Lcg64(seed)
        while len(found) < count:
            k = 1 + rng.below(4)
            rels = tuple(
                (tuple(rng.below(4) for _ in range(k)),
                 tuple(rng.below(4) for _ in range(k)))
                for _ in range(rng.below(4))
            )
            p = MonoidPresentation(k, rels)
            if not p.groth_structure().torsion_invariants:
                found.append(p)
        return found

    def test_coords_are_the_lattice_key(self):
        """On a torsion-free presentation every non-unit slot is free, so
        the order's coordinates are the group's own key."""
        rng = Lcg64(17)
        for p in self._torsion_free_presentations(12):
            k = p.generators
            snf = smith_normal_form(presentation_matrix(p), ncols=k)
            order = build_total_order(structure_from_snf(snf), snf)
            diag = snf.invariant_factors
            assert order.free_positions == [
                j for j in range(k) if j >= len(diag) or diag[j] == 0
            ]
            group = GrothendieckGroup(p)
            for _ in range(150):
                x = GrothElement(*(tuple(rng.below(7) for _ in range(k)) for _ in "ab"))
                y = GrothElement(*(tuple(rng.below(7) for _ in range(k)) for _ in "ab"))
                assert order.coords(x) == group.key(x)
                assert order.compare(x, y) == numeric_compare(group.key(x), group.key(y))
                assert (order.compare(x, y) == 0) == group.eq(x, y)

    @pytest.mark.parametrize("p, witness, n", [
        (zoo.n_cross_z2(), (0, 1), 2),
        (MonoidPresentation(3, (((2, 1, 0), (0, 1, 0)), ((0, 0, 3), (1, 0, 0)))), (0, 1), 6),
    ], ids=["n_cross_z2", "z_cross_z6"])
    def test_torsion_witness_is_unchanged(self, p, witness, n):
        snf = smith_normal_form(presentation_matrix(p), ncols=p.generators)
        with pytest.raises(TorsionWitnessError) as exc:
            build_total_order(structure_from_snf(snf), snf)
        assert exc.value.element == witness
        assert exc.value.order == n

    def test_transported_order_matches_numeric(self):
        """[a, b] in G(N) reads as the integer a - b; the transported order
        must agree with numeric comparison and ignore representatives."""
        m = FreeCommutativeMonoid(1)
        group = GrothendieckGroup(m)
        cmp = order_from_monoid_order(group, lambda a, b: numeric_compare(a[0], b[0]))
        rng = Lcg64(11)
        for _ in range(400):
            a, b = rng.below(30), rng.below(30)
            c, d = rng.below(30), rng.below(30)
            x = group.element((a,), (b,))
            y = group.element((c,), (d,))
            assert cmp(x, y) == numeric_compare(a - b, c - d)
            # representative independence: shift both slots of x by t
            t = rng.below(10)
            x2 = group.element((a + t,), (b + t,))
            assert cmp(x2, y) == cmp(x, y)

    def test_transport_requires_cancellative_base(self):
        group = GrothendieckGroup(zoo.t2())
        with pytest.raises(PreconditionError):
            order_from_monoid_order(group, numeric_compare)
