"""Monoid families: table validation, cancellativity, quasi-zeros, orders."""
import enum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    AxiomViolationError,
    CayleyMonoid,
    DirectSumMonoid,
    FGAbelianStructure,
    FreeCommutativeMonoid,
    GrothendieckGroup,
    IntegerLatticeMonoid,
    InvalidInputError,
    Lcg64,
    MalformedElementError,
    MonoidPresentation,
    UnsupportedFamilyError,
    monoid_from_dict,
    monoid_groth_structure,
    numeric_compare,
)
import zoo
from oracles import find_order_violation


class TestCayleyValidation:
    def test_non_commutative_table_rejected(self):
        # table[0][1] = 1 but table[1][0] = 0
        with pytest.raises(AxiomViolationError) as exc:
            CayleyMonoid([[0, 1, 2], [0, 1, 2], [2, 2, 2]])
        assert exc.value.law == "commutativity"

    def test_non_associative_table_rejected(self):
        # commutative but (1+1)+2 = 0+2 = 2 while 1+(1+2) = 1+1 = 0
        table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        with pytest.raises(AxiomViolationError) as exc:
            CayleyMonoid(table)
        assert exc.value.law == "associativity"
        assert exc.value.witness == (1, 1, 2)
        a, b, c = exc.value.witness
        assert table[table[a][b]][c] != table[a][table[b][c]]

    def test_associativity_witness_in_a_late_block(self):
        """A chain 0 < ... < 249 under max, topped by a two-element magma
        {250, 251} that absorbs the chain and is not associative.  Every
        failing triple lies inside the top, so the first one in row-major
        order, (250, 250, 251), sits in the last rows of the table."""
        n = 252
        table = [[max(i, j) for j in range(n)] for i in range(n)]
        table[250][250] = 251
        table[250][251] = table[251][250] = 250
        table[251][251] = 250
        with pytest.raises(AxiomViolationError) as exc:
            CayleyMonoid(table)
        assert exc.value.law == "associativity"
        assert exc.value.witness == (250, 250, 251)

    def test_large_multiplication_table_builds(self):
        """Z/300 under multiplication: Light's test needs only its few generators."""
        m = CayleyMonoid(zoo.mult_mod_table(300), identity=1)
        assert m.size() == 300
        assert m.op(12, 25) == 0 and m.op(7, 43) == 1

    def test_bad_identity_rejected(self):
        with pytest.raises(AxiomViolationError) as exc:
            CayleyMonoid(zoo.cyclic_table(3), identity=1)
        assert exc.value.law == "identity"

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(AxiomViolationError) as exc:
            CayleyMonoid([[0, 1], [1, 5]])
        assert exc.value.law == "closure"

    @pytest.mark.parametrize("table", [
        [[0, 1.7], [1.2, 1]],
        [[0, 1.0], [1.0, 1]],
        [[False, True], [True, True]],
        [[0, "1"], [1, 1]],
    ])
    def test_non_integer_entries_rejected(self, table):
        # an int conversion would truncate these to the two-element chain
        with pytest.raises(InvalidInputError):
            CayleyMonoid(table)

    def test_over_large_entry_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            CayleyMonoid([[0, 2**70], [2**70, 1]])

    def test_bool_identity_rejected(self):
        with pytest.raises(InvalidInputError):
            CayleyMonoid(zoo.join_chain_table(2), identity=False)

    def test_ragged_table_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            CayleyMonoid([[0, 1], [1]])

    def test_op_returns_plain_ints(self):
        m = CayleyMonoid(zoo.mult_mod_table(6), identity=1)
        assert all(
            type(m.op(a, b)) is int and m.op(a, b) == m.table[a][b]
            for a in m.elements() for b in m.elements()
        )

    def test_valid_tables_accepted(self):
        for m in (zoo.t2(), zoo.t3(), zoo.z4(), zoo.z6_mult(), zoo.subsets2()):
            n = m.size()
            assert m.op(m.identity, n - 1) == n - 1

    def test_validate_rejects_foreign_values(self):
        m = zoo.z4()
        with pytest.raises(MalformedElementError):
            m.validate(4)
        with pytest.raises(MalformedElementError):
            m.validate((1,))
        with pytest.raises(MalformedElementError):
            m.validate(True)


class TestCancellativity:
    def test_groups_are_cancellative(self):
        assert zoo.z2().cancellative()
        assert zoo.z4().cancellative()
        assert zoo.z6_add().cancellative()

    def test_semilattices_are_not(self):
        assert not zoo.t2().cancellative()
        assert not zoo.t3().cancellative()
        assert not zoo.subsets2().cancellative()
        assert not zoo.z6_mult().cancellative()

    def test_free_and_lattice_are_cancellative(self):
        assert FreeCommutativeMonoid(3).cancellative()
        assert IntegerLatticeMonoid(2).cancellative()

    def test_direct_sum_follows_components(self):
        assert not zoo.t2_plus_z2().cancellative()
        assert zoo.z2_plus_z2().cancellative()

    def test_matches_definition_exhaustively(self):
        """Cross-check the column criterion against the raw definition."""
        for m in (zoo.t2(), zoo.t3(), zoo.z4(), zoo.z6_mult(), zoo.subsets2()):
            elems = list(m.elements())
            raw = all(
                not (m.op(a, c) == m.op(b, c) and a != b)
                for a in elems
                for b in elems
                for c in elems
            )
            assert m.cancellative() == raw

    def test_presentation_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            zoo.numsg_2_3().cancellative()


class TestQuasiZeros:
    def test_sizes(self):
        assert len(zoo.t2().quasi_zeros()) == 2
        assert len(zoo.t3().quasi_zeros()) == 3
        assert len(zoo.z4().quasi_zeros()) == 1
        assert len(zoo.z6_mult().quasi_zeros()) == 6
        assert len(zoo.subsets2().quasi_zeros()) == 4

    @staticmethod
    def counted_cyclic(monkeypatch, n):
        """Additive Z/n with its op calls counted and rows that refuse to be
        read whole: (monoid, one-element list holding the count)."""
        calls = [0]
        op = CayleyMonoid.op

        def counting(self, a, b):
            calls[0] += 1
            return op(self, a, b)

        class Row(tuple):
            def __iter__(self):
                raise AssertionError("a whole row was read")

        monkeypatch.setattr(CayleyMonoid, "op", counting)
        m = CayleyMonoid(zoo.cyclic_table(n))
        m.table = tuple(map(Row, m.table))
        return m, calls

    def test_read_off_e_in_linear_time(self, monkeypatch):
        """On additive Z/200 neither question scans pairs: at most 3n op
        calls, and no row of the table is read whole."""
        n = 200
        m, calls = self.counted_cyclic(monkeypatch, n)
        for question, want in ((m.quasi_zeros, {0}), (m.cancellative, True)):
            calls[0] = 0
            assert question() == want
            assert calls[0] <= 3 * n, (question.__name__, calls[0])

    def test_four_questions_share_one_kernel_walk(self, monkeypatch):
        """Quasi-zeros, cancellativity, the structure of G(M) and one class
        equality on additive Z/200 read e and K off one walk: at most 3n op
        calls between them (1 414 when each question walked on its own)."""
        n = 200
        m, calls = self.counted_cyclic(monkeypatch, n)
        assert m.quasi_zeros() == {0}
        assert m.cancellative()
        assert monoid_groth_structure(m) == FGAbelianStructure(0, (n,))
        g = GrothendieckGroup(m)
        assert g.eq(g.element(3, 5), g.element(0, 2))
        assert calls[0] <= 3 * n, calls[0]

    def test_is_a_submonoid(self):
        for m in (zoo.t2(), zoo.t3(), zoo.z4(), zoo.z6_mult(), zoo.subsets2()):
            qz = m.quasi_zeros()
            assert m.identity in qz
            for x in qz:
                for y in qz:
                    assert m.op(x, y) in qz


class TestTupleFamilies:
    def test_free_rejects_negative_coordinates(self):
        m = FreeCommutativeMonoid(2)
        with pytest.raises(MalformedElementError):
            m.validate((1, -1))

    def test_lattice_allows_negative_coordinates(self):
        m = IntegerLatticeMonoid(2)
        assert m.validate((-3, 5)) == (-3, 5)
        assert m.op((-3, 5), (3, -5)) == (0, 0)

    def test_direct_sum_operates_componentwise(self):
        m = zoo.t2_plus_z2()
        assert m.op((1, 1), (1, 1)) == (1, 0)
        assert m.identity == (0, 0)
        assert m.size() == 4

    def test_direct_sum_validates_slots(self):
        m = zoo.t2_plus_z2()
        with pytest.raises(MalformedElementError):
            m.validate((2, 0))
        with pytest.raises(MalformedElementError):
            m.validate((0,))

    def test_presentation_is_word_arithmetic(self):
        m = zoo.numsg_2_3()
        assert m.op((1, 0), (2, 1)) == (3, 1)
        with pytest.raises(UnsupportedFamilyError):
            m.size()

    @pytest.mark.parametrize("word", [(True, 0), (1.0, 0), ("1", 0), (None, 0)])
    def test_presentation_relation_words_are_ints(self, word):
        with pytest.raises(InvalidInputError):
            MonoidPresentation(2, ((word, (0, 1)),))
        with pytest.raises(InvalidInputError):
            MonoidPresentation(2, (((0, 1), word),))

    def test_presentation_words_accept_exactly_the_nonnegative_ints(self):
        """The accept set and messages of the per-entry check the word test
        replaced: every entry an int (subclasses too) but not a bool, >= 0."""
        class Small(enum.IntEnum):
            TWO = 2

        def old_ok(word):
            return not any(
                not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in word
            )

        entries = [0, 1, 2**70, -1, -(2**70), True, False, Small.TWO, 1.0, "1",
                   None, np.int64(1), np.uint8(0), (1,)]
        m = MonoidPresentation(2, ())
        for x in entries:
            for word in ((x, 0), (0, x), (x, x)):
                ok = old_ok(word)
                try:
                    MonoidPresentation(2, ((word, (0, 0)), ((1, 1), word)))
                except InvalidInputError as err:
                    assert not ok and str(err) == f"bad relation word {word!r}", word
                else:
                    assert ok, word
                try:
                    assert m.validate(word) is word
                except MalformedElementError as err:
                    assert not ok and str(err) == f"bad exponent word {word!r}", word
                else:
                    assert ok, word
        with pytest.raises(InvalidInputError, match=r"bad relation word \(0,\)"):
            MonoidPresentation(2, (([0], [0, 0]),))

    def test_presentation_names_the_first_fault_in_relation_order(self):
        """Words are checked after every relation is read, but a bad word
        before a malformed relation is still the one named, as when each
        relation was checked as it was read; one-shot iterables are read once."""
        bad = (0, -1)
        with pytest.raises(InvalidInputError, match=r"bad relation word \(0, -1\)"):
            MonoidPresentation(2, ((bad, (0, 0)), ((1, 1),)))
        with pytest.raises(InvalidInputError, match=r"bad relation word \(0, -1\)"):
            MonoidPresentation(2, ((bad, (0, 0)), (1, 2)))
        with pytest.raises(InvalidInputError, match="word pair"):
            MonoidPresentation(2, (((1, 1),), (bad, (0, 0))))
        with pytest.raises(TypeError):
            MonoidPresentation(2, (((0, 0), (0, 0)), (1, 2)))
        p = MonoidPresentation(2, ((iter([1, 0]), iter([0, 1])) for _ in range(2)))
        assert p.relations == (((1, 0), (0, 1)),) * 2
        with pytest.raises(InvalidInputError, match=r"bad relation word \(0, -1\)"):
            MonoidPresentation(2, ((iter([1, 0]), iter(bad)),))

    @pytest.mark.parametrize("generators", [True, 2.0, "2", -1])
    def test_presentation_generator_count_is_a_nonnegative_int(self, generators):
        with pytest.raises(InvalidInputError):
            MonoidPresentation(generators, ())


    @pytest.mark.parametrize("family", [FreeCommutativeMonoid, IntegerLatticeMonoid])
    @pytest.mark.parametrize("rank", [True, 2.0, "2", None, -1])
    def test_tuple_rank_is_a_nonnegative_int(self, family, rank):
        with pytest.raises(InvalidInputError):
            family(rank)


class TestOrders:
    """``numeric_compare`` (tuples compare lexicographically) is the order
    ``GrothOrder.compare`` uses; the violation search is a test oracle."""

    def test_natural_order_on_free_monoid_is_compatible(self):
        m = FreeCommutativeMonoid(2)
        assert find_order_violation(m, numeric_compare, sample_budget=400) is None

    def test_natural_order_on_lattice_is_compatible(self):
        m = IntegerLatticeMonoid(2)
        assert find_order_violation(m, numeric_compare, sample_budget=400) is None

    def test_violation_found_for_bad_order(self):
        """Sorting N^2 by parity of the first coordinate is a total order
        but adding (1,0) swaps parity classes, so the search must find a
        violating triple."""

        def bad(a, b):
            ka = (a[0] % 2, a)
            kb = (b[0] % 2, b)
            return (ka > kb) - (ka < kb)

        m = FreeCommutativeMonoid(2)
        hit = find_order_violation(m, bad, sample_budget=2000)
        assert hit is not None
        a, b, c = hit
        assert bad(a, b) < 0
        assert bad(m.op(a, c), m.op(b, c)) >= 0

    def test_no_total_order_on_finite_group(self):
        """Any order on Z/2 breaks: 0 < 1 forces 0+1 < 1+1, i.e. 1 < 0."""
        m = zoo.z2()
        hit = find_order_violation(m, numeric_compare)
        assert hit is not None
        a, b, c = hit
        assert numeric_compare(a, b) < 0
        assert numeric_compare(m.op(a, c), m.op(b, c)) >= 0

    def test_both_chain_orders_are_compatible(self):
        # join is monotone for the chain order and for its reverse, so the
        # exhaustive sweep accepts both (ties allowed: T3 not cancellative)
        assert find_order_violation(zoo.t3(), lambda a, b: numeric_compare(b, a)) is None

    def test_join_order_on_chain_is_compatible(self):
        # the join semilattice order x <= y iff x+y = y is compatible though
        # not strict; T3 is not cancellative so ties are allowed
        assert find_order_violation(zoo.t3(), numeric_compare) is None


class TestSampling:
    def test_deterministic_given_seed(self):
        m = FreeCommutativeMonoid(3)
        a = [m.sample(Lcg64(7), 5) for _ in range(20)]
        b = [m.sample(Lcg64(7), 5) for _ in range(20)]
        assert a == b

    def test_samples_are_valid(self):
        for m in (zoo.z6_mult(), FreeCommutativeMonoid(2),
                  IntegerLatticeMonoid(2), zoo.t2_plus_z2(), zoo.numsg_2_3()):
            rng = Lcg64(1)
            for _ in range(50):
                m.validate(m.sample(rng, 4))


class TestSerialization:
    @pytest.mark.parametrize("build", [
        zoo.t2, zoo.z4, zoo.z6_mult, zoo.subsets2,
        lambda: FreeCommutativeMonoid(2),
        lambda: IntegerLatticeMonoid(3),
        zoo.numsg_2_3, zoo.t2_plus_z2,
        lambda: DirectSumMonoid([
            zoo.t2(), DirectSumMonoid([FreeCommutativeMonoid(1), zoo.numsg_2_3()])]),
    ])
    def test_round_trip(self, build):
        m = build()
        again = monoid_from_dict(m.to_dict())
        assert again == m
        assert again.to_dict() == m.to_dict()

    def test_unknown_kind_rejected(self):
        from grothloc import InvalidInputError
        with pytest.raises(InvalidInputError):
            monoid_from_dict({"kind": "octonion"})

    def test_size_mismatch_rejected(self):
        from grothloc import InvalidInputError
        with pytest.raises(InvalidInputError):
            monoid_from_dict({"kind": "cayley", "size": 3,
                              "table": [[0, 1], [1, 0]]})
        # a bool or a float that equals the table size is refused too
        with pytest.raises(InvalidInputError):
            monoid_from_dict({"kind": "cayley", "size": True, "table": [[0]]})
        with pytest.raises(InvalidInputError):
            monoid_from_dict({"kind": "cayley", "size": 2.0,
                              "table": [[0, 1], [1, 0]]})


@given(st.tuples(st.integers(0, 8), st.integers(0, 8)),
       st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_lex_compare_is_antisymmetric(a, b):
    assert numeric_compare(a, b) == -numeric_compare(b, a)


@given(st.tuples(st.integers(0, 6), st.integers(0, 6)),
       st.tuples(st.integers(0, 6), st.integers(0, 6)),
       st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_lex_compare_translation_invariant(a, b, c):
    m = FreeCommutativeMonoid(2)
    assert numeric_compare(a, b) == numeric_compare(m.op(a, c), m.op(b, c))
