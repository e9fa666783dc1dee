"""The library's result records keep the semantics callers and reports read.

A presentation compares and hashes by its fields, refuses assignment, and
its repr (which ``MonoidRing``'s repr and so error details embed) is the
exact string pinned below; the structure and SNF records keep theirs too.
The named-tuple records are ``collections.namedtuple`` subclasses: they
keep their reprs, tuple equality and methods, and hold no ``__dict__``.
"""
import pytest

from grothloc import (
    FGAbelianStructure,
    GrothElement,
    ModRing,
    MonoidPresentation,
    MonoidRing,
    UnsupportedFamilyError,
    smith_normal_form,
)

PRESENTATION_REPR = (
    "MonoidPresentation(generators=2, relations=(((1, 0), (0, 2)), ((2, 1), (1, 1))))"
)


def presentation():
    return MonoidPresentation(2, [[[1, 0], [0, 2]], ([2, 1], (1, 1))])


def test_presentation_equality_and_hash_follow_the_fields():
    p = presentation()
    same = MonoidPresentation(generators=2, relations=(((1, 0), (0, 2)), ((2, 1), (1, 1))))
    assert p == same and hash(p) == hash(same)
    assert len({p, same}) == 1
    assert p != MonoidPresentation(2, [[[1, 0], [0, 2]]])
    assert p != MonoidPresentation(3)
    assert MonoidPresentation(0) == MonoidPresentation(0, ())
    assert p != (2, p.relations)


def test_presentation_refuses_assignment_and_deletion():
    p = presentation()
    with pytest.raises(AttributeError):
        p.generators = 3
    with pytest.raises(AttributeError):
        p.relations = ()
    with pytest.raises(AttributeError):
        p.other = 1
    with pytest.raises(AttributeError):
        del p.generators
    assert p.generators == 2 and p == presentation()


def test_presentation_repr_and_the_reprs_that_embed_it():
    p = presentation()
    assert repr(p) == PRESENTATION_REPR
    assert repr(MonoidPresentation(0)) == "MonoidPresentation(generators=0, relations=())"
    assert repr(MonoidRing(ModRing(5), p)) == f"MonoidRing(ModRing(5), {PRESENTATION_REPR})"
    ring = MonoidRing(ModRing(6), MonoidPresentation(2, [[[1, 0], [0, 2]]]))
    with pytest.raises(UnsupportedFamilyError) as err:
        ring.is_nonzerodivisor(ring.add(ring.one, ring.epsilon((1, 0))))
    assert str(err.value) == (
        "zero-divisors are not decided over MonoidRing(ModRing(6), "
        "MonoidPresentation(generators=2, relations=(((1, 0), (0, 2)),)))"
    )


def test_structure_repr_and_equality():
    s = FGAbelianStructure(1, (2, 4))
    assert repr(s) == "FGAbelianStructure(free_rank=1, torsion_invariants=(2, 4))"
    assert s == FGAbelianStructure(free_rank=1, torsion_invariants=(2, 4))
    assert s != FGAbelianStructure(1, (8,)) and s != FGAbelianStructure(2, (2, 4))
    assert hash(s) == hash(FGAbelianStructure(1, (2, 4)))
    assert s == (1, (2, 4)) and s.order() is None
    assert FGAbelianStructure(0, (2, 4)).order() == 8
    assert FGAbelianStructure(0, ()).order() == 1
    assert type(s._replace(free_rank=0)) is FGAbelianStructure


def test_named_tuple_records_keep_reprs_and_hold_no_dict():
    from grothloc.localization import EmbeddingReport, SaturationSet, UnitsIsoReport
    from grothloc.ring import HomogeneousPart

    x = GrothElement((1, 0), (0, 2))
    assert repr(x) == "GrothElement(first=(1, 0), second=(0, 2))"
    assert x == ((1, 0), (0, 2)) and x.first == (1, 0)
    assert repr(HomogeneousPart((1,), 3)) == "HomogeneousPart(degree=(1,), value=3)"
    rep = EmbeddingReport([0, 1], [0, 1], True, True)
    assert rep.group_order == 2
    assert repr(rep) == "EmbeddingReport(classes=[0, 1], image=[0, 1], morphism_ok=True, injective=True)"
    sat = SaturationSet(None, None, (1,), {1: 1})
    iso = UnitsIsoReport(2, 2, True, True, False, sat)
    assert iso.iso is False and iso._replace(surjective=True).iso is True
    for rec in (x, FGAbelianStructure(1, ()), HomogeneousPart((1,), 3), rep, sat, iso):
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_snf_result_repr():
    """``.U`` is built once and matches the dense elimination: see
    test_snf.py::test_dense_u_is_built_on_first_read_only."""
    snf = smith_normal_form([[2, 4], [6, 9]])
    assert repr(snf) == (
        "SNFResult(D=[[1, 0], [0, 6]], V=[[0, 1], [1, -2]], invariant_factors=[1, 6], "
        "nrows=2, ncols=2, row_ops=[0, 1, -3, 1, 0, 1, 0, 1, 3])"
    )
