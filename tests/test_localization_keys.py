"""LocalizedRing.key against the scans it replaced (tests/oracles.py).

For a finite multiplicative set S, key(r/s) = e*r*(e*s)^-1 in eR, where e
is the idempotent power of the product of S.  key(f) == key(g) must hold
exactly when t*(r*s' - r'*s) = 0 for some t in S.  The class
representatives and their order, the unit classes and their table, the
saturation, the non-zero-divisor flag, and the embedding and
unit-correspondence reports must equal the pairwise scans and sweeps.
"""
import math
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    CayleyMonoid,
    Fraction,
    GrothendieckGroup,
    IntegerRing,
    LocalizedRing,
    ModRing,
    MonoidRing,
    MultiplicativeSet,
    PreconditionError,
    UnsupportedFamilyError,
    groth_units_embedding,
    groth_units_iso,
    localization_classes,
    saturate,
    units_of_localization,
)
from grothloc import localization
from grothloc.localization import SaturationSet, _units_map

import zoo
from oracles import (
    all_pairs_units_map,
    killed_by_s,
    mod_units,
    per_element_saturation,
    per_element_unit_indices,
    raw_loc_eq,
    scan_localization_classes,
    scan_saturation,
    scan_units,
    scan_units_embedding,
    scan_units_iso,
    scan_units_map,
    sweep_is_nzd,
    unit_table,
)


def plain(f):
    return (f.num, f.den, f.den_witness)


def fractions(loc):
    return [
        Fraction(r, s, wit)
        for r in loc.ring.elements()
        for s, wit in loc.sset.closure.items()
    ]


def check_key_partition(loc):
    """Every fraction shares its key with its scan class, and only with it."""
    killed = killed_by_s(loc)
    reps = scan_localization_classes(loc, killed)
    rep_keys = [loc.key(rep) for rep in reps]
    assert len(set(rep_keys)) == len(reps)
    for f in fractions(loc):
        i = next(i for i, rep in enumerate(reps) if raw_loc_eq(loc, killed, f, rep))
        assert loc.key(f) == rep_keys[i], (f, reps[i])
    assert [plain(f) for f in localization_classes(loc)] == [plain(f) for f in reps]


def check_every_pair(loc):
    """key and eq against the literal definition, every t of S tried."""
    ring = loc.ring
    svals = list(loc.sset.closure)
    fracs = fractions(loc)
    keys = [loc.key(f) for f in fracs]
    for f, kf in zip(fracs, keys):
        for g, kg in zip(fracs, keys):
            cross = ring.sub(ring.mul(f.num, g.den), ring.mul(g.num, f.den))
            want = any(ring.is_zero(ring.mul(t, cross)) for t in svals)
            assert (kf == kg) == want, (f, g)
            assert loc.eq(f, g) == want, (f, g)


def check_saturation_and_nzd(sset):
    """Saturation elements against the R x R search, each a*witness in S,
    and the non-zero-divisor flag against a sweep of R per generator."""
    ring = sset.ring
    sat = saturate(ring, sset)
    assert sat.elements == scan_saturation(ring, sset)[0]
    assert tuple(sat.witnesses) == sat.elements
    assert list(sat.witnesses.items()) == list(per_element_saturation(ring, sset)[1].items())
    for a, b in sat.witnesses.items():
        assert sset.contains(ring.mul(a, b)), (a, b)
    assert sset.nzd_flag == all(sweep_is_nzd(ring, g) for g in sset.generators)


def check_units_and_reports(sset, loc):
    check_saturation_and_nzd(sset)
    units = units_of_localization(loc)
    reps, table, one, unit_indices = scan_units(loc)
    assert [plain(f) for f in units.class_reps] == [plain(f) for f in reps]
    assert units.to_cayley().table == unit_table(table, unit_indices)
    assert units.identity_index == one
    assert units.unit_indices == unit_indices
    assert units.unit_indices == per_element_unit_indices(loc)
    assert [units.classify(f) for f in reps] == list(range(len(reps)))

    emb = groth_units_embedding(sset, loc)
    assert {
        "group_order": emb.group_order,
        "morphism_ok": emb.morphism_ok,
        "injective": emb.injective,
    } == scan_units_embedding(sset, loc)

    iso = groth_units_iso(sset, loc)
    assert {
        "groth_order": iso.groth_order,
        "unit_order": iso.unit_order,
        "morphism_ok": iso.morphism_ok,
        "injective": iso.injective,
        "surjective": iso.surjective,
        "saturation": iso.saturation.elements,
    } == scan_units_iso(sset, loc)
    assert iso.iso


def zmod_generator_sets(n):
    """Zero, a zero-divisor, an idempotent, a unit, and mixtures."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    idem = [a for a in range(2, n) if a * a % n == a]
    sets = [[], [0], [p], [n - 1], [p, n - 1], [p * p % n, n - 1]]
    if idem:
        sets += [[idem[0]], [idem[-1], p]]
    out = []
    for gens in sets:
        if gens not in out:
            out.append(gens)
    return out


@pytest.mark.parametrize("n", range(2, 41))
def test_zmod_keys_match_definition(n):
    ring = ModRing(n)
    for gens in zmod_generator_sets(n):
        loc = LocalizedRing(ring, MultiplicativeSet(ring, gens))
        check_key_partition(loc)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12])
def test_small_zmod_every_pair(n):
    ring = ModRing(n)
    for gens in zmod_generator_sets(n):
        check_every_pair(LocalizedRing(ring, MultiplicativeSet(ring, gens)))


@pytest.mark.parametrize("n", range(2, 61))
def test_zmod_units_and_reports(n):
    ring = ModRing(n)
    for gens in zmod_generator_sets(n):
        sset = MultiplicativeSet(ring, gens)
        check_units_and_reports(sset, LocalizedRing(ring, sset))


@pytest.mark.parametrize("n", range(2, 61))
def test_zmod_saturation_and_nzd_every_generator(n):
    ring = ModRing(n)
    for gens in [[a] for a in range(n)] + zmod_generator_sets(n):
        check_saturation_and_nzd(MultiplicativeSet(ring, gens))


@given(st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=3))
))
def test_hypothesis_zmod(case):
    n, gens = case
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    check_key_partition(loc)
    check_units_and_reports(sset, loc)


def z2_under_mult():
    """{0, 1} under multiplication mod 2, identity 1."""
    return CayleyMonoid(zoo.mult_mod_table(2), identity=1)


def monoid_ring_cases():
    """(label, ring, generators): units, zero-divisors and idempotents, some
    of them non-homogeneous."""
    f2t2 = MonoidRing(ModRing(2), zoo.t2())
    f3z2 = MonoidRing(ModRing(3), z2_under_mult())
    f2t3 = MonoidRing(ModRing(2), zoo.t3())
    f2c3 = MonoidRing(ModRing(2), CayleyMonoid(zoo.cyclic_table(3)))
    return [
        ("F2[T2] at x", f2t2, [f2t2.epsilon(1)]),
        ("F2[T2] at 1+x", f2t2, [f2t2.one + f2t2.epsilon(1)]),
        ("F3[Z2.] at eps0", f3z2, [f3z2.epsilon(0)]),
        ("F3[Z2.] at eps0+2eps1", f3z2, [f3z2.epsilon(0) + f3z2.element({1: 2})]),
        ("F3[Z2.] at 2, eps0+eps1", f3z2, [f3z2.scalar(2), f3z2.epsilon(0) + f3z2.one]),
        ("F2[T3] at x1", f2t3, [f2t3.epsilon(1)]),
        ("F2[T3] at x1+x2", f2t3, [f2t3.epsilon(1) + f2t3.epsilon(2)]),
        ("F2[T3] at 1+x2, x1", f2t3, [f2t3.one + f2t3.epsilon(2), f2t3.epsilon(1)]),
        ("F2[Z3] at x", f2c3, [f2c3.epsilon(1)]),
        ("F2[Z3] at 1+x", f2c3, [f2c3.one + f2c3.epsilon(1)]),
        ("F2[Z3] at 1+x+x2", f2c3, [f2c3.one + f2c3.epsilon(1) + f2c3.epsilon(2)]),
    ]


@pytest.mark.parametrize(
    "label,ring,gens", monoid_ring_cases(), ids=[c[0] for c in monoid_ring_cases()]
)
def test_monoid_ring_keys(label, ring, gens):
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    check_every_pair(loc)
    check_key_partition(loc)
    check_units_and_reports(sset, loc)


def test_power_inverses_settle_every_power():
    """Each power of an x in eR maps to its inverse in eR when a power of x
    is e, and to None otherwise, as ``kernel_group`` of that power alone says:
    from a fresh walk, and from walks that stop at a power settled before."""
    for n in (2, 12, 30, 64, 105):
        ring = ModRing(n)
        for e in (a for a in range(n) if a * a % n == a):
            eR = sorted({e * a % n for a in range(n)})
            settled = {}
            for x in eR:
                for before in ({}, settled):
                    if x in before:
                        continue
                    got = localization._power_inverses(ring.mul, x, e, before)
                    assert x in got and not got.keys() & before.keys()
                    for y, inv in got.items():
                        f, want, _ = localization.kernel_group(ring.mul, [y])
                        assert inv == (want[y] if f == e else None), (n, e, x, y)
                settled.update(got)
            assert settled.keys() == set(eR)


@pytest.mark.parametrize("n, gens, bound", [
    (2000, [7], 100_000), (1200, [2], None), (720, [6, 7], None), (1000, [4], None),
])
def test_one_walk_per_cycle_matches_per_element_walks(n, gens, bound):
    """Saturation witnesses (in order) and unit classes equal the per-element
    walks, and settling each cycle once needs under 100 000 products on
    Z/2000 at [7], where a walk per element took about 315 000 (saturation)
    and 224 000 (unit classes)."""
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    want_sat = list(per_element_saturation(ring, sset)[1].items())
    want_units = per_element_unit_indices(loc)
    calls = []
    honest = ring.mul

    def counting(a, b):
        calls.append(None)
        return honest(a, b)

    ring.mul = counting
    assert list(saturate(ring, sset).witnesses.items()) == want_sat
    assert bound is None or len(calls) < bound, len(calls)
    calls.clear()
    assert units_of_localization(loc).unit_indices == want_units
    assert bound is None or len(calls) < bound, len(calls)


@pytest.mark.parametrize("n, saturate_bound, units_bound", [
    (2000, 8_000, 25_000), (8000, 30_000, 120_000),
])
def test_walks_stop_at_the_first_settled_power(n, saturate_bound, units_bound):
    """Z/n at [7]: a walk that stops at the first power already settled and
    reads the inverses off it keeps ``saturate`` under 8 000 products on
    Z/2000 (a walk of each whole cycle took 39 701) and under 30 000 on
    Z/8000 (189 372); the unit classes take under 25 000 (52 942) and
    120 000 (256 849)."""
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, [7])
    loc = LocalizedRing(ring, sset)
    sset.closure
    loc._kernel_inverses()
    calls = []
    honest = ring.mul

    def counting(a, b):
        calls.append(None)
        return honest(a, b)

    ring.mul = counting
    sat = saturate(ring, sset)
    assert len(calls) < saturate_bound, len(calls)
    assert len(sat.elements) == n * 2 // 5  # phi(n) for n = 2^a * 5^b
    calls.clear()
    units = units_of_localization(loc)
    assert len(calls) < units_bound, len(calls)
    assert units.order() == n * 2 // 5


def test_key_needs_a_complete_closure():
    zz = IntegerRing()
    loc = LocalizedRing(zz, MultiplicativeSet(zz, [2]))
    with pytest.raises(UnsupportedFamilyError):
        loc.key(loc.frac(1, 2))


def test_key_over_a_finite_set_of_an_infinite_ring():
    """S = {1, -1} in Z: the closure is complete, so G(S) still embeds."""
    zz = IntegerRing()
    sset = MultiplicativeSet(zz, [-1])
    loc = LocalizedRing(zz, sset)
    assert loc.key(loc.frac(3, -1)) == loc.key(loc.frac(-3)) == -3
    rep = groth_units_embedding(sset, loc)
    assert rep.group_order == 2 and rep.morphism_ok and rep.injective


def test_classify_rejects_foreign_denominators():
    ring = ModRing(12)
    loc = LocalizedRing(ring, MultiplicativeSet(ring, [4]))
    units = units_of_localization(loc)
    with pytest.raises(PreconditionError):
        units.classify(Fraction(1, 3, ()))


def wrong_maps(sset, loc):
    """G(S) -> S^-1 R candidates: the embedding s/t and maps that break the
    morphism law or injectivity.  "(s+1)/t off 1" sends the identity class
    [1, 1] to 1/1, so it passes every check against the identity."""
    ring = loc.ring
    return {
        "s/t": lambda s, t: Fraction(s, t, sset.witness(t)),
        "one": lambda s, t: loc.one,
        "s/1": lambda s, t: loc.frac(s),
        "(s+1)/t": lambda s, t: Fraction(ring.add(s, 1), t, sset.witness(t)),
        "(s+1)/t off 1": lambda s, t: Fraction(
            s if t == ring.one else ring.add(s, 1), t, sset.witness(t)
        ),
    }


WRONG_MAP_CASES = [(12, [4]), (12, [5]), (20, [3, 4]), (30, [7]), (36, [5, 4]), (24, [5, 7])]


def units_map_disagreements(n, gens):
    """Names of the wrong maps on which _units_map and the all-pairs law differ."""
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    out = []
    for name, embed in wrong_maps(sset, loc).items():
        got, _ = _units_map(list(sset.closure), loc, embed)
        want, _ = all_pairs_units_map(list(sset.closure), loc, embed)
        if (got.morphism_ok, got.injective) != (want.morphism_ok, want.injective):
            out.append(name)
    return out


@pytest.mark.parametrize("n,gens", WRONG_MAP_CASES)
def test_units_map_checks_match_scan_on_wrong_maps(n, gens):
    """The morphism and injectivity checks themselves, fed maps that break
    them, against the pairwise scan and the all-pairs law."""
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    killed = killed_by_s(loc)
    seen = set()
    for name, embed in wrong_maps(sset, loc).items():
        rep, keys = _units_map(list(sset.closure), loc, embed)
        image, morphism_ok, injective = scan_units_map(sset, loc, killed, embed)
        pairs, pair_keys = all_pairs_units_map(list(sset.closure), loc, embed)
        assert [plain(f) for f in rep.image] == [plain(f) for f in image], name
        assert (rep.morphism_ok, rep.injective) == (morphism_ok, injective), name
        assert (pairs.morphism_ok, pairs.injective) == (morphism_ok, injective), name
        assert keys == pair_keys == [loc.key(f) for f in image]
        seen.add((morphism_ok, injective))
    assert len(seen) > 1


def test_units_map_law_needs_a_generating_set(monkeypatch):
    """A mutant that checks the law against the identity class alone, whose
    A generates only the trivial subgroup, passes "(s+1)/t off 1", which the
    all-pairs law rejects; the honest generating set agrees everywhere."""
    assert not any(units_map_disagreements(n, gens) for n, gens in WRONG_MAP_CASES)
    monkeypatch.setattr(localization, "_group_generators", lambda elems, mul: [])
    assert units_map_disagreements(30, [7]) == ["(s+1)/t off 1"]


def test_group_generators_generate():
    """The greedy set generates the group, in carrier order, and each choice
    at least doubles the subgroup, so |A| <= log2 |G|."""
    for n, g in ((1000, 3), (24, 5), (720, 7), (8000, 7)):
        ring = ModRing(n)
        units = [1] + [a for a in range(2, n) if gcd(a, n) == 1]
        gens = localization._group_generators(units, ring.mul)
        assert gens == sorted(gens) and len(gens) <= math.log2(len(units))
        span = {1}
        for i in gens:
            while not {ring.mul(x, units[i]) for x in span} <= span:
                span |= {ring.mul(x, units[i]) for x in span}
        assert span == set(units), (n, gens)
    assert localization._group_generators([5], ModRing(10).mul) == []


@pytest.mark.parametrize("n,gens", [(1000, [3]), (1000, [3, 7]), (720, [7, 11, 13])])
def test_units_map_key_calls_grow_with_the_generators(n, gens, monkeypatch):
    """At most 3*|G|*(|A| + 1) LocalizedRing.key calls, |A| <= log2 |G|: one
    per class for its image, two per (class, generator) pair.  The all-pairs
    law makes |G| + 2|G|^2."""
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    calls = []
    honest = LocalizedRing.key

    def counted(self, f):
        calls.append(f)
        return honest(self, f)

    monkeypatch.setattr(LocalizedRing, "key", counted)
    rep = groth_units_embedding(sset, loc)
    size = rep.group_order
    assert size >= 64 and rep.morphism_ok and rep.injective
    assert len(calls) <= 3 * size * (math.log2(size) + 1)


@pytest.mark.parametrize("n,gens", [(12, [4]), (12, [5]), (24, [2, 5]), (30, [3]), (40, [7])])
def test_surjectivity_fails_without_the_saturation(n, gens, monkeypatch):
    """With S in place of its saturation, the image is onto exactly when G(S)
    already has as many elements as the unit group."""
    ring = ModRing(n)
    sset = MultiplicativeSet(ring, gens)
    loc = LocalizedRing(ring, sset)
    unit_order = len(scan_units(loc)[3])
    group_order = scan_units_embedding(sset, loc)["group_order"]

    def bare(ring, sset):
        closure = tuple(sset.closure)
        return SaturationSet(ring, sset, closure, {t: ring.one for t in closure})

    monkeypatch.setattr(localization, "saturate", bare)
    rep = groth_units_iso(sset, loc)
    assert rep.morphism_ok and rep.injective
    assert rep.surjective == (group_order == unit_order)


def test_units_map_builds_no_table(monkeypatch):
    """G(S-bar) is read off the kernel group of S-bar: no Cayley table of
    S-bar and no Grothendieck group over it are built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a table or group was built for S")

    monkeypatch.setattr(CayleyMonoid, "__init__", refuse)
    monkeypatch.setattr(GrothendieckGroup, "__init__", refuse)
    ring = ModRing(120)
    sset = MultiplicativeSet(ring, [2])
    rep = groth_units_iso(sset, LocalizedRing(ring, sset))
    assert rep.iso and rep.groth_order == rep.unit_order == 8
    assert len(rep.saturation.elements) == 64


def test_units_build_no_class_table(monkeypatch):
    """Unit classes are the keys whose idempotent power is e: on Z/200 at [7]
    (e = 1, 200 classes) no product of two classes is formed."""
    calls = [0]
    mul = LocalizedRing.mul

    def counting(self, f, g):
        calls[0] += 1
        return mul(self, f, g)

    monkeypatch.setattr(LocalizedRing, "mul", counting)
    ring = ModRing(200)
    loc = LocalizedRing(ring, MultiplicativeSet(ring, [7]))
    units = units_of_localization(loc)
    assert calls[0] == 0
    assert len(units.class_reps) == 200
    assert sorted(loc.key(units.class_reps[i]) for i in units.unit_indices) == mod_units(200)


def test_nzd_flag_sweeps_no_ring(monkeypatch):
    """Over Z/6[Z/7], eps_1 is a unit and 2*eps_1 a zero-divisor; the flag is
    read off each generator's coefficient and translation, never off the
    6^7 elements of the ring."""
    def refuse(self):
        raise AssertionError("the flag enumerated the ring")

    monkeypatch.setattr(MonoidRing, "elements", refuse)
    mring = MonoidRing(ModRing(6), CayleyMonoid(zoo.cyclic_table(7)))
    x = mring.epsilon(1)
    assert MultiplicativeSet(mring, [x]).nzd_flag
    assert not MultiplicativeSet(mring, [x, mring.scalar(2)]).nzd_flag


def test_unit_correspondence_multiplications_grow_slowly(monkeypatch):
    """Z/n at [2] for n = 2000 and 4000: eR is Z/125 for both, so doubling n
    may add at most linear work.  ModRing.mul calls are counted, not timed."""
    calls = [0]
    mul = ModRing.mul

    def counting(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(ModRing, "mul", counting)
    counts = {}
    for n in (2000, 4000):
        ring = ModRing(n)
        sset = MultiplicativeSet(ring, [2])
        loc = LocalizedRing(ring, sset)
        calls[0] = 0
        emb = groth_units_embedding(sset, loc)
        iso = groth_units_iso(sset, loc)
        assert emb.morphism_ok and emb.injective and iso.iso
        counts[n] = calls[0]
    assert counts[4000] < 2 * counts[2000], counts
