"""Localization at a multiplicative set, with exact fraction equality.

Denominators carry witnesses: tuples of generator indices whose product is
the denominator.  Arithmetic concatenates witnesses, so certificates never
expire; only user-facing construction consults the materialized closure
(complete for finite rings, generation-depth bounded otherwise).

Equality r/s = r'/s' is decided by exactly two strategies:
cross-multiplication when every denominator is a non-zero-divisor, and
exhaustive-witness over a finite ring.  There the closure is all of S and
e, the idempotent power of t0 = the product of all of S, lies in S and is
divisible by every t in S, so t*(r*s' - r'*s) = 0 for some t in S exactly
when e*(r*s' - r'*s) = 0.  Any other configuration is rejected outright.

A finite S gives fractions a hashable normal form, ``LocalizedRing.key``:
e*S is a group with identity e, S^-1 R is eR, and r/s goes to
e*r*(e*s)^-1 (e and every (e*s)^-1 are built on first use).  The classes,
the saturation and the non-zero-divisor flag are read off e and eR too.
Unit classes are dict lookups on this key, degree classes on
``GrothendieckGroup.key``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    OracleRequiredError,
    PreconditionError,
    UndecidableConfigurationError,
    UnsupportedFamilyError,
)
from .grothendieck import CayleyMonoid, GrothElement, GrothendieckGroup, kernel_group
from .ring import MonoidRing, degree_of, degree_sums, homogeneous_components


class Fraction:
    """r/s with a product-of-generators witness for s."""

    __slots__ = ("num", "den", "den_witness")

    def __init__(self, num, den, den_witness: tuple):
        self.num = num
        self.den = den
        self.den_witness = tuple(den_witness)

    def __repr__(self):
        return f"Fraction({self.num!r} / {self.den!r})"


class MultiplicativeSet:
    """Generators plus the materialized closure {products of generators}.

    The closure maps each reachable element to one witness (a tuple of
    generator indices).  For a finite base ring the closure is the full set;
    otherwise it holds products of at most ``depth`` generators.
    """

    def __init__(self, ring, generators, *, nzd: bool | None = None, depth: int = 8):
        self.ring = ring
        self.generators = [ring.validate(g) for g in generators]
        self.depth = depth
        self.closure = {ring.one: ()}
        frontier = [(ring.one, ())]
        rounds = 0
        while frontier and (ring.is_finite or rounds < depth):
            new = []
            for elem, wit in frontier:
                for i, g in enumerate(self.generators):
                    prod = ring.mul(elem, g)
                    if prod not in self.closure:
                        w = wit + (i,)
                        self.closure[prod] = w
                        new.append((prod, w))
            frontier = new
            rounds += 1
        self.complete = not frontier
        if nzd is None:
            # with no generators the closure is exactly {1}, which never
            # kills anything, so the flag is decidable over any base ring;
            # over a finite one a non-zero-divisor is a unit, so the flag asks
            # that the generators' product have idempotent power 1
            product = functools.reduce(ring.mul, self.generators, ring.one)
            self.nzd_flag = not self.generators or (
                ring.is_finite and kernel_group(ring.mul, [product])[0] == ring.one
            )
        else:
            self.nzd_flag = bool(nzd)
        self.homogeneous_flag = isinstance(ring, MonoidRing) and all(
            not g.is_zero() and len(g.coeffs) == 1 for g in self.generators
        )

    def contains(self, s) -> bool:
        return s in self.closure

    def witness(self, s) -> tuple:
        return self.closure[s]

    def product_of(self, witness) -> object:
        acc = self.ring.one
        for i in witness:
            acc = self.ring.mul(acc, self.generators[i])
        return acc


class LocalizedRing:
    """S^-1 R with witness-carrying fractions and exact equality."""

    is_field = False

    def __init__(self, ring, sset: MultiplicativeSet):
        if sset.ring != ring:
            raise PreconditionError("multiplicative set lives over a different ring")
        self.ring = ring
        self.sset = sset
        if sset.nzd_flag:
            self.strategy = "cross-multiplication"
        elif ring.is_finite:
            self.strategy = "exhaustive-witness"
        else:
            raise UndecidableConfigurationError(
                "fraction equality needs non-zero-divisor denominators "
                "or a finite base ring"
            )
        self.zero = Fraction(ring.zero, ring.one, ())
        self.one = Fraction(ring.one, ring.one, ())
        self.is_finite = ring.is_finite
        self._groth = None
        self._kernel = None

    # -- construction

    def frac(self, num, den=None, witness: tuple | None = None) -> Fraction:
        num = self.ring.validate(num)
        if den is None:
            return Fraction(num, self.ring.one, ())
        den = self.ring.validate(den)
        if witness is None:
            if not self.sset.contains(den):
                raise PreconditionError(
                    f"denominator {den!r} is outside the materialized closure"
                )
            witness = self.sset.witness(den)
        else:
            if not self.ring.eq(self.sset.product_of(witness), den):
                raise PreconditionError("witness does not multiply to the denominator")
        return Fraction(num, den, witness)

    def from_witness(self, num, witness: tuple) -> Fraction:
        return Fraction(
            self.ring.validate(num), self.sset.product_of(witness), witness
        )

    # -- arithmetic

    def add(self, f: Fraction, g: Fraction) -> Fraction:
        r = self.ring
        num = r.add(r.mul(f.num, g.den), r.mul(g.num, f.den))
        return Fraction(num, r.mul(f.den, g.den), f.den_witness + g.den_witness)

    def neg(self, f: Fraction) -> Fraction:
        return Fraction(self.ring.neg(f.num), f.den, f.den_witness)

    def sub(self, f: Fraction, g: Fraction) -> Fraction:
        return self.add(f, self.neg(g))

    def mul(self, f: Fraction, g: Fraction) -> Fraction:
        r = self.ring
        return Fraction(
            r.mul(f.num, g.num), r.mul(f.den, g.den), f.den_witness + g.den_witness
        )

    # -- equality

    def eq(self, f: Fraction, g: Fraction) -> bool:
        r = self.ring
        cross = r.sub(r.mul(f.num, g.den), r.mul(g.num, f.den))
        if self.strategy == "cross-multiplication":
            return r.is_zero(cross)
        if r.is_zero(cross):
            return True
        return r.is_zero(r.mul(self._kernel_inverses()[0], cross))

    def is_zero(self, f: Fraction) -> bool:
        return self.eq(f, self.zero)

    def _kernel_inverses(self) -> tuple:
        """``kernel_group`` of a complete closure, built on first use."""
        if self._kernel is None:
            if not self.sset.complete:
                raise UnsupportedFamilyError(
                    "a fraction key needs a completely materialized closure"
                )
            self._kernel = kernel_group(self.ring.mul, list(self.sset.closure))
        return self._kernel

    def key(self, f: Fraction):
        """e*r*(e*s)^-1 in eR: key(f) == key(g) exactly when eq(f, g).

        (e*s)^-1 lies in K, inside eR, so the factor e on r is implied.
        """
        e, inv, _ = self._kernel_inverses()
        r = self.ring
        try:
            return r.mul(f.num, inv[r.mul(e, f.den)])
        except KeyError:
            raise PreconditionError(f"denominator {f.den!r} is not in S") from None

    @property
    def groth_group(self) -> GrothendieckGroup:
        if self._groth is None:
            if not isinstance(self.ring, MonoidRing):
                raise UnsupportedFamilyError("grading needs a monoid-ring base")
            self._groth = GrothendieckGroup(self.ring.monoid)
        return self._groth


def sample_fraction(loc: LocalizedRing, rng, max_powers: int = 3, **sample_kw) -> Fraction:
    """Random fraction: sampled numerator over a random product of generators."""
    num = loc.ring.sample(rng, **sample_kw)
    k = rng.below(max_powers + 1)
    witness = tuple(
        rng.below(len(loc.sset.generators)) for _ in range(k)
    ) if loc.sset.generators else ()
    return loc.from_witness(num, witness)


# ---------------------------------------------------------------------------
# grading of a localized monoid ring


def fraction_degree(loc: LocalizedRing, f: Fraction) -> GrothElement:
    """[deg numerator, deg denominator] for a homogeneous nonzero fraction."""
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("degrees need a monoid-ring base")
    return GrothElement(degree_of(f.num), degree_of(f.den))


def decompose_fraction(loc: LocalizedRing, f: Fraction) -> dict:
    """Split a fraction into homogeneous components, keyed by degree class.

    The numerator splits degree by degree over the fixed denominator; keys
    [deg part, deg den] that collide in the Grothendieck group are merged,
    and components that vanish in the localization are dropped.
    """
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("decomposition needs a monoid-ring base")
    if not loc.sset.homogeneous_flag:
        raise PreconditionError("decomposition needs homogeneous denominators")
    group = loc.groth_group
    den_deg = degree_of(f.den)
    acc = {}
    for part in homogeneous_components(f.num):
        key = GrothElement(part.degree, den_deg)
        k = group.key(key)
        slot = acc.get(k)
        if slot is None:
            acc[k] = [key, part.value]
        else:
            slot[1] = slot[1] + part.value
    out = {}
    for key, num in acc.values():
        cand = Fraction(num, f.den, f.den_witness)
        if not loc.is_zero(cand):
            out[key] = cand
    return out


def sum_components(loc: LocalizedRing, parts) -> Fraction:
    acc = loc.zero
    for f in parts:
        acc = loc.add(acc, f)
    return acc


@dataclass
class SupportSubmonoid:
    """Materialized chunk of {[m, deg s]}; membership is a set lookup."""

    group: GrothendieckGroup
    members: list

    def __post_init__(self):
        self._keys = {self.group.key(x) for x in self.members}

    def contains(self, key: GrothElement) -> bool:
        return self.group.key(key) in self._keys

    def __len__(self):
        return len(self.members)


def support_submonoid(loc: LocalizedRing, m_degrees=None, depth: int = 8,
                      rounds: int = 1) -> SupportSubmonoid:
    """Degrees supporting the localization: classes [m, deg s].

    ``m_degrees`` seeds the monoid side (defaults to the full carrier when
    finite); the denominator side runs over products of at most ``depth``
    generator degrees.  ``rounds`` extra rounds of pairwise sums follow,
    with semantic deduplication throughout.
    """
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("support degrees need a monoid-ring base")
    if not loc.sset.homogeneous_flag:
        raise PreconditionError("support degrees need homogeneous denominators")
    monoid = loc.ring.monoid
    group = loc.groth_group
    if m_degrees is None:
        if not monoid.is_finite:
            raise PreconditionError("sample degrees are required for infinite monoids")
        m_degrees = list(monoid.elements())
    s_degs = degree_sums(monoid, [degree_of(g) for g in loc.sset.generators], depth)
    members = {}
    for m in m_degrees:
        for s in sorted(s_degs, key=lambda d: (d,) if isinstance(d, int) else d):
            key = GrothElement(monoid.validate(m), s)
            members.setdefault(group.key(key), key)
    for _ in range(rounds):
        fresh = {}
        current = list(members.values())
        for x in current:
            for y in current:
                z = group.add(x, y)
                k = group.key(z)
                if k not in members:
                    fresh.setdefault(k, z)
        if not fresh:
            break
        members.update(fresh)
    return SupportSubmonoid(group, list(members.values()))


# ---------------------------------------------------------------------------
# saturation


@dataclass
class SaturationSet:
    """S-bar = {a : a*b in S for some b}, with one witness b per element."""

    ring: object
    source: MultiplicativeSet
    elements: tuple
    witnesses: dict


def saturate(ring, sset: MultiplicativeSet) -> SaturationSet:
    """S-bar read off eR: a lies in S-bar exactly when x = e*a is a unit of eR.

    If a*b lies in S, e*a*b lies in the group e*S.  Conversely, when
    ``kernel_group`` of x alone has identity e, it gives x*c = e with c in
    eR, so a*c = e lies in S and c is a's witness.
    """
    if not ring.is_finite:
        raise OracleRequiredError(
            "saturation over an infinite ring needs externally supplied witnesses"
        )
    e = kernel_group(ring.mul, [functools.reduce(ring.mul, sset.closure)])[0]
    inverses = {}  # x -> its inverse in eR, or None when x is no unit
    witnesses = {}
    for a in ring.elements():
        x = ring.mul(e, a)
        if x not in inverses:
            f, inv, _ = kernel_group(ring.mul, [x])
            inverses[x] = inv[x] if f == e else None
        if inverses[x] is not None:
            witnesses[a] = inverses[x]
    return SaturationSet(ring, sset, tuple(witnesses), witnesses)


# ---------------------------------------------------------------------------
# unit groups of finite localizations


@dataclass
class UnitGroup:
    """Unit classes of a finite localization, with their multiplication."""

    loc: LocalizedRing
    class_reps: list
    table: list
    identity_index: int
    unit_indices: list
    index: dict  # LocalizedRing.key -> position in class_reps

    def order(self) -> int:
        return len(self.unit_indices)

    def class_count(self) -> int:
        return len(self.class_reps)

    def classify(self, f: Fraction) -> int:
        try:
            return self.index[self.loc.key(f)]
        except KeyError:
            raise PreconditionError("fraction escapes the enumerated classes") from None

    def to_cayley(self) -> CayleyMonoid:
        """The unit classes re-indexed 0..k-1 as an explicit table."""
        pos = {ci: i for i, ci in enumerate(self.unit_indices)}
        table = [
            [pos[self.table[a][b]] for b in self.unit_indices]
            for a in self.unit_indices
        ]
        return CayleyMonoid(table, identity=pos[self.identity_index])


def localization_classes(loc: LocalizedRing) -> list:
    """Equality-class representatives of all r/s, first-seen order."""
    if not loc.ring.is_finite:
        raise UnsupportedFamilyError("class enumeration needs a finite ring")
    reps = {}
    for r in loc.ring.elements():
        # r's keys e*r*(e*s)^-1 form the orbit e*r*(e*S): all new or all seen
        if loc.key(Fraction(r, loc.ring.one, ())) in reps:
            continue
        for s, wit in loc.sset.closure.items():
            f = Fraction(r, s, wit)
            reps.setdefault(loc.key(f), f)
    return list(reps.values())


def units_of_localization(loc: LocalizedRing) -> UnitGroup:
    reps = localization_classes(loc)
    index = {loc.key(f): i for i, f in enumerate(reps)}
    table = [
        [index[loc.key(loc.mul(a, b))] for b in reps]
        for a in reps
    ]
    one_idx = index[loc.key(loc.one)]
    unit_indices = [i for i, row in enumerate(table) if one_idx in row]
    return UnitGroup(loc, reps, table, one_idx, unit_indices, index)


# ---------------------------------------------------------------------------
# Grothendieck group of S versus units of the localization


@dataclass
class EmbeddingReport:
    classes: list
    image: list
    morphism_ok: bool
    injective: bool

    @property
    def group_order(self) -> int:
        return len(self.classes)


def _units_map(carrier: list, loc: LocalizedRing, embed):
    """G(S) -> S^-1 R, [s, t] -> embed(s, t): (report, image keys).

    ``carrier`` lists, 1 first, the S of ``loc`` or its saturation, whose
    idempotent power of the product is e as well (e*a is a unit of eR for
    every a in S-bar).  G(S) is the kernel group e*S, with [s, t] at
    s*(t*e)^-1.  As t runs over S, t*e runs over e*S, so the classes [1, t]
    are all of G(S), and [1, t] = [1, t'] exactly when t*e = t'*e.  Each
    class is represented by [1, t] for its first t.  The morphism law
    compares keys on every pair of classes; injectivity asks that the image
    keys be distinct.
    """
    one, mul = loc.ring.one, loc.ring.mul
    e = loc._kernel_inverses()[0]
    reps = {}
    for t in carrier:
        reps.setdefault(mul(t, e), GrothElement(one, t))
    classes = list(reps.values())
    image = [embed(s, t) for s, t in classes]
    keys = [loc.key(f) for f in image]
    morphism_ok = all(
        loc.key(embed(mul(x.first, y.first), mul(x.second, y.second)))
        == loc.key(loc.mul(image[i], image[j]))
        for i, x in enumerate(classes)
        for j, y in enumerate(classes)
    )
    injective = len(set(keys)) == len(keys)
    return EmbeddingReport(classes, image, morphism_ok, injective), keys


def groth_units_embedding(sset: MultiplicativeSet, loc: LocalizedRing) -> EmbeddingReport:
    """G(S) -> (S^-1 R)*: the class [s, t] goes to the fraction s/t.

    Both the morphism law and injectivity are checked exhaustively over the
    enumerated classes.
    """
    return _units_map(
        list(sset.closure), loc, lambda s, t: Fraction(s, t, sset.witness(t))
    )[0]


@dataclass
class UnitsIsoReport:
    groth_order: int
    unit_order: int
    morphism_ok: bool
    injective: bool
    surjective: bool
    saturation: SaturationSet

    @property
    def iso(self) -> bool:
        return self.morphism_ok and self.injective and self.surjective


def groth_units_iso(sset: MultiplicativeSet, loc: LocalizedRing) -> UnitsIsoReport:
    """G(S-bar) = (S^-1 R)*: [s, t] goes to (s*b)/(t*b) with t*b in S.

    The saturation witness b turns a saturation denominator into a genuine
    one.  Morphism law, injectivity, and surjectivity onto the unit classes
    are all checked exhaustively; surjectivity asks that the image keys be
    exactly the keys of the unit classes.
    """
    ring = loc.ring
    sat = saturate(ring, sset)

    def embed(s, t) -> Fraction:
        b = sat.witnesses[t]
        den = ring.mul(t, b)
        return Fraction(ring.mul(s, b), den, sset.witness(den))

    carrier = [ring.one] + [a for a in sat.elements if a != ring.one]
    emb, keys = _units_map(carrier, loc, embed)
    units = units_of_localization(loc)
    unit_keys = {loc.key(units.class_reps[i]) for i in units.unit_indices}
    return UnitsIsoReport(
        groth_order=emb.group_order,
        unit_order=units.order(),
        morphism_ok=emb.morphism_ok,
        injective=emb.injective,
        surjective=set(keys) == unit_keys,
        saturation=sat,
    )


# ---------------------------------------------------------------------------
# ideals of finite rings and the 1 + I construction


def ideal_closure(ring, gens) -> frozenset:
    """Smallest ideal containing gens: close under + and ambient products."""
    elems = list(ring.elements())
    ideal = {ring.zero} | {ring.validate(g) for g in gens}
    changed = True
    while changed:
        changed = False
        for x in list(ideal):
            for y in list(ideal):
                s = ring.add(x, y)
                if s not in ideal:
                    ideal.add(s)
                    changed = True
            for r in elems:
                p = ring.mul(r, x)
                if p not in ideal:
                    ideal.add(p)
                    changed = True
    return frozenset(ideal)


def enumerate_ideals(ring) -> list:
    """All ideals of a finite ring, grown one generator at a time."""
    if not ring.is_finite:
        raise UnsupportedFamilyError("ideal enumeration needs a finite ring")
    elems = list(ring.elements())
    seen = {ideal_closure(ring, [])}
    frontier = list(seen)
    while frontier:
        new = []
        for ideal in frontier:
            for a in elems:
                if a in ideal:
                    continue
                bigger = ideal_closure(ring, list(ideal) + [a])
                if bigger not in seen:
                    seen.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def maximal_ideals(ring) -> list:
    all_elems = frozenset(ring.elements())
    proper = [i for i in enumerate_ideals(ring) if i != all_elems]
    return [
        i for i in proper
        if not any(i < j for j in proper)
    ]


def prime_ideals(ring) -> list:
    all_elems = frozenset(ring.elements())
    out = []
    for p in enumerate_ideals(ring):
        if p == all_elems:
            continue
        comp = [a for a in ring.elements() if a not in p]
        if all(ring.mul(a, b) not in p for a in comp for b in comp):
            out.append(p)
    return out


def one_plus_ideal_check(ring, ideal_gens) -> dict:
    """S = 1 + I: saturation must be the complement of the maximal ideals over I.

    Also verifies G(S-bar) = (S^-1 R)* on the same instance.  T is the
    complement of the union of maximal ideals containing I (all of R when no
    maximal ideal contains I).
    """
    if not ring.is_finite:
        raise UnsupportedFamilyError("this check sweeps a finite ring")
    ideal = ideal_closure(ring, ideal_gens)
    s_elems = sorted({ring.add(ring.one, i) for i in ideal})
    sset = MultiplicativeSet(ring, s_elems)
    loc = LocalizedRing(ring, sset)
    over = [m for m in maximal_ideals(ring) if ideal <= m]
    excluded = set().union(*over) if over else set()
    t_elems = sorted(a for a in ring.elements() if a not in excluded)
    report = groth_units_iso(sset, loc)
    return {
        "ideal_size": len(ideal),
        "s_size": len(s_elems),
        "t_size": len(t_elems),
        "saturation_equals_t": sorted(report.saturation.elements) == t_elems,
        "iso_ok": report.iso,
        "unit_count": report.unit_order,
        "groth_order": report.groth_order,
    }


# ---------------------------------------------------------------------------
# the polynomial-ring gap between S and its saturation


def kx_counterexample_check(p: int = 5, samples: int = 50, seed: int = 0) -> dict:
    """K[x] with S generated by nonzero constants and x^2, x^3.

    x itself lies in the saturation (witness x, since x*x = x^2) but not in
    S: every S element is a product of generators, so its degree is a sum of
    generator degrees, all of which are 0 or >= 2; degree 1 is unreachable.
    Units of the localization are still quotients of S elements, checked by
    rewriting sampled units s/t after multiplying through by x^2.
    """
    from .monoid import FreeCommutativeMonoid
    from .ring import ModRing
    from .rng import Lcg64

    K = ModRing(p)
    M = FreeCommutativeMonoid(1)
    R = MonoidRing(K, M)
    gens = [R.scalar(c) for c in range(2, p)] + [R.epsilon((2,)), R.epsilon((3,))]
    sset = MultiplicativeSet(R, gens, nzd=True, depth=8)
    loc = LocalizedRing(R, sset)
    x = R.epsilon((1,))

    x_in_saturation = sset.contains(x * x)
    gen_degs = [degree_of(g)[0] for g in gens]
    min_pos = min(d for d in gen_degs if d > 0)
    # a product of generators has degree 0 (all constants) or >= min_pos,
    # so degree 1 is reachable only if some positive generator degree is 1
    degree_one_reachable = min_pos <= 1
    x_in_s = sset.contains(x)

    x2 = R.epsilon((2,))
    x3 = R.epsilon((3,))
    rewrite_example_ok = (
        loc.eq(loc.frac(x), Fraction(x3, x2, sset.witness(x2)))
        and sset.contains(x3)
        and sset.contains(x2)
    )

    rng = Lcg64(seed)
    rewrites_ok = 0
    for _ in range(samples):
        a = K.sample_nonzero(rng)
        m = rng.below(8)
        num = R.element({(m,): a})
        k = rng.below(4)
        wit = tuple(rng.below(len(gens)) for _ in range(k))
        den = sset.product_of(wit)
        f = Fraction(num, den, wit)
        if m == 1:
            s = num * x2
            t = den * x2
        else:
            s = num
            t = den
        ok = (
            sset.contains(s)
            and sset.contains(t)
            and loc.eq(f, Fraction(s, t, sset.witness(t)))
        )
        rewrites_ok += ok
    return {
        "modulus": p,
        "x_in_s": x_in_s,
        "x_in_saturation": bool(x_in_saturation),
        "degree_one_reachable": bool(degree_one_reachable),
        "rewrite_example_ok": bool(rewrite_example_ok),
        "unit_samples": samples,
        "unit_rewrites_ok": rewrites_ok,
    }
