"""Localization at a multiplicative set, with exact fraction equality.

Denominators carry witnesses: tuples of generator indices whose product is
the denominator.  Arithmetic concatenates witnesses, so certificates never
expire; only user-facing construction consults the materialized closure
(built on first read; complete for finite rings, products of at most
``CLOSURE_DEPTH`` generators otherwise).

Equality r/s = r'/s' is decided by exactly two strategies:
cross-multiplication when the ring's ``is_nonzerodivisor`` passes every
generator of S, and exhaustive-witness over a finite ring.  There e, the
idempotent power of the product of all of S, lies in S and is divisible by
every t in S, so t*(r*s' - r'*s) = 0 for some t in S exactly when
e*(r*s' - r'*s) = 0.  The idempotent powers of commuting x and y multiply
to that of x*y, and every power x^k, k >= 1, has the idempotent power of x,
so e is also the idempotent power of g_1*...*g_k, the product of the
generators (``MultiplicativeSet.idempotent``): no closure is built to
compare fractions.  Both strategies compare r*s' with r'*s and never
subtract.  Any other configuration is rejected outright.

A finite S gives fractions a hashable normal form, ``LocalizedRing.key``:
e*S is a group with identity e, S^-1 R is isomorphic to eR (Atiyah and
Macdonald, ch. 3), and r/s goes to e*r*(e*s)^-1.  One ``CornerRing`` per
multiplicative set (``MultiplicativeSet.corner``) holds the inverses of
the units of eR, so the keys, the saturation and the unit classes are all
read off it; over Z/n, eR is Z/n' with n' = n // gcd(e, n).  Class lookups
are dicts on this key, degree classes on ``GrothendieckGroup.key``.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from math import gcd

from .errors import (
    InvalidInputError,
    OracleRequiredError,
    PreconditionError,
    UndecidableConfigurationError,
    UnsupportedFamilyError,
)
from .grothendieck import GrothElement, GrothendieckGroup
from .monoid import CayleyMonoid, FreeCommutativeMonoid, idempotent_power
from .ring import ModRing, MonoidRing, MRElement, _is_prime, degree_of
from .rng import Lcg64

# over an infinite ring the closure keeps products of at most this many generators
CLOSURE_DEPTH = 8


class Fraction:
    """r/s with a product-of-generators witness for s."""

    __slots__ = ("num", "den", "den_witness")

    def __init__(self, num, den, den_witness: tuple):
        self.num = num
        self.den = den
        self.den_witness = tuple(den_witness)

    def __repr__(self):
        return f"Fraction({self.num!r} / {self.den!r})"


def _decided_nzd(ring, g) -> bool:
    try:
        return ring.is_nonzerodivisor(g)
    except UnsupportedFamilyError:
        return False


def _power_inverses(mul, x, e, settled: dict, limit=None) -> dict:
    """The powers of x in eR that ``settled`` lacks, each mapped to its
    inverse in eR, or to None when no power of x is e.

    The powers of x share one idempotent power, so they are all units or all
    not.  The walk x, x^2, ... stops at the first repeat or at the first
    power y = x^k already in ``settled``.  On a repeat, when x^p = e first,
    x^(p+1) = x closes the walk and x^i, x^(p-i) are inverse.  At a settled
    y with inverse y', x^i has inverse x^(k-i)*y', one product each; at a
    settled non-unit every walked power is one too.  A walk that would pass
    ``limit`` powers stops, and x alone is settled as None: no power of x up
    to x^limit is e.
    """
    powers, seen = [x], {x}
    y = mul(x, x)
    while y not in seen and y not in settled:
        if len(powers) == limit:
            return {x: None}
        powers.append(y)
        seen.add(y)
        y = mul(y, x)
    if y in settled:
        inv = settled[y]
        if inv is None:
            return dict.fromkeys(powers)
        return {p: mul(q, inv) for p, q in zip(powers, reversed(powers))}
    if e not in seen:
        return dict.fromkeys(powers)
    return dict(zip(powers, powers[-2::-1] + [e]))


class CornerRing:
    """eR = {e*a : a in R} for an idempotent e of R, a ring with identity e:
    ``inverse(x)`` is the inverse of x in eR, or None when x is no unit, and
    ``units`` maps each unit of eR to its inverse, for a finite R.

    Over Z/n, eR is Z/n' with n' = n // gcd(e, n), since e = 1 mod n' and
    e = 0 mod n/n'.  Each of its n' classes x = e*u is certified: a unit by
    its inverse y = e*(u^-1 mod n'), x*y = e, when gcd(u, n') = 1; otherwise
    a non-unit by the nonzero z = e*(n'/g), g = gcd(u, n'), with x*z = 0 (a
    unit of eR kills no nonzero element of eR).  A certificate that fails
    raises AssertionError, and ``inverse`` is a lookup in ``units``.  Over
    any other ring ``inverse`` settles the powers of x in one table, walking
    at most ``limit`` of them (``_power_inverses``).
    """

    def __init__(self, ring, e, limit=None):
        self._ring, self._e, self._limit = ring, e, limit
        self._settled = {}  # x -> its inverse in eR, or None when x is no unit
        if isinstance(ring, ModRing):
            n = ring.n
            m = n // gcd(e, n)
            self.units = units = {}
            self.inverse = units.get  # every class of eR is certified below
            for u in range(m):
                x, g = e * u % n, gcd(u, m)
                if g == 1:
                    units[x] = y = e * pow(u, -1, m) % n
                    if x * y % n != e:
                        raise AssertionError(f"unit certificate broke: {x}*{y} is not e")
                else:
                    z = e * (m // g) % n
                    if z == 0 or x * z % n:
                        raise AssertionError(f"zero-divisor certificate broke at {x}")

    def inverse(self, x):
        settled = self._settled
        if x not in settled:
            settled.update(_power_inverses(self._ring.mul, x, self._e, settled, self._limit))
        return settled[x]

    @functools.cached_property
    def units(self) -> dict:
        ring, inverse = self._ring, self.inverse
        if not ring.is_finite:
            raise UnsupportedFamilyError("the units of eR are listed over a finite ring")
        eR = dict.fromkeys(ring.mul(self._e, a) for a in ring.elements())
        return {x: y for x in eR if (y := inverse(x)) is not None}


class MultiplicativeSet:
    """Generators plus the materialized closure {products of generators}.

    ``nzd_flag``: whether the ring's ``is_nonzerodivisor`` passes every
    generator (``nzd`` overrides it).  The closure maps each reachable
    element to one witness (a tuple of generator indices).  For a finite base
    ring the closure is the full set; otherwise it holds products of at most
    ``CLOSURE_DEPTH`` generators.  It is built on first read, so a set whose
    fractions are compared by cross-multiplication and carry their own
    witnesses never builds it, and neither does one whose fractions are
    compared through ``idempotent`` alone.
    """

    def __init__(self, ring, generators, *, nzd: bool | None = None):
        self.ring = ring
        self.generators = [ring.validate(g) for g in generators]
        if nzd is None:
            # a generator the ring cannot decide counts as a zero-divisor, so
            # an undecided set over an infinite ring is refused, not guessed
            self.nzd_flag = all(_decided_nzd(ring, g) for g in self.generators)
        else:
            self.nzd_flag = bool(nzd)
        self.homogeneous_flag = isinstance(ring, MonoidRing) and all(
            not g.is_zero() and len(g.coeffs) == 1 for g in self.generators
        )

    @functools.cached_property
    def closure(self) -> dict:
        ring = self.ring
        closure = {ring.one: ()}
        frontier = [(ring.one, ())]
        rounds = 0
        while frontier and (ring.is_finite or rounds < CLOSURE_DEPTH):
            new = []
            for elem, wit in frontier:
                for i, g in enumerate(self.generators):
                    prod = ring.mul(elem, g)
                    if prod not in closure:
                        w = wit + (i,)
                        closure[prod] = w
                        new.append((prod, w))
            frontier = new
            rounds += 1
        self._complete = not frontier
        return closure

    @property
    def complete(self) -> bool:
        """Whether the closure holds all of S; reading it builds the closure."""
        self.closure
        return self._complete

    @functools.cached_property
    def idempotent(self):
        """e, the idempotent power of the product of the generators (1 when
        there are none): that of the product of all of S, found with no
        closure.  Over an infinite ring the walk of powers need not end, so
        e is refused there unless the closure is complete."""
        ring = self.ring
        if not ring.is_finite and not self.complete:
            raise UnsupportedFamilyError(
                "the idempotent of S needs a finite ring or a complete closure"
            )
        t = functools.reduce(ring.mul, self.generators, ring.one)
        return idempotent_power(ring.mul, t)

    @functools.cached_property
    def corner(self) -> CornerRing:
        """eR with e = ``idempotent``, built on first use.  Over an infinite
        ring, where ``idempotent`` asks S to be finite, an element of the
        group e*S has order at most |S|, so no walk of powers goes further."""
        e = self.idempotent
        return CornerRing(self.ring, e, None if self.ring.is_finite else len(self.closure))

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
        """r/s = r'/s' from a = r*s' and b = r'*s, without forming a - b.

        Ring elements are kept in normal form, so a - b = 0 exactly when
        a == b, and e*(a - b) = 0 exactly when e*a == e*b.  e is the
        idempotent power of the product of the generators
        (``MultiplicativeSet.idempotent``), so no closure of S is read.
        """
        r = self.ring
        a = r.mul(f.num, g.den)
        b = r.mul(g.num, f.den)
        if r.eq(a, b):
            return True
        if self.strategy == "cross-multiplication":
            return False
        e = self.sset.idempotent
        return r.eq(r.mul(e, a), r.mul(e, b))

    def is_zero(self, f: Fraction) -> bool:
        """r/s = 0 from r alone: cross-multiplying with 0/1 gives r*1 - 0*s = r."""
        r = self.ring
        if r.is_zero(f.num):
            return True
        if self.strategy == "cross-multiplication":
            return False
        return r.is_zero(r.mul(self.sset.idempotent, f.num))

    def key(self, f: Fraction):
        """e*r*(e*s)^-1 in eR: key(f) == key(g) exactly when eq(f, g).

        (e*s)^-1 lies in eR, so the factor e on r is implied.  s may lie
        anywhere in the saturation of S, where e*s is a unit of eR.
        """
        sset, r = self.sset, self.ring
        inv = sset.corner.inverse(r.mul(sset.idempotent, f.den))
        if inv is None:
            raise PreconditionError(f"denominator {f.den!r} is not in the saturation of S")
        return r.mul(f.num, inv)

    @functools.cached_property
    def groth_group(self) -> GrothendieckGroup:
        if not isinstance(self.ring, MonoidRing):
            raise UnsupportedFamilyError("grading needs a monoid-ring base")
        return GrothendieckGroup(self.ring.monoid)


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


def decompose_fraction(loc: LocalizedRing, f: Fraction) -> dict:
    """Split a fraction into homogeneous components, keyed by degree class.

    The part r_m of the numerator in degree m lies, over the homogeneous
    denominator s of degree n, in the class [m, n].  Over a base whose
    group strategy is cancellative-cross-sum M cancels, so [m, n] = [m', n]
    only when m = m': each degree is its own component r_m/s, keyed by
    [m, n], and no class key is computed.  Over any other base each degree
    is keyed once and a class gathers its coefficients into one numerator.
    Degrees are walked in sorted order, so a class shows its first degree
    and lists its degrees in that order.  Components that vanish in the
    localization are dropped.  A zero denominator (a product of S
    generators, so 0 is in S) leaves the zero ring, where every component
    vanishes.
    """
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("decomposition needs a monoid-ring base")
    if not loc.sset.homogeneous_flag:
        raise PreconditionError("decomposition needs homogeneous denominators")
    if f.den.is_zero():
        return {}
    group = loc.groth_group
    n = degree_of(f.den)
    coeffs = f.num.coeffs
    if group.strategy == "cancellative-cross-sum":
        classes = [(GrothElement(m, n), {m: coeffs[m]}) for m in sorted(coeffs)]
    else:
        acc = {}
        for m in sorted(coeffs):
            x = GrothElement(m, n)
            slot = acc.setdefault(group.key(x), (x, {}))
            slot[1][m] = coeffs[m]
        classes = acc.values()
    ring, monoid = f.num.ring, f.num.monoid
    out = {}
    for x, num in classes:
        part = Fraction(MRElement(ring, monoid, num), f.den, f.den_witness)
        if not loc.is_zero(part):
            out[x] = part
    return out


def sum_components(loc: LocalizedRing, parts) -> Fraction:
    """The sum of the components of one fraction r/s: (sum of their
    numerators)/s, in one pass over their coefficients.  The parts must
    share one denominator (compared with the ring's ``eq``), as the
    components from ``decompose_fraction`` do; the first part's witness is
    kept.
    """
    parts = list(parts)
    if not parts:
        return loc.zero
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("components live in a monoid-ring localization")
    den = parts[0].den
    eq = loc.ring.eq
    acc = {}
    for part in parts:
        if not eq(part.den, den):
            raise PreconditionError("components do not share one denominator")
        for d, c in part.num.coeffs.items():
            acc[d] = acc.get(d, 0) + c
    return Fraction(loc.ring._reduced(acc), den, parts[0].den_witness)


# ---------------------------------------------------------------------------
# saturation


class SaturationSet(namedtuple("SaturationSet", "ring source elements witnesses")):
    """S-bar = {a : a*b in S for some b}, with one witness b per element.

    ``source`` is the MultiplicativeSet S, ``elements`` a tuple in the
    ring's element order and ``witnesses`` a dict from each element to its b,
    the inverse of e*a in eR (see ``saturate``).
    """

    __slots__ = ()


def saturate(ring, sset: MultiplicativeSet) -> SaturationSet:
    """S-bar read off eR: a lies in S-bar exactly when x = e*a is a unit of eR.

    If a*b lies in S, e*a*b lies in the group e*S.  Conversely, when x*c = e
    for some c in eR, a*c = e lies in S and c, the inverse of x in eR, is a's
    witness.  One pass of R, in the ring's element order: one product and
    one lookup in ``CornerRing.units`` per element.
    """
    if not ring.is_finite:
        raise OracleRequiredError(
            "saturation over an infinite ring needs externally supplied witnesses"
        )
    e, units, mul = sset.idempotent, sset.corner.units, ring.mul
    witnesses = {}
    for a in ring.elements():
        b = units.get(mul(e, a))
        if b is not None:
            witnesses[a] = b
    return SaturationSet(ring, sset, tuple(witnesses), witnesses)


# ---------------------------------------------------------------------------
# unit groups of finite localizations


class UnitGroup:
    """Classes of a finite localization, with the unit classes among them.

    ``index`` maps each class's ``LocalizedRing.key`` to its position in
    ``class_reps``.
    """

    def __init__(
        self, loc: LocalizedRing, class_reps: list, identity_index: int,
        unit_indices: list, index: dict,
    ):
        self.loc = loc
        self.class_reps = class_reps
        self.identity_index = identity_index
        self.unit_indices = unit_indices
        self.index = index

    def order(self) -> int:
        return len(self.unit_indices)

    def classify(self, f: Fraction) -> int:
        try:
            return self.index[self.loc.key(f)]
        except KeyError:
            raise PreconditionError("fraction escapes the enumerated classes") from None

    def to_cayley(self) -> CayleyMonoid:
        """The unit classes re-indexed 0..k-1 as an explicit table."""
        pos = {ci: i for i, ci in enumerate(self.unit_indices)}
        units = [self.class_reps[i] for i in self.unit_indices]
        table = [[pos[self.classify(self.loc.mul(a, b))] for b in units] for a in units]
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
    """A class is a unit exactly when its key x is a unit of eR
    (``CornerRing.inverse``)."""
    reps = localization_classes(loc)
    index = {loc.key(f): i for i, f in enumerate(reps)}
    inverse = loc.sset.corner.inverse
    unit_indices = [i for x, i in index.items() if inverse(x) is not None]
    return UnitGroup(loc, reps, index[loc.key(loc.one)], unit_indices, index)


# ---------------------------------------------------------------------------
# Grothendieck group of S versus units of the localization


class EmbeddingReport(namedtuple("EmbeddingReport", "classes image morphism_ok injective")):
    __slots__ = ()

    @property
    def group_order(self) -> int:
        return len(self.classes)


def _group_generators(elems: list, mul) -> list:
    """Indices of a generating set of the finite group ``elems`` (identity
    first) under ``mul``, chosen greedily in list order.

    Each element outside the subgroup H generated so far is chosen, and H
    grows by its cosets H*g, H*g^2, ... up to the first that meets H again
    (g^k in H), so the whole pass costs about |A|*|G| products.
    """
    inside, gens = {elems[0]}, []
    for i, g in enumerate(elems):
        if g in inside:
            continue
        gens.append(i)
        coset = list(inside)
        while True:
            coset = [mul(h, g) for h in coset]
            if coset[0] in inside:
                break
            inside.update(coset)
    return gens


def _units_map(carrier: list, loc: LocalizedRing, embed):
    """G(S) -> S^-1 R, [s, t] -> embed(s, t): (report, image keys).

    ``carrier`` lists, 1 first, the S of ``loc`` or its saturation, whose
    idempotent power of the product is e as well (e*a is a unit of eR for
    every a in S-bar).  G(S) is the kernel group e*S, with [s, t] at
    s*(t*e)^-1.  As t runs over S, t*e runs over e*S, so the classes [1, t]
    are all of G(S), and [1, t] = [1, t'] exactly when t*e = t'*e.  Each
    class is represented by [1, t] for its first t; injectivity asks that
    the image keys be distinct.

    The morphism law is checked on generators, as Light's test is in
    ``monoid.py``: A is the identity class followed by a greedy generating
    set of G(S) in carrier order.  For every class x and every a in A, the
    key of phi(x)*phi(a) must equal both the key of embed on the product
    pair and the image key of the class of x*a, found by its key t*e.  With
    phi(x) the image key of x, the pair (x, 1) gives phi(x)*phi(1) =
    phi(x), and induction on the length of y = a_1*...*a_k gives phi(x*y) =
    phi(x)*phi(a_1)*...*phi(a_k) = phi(x)*phi(y) on every pair of classes.
    That is the all-pairs law whenever the key of embed(s, t) depends only
    on the class, as it does for s/t and (s*b)/(t*b): both have key
    e*s*(e*t)^-1.
    """
    one, mul = loc.ring.one, loc.ring.mul
    e = loc.sset.idempotent
    reps = {}
    for t in carrier:
        reps.setdefault(mul(t, e), GrothElement(one, t))
    at = list(reps)  # the key t*e of each class
    index = {k: i for i, k in enumerate(at)}
    classes = list(reps.values())
    image = [embed(s, t) for s, t in classes]
    keys = [loc.key(f) for f in image]

    def law(i, j):
        x, a = classes[i], classes[j]
        want = loc.key(loc.mul(image[i], image[j]))
        k = index.get(mul(at[i], at[j]))
        return (
            k is not None
            and keys[k] == want
            and loc.key(embed(mul(x.first, a.first), mul(x.second, a.second))) == want
        )

    gens = [0] + _group_generators(at, mul)
    morphism_ok = all(law(i, j) for i in range(len(classes)) for j in gens)
    injective = len(set(keys)) == len(keys)
    return EmbeddingReport(classes, image, morphism_ok, injective), keys


def groth_units_embedding(sset: MultiplicativeSet, loc: LocalizedRing) -> EmbeddingReport:
    """G(S) -> (S^-1 R)*: the class [s, t] goes to the fraction s/t.

    The morphism law is checked on a generating set of G(S) and
    injectivity over all the enumerated classes (see ``_units_map``).
    """
    return _units_map(
        list(sset.closure), loc, lambda s, t: Fraction(s, t, sset.witness(t))
    )[0]


class UnitsIsoReport(namedtuple(
    "UnitsIsoReport", "groth_order unit_order morphism_ok injective surjective saturation"
)):
    __slots__ = ()

    @property
    def iso(self) -> bool:
        return self.morphism_ok and self.injective and self.surjective


def groth_units_iso(sset: MultiplicativeSet, loc: LocalizedRing) -> UnitsIsoReport:
    """G(S-bar) = (S^-1 R)*: [s, t] goes to (s*b)/(t*b) with t*b in S.

    The saturation witness b turns a saturation denominator into a genuine
    one.  The morphism law is checked on a generating set of G(S-bar) (see
    ``_units_map``); injectivity over all its classes, and surjectivity by
    asking that the image keys be exactly the keys of the unit classes: the
    units of eR (``CornerRing.units``), since x/1 has key x for every x in
    eR.  No class of S^-1 R is enumerated.
    """
    ring = loc.ring
    sat = saturate(ring, sset)

    def embed(s, t) -> Fraction:
        b = sat.witnesses[t]
        den = ring.mul(t, b)
        return Fraction(ring.mul(s, b), den, sset.witness(den))

    carrier = [ring.one] + [a for a in sat.elements if a != ring.one]
    emb, keys = _units_map(carrier, loc, embed)
    unit_keys = set(loc.sset.corner.units)
    return UnitsIsoReport(
        groth_order=emb.group_order,
        unit_order=len(unit_keys),
        morphism_ok=emb.morphism_ok,
        injective=emb.injective,
        surjective=set(keys) == unit_keys,
        saturation=sat,
    )


# ---------------------------------------------------------------------------
# ideals of finite rings and the 1 + I construction


def ideal_closure(ring, gens) -> frozenset:
    """Smallest ideal containing gens: the sum of the principal ideals R*g.

    R*g is already an ideal of a commutative ring with 1, and a sum of
    ideals is an ideal.
    """
    elems = list(ring.elements())
    ideal = {ring.zero}
    for g in gens:
        g = ring.validate(g)
        principal = {ring.mul(r, g) for r in elems}
        ideal = {ring.add(x, y) for x in ideal for y in principal}
    return frozenset(ideal)


def one_plus_ideal_check(ring, ideal_gens) -> dict:
    """S = 1 + I: saturation must be the complement of the maximal ideals over I.

    Also verifies G(S-bar) = (S^-1 R)* on the same instance.  T is the
    complement of the union of maximal ideals containing I (all of R when no
    maximal ideal contains I): a lies in no maximal ideal over I exactly when
    I + R*a = R, that is, when r*a lies in 1 + I for some r.
    """
    if not ring.is_finite:
        raise UnsupportedFamilyError("this check sweeps a finite ring")
    ideal = ideal_closure(ring, ideal_gens)
    s_elems = sorted({ring.add(ring.one, i) for i in ideal})
    sset = MultiplicativeSet(ring, s_elems)
    loc = LocalizedRing(ring, sset)
    elems = list(ring.elements())
    in_s = set(s_elems)
    t_elems = sorted(a for a in elems if any(ring.mul(r, a) in in_s for r in elems))
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
    rewriting sampled units s/t after multiplying through by x^2.  Each S
    element is given with a witness built from its degree, checked by
    replaying it, so no closure of S is built.  p must be prime: for
    p = a*b the constants a and b multiply to 0 in S, so S^-1 R is the zero
    ring.
    """
    K = ModRing(p)
    if not _is_prime(p):
        raise InvalidInputError(f"K[x] needs a prime modulus, got {p}")
    M = FreeCommutativeMonoid(1)
    R = MonoidRing(K, M)
    gens = [R.scalar(c) for c in range(2, p)] + [R.epsilon((2,)), R.epsilon((3,))]
    sset = MultiplicativeSet(R, gens)
    loc = LocalizedRing(R, sset)
    x, x2, x3 = R.epsilon((1,)), R.epsilon((2,)), R.epsilon((3,))
    i2, i3 = p - 2, p - 1  # x^2 and x^3 in gens

    def in_s(s) -> bool:
        # s = c*x^d, d = 2i + 3j: c's generator, x^2 i times and x^3 j times
        [((d,), c)] = s.coeffs.items()
        wit = (() if c == 1 else (c - 2,)) + (i2,) * (d // 2 - d % 2) + (i3,) * (d % 2)
        return sset.product_of(wit) == s

    x_in_saturation = in_s(x * x)
    min_pos = min(d for d in (degree_of(g)[0] for g in gens) if d > 0)
    # a product of generators has degree 0 (all constants) or >= min_pos,
    # so degree 1 is reachable only if some positive generator degree is 1
    degree_one_reachable = x_in_s = min_pos <= 1
    rewrite_example_ok = (
        loc.eq(loc.frac(x), Fraction(x3, x2, (i2,))) and in_s(x3) and in_s(x2)
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
            # t * x^2's witness is t's plus the x^2 generator
            s, t, wit = num * x2, den * x2, wit + (i2,)
        else:
            s, t = num, den
        ok = in_s(s) and sset.product_of(wit) == t and loc.eq(f, Fraction(s, t, wit))
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
