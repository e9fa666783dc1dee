"""Base rings, monoid rings with their grading, and group rings.

A monoid-ring element is a finite-support coefficient map degree -> coeff
with zero coefficients pruned eagerly, so structural dict equality is
semantic equality.  Group-ring keys are Grothendieck classes; terms are
merged in a dict on the class normal form ``GrothendieckGroup.key``, each
class keeps its first-seen pair as its displayed key, and an element keeps
the class keys it was merged by.  Every ring decides its non-zero-divisors
from its structure (``is_nonzerodivisor``): a != 0 over Z, gcd(a, n) = 1
over Z/n, and over R[M] from R and the translations x -> m+x of M, or by
McCoy's theorem for polynomials.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd

from .errors import (
    BaseMismatchError,
    InvalidInputError,
    MalformedElementError,
    NotHomogeneousError,
    UnsupportedFamilyError,
    ZeroDegreeError,
)
from .grothendieck import GrothElement, GrothendieckGroup, canonical_map_injective
from .monoid import (
    CommutativeMonoid,
    FreeCommutativeMonoid,
    IntegerLatticeMonoid,
    idempotent_power,
    sample_element,
    translation_injective,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class IntegerRing:
    """Z with machine-independent exact arithmetic."""

    is_finite = False
    characteristic = 0
    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a

    def sub(self, a: int, b: int) -> int:
        return a - b

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def is_zero(self, a: int) -> bool:
        return a == 0

    def is_nonzerodivisor(self, a: int) -> bool:
        return a != 0

    def validate(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise MalformedElementError(f"expected integer, got {a!r}")
        return a

    def elements(self):
        raise UnsupportedFamilyError("Z is not enumerable")

    def sample(self, rng, bound: int = 9) -> int:
        return rng.randint(-bound, bound)

    def sample_nonzero(self, rng, bound: int = 9) -> int:
        v = rng.randint(1, bound)
        return v if rng.below(2) == 0 else -v

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "IntegerRing()"


class ModRing:
    """Z/n with representatives 0..n-1; a field exactly when n is prime."""

    is_finite = True

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidInputError(f"modulus must be an int, got {n!r}")
        if n < 2:
            raise InvalidInputError("modulus must be at least 2")
        self.n = n
        self.characteristic = n
        self.zero = 0
        self.one = 1 % n

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.n

    def neg(self, a: int) -> int:
        return (-a) % self.n

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.n

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def is_zero(self, a: int) -> bool:
        return a == 0

    def is_nonzerodivisor(self, a: int) -> bool:
        return gcd(a, self.n) == 1

    def validate(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise MalformedElementError(f"expected integer, got {a!r}")
        return a % self.n

    def elements(self):
        return range(self.n)

    def sample(self, rng, bound: int = 9) -> int:
        return rng.below(self.n)

    def sample_nonzero(self, rng, bound: int = 9) -> int:
        return 1 + rng.below(self.n - 1)

    def __eq__(self, other):
        return isinstance(other, ModRing) and self.n == other.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        return f"ModRing({self.n})"


def ring_from_dict(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidInputError("ring description needs a 'kind' field")
    kind = data["kind"]
    if kind == "Z":
        return IntegerRing()
    if kind == "Zmod":
        try:
            return ModRing(data["n"])
        except KeyError as exc:
            raise InvalidInputError(f"malformed Zmod description: {exc}") from exc
    raise InvalidInputError(f"unknown ring kind {kind!r}")


def _deg_to_json(d):
    if isinstance(d, tuple):
        return [_deg_to_json(x) for x in d]
    return d


def _deg_from_json(d):
    if isinstance(d, list):
        return tuple(_deg_from_json(x) for x in d)
    if isinstance(d, int):
        return d
    raise InvalidInputError(f"bad degree {d!r}")


class MRElement:
    """Finite-support element of a monoid ring; coeffs maps degree -> coeff."""

    __slots__ = ("ring", "monoid", "coeffs")

    def __init__(self, ring, monoid, coeffs: dict):
        self.ring = ring
        self.monoid = monoid
        self.coeffs = coeffs

    def support(self) -> list:
        return sorted(self.coeffs)

    def items(self) -> list:
        return [(d, self.coeffs[d]) for d in self.support()]

    def _check_base(self, other: "MRElement"):
        if self.ring is other.ring and self.monoid is other.monoid:
            return
        if self.ring != other.ring or self.monoid != other.monoid:
            raise BaseMismatchError("operands live over different monoid rings")

    def __add__(self, other):
        self._check_base(other)
        n = self.ring.characteristic
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d, 0) + c
            if n:
                s %= n
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return MRElement(self.ring, self.monoid, out)

    def __neg__(self):
        n = self.ring.characteristic
        return MRElement(
            self.ring, self.monoid, {d: -c % n if n else -c for d, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution on int coefficients, reduced mod n over Z/n as each
        product is added; a sum that reaches 0 is popped, so the result and
        its insertion order are those of adding the products one by one."""
        self._check_base(other)
        op = self.monoid.op
        n = self.ring.characteristic
        out = {}
        get = out.get
        theirs = other.coeffs.items()
        for d1, c1 in self.coeffs.items():
            for d2, c2 in theirs:
                d = op(d1, d2)
                s = get(d, 0) + c1 * c2
                if n:
                    s %= n
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return MRElement(self.ring, self.monoid, out)

    def __eq__(self, other):
        if not isinstance(other, MRElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.monoid == other.monoid
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple((d, self.coeffs[d]) for d in self.support()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "MR(0)"
        parts = [f"{c}*e{d!r}" for d, c in self.items()]
        return "MR(" + " + ".join(parts) + ")"


class MonoidRing:
    """R[M]: the ring of finite-support maps M -> R under convolution.

    R is Z or Z/n (an ``IntegerRing`` or a ``ModRing``): coefficients are
    plain ints, reduced mod n over Z/n, and any other coefficient ring is
    refused with UnsupportedFamilyError.
    """

    def __init__(self, coeff_ring, monoid: CommutativeMonoid):
        if not isinstance(coeff_ring, (IntegerRing, ModRing)):
            raise UnsupportedFamilyError(
                f"monoid-ring coefficients must be Z or Z/n, got {coeff_ring!r}"
            )
        self.coeff_ring = coeff_ring
        self.monoid = monoid
        self.is_finite = coeff_ring.is_finite and self.monoid.is_finite
        self.zero = MRElement(coeff_ring, self.monoid, {})
        self.one = self.epsilon(self.monoid.identity)

    def element(self, coeffs: dict) -> MRElement:
        """The element with these coefficients, degrees checked, coefficients
        reduced mod n over Z/n and zeros dropped.  ``validate`` returns a
        degree equal to its input, so distinct keys stay distinct."""
        ring = self.coeff_ring
        n = ring.characteristic
        validate = self.monoid.validate
        out = {}
        for d, c in coeffs.items():
            d = validate(d)
            if type(c) is not int:
                c = ring.validate(c)
            elif n:
                c %= n
            if c:
                out[d] = c
        return MRElement(ring, self.monoid, out)

    def _reduced(self, coeffs: dict) -> MRElement:
        """``element`` for valid degrees and int coefficients the library
        built itself: reduced mod n over Z/n and zeros dropped, unchecked."""
        n = self.coeff_ring.characteristic
        out = {}
        for d, c in coeffs.items():
            if n:
                c %= n
            if c:
                out[d] = c
        return MRElement(self.coeff_ring, self.monoid, out)

    def epsilon(self, m) -> MRElement:
        """The monomial basis element at degree m."""
        m = self.monoid.validate(m)
        return MRElement(self.coeff_ring, self.monoid, {m: self.coeff_ring.one})

    def scalar(self, c) -> MRElement:
        c = self.coeff_ring.validate(c)
        if self.coeff_ring.is_zero(c):
            return self.zero
        return MRElement(
            self.coeff_ring, self.monoid, {self.monoid.identity: c}
        )

    # ring-protocol surface shared with the base rings

    def add(self, f: MRElement, g: MRElement) -> MRElement:
        return f + g

    def mul(self, f: MRElement, g: MRElement) -> MRElement:
        return f * g

    def neg(self, f: MRElement) -> MRElement:
        return -f

    def sub(self, f: MRElement, g: MRElement) -> MRElement:
        return f - g

    def eq(self, f: MRElement, g: MRElement) -> bool:
        return f == g

    def is_zero(self, f: MRElement) -> bool:
        return f.is_zero()

    def is_nonzerodivisor(self, f: MRElement) -> bool:
        """Whether f*g = 0 forces g = 0.  s*eps_m is one exactly when s is one
        in R and x -> m+x is injective (see ``monomial_is_nonzerodivisor``).
        Otherwise f is one when it is a unit of a finite R[M]; with M free or
        a lattice, when it is nonzero over Z, and over Z/n when
        gcd(n, c_1, ..., c_k) = 1 for its coefficients c_i.  Anything else is
        undecided.

        The Z/n rule is McCoy's theorem: f in R[x_1, ..., x_k] is a
        zero-divisor exactly when r*f = 0 for a constant r != 0.  A Laurent f
        times a unit monomial is a polynomial with the same coefficients, and
        r*c_i = 0 mod n for all i exactly when n / gcd(n, c_1, ..., c_k)
        divides r."""
        coeff = self.coeff_ring
        if len(f.coeffs) == 1:
            ((m, s),) = f.coeffs.items()
            return coeff.is_nonzerodivisor(s) and translation_injective(self.monoid, m)
        if self.is_finite:
            return idempotent_power(self.mul, f) == self.one
        if isinstance(self.monoid, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
            if isinstance(coeff, ModRing):
                return gcd(coeff.n, *f.coeffs.values()) == 1
            if isinstance(coeff, IntegerRing):
                return not f.is_zero()
        raise UnsupportedFamilyError(f"zero-divisors are not decided over {self!r}")

    def validate(self, f) -> MRElement:
        if not isinstance(f, MRElement):
            raise MalformedElementError(f"expected monoid-ring element, got {f!r}")
        if f.ring != self.coeff_ring or f.monoid != self.monoid:
            raise BaseMismatchError("element belongs to a different monoid ring")
        return f

    def elements(self):
        if not self.is_finite:
            raise UnsupportedFamilyError("monoid ring is not finite")
        degs = list(self.monoid.elements())
        coeff_vals = list(self.coeff_ring.elements())
        for combo in itertools.product(coeff_vals, repeat=len(degs)):
            yield MRElement(
                self.coeff_ring,
                self.monoid,
                {d: c for d, c in zip(degs, combo) if c},
            )

    def size(self) -> int:
        if not self.is_finite:
            raise UnsupportedFamilyError("monoid ring is not finite")
        return len(list(self.coeff_ring.elements())) ** self.monoid.size()

    def sample(self, rng, max_support: int = 4, exp_bound: int = 6,
               coeff_bound: int = 9) -> MRElement:
        """Up to ``max_support`` terms; the sampled degrees and nonzero
        coefficients are valid as drawn, so they are not checked again."""
        ring, monoid = self.coeff_ring, self.monoid
        draw = ring.sample_nonzero
        out = {}
        for _ in range(rng.below(max_support + 1)):
            d = sample_element(monoid, rng, exp_bound)
            out[d] = draw(rng, coeff_bound)
        return MRElement(ring, monoid, out)

    def to_list(self, f: MRElement) -> list:
        return [[c, _deg_to_json(d)] for d, c in f.items()]

    def from_list(self, data) -> MRElement:
        if not isinstance(data, list):
            raise InvalidInputError("element serialization must be a list")
        validate = self.coeff_ring.validate
        out = {}
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 2:
                raise InvalidInputError(f"bad term {entry!r}")
            c, d = entry
            d = _deg_from_json(d)
            out[d] = out.get(d, 0) + validate(c)
        return self.element(out)

    def __eq__(self, other):
        return (
            isinstance(other, MonoidRing)
            and self.coeff_ring == other.coeff_ring
            and self.monoid == other.monoid
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.monoid))

    def __repr__(self):
        return f"MonoidRing({self.coeff_ring!r}, {self.monoid!r})"


# ---------------------------------------------------------------------------
# grading


class HomogeneousPart(namedtuple("HomogeneousPart", "degree value")):
    """The part of degree ``degree`` of an element, as an MRElement ``value``."""

    __slots__ = ()


def homogeneous_components(f: MRElement) -> list:
    """Split by degree; parts are returned in sorted-degree order and sum to f."""
    return [
        HomogeneousPart(d, MRElement(f.ring, f.monoid, {d: f.coeffs[d]}))
        for d in f.support()
    ]


def degree_of(f: MRElement):
    """Degree of a homogeneous nonzero element."""
    if f.is_zero():
        raise ZeroDegreeError("the zero element has no degree")
    if len(f.coeffs) != 1:
        raise NotHomogeneousError(f"support has {len(f.coeffs)} degrees")
    return next(iter(f.coeffs))


# ---------------------------------------------------------------------------
# zero-divisors and injectivity, decided on the monoid


def monomial_is_nonzerodivisor(mring: MonoidRing, m) -> bool:
    """Whether eps_m * f = 0 forces f = 0: exactly when x -> m+x is injective.

    eps_m * f sums the coefficients of f over each fiber of x -> m+x.  Over
    R != 0 a fiber holding x != y carries f = eps_x - eps_y, and with
    singleton fibers eps_m * f only moves the coefficients of f.
    """
    return translation_injective(mring.monoid, mring.monoid.validate(m))


def group_ring_map_injective(mring: MonoidRing, group: GrothendieckGroup | None = None) -> bool:
    """Whether R[M] -> R[G(M)] (coefficients summed per class) kills only 0.

    As for monomials, a class holding two elements x != y carries the kernel
    element eps_x - eps_y, so the map is injective exactly when M -> G(M) is.
    """
    if group is None:
        group = GrothendieckGroup(mring.monoid)
    return canonical_map_injective(group)


# ---------------------------------------------------------------------------
# group ring over Grothendieck classes


class GroupRingElement:
    """Terms (class representative, coeff) in canonical form: no two in one
    class, no zero coefficient, each class shown by its first-seen
    representative.  ``class_keys`` holds each term's ``GrothendieckGroup.key``,
    in the order of ``terms``.

    Given terms alone, the constructor keys them and merges them class by
    class; the group ring's arithmetic passes the keys it merged by, so no
    term is keyed twice.
    """

    __slots__ = ("context", "terms", "class_keys")

    def __init__(self, context: "GroupRing", terms: list, class_keys: list | None = None):
        if class_keys is None:
            terms, class_keys = context._keyed(terms)
        self.context = context
        self.terms = terms
        self.class_keys = class_keys

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "GR(0)"
        return "GR(" + " + ".join(f"{c!r}*e{k!r}" for k, c in self.terms) + ")"


class GroupRing:
    """(coefficients)[G] for a Grothendieck group G and pluggable coefficients.

    ``coeff`` must expose add/neg/mul/eq/is_zero/zero/one; both base rings
    and localized rings qualify, so this single context serves R[G] and
    (S^-1 R)[G].
    """

    def __init__(self, group: GrothendieckGroup, coeff):
        self.group = group
        self.coeff = coeff

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self, [], [])

    def monomial(self, key: GrothElement, c=None) -> GroupRingElement:
        if c is None:
            c = self.coeff.one
        return self.from_terms([(key, c)])

    def _keyed(self, terms) -> tuple:
        """Canonical terms and their class keys from (representative, coeff)
        pairs, each pair keyed once."""
        group_key = self.group.key
        add = self.coeff.add
        acc = {}
        for term in terms:
            k = group_key(term[0])
            slot = acc.get(k)
            acc[k] = term if slot is None else (slot[0], add(slot[1], term[1]))
        return self._pruned(acc)

    def _pruned(self, acc: dict) -> tuple:
        """Terms and keys of ``acc`` (class key -> term, summed per class in
        first-seen order), with zero coefficients dropped."""
        is_zero = self.coeff.is_zero
        terms, keys = [], []
        for k, term in acc.items():
            if not is_zero(term[1]):
                keys.append(k)
                terms.append(term)
        return terms, keys

    def from_terms(self, pairs) -> GroupRingElement:
        return GroupRingElement(self, pairs)

    def add(self, u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
        """Merged by the keys both operands carry; nothing is keyed again."""
        add = self.coeff.add
        acc = dict(zip(u.class_keys, u.terms))
        for k, term in zip(v.class_keys, v.terms):
            slot = acc.get(k)
            acc[k] = term if slot is None else (slot[0], add(slot[1], term[1]))
        return GroupRingElement(self, *self._pruned(acc))

    def neg(self, u: GroupRingElement) -> GroupRingElement:
        return GroupRingElement(
            self, [(k, self.coeff.neg(c)) for k, c in u.terms], u.class_keys
        )

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def mul(self, u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
        """Each product term is keyed once and merged as it is made, in the
        order ``from_terms`` would see the products listed row by row."""
        group_add, group_key = self.group.add, self.group.key
        cmul, add = self.coeff.mul, self.coeff.add
        acc = {}
        theirs = v.terms
        for k1, c1 in u.terms:
            for k2, c2 in theirs:
                x = group_add(k1, k2)
                k = group_key(x)
                slot = acc.get(k)
                c = cmul(c1, c2)
                acc[k] = (x, c) if slot is None else (slot[0], add(slot[1], c))
        return GroupRingElement(self, *self._pruned(acc))

    def is_zero(self, u: GroupRingElement) -> bool:
        return not u.terms

    def eq(self, u: GroupRingElement, v: GroupRingElement) -> bool:
        """Class by class: terms have distinct classes and nonzero
        coefficients, so u = v exactly when both hold the same classes with
        equal coefficients."""
        if len(u.terms) != len(v.terms):
            return False
        theirs = dict(zip(v.class_keys, v.terms))
        coeff_eq = self.coeff.eq
        for k, (_, c) in zip(u.class_keys, u.terms):
            term = theirs.get(k)
            if term is None or not coeff_eq(c, term[1]):
                return False
        return True

    def one(self) -> GroupRingElement:
        return self.monomial(self.group.zero())
