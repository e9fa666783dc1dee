"""Commutative monoid families and their element-level operations.

Elements are plain values: integers index Cayley-table carriers, tuples of
integers carry free / lattice / presented / direct-sum elements.  All
arithmetic is exact; validation is eager for finite tables.

Each family answers its own questions as methods, ``cancellative()``,
``quasi_zeros()``, ``to_dict()``, G(M) (``groth_key(a, b)``,
``groth_structure()``, ``total_order()``) and the layout of T
(``t_generators()``) among them.
``CommutativeMonoid`` holds the defaults; a direct sum asks its components.
"""
from __future__ import annotations

import functools
import itertools
import numbers
from math import gcd, prod
from operator import add, countOf, itemgetter, sub

from . import grothendieck
from .errors import (
    AxiomViolationError,
    InvalidInputError,
    MalformedElementError,
    PreconditionError,
    UnsupportedFamilyError,
)
from .grothendieck import (
    FGAbelianStructure,
    build_total_order,
    direct_sum_groth,
    finite_groth_structure,
    lattice_key,
    snf_slots,
    structure_from_snf,
)
from .rng import Lcg64

MonoidValue = int | tuple

class CommutativeMonoid:
    """Shared surface of every monoid family."""

    is_finite = False

    @property
    def identity(self) -> MonoidValue:
        raise NotImplementedError

    def op(self, a: MonoidValue, b: MonoidValue) -> MonoidValue:
        raise NotImplementedError

    def validate(self, a: MonoidValue) -> MonoidValue:
        raise NotImplementedError

    def elements(self):
        raise UnsupportedFamilyError(f"{type(self).__name__} is not enumerable")

    def size(self) -> int:
        raise UnsupportedFamilyError(f"{type(self).__name__} is not finite")

    @functools.cached_property
    def kernel(self) -> tuple:
        """``kernel_group`` of the whole carrier, computed once per monoid:
        cancellativity, quasi-zeros, class keys and structure all read it."""
        return kernel_group(self.op, list(self.elements()))

    def cancellative(self) -> bool:
        """Decide a+c = b+c => a = b."""
        raise UnsupportedFamilyError(
            f"cancellativity is not decided for {type(self).__name__}"
        )

    def translation_injective(self, a: MonoidValue) -> bool:
        """Whether x -> a+x is injective on M: the identity's translation
        is, and every translation of a cancellative monoid is."""
        return a == self.identity or self.cancellative()

    def quasi_zeros(self) -> set:
        """{x : x + y = y for some y} = {x : x + e = e}: x + (y+e) = y+e in the
        group M + e forces x + e = e, and y = e is a witness.  An x in K = M + e
        has x + e = x, so of K only e itself qualifies."""
        if not self.is_finite:
            raise UnsupportedFamilyError("quasi-zero search needs a finite carrier")
        e, inv, _ = self.kernel
        return {x for x in self.elements() if x == e or (x not in inv and self.op(x, e) == e)}

    def quasi_zero_size(self) -> int:
        """How many quasi-zeros M has (see ``quasi_zeros``)."""
        return len(self.quasi_zeros())

    def groth_strategy(self) -> str:
        """How ``groth_key`` decides [a, b] = [c, d], as a label:
        cancellative-cross-sum when a+d = b+c decides it with no witness,
        finite-witness-enumeration on a finite carrier that does not cancel."""
        return "cancellative-cross-sum" if self.cancellative() else "finite-witness-enumeration"

    def groth_key(self, a: MonoidValue, b: MonoidValue):
        """Hashable normal form of the class [a, b] of G(M), here of a finite
        carrier.  With e the idempotent power of the sum of all elements,
        K = M + e is a group with identity e (the minimal ideal; Clifford &
        Preston, Grillet), so [a, b] = [c, d] iff a+d+e = b+c+e, and the key
        is (a+e) + inverse_K(b+e); the inverse lies in K, so +e is implied."""
        e, inv, _ = self.kernel
        return self.op(a, inv[self.op(b, e)])

    def groth_structure(self) -> FGAbelianStructure:
        """G(M) as Z^r + sum of Z/d_i; a finite carrier's is K (see ``groth_key``)."""
        return finite_groth_structure(self)

    def total_order(self) -> grothendieck.GrothOrder:
        """A total order on G(M) compatible with addition (``GrothOrder``),
        or TorsionWitnessError when G(M) has torsion.  Built only where G(M)
        is read off a Smith normal form: presentations, free and lattice
        monoids; any other family refuses."""
        raise InvalidInputError(
            "total orders are built from presentation, free or lattice descriptions"
        )

    def t_generators(self) -> list:
        """The degrees m of the monomial generators eps_m of T, in the order
        ``monomial_witness`` counts them: every element of a finite carrier."""
        if not self.is_finite:
            raise PreconditionError(f"no T generator layout for {type(self).__name__}")
        return list(self.elements())

    def monomial_witness(self, n: MonoidValue, offset: int) -> tuple:
        """Positions, each past ``offset``, of t_generators() that sum to n."""
        return (offset + self._positions[n],)

    @functools.cached_property
    def _positions(self) -> dict:
        return {m: i for i, m in enumerate(self.elements())}

    def sample(self, rng: Lcg64, bound: int = 6) -> MonoidValue:
        """Draw a pseudo-random element; ``bound`` caps tuple coordinates."""
        raise UnsupportedFamilyError(f"cannot sample from {type(self).__name__}")

    def to_dict(self) -> dict:
        """The JSON description ``monoid_from_dict`` reads back."""
        raise UnsupportedFamilyError(f"cannot serialize {type(self).__name__}")


class CayleyMonoid(CommutativeMonoid):
    """Finite commutative monoid given by an explicit operation table.

    The table is validated eagerly: integer entries (no bools or floats)
    within the signed 64-bit range, square shape, closure, commutativity,
    associativity, identity row.  A violation raises AxiomViolationError
    carrying the offending law and its first witness in row-major order;
    malformed entries raise InvalidInputError.  Associativity is decided by
    Light's test on a generating set (see ``_first_assoc_failure``).
    """

    is_finite = True

    def __init__(self, table, identity: int = 0):
        try:
            rows = [list(row) for row in table]
        except TypeError as exc:
            raise InvalidInputError(f"malformed table: {exc}") from exc
        kinds = set(map(type, itertools.chain.from_iterable(rows))) - {int}
        if any(issubclass(t, bool) or not issubclass(t, numbers.Integral) for t in kinds):
            raise InvalidInputError("table entries must be integers")
        if kinds:
            rows = [list(map(int, row)) for row in rows]
        flat = list(itertools.chain.from_iterable(rows))
        lo, hi = (min(flat), max(flat)) if flat else (0, 0)
        if lo < -(1 << 63) or hi >= 1 << 63:
            raise InvalidInputError("malformed table: entry outside the signed 64-bit range")
        if isinstance(identity, bool) or not isinstance(identity, numbers.Integral):
            raise InvalidInputError(f"identity must be an integer, got {identity!r}")
        n = len(rows)
        if any(len(row) != n for row in rows):
            widths = sorted(set(map(len, rows)))
            raise InvalidInputError(f"table must be square, got {n} rows of lengths {widths}")
        if n == 0:
            raise InvalidInputError("empty Cayley table")
        if lo < 0 or hi >= n:
            k = next(k for k, v in enumerate(flat) if not 0 <= v < n)
            raise AxiomViolationError("closure", (*divmod(k, n), flat[k]))
        if not (0 <= identity < n):
            raise InvalidInputError(f"identity {identity} out of range")
        table = tuple(map(tuple, rows))
        if table != tuple(zip(*table)):
            k = next(k for k, v in enumerate(flat) if v != table[k % n][k // n])
            raise AxiomViolationError("commutativity", divmod(k, n))
        bad = _first_assoc_failure(table)
        if bad is not None:
            raise AxiomViolationError("associativity", bad)
        if table[identity] != tuple(range(n)):
            bad = next(x for x, v in enumerate(table[identity]) if v != x)
            raise AxiomViolationError("identity", (int(identity), bad))
        self.table = table
        self._size = n
        self._identity = int(identity)

    @property
    def identity(self) -> int:
        return self._identity

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def validate(self, a) -> int:
        if type(a) is not int and (isinstance(a, bool) or not isinstance(a, numbers.Integral)):
            raise MalformedElementError(f"expected carrier index, got {a!r}")
        if not 0 <= a < self._size:
            raise MalformedElementError(f"index {a} outside carrier of size {self._size}")
        return int(a)

    def elements(self):
        return range(self._size)

    def size(self) -> int:
        return self._size

    def cancellative(self) -> bool:
        """A finite M cancels iff it is a group iff its minimal ideal M + e
        is M, that is iff e is the identity."""
        return self.kernel[0] == self._identity

    def translation_injective(self, a: int) -> bool:
        """Every translation of a group table is injective; otherwise row a
        must be a bijection."""
        return self.cancellative() or len(set(self.table[a])) == self._size

    def sample(self, rng: Lcg64, bound: int = 6) -> int:
        return rng.below(self._size)

    def to_dict(self) -> dict:
        return {
            "kind": "cayley",
            "size": self._size,
            "identity": self._identity,
            "table": [list(row) for row in self.table],
        }

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CayleyMonoid)
            and self._identity == other._identity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self._identity, self.table))

    def __repr__(self):
        return f"CayleyMonoid(size={self._size})"


def _magma_generators(table) -> list:
    """A generating set of the commutative magma ``table``, chosen greedily.

    In carrier order, each element that the earlier choices do not generate
    is chosen.  The generated submagma grows as a list in which every member
    is multiplied once by itself and by each member before it, so the whole
    pass costs about n^2/2 lookups.
    """
    members, inside, gens = [], set(), []
    for x in range(len(table)):
        if x in inside:
            continue
        gens.append(x)
        inside.add(x)
        members.append(x)
        i = len(members) - 1
        while i < len(members):
            row = table[members[i]]
            i += 1
            fresh = set(map(row.__getitem__, members[:i])) - inside
            inside |= fresh
            members.extend(fresh)
    return gens


def _first_assoc_failure(table):
    """The first (a, b, c) in row-major order with (a+b)+c != a+(b+c), or None.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    section 1.2): the elements a with (x+a)+y == x+(a+y) for all x, y form a
    submagma, so checking them on a generating set A decides associativity
    in |A|*n^2 lookups.  For each a the identity is compared a whole row y at
    a time: row x+a of the table against row x re-indexed by row a.  Only a
    table that fails is scanned over all triples, for the first witness.
    """
    n = len(table)
    if n == 1:
        return None  # the closed 1x1 table is [[0]]
    for a in _magma_generators(table):
        shift = itemgetter(*table[a])
        if any(table[row[a]] != shift(row) for row in table):
            break
    else:
        return None
    shifts = [itemgetter(*row) for row in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            left, right = table[ab], shifts[b](row)
            if left != right:
                return a, b, next(c for c in range(n) if left[c] != right[c])
    raise AssertionError("Light's test failed on an associative table")


class _TupleMonoid(CommutativeMonoid):
    """Common code for families whose elements are integer tuples of fixed rank."""

    _signs = (1,)  # T is generated by the eps of s*e_i, s in _signs

    def __init__(self, rank: int):
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise InvalidInputError(f"rank must be an int, got {rank!r}")
        if rank < 0:
            raise InvalidInputError("rank must be nonnegative")
        self.rank = rank
        self._identity = (0,) * rank

    @property
    def identity(self) -> tuple:
        return self._identity

    def op(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(add, a, b))

    def cancellative(self) -> bool:
        return True

    def groth_key(self, a: tuple, b: tuple) -> tuple:
        """a - b: the base cancels, so the difference is the class."""
        return tuple(map(sub, a, b))

    def groth_structure(self) -> FGAbelianStructure:
        return FGAbelianStructure(self.rank, ())

    def total_order(self) -> grothendieck.GrothOrder:
        """G(N^k) = G(Z^k) = Z^k: ordered as k generators with no relations."""
        return MonoidPresentation(self.rank, ()).total_order()

    def t_generators(self) -> list:
        """+e_1, ..., +e_k, then (on a lattice) -e_1, ..., -e_k."""
        k = self.rank
        return [tuple(s if j == i else 0 for j in range(k)) for s in self._signs for i in range(k)]

    def monomial_witness(self, n: tuple, offset: int) -> tuple:
        """|n_j| copies of +e_j, or of -e_j when n_j < 0."""
        wit = ()
        for j, e in enumerate(n):
            if e:
                wit += (offset + j + (self.rank if e < 0 else 0),) * abs(e)
        return wit

    def _check_shape(self, a):
        if not isinstance(a, tuple) or len(a) != self.rank:
            raise MalformedElementError(f"expected {self.rank}-tuple, got {a!r}")
        for x in a:
            if not isinstance(x, int) or isinstance(x, bool):
                raise MalformedElementError(f"non-integer coordinate in {a!r}")

    def __eq__(self, other):
        return type(self) is type(other) and self.rank == other.rank

    def __hash__(self):
        return hash((type(self).__name__, self.rank))

    def __repr__(self):
        return f"{type(self).__name__}(rank={self.rank})"


class FreeCommutativeMonoid(_TupleMonoid):
    """N^k under componentwise addition."""

    def validate(self, a) -> tuple:
        self._check_shape(a)
        if any(x < 0 for x in a):
            raise MalformedElementError(f"negative exponent in {a!r}")
        return a

    def sample(self, rng: Lcg64, bound: int = 6) -> tuple:
        return tuple(rng.below(bound + 1) for _ in range(self.rank))

    def to_dict(self) -> dict:
        return {"kind": "free", "rank": self.rank}


class IntegerLatticeMonoid(_TupleMonoid):
    """Z^k under componentwise addition (an abelian group viewed as a monoid)."""

    _signs = (1, -1)

    def validate(self, a) -> tuple:
        self._check_shape(a)
        return a

    def sample(self, rng: Lcg64, bound: int = 6) -> tuple:
        return tuple(rng.below(2 * bound + 1) - bound for _ in range(self.rank))

    def to_dict(self) -> dict:
        return {"kind": "lattice", "rank": self.rank}


def _is_exponent_word(word: tuple) -> bool:
    """Every entry a nonnegative int, bools refused.  A word of plain ints
    is read in one pass for the types and one for the sign, both in C."""
    if set(map(type, word)) <= {int}:
        return min(word, default=0) >= 0
    return all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in word)


def _word_rows(rels: list, g: int) -> list:
    """The sparse rows {j: u_j - v_j} of the relations u = v, with plain int
    values; raise on the first word that is not g nonnegative ints.

    The lengths and types of all words are checked at once, by C-level
    passes that count matches and keep no list; the per-word scan runs
    only when that fails, to name the first bad word (or to accept int
    subclasses such as IntEnum members, read as plain ints).  The sign is
    checked on the nonzero entries only, as each row is read off them.
    """
    words = list(itertools.chain.from_iterable(rels))
    if not (
        set(map(len, words)) <= {g}
        and countOf(map(type, itertools.chain.from_iterable(words)), int) == g * len(words)
    ):
        for side in words:
            if len(side) != g or not _is_exponent_word(side):
                raise InvalidInputError(f"bad relation word {side!r}")
        rels = [(tuple(map(int, u)), tuple(map(int, v))) for u, v in rels]
    cols = range(g)
    rows = []
    for u, v in rels:
        row = {}
        for j in itertools.compress(cols, u):
            x = u[j]
            if x < 0:
                raise InvalidInputError(f"bad relation word {u!r}")
            row[j] = x
        for j in itertools.compress(cols, v):
            y = v[j]
            if y < 0:
                raise InvalidInputError(f"bad relation word {v!r}")
            x = row.get(j, 0) - y
            if x:
                row[j] = x
            else:
                del row[j]
        rows.append(row)
    return rows


class MonoidPresentation(CommutativeMonoid):
    """Finitely presented commutative monoid: generators and word relations.

    Elements are exponent words in N^generators; ``op`` is word addition.
    Word equality in the presented monoid is deliberately NOT decided here,
    nor is cancellativity; only the Grothendieck group of the presentation
    is computed (``snf``).  A presentation is immutable, compares and
    hashes by its two fields, and its repr names them.  Its words are read
    once, at construction, into the sparse rows u - v of its relation
    matrix; ``snf`` takes them over and drops them, and a copy or a pickle
    is rebuilt from the two fields.
    """

    def __init__(self, generators: int, relations=()):
        g = generators
        if isinstance(g, bool) or not isinstance(g, int) or g < 0:
            raise InvalidInputError(f"generator count must be a nonnegative int, got {g!r}")
        rels = []
        try:
            for rel in relations:
                if len(rel) != 2:
                    raise InvalidInputError(f"relation must be a word pair, got {rel!r}")
                u, v = rel
                rels.append((tuple(u), tuple(v)))
        except Exception:
            _word_rows(rels, g)  # a bad word before the fault is named first
            raise
        # read once: snf takes these rows and drops them
        object.__setattr__(self, "_rows", _word_rows(rels, g))
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "relations", tuple(rels))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.relations) == (other.generators, other.relations)

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __reduce__(self):
        return MonoidPresentation, (self.generators, self.relations)

    def __repr__(self):
        return f"MonoidPresentation(generators={self.generators!r}, relations={self.relations!r})"

    @property
    def identity(self) -> tuple:
        return (0,) * self.generators

    def op(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(add, a, b))

    def validate(self, a) -> tuple:
        if not isinstance(a, tuple) or len(a) != self.generators:
            raise MalformedElementError(f"expected {self.generators}-word, got {a!r}")
        if not _is_exponent_word(a):
            raise MalformedElementError(f"bad exponent word {a!r}")
        return a

    def elements(self):
        raise UnsupportedFamilyError("presented monoids are not enumerable")

    def size(self):
        raise UnsupportedFamilyError("presented monoids are not finite")

    def sample(self, rng: Lcg64, bound: int = 6) -> tuple:
        return tuple(rng.below(bound + 1) for _ in range(self.generators))

    @functools.cached_property
    def snf(self) -> grothendieck.SNFResult:
        """The Smith normal form of ``presentation_matrix(p)``, bit for bit,
        kept; callers must not mutate it.  It takes over the rows read off the
        words at construction, so no dense matrix is made."""
        rows = self.__dict__.pop("_rows", None)  # plain deletion is refused
        if rows is None:  # an elimination that raised or was interrupted took them
            rows = _word_rows(self.relations, self.generators)
        return grothendieck._eliminate(rows, self.generators)

    @functools.cached_property
    def _slots(self) -> list:
        return snf_slots(self.snf)

    def groth_strategy(self) -> str:
        """presentation-lattice: [a, b] = [c, d] iff (a+d) - (b+c) lies in
        the integer row lattice of the relation matrix, read off ``snf``."""
        return "presentation-lattice"

    def groth_key(self, a: tuple, b: tuple) -> tuple:
        """y = (a-b)V with free slots kept, torsion slots reduced mod d_j and
        unit slots dropped."""
        return lattice_key(self._slots, list(map(sub, a, b)))

    def groth_structure(self) -> FGAbelianStructure:
        """Z^generators modulo the relation rows."""
        return structure_from_snf(self.snf)

    def total_order(self) -> grothendieck.GrothOrder:
        """Lexicographic on the free slots of ``snf``; any torsion refuses."""
        return build_total_order(self.groth_structure(), self.snf)

    def to_dict(self) -> dict:
        return {
            "kind": "presentation",
            "generators": self.generators,
            "relations": [[list(u), list(v)] for u, v in self.relations],
        }


class DirectSumMonoid(CommutativeMonoid):
    """Finite direct sum of monoids; elements are tuples, one slot per component."""

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise InvalidInputError("direct sum needs at least one component")
        self.components = comps
        self.is_finite = all(c.is_finite for c in comps)
        self._identity = tuple(c.identity for c in comps)

    @property
    def identity(self) -> tuple:
        return self._identity

    def op(self, a: tuple, b: tuple) -> tuple:
        return tuple(c.op(x, y) for c, x, y in zip(self.components, a, b))

    def validate(self, a) -> tuple:
        if not isinstance(a, tuple) or len(a) != len(self.components):
            raise MalformedElementError(f"expected {len(self.components)}-component tuple")
        return tuple(c.validate(x) for c, x in zip(self.components, a))

    def elements(self):
        if not self.is_finite:
            raise UnsupportedFamilyError("direct sum has an infinite component")
        return itertools.product(*(c.elements() for c in self.components))

    def size(self) -> int:
        n = 1
        for c in self.components:
            n *= c.size()
        return n

    def cancellative(self) -> bool:
        return all(c.cancellative() for c in self.components)

    def translation_injective(self, a: tuple) -> bool:
        return all(c.translation_injective(x) for c, x in zip(self.components, a))

    def groth_strategy(self) -> str:
        """componentwise unless every component cancels by cross sums: G of a
        direct sum is the sum of the components' G, never one carrier of tuples."""
        cancellative = all(c.groth_strategy() == "cancellative-cross-sum" for c in self.components)
        return "cancellative-cross-sum" if cancellative else "componentwise"

    def groth_key(self, a: tuple, b: tuple) -> tuple:
        return tuple(c.groth_key(x, y) for c, x, y in zip(self.components, a, b))

    def groth_structure(self) -> FGAbelianStructure:
        return direct_sum_groth(c.groth_structure() for c in self.components)

    def quasi_zeros(self) -> set:
        """x + y = y holds slot by slot, so the set is the product of the
        components' sets (an infinite component refuses, as M itself would)."""
        return set(itertools.product(*(c.quasi_zeros() for c in self.components)))

    def quasi_zero_size(self) -> int:
        """The product of the components' counts; the set is never built."""
        return prod(c.quasi_zero_size() for c in self.components)

    def sample(self, rng: Lcg64, bound: int = 6) -> tuple:
        return tuple(c.sample(rng, bound) for c in self.components)

    def to_dict(self) -> dict:
        return {"kind": "direct_sum", "components": [c.to_dict() for c in self.components]}

    def __eq__(self, other):
        return isinstance(other, DirectSumMonoid) and self.components == other.components

    def __hash__(self):
        return hash(tuple(self.components))

    def __repr__(self):
        return f"DirectSumMonoid({self.components!r})"


def idempotent_power(op, s):
    """The first of s, s*s, s*s*s, ... that is idempotent (finite carriers)."""
    e = s
    while op(e, e) != e:
        e = op(e, s)
    return e


def kernel_group(op, elems) -> tuple:
    """(e, inverse map, order map) of K = elems*e for a finite commutative monoid.

    e is the idempotent power of the product of the whole carrier ``elems``
    under ``op``; K is the minimal ideal, a group with identity e.  One walk
    k, k^2, ..., k^n = e from a k in K not met yet settles its whole cycle:
    k^i has inverse k^(n-i) and order n/gcd(i, n).
    """
    e = idempotent_power(op, functools.reduce(op, elems))
    inv, order = {}, {}
    for a in elems:
        if a in inv:  # already met, so a lies in K and a*e = a
            continue
        k = op(a, e)
        if k in inv:
            continue
        powers = [e, k]
        while powers[-1] != e:
            powers.append(op(powers[-1], k))
        n = len(powers) - 1
        for i in range(1, n + 1):
            inv[powers[i]] = powers[n - i]
            order[powers[i]] = n // gcd(i, n)
    return e, inv, order


# ---------------------------------------------------------------------------
# serialization

def monoid_from_dict(data: dict) -> CommutativeMonoid:
    """Build a monoid from its JSON description (five fixed kinds)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidInputError("monoid description needs a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "cayley":
            table = data["table"]
            size = data.get("size", len(table))
            if isinstance(size, bool) or not isinstance(size, int):
                raise InvalidInputError(f"size must be an integer, got {size!r}")
            if size != len(table):
                raise InvalidInputError("declared size disagrees with table")
            return CayleyMonoid(table, identity=data.get("identity", 0))
        if kind == "free":
            return FreeCommutativeMonoid(data["rank"])
        if kind == "lattice":
            return IntegerLatticeMonoid(data["rank"])
        if kind == "presentation":
            rels = tuple(
                (tuple(u), tuple(v)) for u, v in data.get("relations", [])
            )
            return MonoidPresentation(data["generators"], rels)
        if kind == "direct_sum":
            return DirectSumMonoid(
                monoid_from_dict(c) for c in data["components"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {kind!r} description: {exc}") from exc
    raise InvalidInputError(f"unknown monoid kind {kind!r}")
