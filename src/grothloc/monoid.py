"""Commutative monoid families and their element-level operations.

Elements are plain values: integers index Cayley-table carriers, tuples of
integers carry free / lattice / presented / direct-sum elements.  All
arithmetic is exact; validation is eager for finite tables.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AxiomViolationError,
    InvalidInputError,
    MalformedElementError,
    MissingOrderError,
    UnsupportedFamilyError,
)
from .rng import Lcg64

MonoidValue = int | tuple

# cells per block of the associativity check (one pass up to 161 elements)
ASSOC_BLOCK_CELLS = 1 << 22


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

    def power(self, a: MonoidValue, n: int) -> MonoidValue:
        """n-fold sum of a with itself (n >= 0)."""
        acc = self.identity
        for _ in range(n):
            acc = self.op(acc, a)
        return acc


class CayleyMonoid(CommutativeMonoid):
    """Finite commutative monoid given by an explicit operation table.

    The table is validated eagerly: integer entries (no bools or floats),
    closure and shape, commutativity, associativity, identity row.  A
    violation raises AxiomViolationError carrying the offending law and
    witness triple; malformed entries raise InvalidInputError.
    """

    is_finite = True

    def __init__(self, table, identity: int = 0):
        try:
            if any(
                isinstance(v, bool) or not isinstance(v, (int, np.integer))
                for row in table for v in row
            ):
                raise InvalidInputError("table entries must be integers")
            arr = np.asarray(table, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed table: {exc}") from exc
        if isinstance(identity, bool) or not isinstance(identity, (int, np.integer)):
            raise InvalidInputError(f"identity must be an integer, got {identity!r}")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError(f"table must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n == 0:
            raise InvalidInputError("empty Cayley table")
        if arr.min() < 0 or arr.max() >= n:
            i, j = np.unravel_index(int(np.argmax((arr < 0) | (arr >= n))), arr.shape)
            raise AxiomViolationError("closure", (int(i), int(j), int(arr[i, j])))
        if not (0 <= identity < n):
            raise InvalidInputError(f"identity {identity} out of range")
        if not np.array_equal(arr, arr.T):
            i, j = np.unravel_index(int(np.argmax(arr != arr.T)), arr.shape)
            raise AxiomViolationError("commutativity", (int(i), int(j)))
        # (a+b)+c vs a+(b+c) over all triples, a few rows of a at a time
        rows = max(1, ASSOC_BLOCK_CELLS // (n * n))
        for lo in range(0, n, rows):
            block = arr[lo:lo + rows]
            left = arr[block]        # left[a,b,c] = (a+b)+c
            right = block[:, arr]    # right[a,b,c] = a+(b+c)
            if not np.array_equal(left, right):
                i, j, k = np.unravel_index(int(np.argmax(left != right)), left.shape)
                raise AxiomViolationError("associativity", (lo + int(i), int(j), int(k)))
        if not np.array_equal(arr[identity], np.arange(n)):
            bad = int(np.argmax(arr[identity] != np.arange(n)))
            raise AxiomViolationError("identity", (identity, bad))
        arr.setflags(write=False)
        self.table = arr
        # plain lists for op: indexing them is ~10x faster than numpy scalars
        self._rows = arr.tolist()
        self._size = n
        self._identity = int(identity)

    @property
    def identity(self) -> int:
        return self._identity

    def op(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def validate(self, a) -> int:
        if not isinstance(a, (int, np.integer)) or isinstance(a, bool):
            raise MalformedElementError(f"expected carrier index, got {a!r}")
        if not 0 <= a < self._size:
            raise MalformedElementError(f"index {a} outside carrier of size {self._size}")
        return int(a)

    def elements(self):
        return range(self._size)

    def size(self) -> int:
        return self._size

    def __eq__(self, other):
        return (
            isinstance(other, CayleyMonoid)
            and self._identity == other._identity
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self._identity, self.table.tobytes()))

    def __repr__(self):
        return f"CayleyMonoid(size={self._size})"


class _TupleMonoid(CommutativeMonoid):
    """Common code for families whose elements are integer tuples of fixed rank."""

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
        return tuple(x + y for x, y in zip(a, b))

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


class IntegerLatticeMonoid(_TupleMonoid):
    """Z^k under componentwise addition (an abelian group viewed as a monoid)."""

    def validate(self, a) -> tuple:
        self._check_shape(a)
        return a


@dataclass(frozen=True)
class MonoidPresentation:
    """Finitely presented commutative monoid: generators and word relations.

    Elements are exponent words in N^generators; ``op`` is word addition.
    Word equality in the presented monoid is deliberately NOT decided here;
    only the Grothendieck group of the presentation is computed downstream.
    """

    generators: int
    relations: tuple = field(default_factory=tuple)

    is_finite = False

    def __post_init__(self):
        g = self.generators
        if isinstance(g, bool) or not isinstance(g, int) or g < 0:
            raise InvalidInputError(f"generator count must be a nonnegative int, got {g!r}")
        rels = []
        for rel in self.relations:
            if len(rel) != 2:
                raise InvalidInputError(f"relation must be a word pair, got {rel!r}")
            u, v = (tuple(side) for side in rel)
            for side in (u, v):
                if len(side) != g or any(
                    not isinstance(x, int) or isinstance(x, bool) or x < 0
                    for x in side
                ):
                    raise InvalidInputError(f"bad relation word {side!r}")
            rels.append((u, v))
        object.__setattr__(self, "relations", tuple(rels))

    @property
    def identity(self) -> tuple:
        return (0,) * self.generators

    def op(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def validate(self, a) -> tuple:
        if not isinstance(a, tuple) or len(a) != self.generators:
            raise MalformedElementError(f"expected {self.generators}-word, got {a!r}")
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in a):
            raise MalformedElementError(f"bad exponent word {a!r}")
        return a

    def power(self, a: tuple, n: int) -> tuple:
        return tuple(x * n for x in a)

    def elements(self):
        raise UnsupportedFamilyError("presented monoids are not enumerable")

    def size(self):
        raise UnsupportedFamilyError("presented monoids are not finite")


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

    def __eq__(self, other):
        return isinstance(other, DirectSumMonoid) and self.components == other.components

    def __hash__(self):
        return hash(tuple(self.components))

    def __repr__(self):
        return f"DirectSumMonoid({self.components!r})"


class OrderedMonoid(CommutativeMonoid):
    """A monoid together with a claimed compatible total order.

    ``compare(a, b)`` returns -1, 0, or 1.  The order is NOT validated at
    construction; use find_order_violation / check_order_compatible.
    """

    def __init__(self, monoid: CommutativeMonoid, compare):
        self.monoid = monoid
        self.compare = compare
        self.is_finite = monoid.is_finite

    @property
    def identity(self):
        return self.monoid.identity

    def op(self, a, b):
        return self.monoid.op(a, b)

    def validate(self, a):
        return self.monoid.validate(a)

    def elements(self):
        return self.monoid.elements()

    def size(self):
        return self.monoid.size()

    def __eq__(self, other):
        return (
            isinstance(other, OrderedMonoid)
            and self.monoid == other.monoid
            and self.compare is other.compare
        )

    def __hash__(self):
        return hash((self.monoid, id(self.compare)))

    def __repr__(self):
        return f"OrderedMonoid({self.monoid!r})"


def base_monoid(m: CommutativeMonoid) -> CommutativeMonoid:
    """Strip an OrderedMonoid wrapper, if any."""
    return m.monoid if isinstance(m, OrderedMonoid) else m


def numeric_compare(a: int, b: int) -> int:
    return (a > b) - (a < b)


def tuple_lex_compare(a: tuple, b: tuple) -> int:
    return (a > b) - (a < b)


def natural_order(m: CommutativeMonoid) -> OrderedMonoid:
    """Equip a free or lattice monoid with its lexicographic order."""
    m = base_monoid(m)
    if isinstance(m, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
        return OrderedMonoid(m, tuple_lex_compare)
    raise MissingOrderError(f"no natural total order for {type(m).__name__}")


def is_cancellative(m: CommutativeMonoid) -> bool:
    """Decide a+c = b+c => a = b.

    Exhaustive for Cayley tables, structural for free/lattice families,
    componentwise for direct sums; presented monoids are rejected.
    """
    m = base_monoid(m)
    if isinstance(m, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
        return True
    if isinstance(m, CayleyMonoid):
        # a+c = b+c for a != b iff some column fails to be a bijection
        n = m.size()
        cols = np.sort(m.table, axis=0)
        return bool(np.array_equal(cols, np.tile(np.arange(n)[:, None], (1, n))))
    if isinstance(m, DirectSumMonoid):
        return all(is_cancellative(c) for c in m.components)
    raise UnsupportedFamilyError(
        f"cancellativity is not decided for {type(m).__name__}"
    )


def quasi_zero_submonoid(m: CommutativeMonoid) -> set:
    """{x : x + y = y for some y}; the witness y makes x act like a zero."""
    m = base_monoid(m)
    if not m.is_finite:
        raise UnsupportedFamilyError("quasi-zero search needs a finite carrier")
    elems = list(m.elements())
    return {x for x in elems if any(m.op(x, y) == y for y in elems)}


def lex_compare(m: DirectSumMonoid, a: tuple, b: tuple) -> int:
    """Lexicographic comparison on a direct sum of ordered components."""
    if not isinstance(m, DirectSumMonoid):
        raise UnsupportedFamilyError("lex_compare expects a direct sum")
    for comp, x, y in zip(m.components, a, b):
        if isinstance(comp, OrderedMonoid):
            cmp = comp.compare
        elif isinstance(comp, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
            cmp = tuple_lex_compare
        else:
            raise MissingOrderError(f"component {comp!r} carries no total order")
        s = cmp(x, y)
        if s != 0:
            return s
    return 0


def sample_element(m: CommutativeMonoid, rng: Lcg64, bound: int = 6) -> MonoidValue:
    """Draw a pseudo-random element; ``bound`` caps tuple coordinates."""
    m0 = base_monoid(m)
    if isinstance(m0, CayleyMonoid):
        return rng.below(m0.size())
    if isinstance(m0, (FreeCommutativeMonoid, MonoidPresentation)):
        k = m0.generators if isinstance(m0, MonoidPresentation) else m0.rank
        return tuple(rng.below(bound + 1) for _ in range(k))
    if isinstance(m0, IntegerLatticeMonoid):
        return tuple(rng.below(2 * bound + 1) - bound for _ in range(m0.rank))
    if isinstance(m0, DirectSumMonoid):
        return tuple(sample_element(c, rng, bound) for c in m0.components)
    raise UnsupportedFamilyError(f"cannot sample from {type(m0).__name__}")


def find_order_violation(om: OrderedMonoid, sample_budget: int = 1000,
                         seed: int = 0, bound: int = 6):
    """Search for a compatibility failure of the claimed order.

    Returns a violating triple (a, b, c) with a < b but not a+c < b+c
    (non-strict failure counts only on cancellative monoids), or None.
    Finite monoids are swept exhaustively; infinite families are sampled.
    """
    try:
        strict = is_cancellative(om)
    except UnsupportedFamilyError:
        strict = False
    if om.is_finite:
        triples = itertools.product(om.elements(), repeat=3)
    else:
        rng = Lcg64(seed)
        triples = (
            tuple(sample_element(om, rng, bound) for _ in range(3))
            for _ in range(sample_budget)
        )
    for a, b, c in triples:
        if om.compare(a, b) < 0:
            s = om.compare(om.op(a, c), om.op(b, c))
            if s > 0 or (s == 0 and strict):
                return (a, b, c)
    return None


def check_order_compatible(om: OrderedMonoid, sample_budget: int = 1000,
                           seed: int = 0, bound: int = 6) -> bool:
    return find_order_violation(om, sample_budget, seed, bound) is None


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


def monoid_to_dict(m: CommutativeMonoid) -> dict:
    m = base_monoid(m)
    if isinstance(m, CayleyMonoid):
        return {
            "kind": "cayley",
            "size": m.size(),
            "identity": m.identity,
            "table": m.table.tolist(),
        }
    if isinstance(m, FreeCommutativeMonoid):
        return {"kind": "free", "rank": m.rank}
    if isinstance(m, IntegerLatticeMonoid):
        return {"kind": "lattice", "rank": m.rank}
    if isinstance(m, MonoidPresentation):
        return {
            "kind": "presentation",
            "generators": m.generators,
            "relations": [[list(u), list(v)] for u, v in m.relations],
        }
    if isinstance(m, DirectSumMonoid):
        return {
            "kind": "direct_sum",
            "components": [monoid_to_dict(c) for c in m.components],
        }
    raise UnsupportedFamilyError(f"cannot serialize {type(m).__name__}")
