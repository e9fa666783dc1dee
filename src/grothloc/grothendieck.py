"""Grothendieck group of a commutative monoid, exactly.

A class is an ordered pair [a, b] read as "a minus b"; two pairs are
identified when (a+d) + m = (b+c) + m for some witness m.  Every class has
a hashable normal form, ``GrothendieckGroup.key``, and equality is key
equality, so class lists, term merging and membership tests are dict and
set operations.  The base monoid's family computes the key, the label
``GrothendieckGroup.strategy`` and the structure (``groth_key``,
``groth_strategy`` and ``groth_structure`` in ``monoid``).

All integer linear algebra uses arbitrary-precision Python ints.
"""
from __future__ import annotations

import functools
import itertools
import numbers
from collections import namedtuple
from operator import mul, sub

from .errors import (
    AxiomViolationError,
    InvalidInputError,
    PreconditionError,
    TorsionWitnessError,
    UnsupportedFamilyError,
)
from .rng import Lcg64


class GrothElement(namedtuple("GrothElement", "first second")):
    """Formal difference first - second of two monoid values; its normal
    form is GrothendieckGroup.key."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Smith normal form


class SNFResult:
    """D = U * A * V with U, V unimodular and D diagonal.

    ``invariant_factors`` lists the diagonal of D (length min(nrows, ncols)),
    nonnegative, each entry dividing the next, zeros trailing; it is all of
    D the result holds.  ``.D`` builds the dense nrows x ncols list of lists
    from it on its first read and keeps it.  U is held as the log of row
    operations the elimination made, ``row_ops`` (flat triples, see
    ``_replay``); ``.U`` replays the log on the identity on its first read
    and keeps the dense nrows x nrows list of lists.  A caller that reads
    neither never pays for them.
    """

    def __init__(self, V: list, invariant_factors: list, nrows: int, ncols: int, row_ops: list):
        self.V = V
        self.invariant_factors = invariant_factors
        self.nrows = nrows
        self.ncols = ncols
        self.row_ops = row_ops

    def __repr__(self):
        return (
            f"SNFResult(D={self.D!r}, V={self.V!r}, invariant_factors={self.invariant_factors!r}, "
            f"nrows={self.nrows!r}, ncols={self.ncols!r}, row_ops={self.row_ops!r})"
        )

    @functools.cached_property
    def D(self) -> list:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, d in enumerate(self.invariant_factors):
            out[i][i] = d
        return out

    @functools.cached_property
    def U(self) -> list:
        m = self.nrows
        return _dense_rows(_replay(self.row_ops, _sparse_eye(m)), m, range(m))


def _eye(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _sparse_eye(n: int) -> list:
    return [{i: 1} for i in range(n)]


def _replay(ops: list, rows: list) -> list:
    """Apply logged row operations to sparse ``rows`` in place and return them.

    ``ops`` is flat, three entries per operation (i, j, q): q == 0 swaps rows
    i and j, i == j negates row i, and otherwise row j += q * row i,
    dropping entries that cancel.  A run of consecutive additions from one
    source row reads its entries once; a swap, a negation or a new source
    row starts a new run.
    """
    it = iter(ops)
    src = None  # the source row of the current run, and its entries
    for i, j, q in zip(it, it, it):
        if not q:
            rows[i], rows[j] = rows[j], rows[i]
            src = None
        elif i == j:
            rows[i] = {k: -x for k, x in rows[i].items()}
            src = None
        else:
            if i != src:
                src, entries = i, tuple(rows[i].items())
            out = rows[j]
            for k, y in entries:
                if k in out:
                    x = out[k] + q * y
                    if x:
                        out[k] = x
                    else:
                        del out[k]
                else:
                    out[k] = q * y
    return rows


def _dense_rows(rows: list, width: int, at) -> list:
    """Sparse rows {k: value} as lists of ``width``, entry k at index at[k]."""
    out = []
    for row in rows:
        full = [0] * width
        for k, x in row.items():
            full[at[k]] = x
        out.append(full)
    return out


def _matmul(a: list, b: list) -> list:
    """a * b over Z, skipping the zero entries of both factors."""
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    nonzeros = [list(itertools.compress(enumerate(row), row)) for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for i, x in itertools.compress(enumerate(row), row):
            for j, y in nonzeros[i]:
                acc[j] += x * y
        out.append(acc)
    return out


def _as_int(x) -> int:
    """An exact integer entry: Python or numpy ints, never bools, floats or strings."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise InvalidInputError(f"matrix entries must be integers, got {x!r}")
    return int(x)


def _int_row(row) -> list:
    """``row`` itself when it is a list of Python ints, else a vetted copy."""
    if type(row) is list and set(map(type, row)) <= {int}:
        return row
    return list(map(_as_int, row))


def _pivot_diagonal(A: list, col: list, t: int) -> list:
    """d_0, ..., d_(t-1) when each row i < t of A is the single entry d_i
    in column col[i], every d_i >= 1 and each d_i divides the next."""
    diag, prev = [], 1
    for i in range(t):
        row = A[i]
        d = row.get(col[i], 0)
        if len(row) != 1 or d < 1:
            raise AssertionError(f"Smith form broke: pivot row {i} is not d_i >= 1 on the diagonal")
        if d % prev:
            raise AssertionError(f"Smith form broke: d_{i - 1} = {prev} does not divide d_{i} = {d}")
        diag.append(d)
        prev = d
    return diag


def _eliminate(orig: list, n: int) -> SNFResult:
    """The Smith normal form of the matrix with sparse rows ``orig``.

    Each row is {col: value} with nonzero plain-int values and columns in
    range(n); the rows are taken over, and end as U*A.  Each step pivots on
    a minimum-|value| entry.  A tie goes to the row with the fewest
    nonzeros, then to the first such row, and within the row to the first
    column in elimination order.  The short row spreads the least fill-in
    (Markowitz's rule), and row order breaks only ties of equal size: a
    shuffled multiplication table costs the row additions of a sorted one.
    The step then clears the pivot's column and its row one entry at a
    time by Euclid: divide, subtract, and swap a remainder in as the pivot,
    until the entry is 0.  Finishing each gcd in place keeps entries
    small; arithmetic is exact regardless.  A lone 1 (a lone -1 once
    negated), as every pivot of a Cayley table is, skips Euclid: each
    listed row i below pops its entry x and logs (t, i, -x), as Euclid would.

    A presentation's rows were read off its words once, when it was built,
    and come here without the words being read again (``MonoidPresentation.snf``).

    A is kept as sparse rows and V is dense, so the pivot search, the row
    and column passes and the divisibility scan read only nonzeros.  A's
    rows are keyed by original column; a column swap permutes the map from
    elimination order to original column instead of touching every row.  No
    U is carried: each row swap, negation and row addition is applied to A
    and logged, and the log is returned (see ``SNFResult``).

    A column index lists, for each original column, the rows that may meet
    it: each row carries the label of the input row it started as, a row
    swap moves two labels, and a row or column addition that gives a row a
    new entry adds its label to that column's list.  An entry that cancels
    stays listed and is filtered out by membership when the list is read.
    The row pass of a pivot column and the rows a column swap brings into
    the pivot column are read off the index, so a pass visits only the rows
    listed there and not every row below the pivot.

    The certificate U*A*V == D is checked exactly on every call.  Each of
    the r rows of A that holds a pivot must be the single entry d_i at its
    diagonal position, with d_i >= 1 dividing d_(i+1) (``_pivot_diagonal``),
    and the rows past r must be empty.  Replaying the log on the input rows,
    run by run (``_replay``), gives U*A directly, in sparse rows: each pivot
    row must equal (U*A)_i * V, and each of the m - r rows past the last
    pivot must have (U*A)_i == 0, which implies (U*A)_i * V == 0 and skips
    the product.
    """
    m = len(orig)
    A = [dict(row) for row in orig]
    ops = []  # the row operations, three entries each (see _replay)
    V = _eye(n)
    col = list(range(n))  # column j of the elimination is original column col[j]
    pos = list(range(n))  # and original column c is column pos[c]
    label = list(range(m))  # row i of A started as input row label[i]
    at = label[:]  # and input row r is now row at[r]
    listed = [[] for _ in range(n)]  # original column c -> labels of rows that may meet it
    for r, row in zip(label, A):
        for c in row:
            listed[c].append(r)
    # At step t every row i >= t is zero in columns < t and every row i < t
    # is the single entry (i, i), so the passes below skip rows < t.

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        label[i], label[j] = label[j], label[i]
        at[label[i]], at[label[j]] = i, j
        ops.extend((i, j, 0))

    def swap_cols(i, j):
        col[i], col[j] = col[j], col[i]
        pos[col[i]], pos[col[j]] = i, j
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src; a column new to dst lists it
        out, r = A[dst], label[dst]
        for k, y in A[src].items():
            if k in out:
                x = out[k] + q * y
                if x:
                    out[k] = x
                else:
                    del out[k]
            else:
                out[k] = q * y
                listed[k].append(r)
        ops.extend((src, dst, q))

    def add_col(src, dst, q, meet):
        # column dst += q * column src; ``meet`` lists the rows where src is nonzero
        cs, cd = col[src], col[dst]
        for r in meet:
            row = A[r]
            if cd in row:
                x = row[cd] + q * row[cs]
                if x:
                    row[cd] = x
                else:
                    del row[cd]
            else:
                row[cd] = q * row[cs]
                listed[cd].append(label[r])
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = {k: -x for k, x in A[i].items()}
        ops.extend((i, i, -1))

    t = 0
    limit = min(m, n)
    while t < limit:
        # a minimum-|value| entry, in the shortest such row (the first on a
        # tie); only a lone +-1 cannot be beaten
        pi, best, size = None, 0, 0
        for i in range(t, m):
            row = A[i]
            if row:
                low = min(map(abs, row.values()))
                if not best or low < best or (low == best and len(row) < size):
                    pi, best, size = i, low, len(row)
                    if best == 1 and size == 1:
                        break
        if pi is None:
            break
        pj = min(pos[c] for c, v in A[pi].items() if abs(v) == best)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if A[t][col[t]] < 0:
            negate_row(t)
        if best == 1 and len(A[t]) == 1:
            # row i += -x * row t just drops x; a row listed twice pops 0
            ct = col[t]
            for i in sorted(i for i in map(at.__getitem__, listed[ct]) if i > t):
                x = A[i].pop(ct, 0)
                if x:
                    ops.extend((t, i, -x))
            t += 1
            continue
        while True:
            ct = col[t]
            # the rows below t that meet column t, in order; a pass changes
            # only row t and the row it works on, so the list stays exact, and
            # a row listed twice is clear by its second visit
            below = [i for i in map(at.__getitem__, listed[ct]) if i > t and ct in A[i]]
            for i in sorted(below):
                while ct in A[i]:  # Euclid: a remainder becomes the pivot
                    q = A[i][ct] // A[t][ct]
                    if q:
                        add_row(t, i, -q)
                    if ct in A[i]:
                        swap_rows(t, i)
            # only row t meets column t now, until a column swap refills it
            dirty = False
            meet = [t]
            for j in range(t + 1, n):
                while col[j] in A[t]:
                    q = A[t][col[j]] // A[t][col[t]]
                    if q:
                        add_col(t, j, -q, meet)
                    if col[j] in A[t]:
                        swap_cols(t, j)
                        # the rows that meet the new column t, each once
                        c = col[t]
                        meet = {i for i in map(at.__getitem__, listed[c]) if i >= t and c in A[i]}
                        dirty = True
            if dirty:
                continue
            # row and column t are clear; force the divisibility chain
            d = A[t][col[t]]
            if d == 1:
                break
            culprit = next(
                (i for i in range(t + 1, m) if any(x % d for x in A[i].values())),
                None,
            )
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1

    diag = _pivot_diagonal(A, col, t)
    ua = _replay(ops, orig)  # U*A in sparse rows, keyed by original column
    # rows t.. hold no pivot: they are empty in A, so zero in D
    if (
        any(A[t:])
        or any(ua[t:])
        or _matmul(_dense_rows(ua[:t], n, range(n)), V) != _dense_rows(A[:t], n, pos)
    ):
        raise AssertionError("transform bookkeeping broke: U*A*V != D")
    diag += [0] * (limit - t)
    return SNFResult(V=V, invariant_factors=diag, nrows=m, ncols=n, row_ops=ops)


def smith_normal_form(rows, ncols: int | None = None) -> SNFResult:
    """Diagonalize an integer matrix over Z, tracking both transforms.

    ``ncols`` is required when ``rows`` is empty.  Each input row goes
    straight into a sparse row ({col: value}); a list of Python ints is read
    in place, anything else (numpy ints, tuples, iterators) is vetted entry
    by entry first.  The sparse rows go to ``_eliminate``, the one
    elimination core, which ``MonoidPresentation.snf`` feeds directly; see there
    for the pivot rule, the row-operation log and the certificate checked
    on every call.  The result holds V, the invariant factors and the log;
    D and U are built when first read (see ``SNFResult``).
    """
    orig, width = [], None
    for row in rows:
        row = _int_row(row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InvalidInputError("ragged matrix")
        orig.append(dict(itertools.compress(enumerate(row), row)))
    if orig:
        if ncols is not None and ncols != width:
            raise InvalidInputError("ncols disagrees with row length")
        return _eliminate(orig, width)
    if ncols is None:
        raise InvalidInputError("empty matrix needs an explicit ncols")
    return _eliminate(orig, ncols)


# ---------------------------------------------------------------------------
# group structure records


class FGAbelianStructure(namedtuple("FGAbelianStructure", "free_rank torsion_invariants")):
    """Finitely generated abelian group Z^free_rank + sum of Z/d_i.

    torsion_invariants is a tuple, an ascending divisibility chain with
    every d >= 2.
    """

    __slots__ = ()

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion_invariants:
            n *= d
        return n


def presentation_matrix(p) -> list:
    """One row u - v per relation, over the generator coordinates."""
    return [list(map(sub, u, v)) for u, v in p.relations]


def snf_slots(snf: SNFResult) -> list:
    """(j, column j of V, d_j) for every non-unit slot j of y = wV.

    w lies in the row lattice of A exactly when d_j divides y_j for every j,
    with d_j = 0 past the diagonal.  A slot with d_j = 1 is then always
    zero and is dropped; d_j = 0 marks a free slot, d_j >= 2 a torsion one.
    """
    diag = snf.invariant_factors
    return [
        (j, [row[j] for row in snf.V], diag[j] if j < len(diag) else 0)
        for j in range(snf.ncols)
        if j >= len(diag) or diag[j] != 1
    ]


def lattice_key(slots: list, w) -> tuple:
    """y = wV on the given slots, each torsion slot reduced mod its d_j."""
    out = []
    for _, col, d in slots:
        y = sum(map(mul, w, col))
        out.append(y % d if d else y)
    return tuple(out)


def structure_from_snf(snf: SNFResult) -> FGAbelianStructure:
    nonzero = [d for d in snf.invariant_factors if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    return FGAbelianStructure(snf.ncols - len(nonzero), torsion)


def presentation_snf(p) -> SNFResult:
    """The Smith normal form of a presentation's relation matrix, kept on it."""
    return p.snf


# ---------------------------------------------------------------------------
# the group itself


class GrothendieckGroup:
    """Pairs over a base monoid with a decidable identification."""

    def __init__(self, base):
        self.base = base
        self.strategy = base.groth_strategy()

    # -- construction

    def element(self, a, b) -> GrothElement:
        return GrothElement(self.base.validate(a), self.base.validate(b))

    def zero(self) -> GrothElement:
        e = self.base.identity
        return GrothElement(e, e)

    def canonical(self, m) -> GrothElement:
        """The image of a monoid element: [m, 0]."""
        return GrothElement(self.base.validate(m), self.base.identity)

    # -- arithmetic

    def add(self, x: GrothElement, y: GrothElement) -> GrothElement:
        m = self.base
        return GrothElement(m.op(x.first, y.first), m.op(x.second, y.second))

    def neg(self, x: GrothElement) -> GrothElement:
        return GrothElement(x.second, x.first)

    def sub(self, x: GrothElement, y: GrothElement) -> GrothElement:
        return self.add(x, self.neg(y))

    def nmul(self, n: int, x: GrothElement) -> GrothElement:
        if n < 0:
            return self.nmul(-n, self.neg(x))
        acc = self.zero()
        for _ in range(n):
            acc = self.add(acc, x)
        return acc

    # -- normal form and equality

    def key(self, x: GrothElement):
        """Hashable normal form: key(x) == key(y) exactly when x and y are one class."""
        return self.base.groth_key(x.first, x.second)

    def eq(self, x: GrothElement, y: GrothElement) -> bool:
        return self.key(x) == self.key(y)

    def is_zero(self, x: GrothElement) -> bool:
        return self.eq(x, self.zero())

    def is_trivial(self) -> bool:
        """Whether every class collapses to zero: G(M) has order 1."""
        return self.base.groth_structure().order() == 1


def canonical_map_injective(group: GrothendieckGroup) -> bool:
    """Whether m -> [m, 0] is injective: [a, 0] = [b, 0] means a + m = b + m
    for some m, so it is exactly when the base cancels."""
    return group.base.cancellative()


def groth_classes(group: GrothendieckGroup) -> list:
    """Representatives of all classes over a finite base, first-seen order.

    Only the row [a0, b] of the first carrier element a0 is keyed: b -> the
    key a0 + inverse_K(b+e) maps the carrier onto K, so that row already
    meets every class, in the order a scan of all pairs [a, b] meets them.
    """
    base = group.base
    if not base.is_finite:
        raise UnsupportedFamilyError("class enumeration needs a finite base")
    elems = list(base.elements())
    reps = {}
    for b in elems:
        x = GrothElement(elems[0], b)
        reps.setdefault(group.key(x), x)
    return list(reps.values())


# ---------------------------------------------------------------------------
# universal property


def universal_extend(group: GrothendieckGroup, g, target,
                     samples: int = 200, seed: int = 0):
    """Extend a monoid morphism g: M -> H, H a finite table, to h: G(M) -> H.

    h([a, b]) = g(a) - g(b).  The morphism law for g is verified first,
    exhaustively when the base is finite and by sampling otherwise.
    """
    if not target.cancellative():  # a finite monoid that cancels is a group
        raise PreconditionError("target table is not a group")
    gf = g.__getitem__ if isinstance(g, dict) else g
    base = group.base
    if gf(base.identity) != target.identity:
        raise AxiomViolationError("morphism-identity", (base.identity,))
    if base.is_finite:
        pairs = itertools.combinations_with_replacement(list(base.elements()), 2)
    else:
        rng = Lcg64(seed)
        pairs = (
            (base.sample(rng), base.sample(rng))
            for _ in range(samples)
        )
    for a, b in pairs:
        if gf(base.op(a, b)) != target.op(gf(a), gf(b)):
            raise AxiomViolationError("morphism", (a, b))
    inv = target.kernel[1]

    def h(x: GrothElement):
        return target.op(gf(x.first), inv[gf(x.second)])

    return h


# ---------------------------------------------------------------------------
# structure of finite Grothendieck groups


def finite_groth_structure(m) -> FGAbelianStructure:
    """Invariant-factor decomposition of G(M) for finite M.

    G(M) is the kernel group K = M + e.  For a prime p with p-parts p^e_i of
    the invariant factors, #{x in K : ord(x) | p^k} = p^(sum_i min(k, e_i)),
    so the step from k-1 to k counts the invariant factors divisible by p^k.
    """
    if not m.is_finite:
        raise UnsupportedFamilyError("the kernel group needs a finite base")
    orders = m.kernel[2].values()
    n = len(orders)
    invariants = []  # largest first
    rest, p = n, 2
    while rest > 1:
        if rest % p:
            p += 1
            continue
        sylow = 1
        while rest % p == 0:
            rest //= p
            sylow *= p
        # for pk = p, p^2, ...: counted = p^s with s = sum_i min(k, e_i), and
        # the s - prev largest invariant factors are divisible by pk
        s, pk = 0, 1
        while p ** s < sylow:
            pk *= p
            counted = sum(1 for o in orders if pk % o == 0)
            prev = s
            while p ** s < counted:
                s += 1
            if p ** s != counted or s == prev:
                raise AxiomViolationError("abelian-classification", (n, pk, counted))
            invariants += [1] * (s - prev - len(invariants))
            for i in range(s - prev):
                invariants[i] *= p
    return FGAbelianStructure(0, tuple(reversed(invariants)))


def monoid_groth_structure(m) -> FGAbelianStructure:
    """Structure of G(M), as M's family computes it."""
    return m.groth_structure()


def direct_sum_groth(parts) -> FGAbelianStructure:
    """Combine component structures: free ranks add, and the torsion
    invariants are re-chained by the Smith normal form of their diagonal."""
    parts = list(parts)
    pool = [d for s in parts for d in s.torsion_invariants]
    diag = [[d if i == j else 0 for j in range(len(pool))] for i, d in enumerate(pool)]
    torsion = structure_from_snf(smith_normal_form(diag, ncols=len(pool))).torsion_invariants
    return FGAbelianStructure(sum(s.free_rank for s in parts), torsion)

# ---------------------------------------------------------------------------
# total orders


def numeric_compare(a, b) -> int:
    """-1, 0 or 1; tuples compare lexicographically."""
    return (a > b) - (a < b)


def order_from_monoid_order(group: GrothendieckGroup, compare):
    """Transport a compatible total order on M to G(M): [a,b] < [c,d] iff a+d < b+c."""
    if not group.base.cancellative():
        raise PreconditionError("order transport needs a cancellative base")

    def cmp(x: GrothElement, y: GrothElement) -> int:
        m = group.base
        return compare(m.op(x.first, y.second), m.op(x.second, y.first))

    return cmp


class GrothOrder:
    """Total order on a torsion-free presented Grothendieck group.

    Every non-unit slot of the SNF is then free (``free_positions``), so the
    coordinates of a class are its lattice key (``GrothendieckGroup.key``);
    comparison is lexicographic on them.
    """

    def __init__(self, snf: SNFResult):
        self._slots = snf_slots(snf)
        self.free_positions = [j for j, _, _ in self._slots]

    def coords(self, x: GrothElement) -> tuple:
        return lattice_key(self._slots, list(map(sub, x.first, x.second)))

    def compare(self, x: GrothElement, y: GrothElement) -> int:
        return numeric_compare(self.coords(x), self.coords(y))


def build_total_order(structure: FGAbelianStructure, snf: SNFResult) -> GrothOrder:
    """Lexicographic order on the free coordinates; torsion is a hard stop.

    On torsion the error carries a concrete element (coordinates in the
    reported structure, free slots first) of minimal order n >= 2.
    """
    if structure.torsion_invariants:
        n = structure.torsion_invariants[0]
        witness = (0,) * structure.free_rank + (1,) + (0,) * (
            len(structure.torsion_invariants) - 1
        )
        raise TorsionWitnessError(witness, n)
    return GrothOrder(snf)
