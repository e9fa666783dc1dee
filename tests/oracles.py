"""Slow reference deciders that the library's class keys replaced.

Grothendieck classes follow the definition directly: [a, b] = [c, d] when
(a+d) + m = (b+c) + m for some witness m.  Fractions of a localization
follow theirs: r/s = r'/s' when t*(r*s' - r'*s) = 0 for some t in S.  The
deciders are kept only to cross-check ``GrothendieckGroup.key``,
``LocalizedRing.key`` and the dict-based class enumerations, and share no
code path with either key.

The dense Smith normal form takes the sparse elimination's steps in the
same order on dense lists, with U carried as a matrix, as its reference.
The replay of a row-operation log one operation at a time, each addition
reading its source row afresh, is the reference for the replay run by run.
The divisor-chain matching of element orders, the sweeps over every
element of R[M] and of a finite R, the saturation search over R x R, the
Cayley table of a multiplicative set and the numpy check of a Cayley
table over all n^3 triples are the library's earlier implementations,
kept verbatim as references for the structure read off the kernel group,
for the monoid criteria that decide zero-divisors and group-ring
injectivity, for the saturation read off e, for G(S) read off the kernel
group of S, and for Light's associativity test.  So are the
pair scans behind quasi-zeros, cancellativity, group tables and their
inverses, now read off the idempotent power e of the sum of a finite monoid,
and the cycle walk of every element of the kernel group, now one walk per
cycle.  The ideal enumeration, its fixpoint closure and the maximal and prime
ideal searches are the earlier way to find T for S = 1 + I, which the
library now reads off I + R*a = R.  Fraction and group-ring equality by
testing a difference for zero, and the closure of a multiplicative set built
in its constructor, are the references for the direct comparisons and the
closure built on first read.  The inverse graded map that clears every
coefficient over one hand-built common denominator, and the one that adds
the terms one by one in T^-1(R[M]), are the references for the sum read off
prefix and suffix products.  The split of a numerator degree by degree,
each part keyed, and the components added back one by one are the
references for the one-pass split and the sum over the shared
denominator.  Class equality branched on the strategy
label (cross sums, the +e witness, lattice membership of the difference)
and the gcd/lcm swaps that re-chain direct-sum torsion are the references
for key equality and for the Smith normal form of the torsion diagonal.
The determinantal divisors (gcds of all k x k minors, by Laplace expansion)
give the invariant factors of any integer matrix with no elimination at all.
The non-zero-divisor flag read off the product of the generators and the
injectivity of m -> [m, 0] tested on class keys are the references for the
flag that asks each generator's ring ``is_nonzerodivisor`` and for each
family's ``cancellative()``.  The morphism law of G(S) -> S^-1 R checked on every
pair of classes is the reference for the law checked on generators.  The
saturation and the unit classes that walk the powers of each element on
its own are the references for the one walk per cycle that settles every
power at once.  The monoid-ring sum, negation, product, ``element`` and
``from_list`` that called the coefficient ring's add/mul/neg/is_zero/validate
per term, and ``sample`` that passed its draws through ``element``, are the
references for the loops on plain int coefficients.  The units of Z/n as a
gcd list, the map R[M] -> R[G(M)] on classes [m, 0] and the search for a
triple that breaks a claimed order (exhaustive on finite monoids, sampled
otherwise) were library functions that only tests called.  The K[x] check
that looked every S element up in a depth-8 closure is the reference for
the one that builds each witness from its degree.  Group-ring arithmetic
on plain term lists that keys every term again at each step is the
reference for elements that carry the class keys they were merged by.  The
strategy choice, class key and structure that dispatched on the monoid's
family by ``isinstance`` are the references for each family's
``groth_strategy``, ``groth_key`` and ``groth_structure``.  Likewise the
rings' answers by ``isinstance``: McCoy's ladder on free and lattice
monoids over Z and Z/n, the corner ring's Z/n initialiser and the four
``MonoidRing`` gates of the localization are the references for each
ring's ``is_nonzerodivisor``, ``corner`` and ``grading``.
"""
import functools
import itertools
import operator
from collections import Counter
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from grothloc import (
    AxiomViolationError,
    CayleyMonoid,
    FGAbelianStructure,
    Fraction,
    GrothElement,
    GrothendieckGroup,
    MonoidPresentation,
    MonoidRing,
    MultiplicativeSet,
    Lcg64,
    groth_classes,
    localization_classes,
    presentation_matrix,
    smith_normal_form,
)
from grothloc.errors import InvalidInputError, PreconditionError, UnsupportedFamilyError
from grothloc.grothendieck import (
    _eye,
    direct_sum_groth,
    finite_groth_structure,
    lattice_key,
    snf_slots,
    structure_from_snf,
)
from grothloc.localization import EmbeddingReport
from grothloc.monoid import (
    CommutativeMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    IntegerLatticeMonoid,
    idempotent_power,
    kernel_group,
)
from grothloc.ring import IntegerRing, ModRing, MRElement, _deg_from_json, _power_inverses


def in_relation_lattice(p: MonoidPresentation, w) -> bool:
    """Whether w lies in the row lattice of p's relation matrix.

    y = wV from a fresh Smith normal form must vanish on free slots and be
    divisible by d_j on the others.
    """
    snf = smith_normal_form(presentation_matrix(p), ncols=p.generators)
    k = snf.ncols
    y = [sum(w[i] * snf.V[i][j] for i in range(k)) for j in range(k)]
    diag = snf.invariant_factors
    for j in range(k):
        d = diag[j] if j < len(diag) else 0
        if (y[j] != 0) if d == 0 else (y[j] % d != 0):
            return False
    return True


def scan_eq(group, x: GrothElement, y: GrothElement) -> bool:
    """Class equality by definition: every witness m of a finite carrier is
    tried, presentations test lattice membership, cancellative bases compare
    the cross sums."""
    m = group.base
    lhs = m.op(x.first, y.second)
    rhs = m.op(x.second, y.first)
    if isinstance(m, MonoidPresentation):
        return in_relation_lattice(m, [p - q for p, q in zip(lhs, rhs)])
    if lhs == rhs:
        return True
    if group.strategy == "cancellative-cross-sum":
        return False
    return any(m.op(lhs, w) == m.op(rhs, w) for w in m.elements())


def scan_classes(group) -> list:
    """Class representatives in first-seen order, by pairwise scanning."""
    elems = list(group.base.elements())
    reps = []
    for a in elems:
        for b in elems:
            x = GrothElement(a, b)
            if not any(scan_eq(group, x, r) for r in reps):
                reps.append(x)
    return reps


def strategy_eq(group, x: GrothElement, y: GrothElement) -> bool:
    """The earlier ``GrothendieckGroup.eq``: cross sums, the +e witness and
    lattice membership of the difference.

    Covers the families every base had before direct sums with a
    non-cancellative or presented component were accepted.  A finite base
    is decided with the e of its own whole carrier, whatever its label, so
    a finite direct sum is walked as one carrier of tuples.
    """
    m = group.base
    lhs = m.op(x.first, y.second)
    rhs = m.op(x.second, y.first)
    if lhs == rhs:
        return True
    if group.strategy == "cancellative-cross-sum":
        return False
    if m.is_finite:
        e = kernel_group(m.op, list(m.elements()))[0]
        return m.op(lhs, e) == m.op(rhs, e)
    return not any(lattice_key(group.base._slots, [p - q for p, q in zip(lhs, rhs)]))


# ---------------------------------------------------------------------------
# localizations of finite rings, by pairwise scanning


def killed_by_s(loc) -> set:
    """{x : t*x = 0 for some t in S}, every t of the closure tried."""
    ring = loc.ring
    svals = list(loc.sset.closure)
    return {
        x for x in ring.elements()
        if any(ring.is_zero(ring.mul(t, x)) for t in svals)
    }


def raw_loc_eq(loc, killed, f, g) -> bool:
    """r/s = r'/s' by definition: r*s' - r'*s is killed by some t in S."""
    ring = loc.ring
    return ring.sub(ring.mul(f.num, g.den), ring.mul(g.num, f.den)) in killed


def scan_localization_classes(loc, killed=None) -> list:
    """Class representatives of all r/s in first-seen order, by scanning."""
    killed = killed_by_s(loc) if killed is None else killed
    reps = []
    for r in loc.ring.elements():
        for s, wit in loc.sset.closure.items():
            f = Fraction(r, s, wit)
            if not any(raw_loc_eq(loc, killed, f, rep) for rep in reps):
                reps.append(f)
    return reps


def _scan_index(loc, killed, reps, f):
    for i, rep in enumerate(reps):
        if raw_loc_eq(loc, killed, f, rep):
            return i
    return None


def scan_units(loc) -> tuple:
    """(class reps, multiplication table, index of 1, unit indices)."""
    killed = killed_by_s(loc)
    reps = scan_localization_classes(loc, killed)
    table = [
        [_scan_index(loc, killed, reps, loc.mul(a, b)) for b in reps]
        for a in reps
    ]
    one = _scan_index(loc, killed, reps, loc.one)
    units = [i for i in range(len(reps)) if one in table[i]]
    return reps, table, one, units


def unit_table(table, unit_indices) -> tuple:
    """The rows and columns of ``unit_indices`` in a class table from
    ``scan_units``, re-indexed 0..k-1 as in ``UnitGroup.to_cayley``."""
    pos = {ci: i for i, ci in enumerate(unit_indices)}
    return tuple(tuple(pos[table[a][b]] for b in unit_indices) for a in unit_indices)


def scan_saturation(ring, sset) -> tuple:
    """(elements, first witness b per element) of {a : a*b in S for some b}."""
    elems = []
    witnesses = {}
    for a in ring.elements():
        for b in ring.elements():
            if ring.mul(a, b) in sset.closure:
                elems.append(a)
                witnesses[a] = b
                break
    return tuple(elems), witnesses


def per_element_saturation(ring, sset) -> tuple:
    """(elements, witnesses) of S-bar with one ``kernel_group`` walk per
    distinct x = e*a of R."""
    e = idempotent_power(ring.mul, functools.reduce(ring.mul, sset.closure))
    inverses = {}  # x -> its inverse in eR, or None when x is no unit
    witnesses = {}
    for a in ring.elements():
        x = ring.mul(e, a)
        if x not in inverses:
            f, inv, _ = kernel_group(ring.mul, [x])
            inverses[x] = inv[x] if f == e else None
        if inverses[x] is not None:
            witnesses[a] = inverses[x]
    return tuple(witnesses), witnesses


def per_element_unit_indices(loc) -> list:
    """Indices of the unit classes, one idempotent power per class key."""
    index = {loc.key(f): i for i, f in enumerate(localization_classes(loc))}
    e = kernel_group(loc.ring.mul, list(loc.sset.closure))[0]
    return [i for x, i in index.items() if idempotent_power(loc.ring.mul, x) == e]


def sweep_is_nzd(ring, g) -> bool:
    """Whether g kills no nonzero element of the finite ring, by scanning R."""
    r = ring
    return not any(
        not r.is_zero(a) and r.is_zero(r.mul(g, a)) for a in r.elements()
    )


def multset_cayley(sset: MultiplicativeSet):
    """The finite multiplicative set as an explicit commutative monoid.

    Returns (monoid, elements) with elements[i] the ring value at index i.
    """
    if not sset.complete:
        raise PreconditionError("need a completely materialized closure")
    elems = list(sset.closure)
    pos = {e: i for i, e in enumerate(elems)}
    table = [
        [pos[sset.ring.mul(a, b)] for b in elems]
        for a in elems
    ]
    return CayleyMonoid(table, identity=pos[sset.ring.one]), elems


def scan_units_map(sset, loc, killed, embed) -> tuple:
    """(image, morphism_ok, injective) of G(sset) -> S^-1 R, pairwise."""
    monoid, elems = multset_cayley(sset)
    group = GrothendieckGroup(monoid)
    classes = groth_classes(group)

    def image_of(x):
        return embed(elems[x.first], elems[x.second])

    image = [image_of(x) for x in classes]
    morphism_ok = all(
        raw_loc_eq(loc, killed, image_of(group.add(x, y)), loc.mul(image[i], image[j]))
        for i, x in enumerate(classes)
        for j, y in enumerate(classes)
    )
    injective = not any(
        raw_loc_eq(loc, killed, image[i], image[j])
        for i in range(len(image))
        for j in range(i + 1, len(image))
    )
    return image, morphism_ok, injective


def all_pairs_units_map(carrier: list, loc, embed):
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
    e = kernel_group(mul, list(loc.sset.closure))[0]
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


def scan_units_embedding(sset, loc) -> dict:
    """G(S) -> (S^-1 R)*, [s, t] -> s/t, checked pairwise."""
    killed = killed_by_s(loc)
    image, morphism_ok, injective = scan_units_map(
        sset, loc, killed, lambda s, t: Fraction(s, t, sset.witness(t))
    )
    return {
        "group_order": len(image),
        "morphism_ok": morphism_ok,
        "injective": injective,
    }


def scan_units_iso(sset, loc) -> dict:
    """G(S-bar) = (S^-1 R)*, with surjectivity found by scanning unit classes."""
    ring = loc.ring
    killed = killed_by_s(loc)
    sat_elems, witnesses = scan_saturation(ring, sset)

    def embed(s, t):
        b = witnesses[t]
        den = ring.mul(t, b)
        return Fraction(ring.mul(s, b), den, sset.witness(den))

    image, morphism_ok, injective = scan_units_map(
        MultiplicativeSet(ring, list(sat_elems)), loc, killed, embed
    )
    reps, _, _, units = scan_units(loc)
    hit = set()
    landed = True
    for f in image:
        idx = next(
            (u for u in units if raw_loc_eq(loc, killed, f, reps[u])), None
        )
        if idx is None:
            landed = False
        else:
            hit.add(idx)
    return {
        "groth_order": len(image),
        "unit_order": len(units),
        "morphism_ok": morphism_ok,
        "injective": injective,
        "surjective": landed and hit == set(units),
        "saturation": sat_elems,
    }


# ---------------------------------------------------------------------------
# zero-divisor and injectivity sweeps over every element of R[M]


def _require_finite_modring(mring: MonoidRing):
    if not isinstance(mring.coeff_ring, ModRing):
        raise UnsupportedFamilyError("exhaustive sweeps need Z/n coefficients")
    if not mring.monoid.is_finite:
        raise UnsupportedFamilyError("exhaustive sweeps need a finite monoid")


def product_nzd_flag(ring, generators) -> bool:
    """The non-zero-divisor flag read off the generators' product."""
    # with no generators the closure is exactly {1}, which never
    # kills anything, so the flag is decidable over any base ring;
    # over a finite one a non-zero-divisor is a unit, so the flag asks
    # that the generators' product have idempotent power 1
    product = functools.reduce(ring.mul, generators, ring.one)
    return not generators or (
        ring.is_finite and idempotent_power(ring.mul, product) == ring.one
    )


def key_canonical_map_injective(group: GrothendieckGroup) -> bool:
    """Whether m -> [m, 0] is injective; distinct keys on finite carriers."""
    base = group.base
    if base.is_finite:
        elems = list(base.elements())
        return len({group.key(group.canonical(a)) for a in elems}) == len(elems)
    if isinstance(base, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
        # [a,0] = [b,0] means a + m = b + m for some m, hence a = b
        return True
    if isinstance(base, DirectSumMonoid):
        return all(
            key_canonical_map_injective(GrothendieckGroup(c)) for c in base.components
        )
    raise UnsupportedFamilyError(
        f"injectivity is not decided for {type(base).__name__}"
    )


def sweep_monomial_is_nonzerodivisor(mring: MonoidRing, m) -> bool:
    """Whether eps_m * f = 0 forces f = 0, by scanning every f in R[M]."""
    _require_finite_modring(mring)
    monoid = mring.monoid
    n = mring.coeff_ring.n
    elems = list(monoid.elements())
    m = monoid.validate(m)
    pos = {x: i for i, x in enumerate(elems)}
    fibers = {}
    for x in elems:
        fibers.setdefault(monoid.op(m, x), []).append(pos[x])
    fiber_list = list(fibers.values())
    for f in itertools.product(range(n), repeat=len(elems)):
        if not any(f):
            continue
        if all(sum(f[i] for i in fiber) % n == 0 for fiber in fiber_list):
            return False
    return True


def sweep_group_ring_map_injective(mring: MonoidRing, group: GrothendieckGroup | None = None) -> bool:
    """Whether R[M] -> R[G(M)] (coefficients summed per class) kills only 0."""
    _require_finite_modring(mring)
    monoid = mring.monoid
    if group is None:
        group = GrothendieckGroup(monoid)
    n = mring.coeff_ring.n
    elems = list(monoid.elements())
    # precompute the class partition of the canonical images
    index = {}
    class_of = [
        index.setdefault(group.key(group.canonical(x)), len(index)) for x in elems
    ]
    nclasses = len(index)
    for f in itertools.product(range(n), repeat=len(elems)):
        if not any(f):
            continue
        sums = [0] * nclasses
        for i, c in enumerate(f):
            sums[class_of[i]] += c
        if all(s % n == 0 for s in sums):
            return False
    return True


# ---------------------------------------------------------------------------
# pair scans of a finite monoid, which its kernel identity e now answers


def sweep_quasi_zero_submonoid(m: CommutativeMonoid) -> set:
    """{x : x + y = y for some y}; the witness y makes x act like a zero."""
    if not m.is_finite:
        raise UnsupportedFamilyError("quasi-zero search needs a finite carrier")
    elems = list(m.elements())
    return {x for x in elems if any(m.op(x, y) == y for y in elems)}


def sweep_is_cancellative(m: CayleyMonoid) -> bool:
    """Decide a+c = b+c => a = b on a Cayley table, one row at a time."""
    # a+c = b+c for a != b iff some row fails to be a bijection
    n = m.size()
    return all(len(set(row)) == n for row in m.table)


def sweep_is_abelian_group(m: CayleyMonoid) -> bool:
    """Every element of the (validated commutative) table has an inverse."""
    e = m.identity
    return all(any(m.op(a, b) == e for b in m.elements()) for a in m.elements())


def sweep_group_inverses(target: CayleyMonoid) -> dict:
    """The inverse of every element of a group table, by scanning its row."""
    inv = {}
    e = target.identity
    for a in target.elements():
        for b in target.elements():
            if target.op(a, b) == e:
                inv[a] = b
                break
    return inv


def walk_kernel_group(op, elems) -> tuple:
    """(e, inverse map, order map) of K = elems*e, walking every k's cycle.

    Each k in K is walked until e on its own, Sum ord(k) products, where
    ``kernel_group`` settles a whole cycle with one walk.
    """
    e = idempotent_power(op, functools.reduce(op, elems))
    inv, order = {}, {}
    for k in {op(a, e) for a in elems}:
        prev, acc, n = e, k, 1
        while acc != e:
            prev, acc, n = acc, op(acc, k), n + 1
        inv[k] = prev
        order[k] = n
    return e, inv, order


# ---------------------------------------------------------------------------
# ideals of a finite ring, by enumeration; T of 1 + I is now read off I + Ra = R


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


def complement_of_maximals_over(ring, ideal, maximals) -> list:
    """T for S = 1 + I: R minus the union of the maximal ideals containing I."""
    over = [m for m in maximals if ideal <= m]
    excluded = set().union(*over) if over else set()
    return sorted(a for a in ring.elements() if a not in excluded)


# ---------------------------------------------------------------------------
# the dense Smith normal form, with its full U*A*V == D recheck


def dense_matmul(a: list, b: list) -> list:
    if not a or not b:
        return [[] for _ in a]
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, c)) for c in cols] for row in a]


class DenseSNF(NamedTuple):
    """The dense elimination's D = U * A * V, with U an m x m list of lists."""

    D: list
    U: list
    V: list
    invariant_factors: list
    nrows: int
    ncols: int


def dense_smith_normal_form(rows, ncols: int | None = None) -> DenseSNF:
    """Diagonalize an integer matrix over Z, tracking both transforms.

    Each step pivots on a minimum-|value| entry of the rows t.. and columns
    t..; a tie goes to the row with the fewest nonzeros in columns t.., then
    to the first such row, and within it to the first such column.  It then
    clears column t and row t one entry at a time by Euclid between
    the pivot and that entry (a remainder is swapped in as the pivot), in
    the order ``grothendieck._eliminate`` uses, so both give the same U, V
    and D.  Arithmetic is exact regardless.  ``ncols`` is required when
    ``rows`` is empty.
    """
    A = [[int(x) for x in row] for row in rows]
    m = len(A)
    if m:
        n = len(A[0])
        if any(len(row) != n for row in A):
            raise InvalidInputError("ragged matrix")
        if ncols is not None and ncols != n:
            raise InvalidInputError("ncols disagrees with row length")
    else:
        if ncols is None:
            raise InvalidInputError("empty matrix needs an explicit ncols")
        n = ncols
    orig = [row[:] for row in A]
    U = _eye(m)
    V = _eye(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        asrc, adst = A[src], A[dst]
        for k in range(n):
            adst[k] += q * asrc[k]
        usrc, udst = U[src], U[dst]
        for k in range(m):
            udst[k] += q * usrc[k]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = None
        best = None
        for i in range(t, m):
            row = [abs(x) for x in A[i][t:]]
            size = n - t - row.count(0)
            if size:
                low = min(x for x in row if x)
                if best is None or (low, size) < best:
                    best = (low, size)
                    piv = (i, t + row.index(low))
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if A[t][t] < 0:
            negate_row(t)
        while True:
            for i in range(t + 1, m):
                # Euclid until A[i][t] is 0; a remainder becomes the pivot
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
            dirty = False
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        add_col(t, j, -q)
                    if A[t][j]:
                        # column t changes, so the rows are cleared again
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # row and column t are clear; force the divisibility chain
            d = A[t][t]
            culprit = None
            for i in range(t + 1, m):
                if any(A[i][j] % d for j in range(t + 1, n)):
                    culprit = i
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1

    check = dense_matmul(dense_matmul(U, orig), V)
    if check != A:
        raise AssertionError("transform bookkeeping broke: U*A*V != D")
    diag = [A[i][i] for i in range(limit)]
    return DenseSNF(D=A, U=U, V=V, invariant_factors=diag, nrows=m, ncols=n)


def _add_row(rows: list, src: int, dst: int, q: int) -> None:
    """Sparse row dst += q * sparse row src, dropping entries that cancel."""
    out = rows[dst]
    for k, y in rows[src].items():
        x = out.get(k, 0) + q * y
        if x:
            out[k] = x
        else:
            del out[k]


def replay_one_by_one(ops: list, rows: list) -> list:
    """Apply logged row operations to sparse ``rows`` in place and return them.

    ``ops`` is flat, three entries per operation (i, j, q): q == 0 swaps rows
    i and j, i == j negates row i, and otherwise row j += q * row i, read
    off row i afresh for each operation.
    """
    it = iter(ops)
    for i, j, q in zip(it, it, it):
        if not q:
            rows[i], rows[j] = rows[j], rows[i]
        elif i == j:
            rows[i] = {k: -x for k, x in rows[i].items()}
        else:
            _add_row(rows, i, j, q)
    return rows


def determinantal_divisors(rows, ncols: int) -> list:
    """D_1, ..., D_min(m, n): D_k is the gcd of all k x k minors (0 when all vanish).

    No elimination: each k x k minor is a Laplace expansion along its first
    row over the (k-1) x (k-1) minors already computed, keyed by row and
    column bitmasks, so every minor costs k products.  Once every k x k
    minor vanishes, so do all larger ones.
    """
    m = len(rows)
    size = min(m, ncols)
    prev, out = {(0, 0): 1}, []
    for k in range(1, size + 1):
        cur, g = {}, 0
        colsets = [(sum(1 << j for j in cs), cs) for cs in itertools.combinations(range(ncols), k)]
        for rs in itertools.combinations(range(m), k):
            rmask = sum(1 << i for i in rs)
            rest, row = rmask ^ (1 << rs[0]), rows[rs[0]]
            for cmask, cs in colsets:
                det, sign = 0, 1
                for j in cs:
                    if row[j]:
                        det += sign * row[j] * prev.get((rest, cmask ^ (1 << j)), 0)
                    sign = -sign
                if det:
                    cur[rmask, cmask] = det
                    g = gcd(g, det)
        if not g:
            return out + [0] * (size - k + 1)
        out.append(g)
        prev = cur
    return out


def determinantal_invariant_factors(rows, ncols: int) -> list:
    """The Smith invariant factors d_k = D_k / D_(k-1), zeros trailing."""
    divisors = determinantal_divisors(rows, ncols)
    return [d // p if d else 0 for d, p in zip(divisors, [1] + divisors)]


# ---------------------------------------------------------------------------
# structure of finite G(M) by matching element-order multisets


def divisor_chains(n: int, prev: int = 1):
    """Ascending divisibility chains (d1 | d2 | ...), all >= 2, product n."""
    if n == 1:
        yield ()
        return
    for d in range(max(prev, 2), n + 1):
        if n % d == 0 and d % prev == 0:
            for rest in divisor_chains(n // d, d):
                yield (d,) + rest


def order_multiset(chain: tuple) -> Counter:
    counts = Counter()
    for combo in itertools.product(*(range(d) for d in chain)):
        o = 1
        for x, d in zip(combo, chain):
            o = lcm(o, d // gcd(x, d))
        counts[o] += 1
    return counts


def matched_groth_structure(m: CommutativeMonoid) -> FGAbelianStructure:
    """Invariant-factor decomposition of G(M) for finite M.

    Classes are enumerated outright; the chain is recovered by matching the
    multiset of element orders against every candidate divisor chain.
    """
    group = GrothendieckGroup(m)
    reps = groth_classes(group)
    n = len(reps)
    orders = Counter()
    for r in reps:
        acc = r
        k = 1
        while not group.is_zero(acc):
            acc = group.add(acc, r)
            k += 1
        orders[k] += 1
    for chain in divisor_chains(n):
        if order_multiset(chain) == orders:
            return FGAbelianStructure(0, chain)
    raise AxiomViolationError("abelian-classification", (n, tuple(sorted(orders.items()))))


def swapped_direct_sum_groth(parts) -> FGAbelianStructure:
    """The earlier ``direct_sum_groth``: torsion re-chained via gcd/lcm swaps."""
    parts = list(parts)
    free = sum(s.free_rank for s in parts)
    pool = [d for s in parts for d in s.torsion_invariants]
    changed = True
    while changed:
        changed = False
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if a % b and b % a:
                    pool[i], pool[j] = gcd(a, b), lcm(a, b)
                    changed = True
    pool = sorted(d for d in pool if d > 1)
    return FGAbelianStructure(free, tuple(pool))



# cells per block of the associativity check (one pass up to 161 elements)
ASSOC_BLOCK_CELLS = 1 << 22


def blocked_cayley_check(table, identity: int = 0):
    """The numpy validation of a Cayley table, associativity over all triples.

    Returns the table as a read-only int64 array, or raises the error the
    library raises: InvalidInputError for malformed input, otherwise
    AxiomViolationError with the law and its first witness in row-major
    order.
    """
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
    return arr


# ---------------------------------------------------------------------------
# equality by subtraction and the closure built in the constructor; the
# library now compares r*s' with r'*s, merges no difference of group-ring
# elements and builds the closure on first read


def difference_loc_eq(loc, f, g) -> bool:
    """The earlier ``LocalizedRing.eq``: test r*s' - r'*s for zero."""
    r = loc.ring
    cross = r.sub(r.mul(f.num, g.den), r.mul(g.num, f.den))
    if loc.strategy == "cross-multiplication":
        return r.is_zero(cross)
    if r.is_zero(cross):
        return True
    return r.is_zero(r.mul(kernel_group(r.mul, list(loc.sset.closure))[0], cross))


def difference_loc_is_zero(loc, f) -> bool:
    """The earlier ``LocalizedRing.is_zero``: f = 0/1."""
    return difference_loc_eq(loc, f, loc.zero)


def difference_group_ring_eq(gring, u, v) -> bool:
    """The earlier ``GroupRing.eq``: u - v has no terms."""
    return gring.is_zero(gring.sub(u, v))


def eager_closure(ring, generators, depth: int = 8) -> tuple:
    """(closure, complete) as ``MultiplicativeSet.__init__`` built them."""
    closure = {ring.one: ()}
    frontier = [(ring.one, ())]
    rounds = 0
    while frontier and (ring.is_finite or rounds < depth):
        new = []
        for elem, wit in frontier:
            for i, g in enumerate(generators):
                prod = ring.mul(elem, g)
                if prod not in closure:
                    w = wit + (i,)
                    closure[prod] = w
                    new.append((prod, w))
        frontier = new
        rounds += 1
    return closure, not frontier


# ---------------------------------------------------------------------------
# group-ring arithmetic that keys every term at each step; the library's
# elements keep the class keys they were merged by


class RekeyedGroupRing:
    """The earlier ``GroupRing`` on lists of (representative, coeff) terms.

    ``canonical`` is the earlier ``from_terms``; every operation first puts
    its operands in that form and keys each term afresh with
    ``GrothendieckGroup.key``.
    """

    def __init__(self, gring):
        self.group = gring.group
        self.coeff = gring.coeff

    def canonical(self, pairs) -> list:
        """Summed per class in first-seen order, each class keeping its first
        representative, zero sums dropped."""
        acc = {}
        for rep, c in pairs:
            k = self.group.key(rep)
            if k in acc:
                acc[k][1] = self.coeff.add(acc[k][1], c)
            else:
                acc[k] = [rep, c]
        return [(rep, c) for rep, c in acc.values() if not self.coeff.is_zero(c)]

    def add(self, u, v) -> list:
        return self.canonical(self.canonical(u) + self.canonical(v))

    def neg(self, u) -> list:
        return [(rep, self.coeff.neg(c)) for rep, c in self.canonical(u)]

    def sub(self, u, v) -> list:
        return self.add(u, self.neg(v))

    def mul(self, u, v) -> list:
        return self.canonical([
            (self.group.add(r1, r2), self.coeff.mul(c1, c2))
            for r1, c1 in self.canonical(u)
            for r2, c2 in self.canonical(v)
        ])

    def is_zero(self, u) -> bool:
        return not self.canonical(u)

    def eq(self, u, v) -> bool:
        key = self.group.key
        ours = self.canonical(u)
        theirs = {key(rep): c for rep, c in self.canonical(v)}
        return len(ours) == len(theirs) and all(
            key(rep) in theirs and self.coeff.eq(c, theirs[key(rep)]) for rep, c in ours
        )


# ---------------------------------------------------------------------------
# the inverse graded map by one common denominator, and by adding the terms
# r*eps_m / (s*eps_n) one by one with ``LocalizedRing.add``; the library now
# reads the common denominator's numerator off prefix and suffix products


def common_denominator_h_inverse(ctx, u) -> Fraction:
    """The earlier ``h_inverse``: clear coefficients over a common denominator.

    For terms (r_i / s_i) at [m_i, n_i] the common denominator is the
    product of the s_i * eps_{n_i}; the numerator is the matching mixed sum.
    No reduction is performed.
    """
    mring = ctx.mring
    if not u.terms:
        return Fraction(mring.zero, mring.one, ())
    factors = []
    nums = []
    for key, c in u.terms:
        nums.append(mring.element({key.first: c.num}))
        den_i = mring.element({key.second: c.den})
        wit_i = c.den_witness + ctx.monomial_witness(key.second)
        factors.append((den_i, wit_i))
    total_den = mring.one
    total_wit = ()
    for den_i, wit_i in factors:
        total_den = total_den * den_i
        total_wit = total_wit + wit_i
    num = mring.zero
    for i, base in enumerate(nums):
        term = base
        for j, (den_j, _) in enumerate(factors):
            if j != i:
                term = term * den_j
        num = num + term
    return Fraction(num, total_den, total_wit)


def fold_h_inverse(ctx, u) -> Fraction:
    """The earlier ``h_inverse``: each term as r*eps_m / (s*eps_n), added
    from the first term on in T^-1(R[M])."""
    mring = ctx.mring
    fracs = [
        Fraction(
            mring.element({key.first: c.num}),
            mring.element({key.second: c.den}),
            c.den_witness + ctx.monomial_witness(key.second),
        )
        for key, c in u.terms
    ]
    if not fracs:
        return ctx.tloc.zero
    return functools.reduce(ctx.tloc.add, fracs)


# ---------------------------------------------------------------------------
# the graded components split degree by degree and summed back one by one;
# the library splits in one pass, with no class key over a cancellative base,
# and sums the components over their shared denominator


class HomogeneousPart(NamedTuple):
    """The part of degree ``degree`` of an element, as an MRElement ``value``."""

    degree: object
    value: MRElement


def homogeneous_components(f: MRElement) -> list:
    """Split by degree; parts are returned in sorted-degree order and sum to f."""
    return [
        HomogeneousPart(d, MRElement(f.ring, f.monoid, {d: f.coeffs[d]}))
        for d in f.support()
    ]


def per_degree_decompose_fraction(loc, f: Fraction) -> dict:
    """The earlier ``decompose_fraction``: each degree split off as its own
    element and keyed; parts whose keys collide are added, and components
    zero in the localization dropped."""
    if f.den.is_zero():
        return {}
    group = loc.groth_group
    (den_deg,) = f.den.coeffs
    acc = {}
    for part in homogeneous_components(f.num):
        key = GrothElement(part.degree, den_deg)
        k = group.key(key)
        if k in acc:
            acc[k][1] = acc[k][1] + part.value
        else:
            acc[k] = [key, part.value]
    out = {}
    for key, num in acc.values():
        cand = Fraction(num, f.den, f.den_witness)
        if not loc.is_zero(cand):
            out[key] = cand
    return out


def fold_sum_components(loc, parts) -> Fraction:
    """The earlier ``sum_components``: the parts added one by one, so the
    denominator of k parts is s^k."""
    acc = loc.zero
    for f in parts:
        acc = loc.add(acc, f)
    return acc


# ---------------------------------------------------------------------------
# monoid-ring arithmetic through the coefficient-ring protocol; the library
# now works on int coefficients, reduced mod n over Z/n


def protocol_mr_add(f, g):
    """The earlier ``MRElement.__add__``."""
    ring = f.ring
    out = dict(f.coeffs)
    for d, c in g.coeffs.items():
        s = ring.add(out.get(d, ring.zero), c)
        if ring.is_zero(s):
            out.pop(d, None)
        else:
            out[d] = s
    return MRElement(ring, f.monoid, out)


def protocol_mr_neg(f):
    """The earlier ``MRElement.__neg__``."""
    ring = f.ring
    return MRElement(
        ring, f.monoid, {d: ring.neg(c) for d, c in f.coeffs.items()}
    )


def protocol_mr_mul(f, g):
    """The earlier ``MRElement.__mul__``."""
    ring = f.ring
    monoid = f.monoid
    out = {}
    for d1, c1 in f.coeffs.items():
        for d2, c2 in g.coeffs.items():
            d = monoid.op(d1, d2)
            s = ring.add(out.get(d, ring.zero), ring.mul(c1, c2))
            if ring.is_zero(s):
                out.pop(d, None)
            else:
                out[d] = s
    return MRElement(ring, monoid, out)


def protocol_element(mring, coeffs: dict):
    """The earlier ``MonoidRing.element``."""
    ring = mring.coeff_ring
    out = {}
    for d, c in coeffs.items():
        d = mring.monoid.validate(d)
        c = ring.validate(c)
        if not ring.is_zero(c):
            s = ring.add(out.get(d, ring.zero), c) if d in out else c
            if ring.is_zero(s):
                out.pop(d, None)
            else:
                out[d] = s
    return MRElement(ring, mring.monoid, out)


def protocol_from_list(mring, data):
    """The earlier ``MonoidRing.from_list``."""
    if not isinstance(data, list):
        raise InvalidInputError("element serialization must be a list")
    out = {}
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InvalidInputError(f"bad term {entry!r}")
        c, d = entry
        d = _deg_from_json(d)
        out[d] = mring.coeff_ring.add(
            out.get(d, mring.coeff_ring.zero), mring.coeff_ring.validate(c)
        )
    return protocol_element(mring, out)


def element_sample(mring, rng, max_support: int = 4, exp_bound: int = 6,
                   coeff_bound: int = 9):
    """The earlier ``MonoidRing.sample``: the draws checked by ``element``."""
    out = {}
    for _ in range(rng.below(max_support + 1)):
        d = mring.monoid.sample(rng, exp_bound)
        out[d] = mring.coeff_ring.sample_nonzero(rng, coeff_bound)
    return mring.element(out)


def mod_units(n: int) -> list:
    """The units of Z/n, by gcd."""
    return [a for a in range(1, n) if gcd(a, n) == 1]


def canonical_to_group_ring(f: MRElement, gring):
    """R[M] -> R[G(M)]: send eps_m to the basis element at class [m, 0]."""
    group = gring.group
    return gring.from_terms(
        [(group.canonical(d), c) for d, c in f.items()]
    )


def find_order_violation(m: CommutativeMonoid, compare, sample_budget: int = 1000,
                         seed: int = 0, bound: int = 6):
    """Search for a compatibility failure of the claimed order ``compare``.

    Returns a violating triple (a, b, c) with a < b but not a+c < b+c
    (non-strict failure counts only on cancellative monoids), or None.
    Finite monoids are swept exhaustively; infinite families are sampled.
    """
    try:
        strict = m.cancellative()
    except UnsupportedFamilyError:
        strict = False
    if m.is_finite:
        triples = itertools.product(m.elements(), repeat=3)
    else:
        rng = Lcg64(seed)
        triples = (
            tuple(m.sample(rng, bound) for _ in range(3))
            for _ in range(sample_budget)
        )
    for a, b, c in triples:
        if compare(a, b) < 0:
            s = compare(m.op(a, c), m.op(b, c))
            if s > 0 or (s == 0 and strict):
                return (a, b, c)
    return None


def closure_kx_counterexample_check(p: int = 5, samples: int = 50, seed: int = 0) -> dict:
    """The earlier ``kx_counterexample_check``: membership in S and each
    witness are looked up in the depth-8 closure of the p generators, so
    it is a reference for small p only (p = 211 took 11.5 s under cProfile)."""
    from grothloc.localization import LocalizedRing, degree_of
    from grothloc.ring import _is_prime

    K = ModRing(p)
    if not _is_prime(p):
        raise InvalidInputError(f"K[x] needs a prime modulus, got {p}")
    M = FreeCommutativeMonoid(1)
    R = MonoidRing(K, M)
    gens = [R.scalar(c) for c in range(2, p)] + [R.epsilon((2,)), R.epsilon((3,))]
    sset = MultiplicativeSet(R, gens)
    loc = LocalizedRing(R, sset)
    x = R.epsilon((1,))

    x_in_saturation = sset.contains(x * x)
    gen_degs = [degree_of(g)[0] for g in gens]
    min_pos = min(d for d in gen_degs if d > 0)
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


# ---------------------------------------------------------------------------
# G(M) by isinstance ladders over the five families, as GrothendieckGroup and
# monoid_groth_structure computed it before each family answered for itself;
# kept verbatim but for a presentation's Smith normal form, which is computed
# afresh from its dense relation matrix instead of read off the presentation


def ladder_presentation_snf(p: MonoidPresentation):
    return smith_normal_form(presentation_matrix(p), ncols=p.generators)


def ladder_groth_of_presentation(p: MonoidPresentation) -> FGAbelianStructure:
    """Grothendieck group of a presented monoid: Z^k modulo relation rows."""
    return structure_from_snf(ladder_presentation_snf(p))


class LadderGroup:
    """``GrothendieckGroup``'s strategy choice and key as ladders."""

    def __init__(self, base: CommutativeMonoid):
        self.base = base
        self._slots = None
        self._parts = None
        if isinstance(base, MonoidPresentation):
            self.strategy = "presentation-lattice"
            self._slots = snf_slots(ladder_presentation_snf(base))
        elif isinstance(base, DirectSumMonoid):
            self._parts = [LadderGroup(c) for c in base.components]
            cancellative = all(g.strategy == "cancellative-cross-sum" for g in self._parts)
            self.strategy = "cancellative-cross-sum" if cancellative else "componentwise"
        elif base.cancellative():
            self.strategy = "cancellative-cross-sum"
        else:
            self.strategy = "finite-witness-enumeration"

    def key(self, x: GrothElement):
        """Hashable normal form: key(x) == key(y) exactly when x and y are one class."""
        base = self.base
        if self._slots is not None:
            return lattice_key(self._slots, list(map(operator.sub, x.first, x.second)))
        if self._parts is not None:
            return tuple(
                g.key(GrothElement(a, b))
                for g, a, b in zip(self._parts, x.first, x.second)
            )
        if base.is_finite:
            e, inv, _ = base.kernel
            # (a+e) - (b+e) in K; the inverse already lies in K, so +e is implied
            return base.op(x.first, inv[base.op(x.second, e)])
        return tuple(map(operator.sub, x.first, x.second))


def ladder_groth_structure(m: CommutativeMonoid) -> FGAbelianStructure:
    """Structure of G(M) for any supported family, dispatching as needed."""
    if isinstance(m, MonoidPresentation):
        return ladder_groth_of_presentation(m)
    if isinstance(m, FreeCommutativeMonoid):
        return FGAbelianStructure(m.rank, ())
    if isinstance(m, IntegerLatticeMonoid):
        return FGAbelianStructure(m.rank, ())
    if isinstance(m, DirectSumMonoid):
        return direct_sum_groth(ladder_groth_structure(c) for c in m.components)
    if m.is_finite:
        return finite_groth_structure(m)
    raise UnsupportedFamilyError(
        f"no structure computation for {type(m).__name__}"
    )


# The rings' answers by isinstance ladders, as ring.py and localization.py
# gave them before each ring family answered for itself; kept verbatim


def ladder_scalar_is_nonzerodivisor(ring, a: int) -> bool:
    """``IntegerRing.is_nonzerodivisor`` and ``ModRing.is_nonzerodivisor``."""
    if isinstance(ring, IntegerRing):
        return a != 0
    return gcd(a, ring.n) == 1


def ladder_is_nonzerodivisor(mring: MonoidRing, f: MRElement) -> bool:
    """``MonoidRing.is_nonzerodivisor`` with McCoy's rule on free and lattice
    monoids only."""
    coeff = mring.coeff_ring
    if len(f.coeffs) == 1:
        ((m, s),) = f.coeffs.items()
        return coeff.is_nonzerodivisor(s) and mring.monoid.translation_injective(m)
    if mring.is_finite:
        return idempotent_power(mring.mul, f) == mring.one
    if isinstance(mring.monoid, (FreeCommutativeMonoid, IntegerLatticeMonoid)):
        if isinstance(coeff, ModRing):
            return gcd(coeff.n, *f.coeffs.values()) == 1
        if isinstance(coeff, IntegerRing):
            return not f.is_zero()
    raise UnsupportedFamilyError(f"zero-divisors are not decided over {mring!r}")


class LadderCornerRing:
    """``CornerRing`` with its Z/n branch in the initialiser."""

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


def ladder_homogeneous_flag(ring, generators) -> bool:
    """``MultiplicativeSet.homogeneous_flag``."""
    return isinstance(ring, MonoidRing) and all(
        not g.is_zero() and len(g.coeffs) == 1 for g in generators
    )


def ladder_groth_group(loc) -> GrothendieckGroup:
    """``LocalizedRing.groth_group``."""
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("grading needs a monoid-ring base")
    return GrothendieckGroup(loc.ring.monoid)


def ladder_decompose_gate(loc) -> None:
    """The family check at the head of ``decompose_fraction``."""
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("decomposition needs a monoid-ring base")


def ladder_sum_components_gate(loc) -> None:
    """The family check of ``sum_components`` on a nonempty list of parts."""
    if not isinstance(loc.ring, MonoidRing):
        raise UnsupportedFamilyError("components live in a monoid-ring localization")
