"""The sparse Smith normal form against a dense one and the minors of A.

``smith_normal_form`` reads each input row straight into a sparse row,
keeps A in sparse rows, swaps columns by relabelling them, and carries no
U: it logs each row swap, negation and row addition it applies to A.  The
certificate U*A*V == D is checked on every call on U*A got by replaying the
log on the input rows: the rows of D that hold a pivot against (U*A)*V
through ``_matmul``, the rows past the last pivot by (U*A)_i == 0.  The
result keeps the log and replays it on the identity on the first read of
``.U``.  ``oracles.dense_smith_normal_form`` takes the same steps in the
same order on dense lists, with U carried as a matrix: each pivot finishes
its gcd with every entry of its column and row by Euclid before moving
on.  D, U, V and the invariant factors must agree bit for bit, and a
broken product, a log that differs from the operations applied to A (an
extra operation, in a pivot row or past the last pivot, or a wrong
multiplier) or a broken column transform must still trip the
certificate, and the certificate's check of D's shape (``_pivot_diagonal``)
must refuse an off-diagonal entry and a broken divisibility chain.  The
result holds only the invariant factors of D and builds ``.D`` on its first
read.  The row and column passes read the rows that meet a column off a
column index, so shuffled multiplication tables up to n = 40 and matrices
whose rows cancel to empty while a column swap refills the pivot column
are checked against the dense form too, and the log and V of three inputs
are pinned by digest.  A pivot row that is a lone 1 clears its column by
popping each listed entry; sparse 0/+-1 rows, rows listed twice in such a
column and eliminations that run both paths are checked against the dense
form.  The certificate replays the log run by run, one read of the source
row per run of additions; hypothesis logs whose runs are broken by a swap,
a negation or an addition into the source row must replay as
``oracles.replay_one_by_one`` does.  A presentation reads its words once, at
construction, into the sparse rows that its ``snf`` hands to the same
elimination core (``_eliminate``) without reading the words again; it
must match ``smith_normal_form`` on the dense relation matrix field for
field, and runs the elimination once per presentation object; a pivot tie
goes to the shortest row, so a shuffled multiplication table must make the
row additions of a sorted one.  The invariant factors are also checked
against ``oracles.determinantal_invariant_factors``, read off the gcds of
all k x k minors with no elimination, and the 9- and 8-generator
matrices that the earlier promote-and-restart pass stalled on must finish
under a time bound with small transforms.
"""
import contextlib
import copy
import enum
import hashlib
import pickle
import random
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothloc import (
    GrothendieckGroup,
    InvalidInputError,
    MonoidPresentation,
    monoid_groth_structure,
    presentation_matrix,
    smith_normal_form,
)
from grothloc import grothendieck

import zoo
from oracles import dense_smith_normal_form, determinantal_invariant_factors, replay_one_by_one


def assert_same_as_dense(rows, ncols=None):
    got = smith_normal_form(rows, ncols=ncols)
    want = dense_smith_normal_form(rows, ncols=ncols)
    assert (got.D, got.U, got.V) == (want.D, want.U, want.V)
    assert got.invariant_factors == want.invariant_factors
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)


def random_rows(rng, m, n, density, amp):
    return [
        [rng.randint(-amp, amp) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


@pytest.mark.parametrize("density", [0.0, 0.2, 0.5, 1.0])
def test_seeded_matrices_match_dense(density):
    rng = random.Random(int(density * 10))
    for m in range(10):
        for n in range(8):
            for amp in (1, 9, 100):
                rows = random_rows(rng, m, n, density, amp)
                assert_same_as_dense(rows, ncols=n)
                assert smith_normal_form(rows, ncols=n).invariant_factors == \
                    determinantal_invariant_factors(rows, n)


def test_empty_and_zero_matrices_match_dense():
    for n in range(4):
        assert_same_as_dense([], ncols=n)
    assert_same_as_dense([[], []])
    for m, n in ((1, 1), (3, 2), (2, 5)):
        assert_same_as_dense([[0] * n for _ in range(m)])


def cayley_relation_rows(n, rng):
    """One row e_a + e_b - e_(a*b mod n) per unordered pair, signs and order shuffled."""
    rows = []
    for a in range(n):
        for b in range(a, n):
            row = [0] * n
            row[a] += 1
            row[b] += 1
            row[a * b % n] -= 1
            rows.append(row if rng.random() < 0.5 else [-x for x in row])
    rng.shuffle(rows)
    return rows


def test_multiplication_mod_n_relations_match_dense():
    rng = random.Random(20)
    for n in range(1, 31):
        assert_same_as_dense(cayley_relation_rows(n, rng), ncols=n)


def test_larger_multiplication_tables_match_dense():
    """n = 31..40: the row pass of each pivot column visits only the rows
    the column index lists, hundreds of rows below the pivot."""
    rng = random.Random(31)
    for n in range(31, 41):
        assert_same_as_dense(cayley_relation_rows(n, rng), ncols=n)


def cancelling_rows(rng, m, n):
    """Multiples of two base rows mixed with random rows: a multiple of the
    pivot row cancels to empty in the row pass, and a pivot-row entry that
    the pivot does not divide makes a column swap that brings rows below
    the pivot into the pivot column (the pass that repeats)."""
    base = random_rows(rng, 2, n, 0.7, 6)
    return [
        [rng.choice((-2, -1, 1, 2)) * x for x in rng.choice(base)]
        if rng.random() < 0.5 else random_rows(rng, 1, n, 0.5, 6)[0]
        for _ in range(m)
    ]


def test_cancelling_rows_and_refilled_pivot_columns_match_dense():
    """A row missing from the column index can leave a pivot column
    uncleared and the elimination looping, hence the time limit."""
    rng = random.Random(12)
    with time_limit(10.0):
        for m in range(2, 9):
            for n in range(2, 7):
                for _ in range(4):
                    rows = cancelling_rows(rng, m, n)
                    assert_same_as_dense(rows, ncols=n)
                    assert smith_normal_form(rows, ncols=n).invariant_factors == \
                        determinantal_invariant_factors(rows, n)


def record_pivot_passes(monkeypatch):
    """Record each column pass of ``_eliminate`` as (lone, negated, twice):
    whether a lone 1 cleared the column, whether its row was a lone -1
    negated first, and whether a row sat twice in the list it cleared.
    Read off the elimination's frame when it sorts the rows of a pass."""
    passes = []

    def spy(rows):
        rows = sorted(rows)
        f = sys._getframe(1).f_locals
        t, ops = f["t"], f["ops"]
        lone = f["best"] == 1 and len(f["A"][t]) == 1
        passes.append((lone, lone and ops[-3:] == [t, t, -1], lone and len(rows) > len(set(rows))))
        return rows

    monkeypatch.setattr(grothendieck, "sorted", spy, raising=False)
    return passes


def unit_rows(rng, m, n):
    """Sparse rows of one or two entries +-1, now and then +-2."""
    rows = []
    for _ in range(m):
        row = [0] * n
        for j in rng.sample(range(n), rng.randint(1, min(n, 2))):
            row[j] = rng.choice((-2, 2) if rng.random() < 0.1 else (-1, 1))
        rows.append(row)
    return rows


def test_lone_unit_pivots_match_dense(monkeypatch):
    """Most pivots of sparse 0/+-1 rows are a lone +-1, which clears its
    column by popping each listed entry; a lone -1 is negated first."""
    passes = record_pivot_passes(monkeypatch)
    rng = random.Random(34)
    for m in range(1, 13):
        for n in range(1, 9):
            for _ in range(3):
                assert_same_as_dense(unit_rows(rng, m, n), ncols=n)
    lone = sum(p[0] for p in passes)
    assert lone > 0.8 * len(passes), (lone, len(passes))
    assert any(p[1] for p in passes)


def test_rows_listed_twice_under_a_lone_one_match_dense(monkeypatch):
    """A row that lost its entry in a column and gained it again is listed
    there twice; when a lone 1 clears that column the second pop finds 0
    and logs nothing.  Dense 0/+-1 rows give such cases, found by search."""
    passes = record_pivot_passes(monkeypatch)
    rng = random.Random(10)
    twice = 0
    for _ in range(120):
        passes.clear()
        assert_same_as_dense(random_rows(rng, 10, 6, 0.5, 1), ncols=6)
        twice += any(p[2] for p in passes)
    assert twice >= 1


def test_lone_ones_then_euclid_in_one_elimination(monkeypatch):
    """Rows e_j for the first k columns go first as lone 1s; what is left
    of the other rows has entries of at least 2, so the later pivots need
    Euclid, and both paths run in one elimination."""
    passes = record_pivot_passes(monkeypatch)
    rng = random.Random(35)
    for n in range(3, 9):
        for k in range(1, n):
            for _ in range(2):
                rows = [[int(i == j) for i in range(n)] for j in range(k)]
                rows += [
                    [rng.randint(-3, 3) if i < k else rng.choice((-1, 1)) * rng.randint(2, 9)
                     for i in range(n)]
                    for _ in range(rng.randint(1, 5))
                ]
                rng.shuffle(rows)
                passes.clear()
                assert_same_as_dense(rows, ncols=n)
                assert smith_normal_form(rows, ncols=n).invariant_factors == \
                    determinantal_invariant_factors(rows, n)
                kinds = [p[0] for p in passes]
                assert kinds[:k] == [True] * k and False in kinds[k:], kinds


def unimodular(rng, n, steps, cap=12):
    """A random unimodular n x n matrix: row additions with entries capped."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        row = [x + q * y for x, y in zip(u[i], u[j])]
        if max(map(abs, row)) <= cap:
            u[i] = row
    return u


def ldr_rows(rng, k):
    """L * D * R with k columns and k + 2 rows, L and R unimodular and D a
    divisibility chain of 1s, 2s and 3s; returns the rows and D's diagonal."""
    m = k + 2
    diag, d = [], 1
    for _ in range(rng.randint(k // 2, k)):
        d *= rng.choice((1, 1, 2, 3))
        diag.append(d)
    left, right = unimodular(rng, m, 2 * m), unimodular(rng, k, 3 * k)
    dr = [[d * x for x in right[i]] for i, d in enumerate(diag)]
    dr += [[0] * k for _ in range(m - len(diag))]
    rows = [[sum(a * r[j] for a, r in zip(lrow, dr)) for j in range(k)] for lrow in left]
    return rows, diag


def ldr_batch(seed, count):
    """The first ``count`` ``ldr_rows`` cases of ``random.Random(seed)``,
    k = 7 and 8 alternating, as (k, rows, diag)."""
    rng = random.Random(seed)
    return [(7 + case % 2, *ldr_rows(rng, 7 + case % 2)) for case in range(count)]


def max_bits(matrix):
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


def test_seven_and_eight_generator_presentations_match_dense():
    """Seed 1's first 200 cases, each a 9x7 or 10x8 matrix with a long
    torsion chain: together they finish well inside 2 s, and no entry of U
    or V passes 1 024 bits (a pass that promoted remainders instead took
    seconds on cases 33, 137 and 157, with entries of 200 000 bits)."""
    elapsed, bits = 0.0, 0
    for k, rows, diag in ldr_batch(1, 200):
        start = time.perf_counter()
        got = smith_normal_form(rows, ncols=k)
        elapsed += time.perf_counter() - start
        assert got.invariant_factors == diag + [0] * (k - len(diag))
        bits = max(bits, max_bits(got.U), max_bits(got.V))
        assert_same_as_dense(rows, ncols=k)
    assert elapsed < 2.0, elapsed
    assert bits <= 1024, bits


def test_ldr_batch_matches_determinantal_divisors():
    for k, rows, _ in ldr_batch(1, 200):
        assert smith_normal_form(rows, ncols=k).invariant_factors == \
            determinantal_invariant_factors(rows, k)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, instead of hanging, when the block runs past ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("case", [33, 137, 157])
def test_former_stall_cases_finish_fast(case):
    k, rows, diag = ldr_batch(1, case + 1)[case]
    with time_limit(0.5):
        got = smith_normal_form(rows, ncols=k)
    assert got.invariant_factors == diag + [0] * (k - len(diag))


# 9 generators, 11 relations: the promote-and-restart pass never finished on it
ELEVEN_BY_NINE = [
    [-96, 136, 0, 96, -136, 168, -312, -120, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 48],
    [176, -168, 4, -184, 192, -368, 640, 272, -16],
    [-160, 224, -8, 176, -224, 304, -560, -208, 32],
    [10, -14, -4, -6, 14, -12, 22, 12, 16],
    [0, 40, 0, 0, -40, -24, 24, 24, 0],
    [96, -96, 0, -96, 108, -192, 336, 144, 0],
    [-250, 282, 16, 222, -306, 444, -790, -348, -64],
    [0, -56, 0, 0, 56, 24, 24, -24, -48],
    [-60, 190, 16, 26, -190, 6, -110, -10, -16],
    [0, -192, 0, 0, 192, 96, 0, -96, -96],
]


def test_eleven_by_nine_matrix_finishes():
    with time_limit(1.0):
        got = smith_normal_form(ELEVEN_BY_NINE)
    assert got.invariant_factors == [2, 2, 4, 4, 12, 24, 48, 48, 48]
    assert got.invariant_factors == determinantal_invariant_factors(ELEVEN_BY_NINE, 9)
    assert_same_as_dense(ELEVEN_BY_NINE)


@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-12, 12), min_size=n, max_size=n), max_size=7
).map(lambda rows: (rows, n))))
def test_hypothesis_matrices_match_dense(case):
    rows, n = case
    assert_same_as_dense(rows, ncols=n)
    assert smith_normal_form(rows, ncols=n).invariant_factors == \
        determinantal_invariant_factors(rows, n)


def naive_product(a, b, cols):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def test_matmul_matches_naive_product():
    rng = random.Random(7)
    for m, k, n in ((1, 1, 1), (3, 4, 2), (5, 1, 6), (4, 6, 3), (2, 3, 0), (0, 3, 2)):
        for density in (0.0, 0.3, 1.0):
            a = random_rows(rng, m, k, density, 5)
            b = random_rows(rng, k, n, density, 5)
            assert grothendieck._matmul(a, b) == naive_product(a, b, n)
    # an empty inner dimension leaves the column count unknown: empty rows
    assert grothendieck._matmul([[], []], []) == [[], []]
    assert grothendieck._matmul([], [[1, 2]]) == []


def test_broken_product_trips_the_certificate(monkeypatch):
    honest = grothendieck._matmul

    def off_by_one(a, b):
        out = honest(a, b)
        if out and out[0]:
            out[0][0] += 1
        return out

    monkeypatch.setattr(grothendieck, "_matmul", off_by_one)
    with pytest.raises(AssertionError, match="U\\*A\\*V != D"):
        smith_normal_form([[2, 4], [6, 9]])


def test_broken_column_transform_trips_the_certificate(monkeypatch):
    honest = grothendieck._eye

    def skewed(n):
        out = honest(n)
        if n > 1:
            out[0][1] = 1
        return out

    monkeypatch.setattr(grothendieck, "_eye", skewed)
    with pytest.raises(AssertionError, match="U\\*A\\*V != D"):
        smith_normal_form([[2, 0], [0, 3], [1, 1]])


def prepend_ops(monkeypatch, extra):
    """Make every replay run the logged row operations ``extra`` first."""
    honest = grothendieck._replay
    monkeypatch.setattr(grothendieck, "_replay", lambda ops, rows: honest(extra + ops, rows))


def test_broken_row_transform_trips_the_certificate(monkeypatch):
    """A log that starts with "row 0 += row 1" replays to U*E with E = I + e_01,
    so U*A*V = U*(E*A)*V != D: E*A adds row 1 of A, which is nonzero, to row 0."""
    prepend_ops(monkeypatch, [1, 0, 1])
    with pytest.raises(AssertionError, match="U\\*A\\*V != D"):
        smith_normal_form([[2, 0], [0, 3], [1, 1]])


def test_u_row_past_the_last_pivot_trips_the_certificate(monkeypatch):
    """Rows of D past the last pivot are certified by (U*A)_i == 0 alone.
    The appended zero row of A is never a pivot, culprit or swap partner,
    so no logged operation touches row 55 and its row of U is e_55; a log
    that starts with "row 55 += row 0" makes (U*A)_55 row 0 of A, nonzero,
    while every pivot row stays honest."""
    rows = cayley_relation_rows(10, random.Random(4)) + [[0] * 10]
    assert smith_normal_form(rows).U[-1] == [int(k == 55) for k in range(56)]
    prepend_ops(monkeypatch, [0, 55, 1])
    with pytest.raises(AssertionError, match="U\\*A\\*V != D"):
        smith_normal_form(rows)


def test_logged_multiplier_that_differs_from_a_trips_the_certificate(monkeypatch):
    """The replay reads a multiplier one off from the one the elimination
    applied to A, in its first row addition."""
    honest = grothendieck._replay

    def off_by_one(ops, rows):
        ops = list(ops)
        k = next(k for k in range(0, len(ops), 3) if ops[k + 2] and ops[k] != ops[k + 1])
        ops[k + 2] += 1
        return honest(ops, rows)

    monkeypatch.setattr(grothendieck, "_replay", off_by_one)
    for rows in ([[2, 4], [6, 9]], cayley_relation_rows(10, random.Random(4))):
        with pytest.raises(AssertionError, match="U\\*A\\*V != D"):
            smith_normal_form(rows)


def test_dense_u_is_built_on_first_read_only(monkeypatch):
    """The certificate replays the log on the input rows once; U is replayed
    on the identity only when ``.U`` is first read, and then kept."""
    calls = []
    honest = grothendieck._replay

    def spy(ops, rows):
        calls.append(len(rows))
        return honest(ops, rows)

    monkeypatch.setattr(grothendieck, "_replay", spy)
    rows = cayley_relation_rows(12, random.Random(5))
    got = smith_normal_form(rows)
    assert calls == [78]
    assert "U" not in vars(got)
    first = got.U
    assert got.U is first
    assert calls == [78, 78]
    assert first == dense_smith_normal_form(rows).U
    assert all(len(row) == got.nrows for row in first)


def assert_replays_agree(ops, rows):
    """The run-by-run replay and the one-by-one reference, on copies of
    ``rows``, give the same rows with their entries in the same order."""
    got = grothendieck._replay(ops, [dict(row) for row in rows])
    want = replay_one_by_one(ops, [dict(row) for row in rows])
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


def test_replay_runs_end_where_their_source_row_changes():
    """Each log holds a run from row 0 that something breaks before row 0
    is a source again: an addition into row 0, a swap that brings another
    row in as row 0, a negation of row 0.  A replay that kept row 0's
    entries across the break would add stale ones."""
    rows = [{0: 1, 1: 2}, {1: 1, 2: -1}, {0: 3}, {2: 5}]
    for breaker in ([1, 0, 2], [3, 0, -1], [2, 0, 0], [0, 0, -1], [0, 3, 0]):
        ops = [0, 1, 2, 0, 2, -1] + breaker + [0, 3, 1, 0, 1, -3]
        assert_replays_agree(ops, rows)
    # an addition that cancels an entry of its destination, then re-adds it
    assert_replays_agree([0, 1, -1, 0, 1, 1, 0, 2, -3], [{0: 1}, {0: 1, 1: 1}, {0: 3}])


def logged_ops(m):
    """Logs over m rows made of blocks: a run of additions from a source row
    s, an operation that changes row s (a swap, a negation of s, or an
    addition into s), and a second run from s."""
    q = st.integers(-3, 3).filter(bool)
    run = st.lists(st.tuples(st.integers(1, m - 1), q), min_size=1, max_size=3)

    def block(s, first, kind, b, qb, second):
        other = (s + b) % m
        breaker = {"swap": (s, other, 0), "negate": (s, s, -1), "add": (other, s, qb)}[kind]
        adds = [(s, (s + d) % m, c) for d, c in first] + [breaker]
        return [x for op in adds + [(s, (s + d) % m, c) for d, c in second] for x in op]

    blocks = st.builds(block, st.integers(0, m - 1), run, st.sampled_from(("swap", "negate", "add")),
                       st.integers(1, m - 1), q, run)
    return st.lists(blocks, min_size=1, max_size=4).map(lambda bs: [x for b in bs for x in b])


@given(st.integers(2, 3).flatmap(lambda m: st.tuples(
    st.lists(st.dictionaries(st.integers(0, 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=4),
             min_size=m, max_size=m),
    logged_ops(m),
)))
def test_hypothesis_logs_replay_as_one_by_one(case):
    rows, ops = case
    assert_replays_agree(ops, rows)


def test_elimination_logs_replay_as_one_by_one():
    """Logs the elimination made, on Cayley tables (long runs from lone 1s)
    and on matrices that need Euclid, replayed on their input rows."""
    rng = random.Random(36)
    for rows in (cayley_relation_rows(12, rng), ELEVEN_BY_NINE, TWELVE_BY_TEN,
                 random_rows(rng, 10, 6, 0.5, 1), random_rows(rng, 8, 8, 0.7, 9)):
        sparse = [{k: x for k, x in enumerate(row) if x} for row in rows]
        assert_replays_agree(smith_normal_form(rows).row_ops, sparse)


def test_multiplication_mod_60_presentation_leaves_u_sparse():
    """The 1 830 x 60 relation matrix of multiplication mod 60: a dense
    1 830 x 1 830 U alone is about 27 MB of pointers, the log of row
    operations a few thousand entries, so the whole elimination stays under
    8 MB."""
    n = 60
    rels = tuple(
        (
            tuple(int(i == a) + int(i == b) for i in range(n)),
            tuple(int(i == a * b % n) for i in range(n)),
        )
        for a in range(n)
        for b in range(a, n)
    )
    rows = presentation_matrix(MonoidPresentation(n, rels))
    tracemalloc.start()
    try:
        got = smith_normal_form(rows, ncols=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert (got.nrows, got.ncols) == (1830, 60)
    assert got.invariant_factors == [1] * 60  # 0 absorbs: G(M) is trivial
    assert "U" not in vars(got)


def test_rows_of_any_iterable_kind_match_lists():
    """Lists of ints are read in place and left unchanged; tuples, numpy
    rows and one-shot iterators are vetted entry by entry."""
    rows = cayley_relation_rows(7, random.Random(6))
    copy = [row[:] for row in rows]
    want = smith_normal_form(rows)
    assert rows == copy
    for kind in (
        [tuple(row) for row in rows],
        [iter(row) for row in rows],
        (map(int, row) for row in rows),
        np.array(rows, dtype=np.int64),
        [[np.int16(x) for x in row] for row in rows],
    ):
        got = smith_normal_form(kind)
        assert (got.D, got.U, got.V) == (want.D, want.U, want.V)
    with pytest.raises(InvalidInputError, match="ragged"):
        smith_normal_form([[1, 2], (3,)])
    with pytest.raises(InvalidInputError, match="ncols"):
        smith_normal_form([[1, 2]], ncols=3)
    with pytest.raises(InvalidInputError):
        smith_normal_form([[1, 2], [3, True]])


def test_structure_and_group_share_one_elimination(monkeypatch):
    """The spy sits on the elimination core, which both the public
    ``smith_normal_form`` and ``MonoidPresentation.snf`` call."""
    calls = []
    honest = grothendieck._eliminate

    def spy(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(grothendieck, "_eliminate", spy)
    p = MonoidPresentation(3, (((2, 0, 0), (0, 1, 0)), ((0, 4, 0), (0, 0, 0))))
    s = monoid_groth_structure(p)
    group = GrothendieckGroup(p)
    assert (s.free_rank, s.torsion_invariants) == (1, (8,))
    assert group.eq(group.canonical((0, 2, 0)), group.canonical((4, 0, 0)))
    assert len(calls) == 1
    # a second, equal presentation object eliminates its own matrix
    monoid_groth_structure(MonoidPresentation(3, p.relations))
    assert len(calls) == 2


def assert_snf_is_the_matrix_snf(p):
    """``MonoidPresentation.snf`` builds sparse rows straight from the words; it
    must give what the dense relation matrix gives, field for field, with
    every entry a plain int, and keep the result on the presentation."""
    got = p.snf
    want = smith_normal_form(presentation_matrix(p), ncols=p.generators)
    for name in ("D", "U", "V", "invariant_factors", "row_ops", "nrows", "ncols"):
        assert getattr(got, name) == getattr(want, name), name
    for rows in (got.D, got.U, got.V, [got.invariant_factors, got.row_ops]):
        assert all(type(x) is int for row in rows for x in row)
    assert p.snf is got
    return got


def test_presentation_snf_matches_a_fresh_elimination():
    rng = random.Random(3)
    for k in range(2, 7):
        rows, _ = ldr_rows(rng, k)
        rels = tuple(
            (tuple(max(x, 0) for x in row), tuple(max(-x, 0) for x in row)) for row in rows
        )
        assert_snf_is_the_matrix_snf(MonoidPresentation(k, rels))


def test_zoo_presentations_match_the_matrix():
    for p in (zoo.numsg_2_3(), zoo.n_cross_z2(), zoo.z4_presented(),
              zoo.integers_presented(1), zoo.integers_presented(3)):
        assert_snf_is_the_matrix_snf(p)


def test_presentations_without_generators_match_the_matrix():
    for rels in ((), (((), ()),), (((), ()),) * 3):
        got = assert_snf_is_the_matrix_snf(MonoidPresentation(0, rels))
        assert (got.nrows, got.ncols, got.invariant_factors) == (len(rels), 0, [])
        assert got.D == [[] for _ in rels] and got.V == []


def test_identical_sides_and_shared_generators_match_the_matrix():
    """Equal sides give an empty row; a generator on both sides cancels
    (the row loses that column) or leaves the difference."""
    p = MonoidPresentation(4, (
        ((1, 2, 0, 0), (1, 2, 0, 0)),
        ((2, 1, 0, 0), (1, 0, 3, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0)),
        ((0, 5, 1, 0), (0, 2, 1, 0)),
        ((3, 0, 0, 2), (3, 0, 0, 0)),
        ((0, 0, 0, 1), (0, 0, 0, 1)),
    ))
    assert p._rows == [{}, {0: 1, 1: 1, 2: -3}, {}, {1: 3}, {3: 2}, {}]
    assert_snf_is_the_matrix_snf(p)


def test_intenum_words_give_plain_int_entries():
    """Presentations accept int subclasses; the sparse rows hold plain ints
    both where one side alone is nonzero and where the sides meet."""
    class E(enum.IntEnum):
        ZERO = 0
        ONE = 1
        TWO = 2
        FOUR = 4

    p = MonoidPresentation(3, (
        ((E.FOUR, E.ZERO, 0), (E.ZERO, E.ZERO, E.ZERO)),
        ((E.TWO, E.ONE, 0), (1, E.ZERO, E.TWO)),
        ((0, E.TWO, E.ONE), (0, E.TWO, 0)),
    ))
    rows = p._rows
    assert rows == [{0: 4}, {0: 1, 1: 1, 2: -2}, {2: 1}]
    assert all(type(x) is int for row in rows for x in row.values())
    got = assert_snf_is_the_matrix_snf(p)
    assert got.invariant_factors == [1, 1, 4]


def test_shuffled_multiplication_tables_match_the_matrix():
    """e_a + e_b = e_(ab mod n) for n <= 30, relations shuffled and about
    half of them with their sides swapped (the row negated)."""
    rng = random.Random(19)
    for n in range(1, 31):
        rels = []
        for a in range(n):
            for b in range(a, n):
                u = tuple(int(i == a) + int(i == b) for i in range(n))
                v = tuple(int(i == a * b % n) for i in range(n))
                rels.append((u, v) if rng.random() < 0.5 else (v, u))
        rng.shuffle(rels)
        got = assert_snf_is_the_matrix_snf(MonoidPresentation(n, rels))
        assert got.invariant_factors == [1] * n  # 0 absorbs: G(M) is trivial


class Unreadable:
    """Stands in for a presentation's relations: reading them fails."""

    def __iter__(self):
        raise AssertionError("the relation words were read again")

    __getitem__ = __len__ = __iter__


def test_words_are_read_once_at_construction():
    """The sparse rows are read off the words when the presentation is
    built; the elimination, the structure and the class keys never read
    the words again, and the rows are dropped once the result is kept."""
    p = MonoidPresentation(3, (((2, 0, 0), (0, 1, 0)), ((0, 4, 0), (0, 0, 0))))
    want = smith_normal_form(presentation_matrix(p), ncols=3)
    object.__setattr__(p, "relations", Unreadable())
    got = p.snf
    assert (got.V, got.invariant_factors, got.row_ops) == (want.V, want.invariant_factors, want.row_ops)
    assert "_rows" not in vars(p)
    s = monoid_groth_structure(p)
    assert (s.free_rank, s.torsion_invariants) == (1, (8,))
    group = GrothendieckGroup(p)
    assert group.key(group.canonical((0, 2, 0))) == group.key(group.canonical((4, 0, 0)))
    assert group.key(group.canonical((1, 0, 0))) != group.key(group.zero())


def test_rows_an_interrupted_elimination_took_over_are_read_again(monkeypatch):
    """An elimination interrupted halfway has taken the rows over and left
    them changed; the next call reads them off the words again and gives
    the result a fresh presentation gives."""
    rels = (((2, 0, 0), (0, 1, 0)), ((0, 4, 0), (0, 0, 0)))
    p = MonoidPresentation(3, rels)
    honest = grothendieck._eliminate

    def interrupted(rows, n):
        rows[0][0] = 99
        raise KeyboardInterrupt

    monkeypatch.setattr(grothendieck, "_eliminate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        p.snf
    monkeypatch.setattr(grothendieck, "_eliminate", honest)
    got = p.snf
    want = MonoidPresentation(3, rels).snf
    assert (got.V, got.invariant_factors, got.row_ops) == (want.V, want.invariant_factors, want.row_ops)


def test_copies_read_their_own_words():
    """A copy or a pickle is rebuilt from the two fields, so it never
    shares the rows that an elimination takes over."""
    p = MonoidPresentation(3, (((2, 0, 0), (0, 1, 0)), ((0, 4, 0), (0, 0, 0))))
    twin = copy.copy(p)
    assert twin == p and twin._rows is not p._rows
    want = p.snf
    for q in (twin, pickle.loads(pickle.dumps(p))):
        got = q.snf
        assert (got.V, got.invariant_factors, got.row_ops) == (want.V, want.invariant_factors, want.row_ops)


def row_additions(snf):
    """The logged (src, dst, q) entries that add a multiple of one row to another."""
    ops = snf.row_ops
    return sum(1 for k in range(0, len(ops), 3) if ops[k + 2] and ops[k] != ops[k + 1])


def multiplication_relations(n):
    """e_a + e_b = e_(ab mod n) for each unordered pair, in (a, b) order."""
    return [
        (
            tuple(int(i == a) + int(i == b) for i in range(n)),
            tuple(int(i == a * b % n) for i in range(n)),
        )
        for a in range(n)
        for b in range(a, n)
    ]


def shuffled_multiplication(n, seed):
    """Multiplication mod n as a presentation, with about half the sides
    swapped and the relations shuffled by ``random.Random(seed)``, as the
    CI builds it."""
    rng = random.Random(seed)
    rels = [r if rng.random() < 0.5 else r[::-1] for r in multiplication_relations(n)]
    rng.shuffle(rels)
    return MonoidPresentation(n, rels)


# ``ldr_rows`` case 2 139 of random.Random(7) with k = 6..10 cycling: its
# transforms grow to entries of over 2 000 bits
TWELVE_BY_TEN = [
    [-2523, -168, -300, -132, 2868, 432, -246, -24, 324, 4128],
    [1221, 42, 84, 78, -1050, -198, 57, 42, -162, -1734],
    [432, 900, 39, 882, -1086, -450, 900, 0, 0, -1068],
    [5238, 90, 630, 99, -5778, -1017, 414, -486, -648, -8379],
    [-5238, -117, -621, -126, 5769, 1017, -432, 459, 648, 8370],
    [21, 528, -210, 528, 456, 18, 354, 546, 0, 456],
    [0, 162, -54, 162, 108, 0, 108, 162, 0, 108],
    [-90, -144, 36, -126, 72, 36, -144, -36, 0, 54],
    [-1260, 0, -126, 0, 1278, 198, -54, 36, 162, 1926],
    [-324, 0, 0, 0, 162, 0, 0, 0, 0, 324],
    [216, 486, -18, 486, -414, -216, 468, 54, 0, -414],
    [2628, 54, 306, 54, -2880, -504, 216, -234, -324, -4176],
]


def log_digest(snf):
    return hashlib.sha256(repr((snf.row_ops, snf.V)).encode()).hexdigest()


def test_row_log_and_column_transform_are_pinned():
    """The sha256 of (row_ops, V) that the elimination gave before it read
    its passes off a column index: the index changes which rows a pass
    reads, never the operations it applies or their order.  Nor does the
    lone-1 path, which pops the entries of a column that Euclid would clear
    by row additions and logs the same additions.  A broken index can loop,
    hence the time limit."""
    mod60, mod150 = shuffled_multiplication(60, 60), shuffled_multiplication(150, 150)
    with time_limit(10.0):
        assert log_digest(mod60.snf) == \
            "90cd22bffc7178469f89cc66bfb50117e3155792ef7b7ce894af321a73478225"
        assert log_digest(mod150.snf) == \
            "78424f3daabfe96998fe396935b02643e7af7acd7b92c4fb52b1c059244f21f3"
        got = smith_normal_form(TWELVE_BY_TEN, ncols=10)
    assert got.invariant_factors == [3, 3, 3, 9, 9, 18, 54, 54, 162, 162]
    assert log_digest(got) == "276950b0d5ac3a46d21286af8f7c6d1ce0caade869bab5d8141cd7713fa929b5"


def test_row_work_does_not_depend_on_relation_order():
    """Multiplication mod 60 as a presentation, relations in (a, b) order and
    shuffled with about half the sides swapped: a pivot tie goes to the
    shortest row, so both make the same number of row additions.  Taking the
    first minimum in row-major order made 3.7 times as many on the shuffled
    input."""
    ordered = MonoidPresentation(60, multiplication_relations(60)).snf
    got = shuffled_multiplication(60, 60).snf
    assert row_additions(got) == row_additions(ordered)
    assert got.invariant_factors == ordered.invariant_factors == [1] * 60


@given(st.integers(0, 5).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(*[st.tuples(*[st.integers(0, 4)] * k)] * 2), max_size=7),
)))
def test_hypothesis_presentations_match_the_matrix(case):
    k, rels = case
    assert_snf_is_the_matrix_snf(MonoidPresentation(k, rels))


def test_d_is_built_on_first_read_only():
    """The result keeps the invariant factors; D is the dense diagonal
    matrix built from them when first read, then kept."""
    rng = random.Random(8)
    for rows, n in ((cayley_relation_rows(12, rng), 12), ([[2, 4], [6, 9], [0, 0]], 2),
                    ([[0, 0, 0]], 3), ([], 2)):
        got = smith_normal_form(rows, ncols=n)
        assert "D" not in vars(got)
        first = got.D
        assert got.D is first
        assert first == dense_smith_normal_form(rows, ncols=n).D
        assert all(type(x) is int for row in first for x in row)
    p = MonoidPresentation(3, (((2, 0, 0), (0, 1, 0)), ((0, 4, 0), (0, 0, 0))))
    monoid_groth_structure(p)
    GrothendieckGroup(p)
    snf = p.snf
    assert "D" not in vars(snf) and "U" not in vars(snf)
    assert snf.D == dense_smith_normal_form(presentation_matrix(p), ncols=3).D


def test_pivot_diagonal_checks_the_shape_of_d():
    """Each pivot row must be the single entry d_i >= 1 in its diagonal
    column, and each d_i must divide the next; rows past the pivots are
    not read here."""
    pivots = grothendieck._pivot_diagonal
    assert pivots([{0: 1}, {1: 2}, {2: 6}], [0, 1, 2], 3) == [1, 2, 6]
    assert pivots([{2: 3}, {0: 9}], [2, 0, 1], 2) == [3, 9]
    assert pivots([{0: 2}, {0: 5, 1: 7}], [0, 1], 1) == [2]
    assert pivots([], [0, 1], 0) == []
    with pytest.raises(AssertionError, match="d_0 = 2 does not divide d_1 = 3"):
        pivots([{0: 2}, {1: 3}], [0, 1], 2)
    with pytest.raises(AssertionError, match="d_1 = 4 does not divide d_2 = 6"):
        pivots([{0: 1}, {1: 4}, {2: 6}], [0, 1, 2], 3)
    # an off-diagonal entry beside the pivot, and a pivot off its column
    with pytest.raises(AssertionError, match="pivot row 0 is not"):
        pivots([{0: 1, 1: 5}, {1: 2}], [0, 1], 2)
    with pytest.raises(AssertionError, match="pivot row 1 is not"):
        pivots([{0: 1}, {0: 2}], [0, 1], 2)
    # a negative or missing pivot
    with pytest.raises(AssertionError, match="pivot row 0 is not"):
        pivots([{0: -2}], [0], 1)
    with pytest.raises(AssertionError, match="pivot row 0 is not"):
        pivots([{}], [0], 1)


@pytest.mark.parametrize("bad", [1.7, 2.0, "4", True, False, None, np.float64(3.0), np.bool_(True)])
def test_non_integer_entries_are_refused(bad):
    with pytest.raises(InvalidInputError):
        smith_normal_form([[1, 0], [0, bad]])


def test_numpy_integers_are_accepted():
    rows = np.array([[2, 4], [6, 9]], dtype=np.int64)
    got = smith_normal_form(rows)
    assert got.invariant_factors == [1, 6]
    assert all(type(x) is int for row in got.D for x in row)
    assert smith_normal_form([[np.int32(2), np.uint8(3)]]).invariant_factors == [1]
