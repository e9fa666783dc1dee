"""The sparse Smith normal form against the dense one it replaced.

``smith_normal_form`` keeps A and U in sparse rows, swaps columns by
relabelling them, and checks its certificate U*A*V == D on every call: U*A
from the sparse rows, then (U*A)*V through ``_matmul``.
``oracles.dense_smith_normal_form`` is the earlier dense elimination, kept
verbatim.  D, U, V and the invariant factors must agree bit for bit, and a
broken product, row transform or column transform must still trip the
certificate.  ``presentation_snf`` runs the elimination once per
presentation object.
"""
import random

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
    presentation_snf,
    smith_normal_form,
)
from grothloc import grothendieck

from oracles import dense_smith_normal_form


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
                assert_same_as_dense(random_rows(rng, m, n, density, amp), ncols=n)


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


def test_seven_and_eight_generator_presentations_match_dense():
    """A seeded batch that finishes today.  About 1 in 70 such inputs still
    stalls while entries grow (three of the first 200 at seed 1); a bounded
    elimination for those is a separate change."""
    rng = random.Random(15)
    for case in range(40):
        k = 7 + case % 2
        rows, diag = ldr_rows(rng, k)
        assert_same_as_dense(rows, ncols=k)
        assert smith_normal_form(rows, ncols=k).invariant_factors == diag + [0] * (k - len(diag))


@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-12, 12), min_size=n, max_size=n), max_size=7
).map(lambda rows: (rows, n))))
def test_hypothesis_matrices_match_dense(case):
    rows, n = case
    assert_same_as_dense(rows, ncols=n)


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


def test_broken_row_transform_trips_the_certificate(monkeypatch):
    """U starts as E = I + e_01, so the returned U is the honest U times E and
    U*A*V = U*(E*A)*V != D: E*A adds row 1 of A, which is nonzero, to row 0."""
    honest = grothendieck._sparse_eye

    def skewed(n):
        out = honest(n)
        if n > 1:
            out[0][1] = 1
        return out

    monkeypatch.setattr(grothendieck, "_sparse_eye", skewed)
    with pytest.raises(AssertionError, match="U\\*A\\*V != D"):
        smith_normal_form([[2, 0], [0, 3], [1, 1]])


def test_structure_and_group_share_one_elimination(monkeypatch):
    calls = []
    honest = grothendieck.smith_normal_form

    def spy(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(grothendieck, "smith_normal_form", spy)
    p = MonoidPresentation(3, (((2, 0, 0), (0, 1, 0)), ((0, 4, 0), (0, 0, 0))))
    s = monoid_groth_structure(p)
    group = GrothendieckGroup(p)
    assert (s.free_rank, s.torsion_invariants) == (1, (8,))
    assert group.eq(group.canonical((0, 2, 0)), group.canonical((4, 0, 0)))
    assert len(calls) == 1
    # a second, equal presentation object eliminates its own matrix
    monoid_groth_structure(MonoidPresentation(3, p.relations))
    assert len(calls) == 2


def test_presentation_snf_matches_a_fresh_elimination():
    rng = random.Random(3)
    for k in range(2, 7):
        rows, _ = ldr_rows(rng, k)
        rels = tuple(
            (tuple(max(x, 0) for x in row), tuple(max(-x, 0) for x in row)) for row in rows
        )
        p = MonoidPresentation(k, rels)
        got = presentation_snf(p)
        want = smith_normal_form(presentation_matrix(p), ncols=k)
        assert (got.D, got.U, got.V, got.invariant_factors) == (
            want.D, want.U, want.V, want.invariant_factors
        )
        assert presentation_snf(p) is got


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
