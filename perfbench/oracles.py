"""Answers the benchmark checks the library against, computed without it.

Nothing here imports grothloc.  Each answer follows from how the input was
built (a presentation made from a chosen diagonal, a table with a known
group completion) or from elementary number theory, so a change that
weakens one of the library's own self-checks still fails the benchmark.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def phi(n: int) -> int:
    """Euler's totient by trial division."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def coprime_part(n: int, gens) -> int:
    """n', the largest divisor of n coprime to every generator.

    S^-1(Z/n) is Z/n', so its unit group has phi(n') elements.
    """
    for d in sorted((d for d in range(1, n + 1) if n % d == 0), reverse=True):
        if all(gcd(d, s % n) == 1 for s in gens):
            return d
    return 1


def closure_size(n: int, gens) -> int:
    """Number of products of generators in Z/n, the empty product included."""
    seen = {1 % n}
    frontier = [1 % n]
    while frontier:
        frontier = [y for y in {x * g % n for x in frontier for g in gens} if y not in seen]
        seen.update(frontier)
    return len(seen)


def saturation_size(n: int, gens) -> int:
    """Elements of Z/n that become units in S^-1(Z/n) = Z/n'."""
    m = coprime_part(n, gens)
    return (n // m) * phi(m)


def one_plus_ideal(n: int, g: int) -> list:
    """The set 1 + (g) inside Z/n, sorted."""
    d = gcd(g, n)
    return sorted({(1 + k * d) % n for k in range(n)})


def cyclic_sum_torsion(a: int, b: int) -> list:
    """Invariant factors of Z/a + Z/b: (gcd, lcm) with trivial factors dropped."""
    return [x for x in (gcd(a, b), lcm(a, b)) if x > 1]


def translations_injective(table) -> list:
    """For each m, whether x -> m + x is injective on the table's carrier.

    eps_m is a non-zero-divisor in R[M] (R nonzero) exactly when it is, and
    M is cancellative exactly when every entry holds.
    """
    n = len(table)
    return [len(set(row)) == n for row in table]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def vecmat(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


def det(a) -> int:
    """Exact determinant by fraction-valued elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(out)


def in_row_lattice(w, rinv, diag) -> bool:
    """Whether w lies in the row lattice of L * D * R (L, R unimodular).

    That lattice is {z * R : z_i in d_i Z for i < len(diag), z_i = 0 after},
    so w belongs iff z = w * R^-1 has that shape.
    """
    z = vecmat(w, rinv)
    t = len(diag)
    return all(z[i] % diag[i] == 0 for i in range(t)) and not any(z[t:])


def convolve(f: dict, g: dict, mod: int | None) -> dict:
    """Product in R[Z^k] of two exponent-tuple -> coefficient maps."""
    out = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            out[d] = out.get(d, 0) + c1 * c2
    if mod is not None:
        out = {d: c % mod for d, c in out.items()}
    return {d: c for d, c in out.items() if c}
