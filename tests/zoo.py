"""Small monoids used across the test suite.

Tables are built here by direct formulas, independently of any library
helper, so a bug in the package cannot silently produce the fixtures that
are supposed to catch it.
"""
from grothloc import (
    CayleyMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    MonoidPresentation,
)


def join_chain_table(n):
    """Chain 0 < 1 < ... < n-1 under join (max)."""
    return [[max(i, j) for j in range(n)] for i in range(n)]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def mult_mod_table(n):
    return [[(i * j) % n for j in range(n)] for i in range(n)]


def union_table():
    """Subsets of a 2-element set encoded as bitmasks 0..3, under union."""
    return [[i | j for j in range(4)] for i in range(4)]


def t2():
    return CayleyMonoid(join_chain_table(2))


def t3():
    return CayleyMonoid(join_chain_table(3))


def z2():
    return CayleyMonoid(cyclic_table(2))


def z4():
    return CayleyMonoid(cyclic_table(4))


def z6_add():
    return CayleyMonoid(cyclic_table(6))


def z4_mult():
    """Multiplication mod 4: four elements, commutative, not cancellative."""
    return CayleyMonoid(mult_mod_table(4), identity=1)


def z6_mult():
    return CayleyMonoid(mult_mod_table(6), identity=1)


def subsets2():
    return CayleyMonoid(union_table())


def t2_plus_z2():
    return DirectSumMonoid([t2(), z2()])


def t2_z2_table():
    """T2 + Z/2 as one Cayley table, (a, b) at 2a + b: join on a, addition
    mod 2 on b.  Not cancellative, and G = Z/2."""
    return CayleyMonoid(
        [[2 * max(i >> 1, j >> 1) + ((i ^ j) & 1) for j in range(4)] for i in range(4)]
    )


def z2_plus_z2():
    return DirectSumMonoid([z2(), z2()])


def free(rank):
    return FreeCommutativeMonoid(rank)


def numsg_2_3():
    """Numerical semigroup <2, 3> as a two-generator presentation."""
    return MonoidPresentation(2, (((3, 0), (0, 2)),))


def n_cross_z2():
    return MonoidPresentation(2, (((0, 2), (0, 0)),))


def z4_presented():
    return MonoidPresentation(1, (((4,), (0,)),))


def integers_presented(rank=1):
    """Z^rank presented on 2*rank generators with g_i + g_{rank+i} = 0."""
    rels = []
    for i in range(rank):
        w = [0] * (2 * rank)
        w[i] = 1
        w[rank + i] = 1
        rels.append((tuple(w), (0,) * (2 * rank)))
    return MonoidPresentation(2 * rank, tuple(rels))
