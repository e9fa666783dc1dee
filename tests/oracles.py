"""Slow reference deciders that the library's class keys replaced.

Each follows the definition of the Grothendieck group directly:
[a, b] = [c, d] when (a+d) + m = (b+c) + m for some witness m.  They are
kept only to cross-check ``GrothendieckGroup.key`` and the dict-based
class enumeration, and they share no code path with either.
"""
from grothloc import (
    GrothElement,
    MonoidPresentation,
    presentation_matrix,
    smith_normal_form,
)


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
