"""The exact integer adjugate of a small matrix.

It works on tuples/lists of Python ints (arbitrary precision), with no
floating point. Determinants and definiteness of plumbing forms come
from the subtree recursion in forest.py.
"""

from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]


def adjugate(rows) -> IntMatrix:
    """Integer adjugate adj(Q) with Q @ adj(Q) = det(Q) * I.

    Fraction-free Gauss-Jordan (Montante) on [Q | I]: every update is
    integral, the left block ends as det*I and the right block as the
    adjugate. The pivots are the leading principal minors, all nonzero
    for the definite forms the callers pass; a zero pivot raises
    ValueError.
    """
    n = len(rows)
    m = [[int(rows[i][j]) for j in range(n)]
         + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv == 0:
            raise ValueError(f"leading principal minor {k + 1} is zero")
        for i in range(n):
            if i == k:
                continue
            mi, mk = m[i], m[k]
            f = mi[k]
            for j in range(2 * n):
                mi[j] = (mi[j] * piv - f * mk[j]) // prev
        prev = piv
    return tuple(tuple(m[i][n:]) for i in range(n))
