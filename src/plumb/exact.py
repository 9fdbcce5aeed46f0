"""Exact integer linear algebra for small matrices.

Everything here works on tuples/lists of Python ints (arbitrary
precision). No floating point.
"""

from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]


def leading_minors(rows) -> list[int]:
    """Leading principal minors m_1..m_n via fraction-free Bareiss elimination.

    If a zero minor is encountered the list ends with that zero and the
    remaining minors are left uncomputed (they are not needed by callers,
    which only use the prefix to decide definiteness).
    """
    n = len(rows)
    m = [list(r) for r in rows]
    minors = []
    prev = 1
    for k in range(n):
        piv = m[k][k]
        minors.append(piv)
        if piv == 0:
            return minors
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
        prev = piv
    return minors


def determinant(rows) -> int:
    """Exact determinant via Bareiss elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    prev = 1
    sign = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


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
