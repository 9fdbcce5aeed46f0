"""The exact Smith normal form of a small integer matrix.

It works on tuples/lists of Python ints (arbitrary precision), with no
floating point. Determinants and definiteness of plumbing forms come
from the subtree recursion in forest.py, and adjugates from the batched
elimination in lattice.py (_adjugates).
"""

from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]


def smith_form(rows) -> tuple[tuple[int, ...], IntMatrix]:
    """(d, U) with U Q V = diag(d) for a nonsingular integer matrix Q: U
    and V unimodular, every d_i > 0 and d_i dividing d_{i+1} (the Smith
    normal form). V is not kept.

    Each pivot is the least nonzero entry of the remaining block, moved to
    its corner; row and column operations reduce the rest of its row and
    column mod the pivot, and a remainder becomes the next, smaller,
    pivot. When both are clear, a row whose entries the pivot does not
    divide is added to the pivot's row. The row operations are applied to
    U as well. A singular matrix raises ValueError."""
    n = len(rows)
    a = [[int(x) for x in row] for row in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            block = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not block:
                raise ValueError("matrix is singular")
            _, i, j = min(block)
            a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):
                f = a[i][t] // p
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, n):
                f = a[t][j] // p
                if f:
                    for row in a[t:]:
                        row[j] -= f * row[t]
            if any(a[i][t] or a[t][i] for i in range(t + 1, n)):
                continue
            bad = [i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1:])]
            if not bad:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[bad[0]])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return tuple(a[t][t] for t in range(n)), tuple(tuple(row) for row in u)
