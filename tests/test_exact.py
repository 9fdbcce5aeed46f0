"""Exact linear algebra against a slow Laplace-expansion oracle."""

import random

import pytest

from plumb import exact


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in [list(x) for x in rows[1:]]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def random_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_determinant_small_cases():
    assert exact.determinant([]) == 1
    assert exact.determinant([[5]]) == 5
    assert exact.determinant([[1, 2], [3, 4]]) == -2
    assert exact.determinant([[0, 1], [1, 0]]) == -1
    assert exact.determinant([[0, 0], [0, 0]]) == 0


def test_determinant_matches_laplace():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(40):
            m = random_matrix(rng, n)
            assert exact.determinant(m) == laplace_det(m)


def test_leading_minors_match_laplace():
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(30):
            m = random_matrix(rng, n)
            minors = exact.leading_minors(m)
            expected = []
            for k in range(1, n + 1):
                d = laplace_det([row[:k] for row in m[:k]])
                expected.append(d)
                if d == 0:
                    break
            # our minors list stops at the first zero minor too
            assert minors == expected[: len(minors)]
            assert len(minors) == len(expected)


def test_adjugate_identity():
    """The adjugate is defined here for matrices whose leading principal
    minors are all nonzero, as those of definite forms are; any other
    matrix, singular or not, raises ValueError."""
    rng = random.Random(19)
    for n in range(1, 5):
        for _ in range(20):
            m = random_matrix(rng, n)
            minors = [laplace_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
            if 0 in minors:
                with pytest.raises(ValueError):
                    exact.adjugate(m)
                continue
            d = minors[-1]
            adj = exact.adjugate(m)
            for i in range(n):
                for j in range(n):
                    s = sum(m[i][k] * adj[k][j] for k in range(n))
                    assert s == (d if i == j else 0)
    with pytest.raises(ValueError):
        exact.adjugate([[0, 1], [1, 0]])


def test_adjugate_empty():
    assert exact.adjugate([]) == ()
