"""The forest determinant/definiteness recursion and the adjugate oracle
against a slow Laplace-expansion oracle, the batched adjugate of
QFormContext against the oracle, and the Smith normal form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from plumb import exact
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import (
    PlumbingForest,
    _det_negdef,
    _forest_det_negdef,
    _shape_tables,
    h1_order,
    intersection_matrix,
    is_negative_definite,
)
from plumb.lattice import QFormContext

from oracles import adjugate


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


def random_forest(rng, n, components):
    """A random forest on n >= components >= 1 vertices: each component grows
    by attaching a vertex to a random earlier one of it, then the labels
    are shuffled. Weights lie in [-6, 3], so singular and indefinite
    forms occur."""
    label = list(range(n))
    rng.shuffle(label)
    cuts = sorted(rng.sample(range(1, n), components - 1))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        for v in range(lo + 1, hi):
            edges.append((label[rng.randrange(lo, v)], label[v]))
    ids = tuple(f"x{i}" for i in range(n))
    return PlumbingForest(ids, tuple(rng.randint(-6, 3) for _ in range(n)), tuple(edges))


def random_forests(seed):
    rng = random.Random(seed)
    yield PlumbingForest((), (), ())
    for n in range(1, 8):
        for components in (1, 2, 3):
            if components <= n:
                for _ in range(40):
                    yield random_forest(rng, n, components)


def sylvester_negdef(rows):
    """Sylvester's criterion on Laplace leading minors: the k-th has the
    sign (-1)^k."""
    for k in range(1, len(rows) + 1):
        m = laplace_det([row[:k] for row in rows[:k]])
        if m == 0 or (m > 0) != (k % 2 == 0):
            return False
    return True


def test_forest_determinant_small_cases():
    assert _forest_det_negdef(PlumbingForest((), (), ())) == (1, True)
    assert _forest_det_negdef(chain_forest([5])) == (5, False)
    assert _forest_det_negdef(chain_forest([-2, 2])) == (-5, False)
    assert _forest_det_negdef(chain_forest([-1, -1])) == (0, False)
    assert _forest_det_negdef(chain_forest([-2, -3])) == (5, True)
    assert _forest_det_negdef(e8_forest()) == (1, True)
    assert _forest_det_negdef(star_forest(-1, [-2, -3, -7])) == (1, True)
    two = PlumbingForest(("a", "b", "c"), (-2, -2, -3), ((0, 2),))
    assert _forest_det_negdef(two) == (-10, True)


def test_forest_determinant_matches_laplace():
    kinds = set()
    for f in random_forests(11):
        det = laplace_det(intersection_matrix(f))
        assert _forest_det_negdef(f)[0] == det, (f.weights, f.edges)
        assert h1_order(f) == abs(det)
        kinds.add((len(f.components()), det == 0))
    assert kinds == {(c, z) for c in (1, 2, 3) for z in (False, True)} | {(0, False)}


def test_forest_definiteness_matches_sylvester():
    verdicts = set()
    for f in random_forests(13):
        want = sylvester_negdef(intersection_matrix(f))
        assert _forest_det_negdef(f)[1] == want, (f.weights, f.edges)
        assert is_negative_definite(f) == want
        verdicts.add((len(f.components()), want))
    assert verdicts == {(c, v) for c in (1, 2, 3) for v in (False, True)} | {(0, True)}


def test_forest_adjacency_matches_brute_force():
    """neighbors(), degrees() and components() of forests with shuffled
    labels and up to three components, read off the edge list directly."""
    counts = set()
    for f in random_forests(19):
        nb = tuple(
            tuple(sorted([b for a, b in f.edges if a == v] + [a for a, b in f.edges if b == v]))
            for v in range(f.n)
        )
        assert f.neighbors() == nb, f.edges
        assert f.degrees() == tuple(len(x) for x in nb), f.edges
        # each vertex takes the least label of its component
        label = list(range(f.n))
        changed = True
        while changed:
            changed = False
            for a, b in f.edges:
                low = min(label[a], label[b])
                if (label[a], label[b]) != (low, low):
                    label[a] = label[b] = low
                    changed = True
        comps = tuple(
            tuple(v for v in range(f.n) if label[v] == r) for r in sorted(set(label))
        )
        assert f.components() == comps, f.edges
        counts.add(len(comps))
    assert counts == {0, 1, 2, 3}


def test_forest_recursion_runs_on_weight_columns():
    """The census grid runs the recursion on whole arrays of weight
    assignments; each column agrees with the scalar run."""
    rng = random.Random(17)
    for components in (1, 2, 3):
        shape = random_forest(rng, 6, components)
        tables = _shape_tables(shape.edges, shape.n)
        columns = np.array([[rng.randint(-6, 3) for _ in range(200)] for _ in range(6)])
        det, negdef = _det_negdef(tables, columns)
        for j, weights in enumerate(columns.T.tolist()):
            f = PlumbingForest(shape.ids, tuple(weights), shape.edges)
            assert (int(det[j]), bool(negdef[j])) == _forest_det_negdef(f)


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
                    adjugate(m)
                continue
            d = minors[-1]
            adj = adjugate(m)
            for i in range(n):
                for j in range(n):
                    s = sum(m[i][k] * adj[k][j] for k in range(n))
                    assert s == (d if i == j else 0)
    with pytest.raises(ValueError):
        adjugate([[0, 1], [1, 0]])


def test_adjugate_empty():
    assert adjugate([]) == ()


def test_context_adjugate_matches_the_oracle():
    """QFormContext.adjugate, the batched elimination on a batch of one
    graph, equals the oracle: on chains of up to 100 vertices, whose boxes
    pass 2^31 vectors so that it runs on exact ints, and on (-7)^6, E8,
    a star and the empty forest, where it runs in int64."""
    chains = [[-2] * 100, [-3, -7, -2, -5] * 25, [-2] * 30 + [-97], [-7] * 6]
    forests = [chain_forest(w) for w in chains] + [e8_forest(), star_forest(-1, [-2, -3, -7])]
    for forest in forests + [PlumbingForest((), (), ())]:
        ctx = QFormContext(forest)
        assert ctx.adjugate == adjugate(ctx.q), forest.weights


def fraction_det(rows):
    """det by Gaussian elimination over the rationals, with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for t in range(len(m)):
        pivot = next((i for i in range(t, len(m)) if m[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            m[t], m[pivot] = m[pivot], m[t]
            det = -det
        det *= m[t][t]
        for i in range(t + 1, len(m)):
            f = m[i][t] / m[t][t]
            m[i] = [a - f * b for a, b in zip(m[i], m[t])]
    return det


def check_smith(q):
    d, u = exact.smith_form(q)
    n = len(q)
    assert math.prod(d) == abs(fraction_det(q))
    assert all(x > 0 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    assert abs(fraction_det(u)) == 1
    for di, ui in zip(d, u):
        assert all(sum(ui[k] * q[k][j] for k in range(n)) % di == 0 for j in range(n))
    return d


def test_smith_form():
    """U Q V = diag(d): the product of the d_i is |det Q|, each d_i divides
    the next, U is unimodular, and row i of U Q is 0 mod d_i. On plumbing
    forms (every tree with n <= 4 and weights >= -5, the D4 star, E8 and
    two chains) and on random integer matrices that are not symmetric."""
    from plumb import census

    graphs = [g for n in range(1, 5) for g in census.enumerate_weighted(n, -5)]
    graphs += [e8_forest(), chain_forest([-7] * 6), chain_forest([-2] * 12)]
    for g in graphs:
        check_smith(intersection_matrix(g))
    assert check_smith(intersection_matrix(star_forest(-2, [-2, -2, -2]))) == (1, 1, 2, 2)
    assert check_smith(intersection_matrix(chain_forest([-7] * 6)))[-1] == 105_937
    rng = random.Random(7)
    tried = 0
    while tried < 200:
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if fraction_det(m):
            check_smith(m)
            tried += 1
    assert exact.smith_form([]) == ((), ())
    with pytest.raises(ValueError):
        exact.smith_form([[2, 4], [1, 2]])
