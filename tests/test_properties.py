"""Randomized property suites over generated negative-definite forests."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from plumb import engine, relations
from plumb.forest import (
    PlumbingForest,
    canonical_code,
    h1_order,
    is_negative_definite,
    reduce_forest,
)
from plumb.lattice import QFormContext

from oracles import k_square, random_strategy, same_spinc, strategy_run_path

COMMON = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def forests(draw, max_vertices=5, min_weight=-6, box_cap=1500):
    """Random negative-definite weighted forest: every vertex beyond the
    first either starts a new component or attaches to an earlier one."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = tuple(
        draw(st.integers(min_value=min_weight, max_value=-1)) for _ in range(n)
    )
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=i - 1))
        if parent >= 0:
            edges.append((parent, i))
    forest = PlumbingForest(
        ids=tuple(f"n{i}" for i in range(n)),
        weights=weights,
        edges=tuple(edges),
    )
    assume(is_negative_definite(forest))
    box = 1
    for w in weights:
        box *= -w
    assume(box <= box_cap)
    return forest


# 1 ------------------------------------------------- strategy independence

@COMMON
@given(forests(), st.integers(min_value=0, max_value=10**6), st.integers(0, 2**30))
def test_run_path_strategy_independent(forest, pick, seed):
    ctx = QFormContext(forest)
    box = list(ctx.iter_box())
    k = box[pick % len(box)]
    base = engine.run_path(ctx, k)
    for s in range(3):
        rng = random.Random(seed + s)
        r = strategy_run_path(ctx, k, strategy=random_strategy(rng))
        assert r.outcome == base.outcome
        if base.basic:
            assert r.final == base.final


# 2 ---------------------------------------------------- class count = |det|

@COMMON
@given(forests())
def test_spinc_count_equals_det(forest):
    ctx = QFormContext(forest)
    assert len(ctx.spinc_classes()) == abs(ctx.det) == ctx.h1


# 3 --------------------------------------------------- k² step arithmetic

@COMMON
@given(
    forests(),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3),
)
def test_k_square_add_pd_is_eight_step_weights(forest, pick, vpick, times):
    ctx = QFormContext(forest)
    box = list(ctx.iter_box())
    k = box[pick % len(box)]
    v = vpick % ctx.n
    expected = k_square(ctx, k)
    cur = k
    for _ in range(times):
        expected += 8 * relations.step_weight(ctx, cur, v)
        cur = tuple(ctx.add_pd(cur, v))
    assert k_square(ctx, cur) == expected
    assert same_spinc(ctx, k, cur)


# 4 ---------------------------------------------------- conjugation symmetry

@COMMON
@given(forests(max_vertices=4, box_cap=600))
def test_conjugation_symmetry_of_basics_and_d(forest):
    ctx = QFormContext(forest)
    basics = engine.basic_vectors(ctx)
    dinv = engine.d_invariants(ctx, basics=basics)
    perm = [ctx.class_index(ctx.conjugate(rep)) for rep in basics.classes]
    assert sorted(perm) == list(range(len(perm)))  # an involution on classes
    for i, j in enumerate(perm):
        assert perm[j] == i
        assert len(basics.per_class[i]) == len(basics.per_class[j])
        assert dinv.d[i] == dinv.d[j]


# 5 ------------------------------------------------------ rational ⇒ lspace

@COMMON
@given(forests(max_vertices=4, box_cap=600))
def test_rational_implies_lspace(forest):
    ctx = QFormContext(forest)
    basics = engine.basic_vectors(ctx)
    lspace = basics.total == ctx.h1
    if ctx.n == 0:
        rational = True
    else:
        canonical = len(basics.per_class[ctx.class_index(ctx.canonical_char())])
        rational = canonical == 1
        assert rational == engine.is_rational(QFormContext(forest))
    if rational:
        assert lspace


# 6 --------------------------------------------------- reduction invariance


def blow_up(forest, rng):
    """One random inverse blow-down: a disjoint -1 vertex, a -1 leaf, or a
    -1 subdivision of an existing edge."""
    ids = list(forest.ids)
    weights = list(forest.weights)
    edges = list(forest.edges)
    new = f"b{len(ids)}"
    kind = rng.choice(
        ["disjoint"]
        + (["leaf"] if ids else [])
        + (["edge"] if edges else [])
    )
    if kind == "disjoint":
        ids.append(new)
        weights.append(-1)
    elif kind == "leaf":
        v = rng.randrange(len(ids))
        ids.append(new)
        weights.append(-1)
        weights[v] -= 1
        edges.append((v, len(ids) - 1))
    else:
        a, b = edges.pop(rng.randrange(len(edges)))
        ids.append(new)
        weights.append(-1)
        weights[a] -= 1
        weights[b] -= 1
        c = len(ids) - 1
        edges.extend([(a, c), (c, b)])
    return PlumbingForest(ids=tuple(ids), weights=tuple(weights), edges=tuple(edges))


def record_fields(forest):
    ctx = QFormContext(forest)
    basics = engine.basic_vectors(ctx)
    dinv = engine.d_invariants(ctx, basics=basics)
    return (
        ctx.h1,
        sorted(len(g) for g in basics.per_class),
        sorted(dinv.d),
    )


@COMMON
@given(forests(max_vertices=4, min_weight=-4, box_cap=300), st.integers(0, 2**30))
def test_reduce_preserves_invariants(forest, seed):
    rng = random.Random(seed)
    blown = forest
    for _ in range(rng.randrange(1, 4)):
        blown = blow_up(blown, rng)
    assert is_negative_definite(blown)
    assume(QFormContext(blown).box_size <= 600)

    reduced, trace = reduce_forest(blown)
    # the blow-down moves undo the blow-ups (and any -1s already present)
    assert len(trace) >= 1
    before = record_fields(blown)
    after = record_fields(reduced)
    assert before == after
    # determinant changes sign once per blow-down, keeping |det| fixed
    assert h1_order(blown) == h1_order(reduced)
    # a second reduction is a no-op on an already-minimal forest
    again, trace2 = reduce_forest(reduced)
    assert len(trace2) == 0
    assert canonical_code(again) == canonical_code(reduced)
