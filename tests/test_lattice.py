"""Characteristic-vector boxes, spin^c classes, and exact K² arithmetic."""

from fractions import Fraction

import pytest

from plumb import engine
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import parse_forest
from plumb.lattice import (
    CharVector,
    EnumerationBudgetError,
    NotNegativeDefiniteError,
    QFormContext,
)

from oracles import char_box, in_terminal_box, k_square, same_spinc, spinc_key


def ctx_of(weights_text):
    return QFormContext(parse_forest(weights_text))


def single(w):
    return QFormContext(chain_forest([w]))


# ---------------------------------------------------------------- context

def test_rejects_non_negative_definite():
    with pytest.raises(NotNegativeDefiniteError):
        QFormContext(chain_forest([2]))
    with pytest.raises(NotNegativeDefiniteError):
        QFormContext(chain_forest([-1, -1]))


def test_empty_forest_context():
    ctx = QFormContext(parse_forest(""))
    assert ctx.det == 1
    assert ctx.h1 == 1
    assert ctx.box_size == 1
    assert list(ctx.iter_box()) == [()]
    assert ctx.spinc_classes() == (CharVector(()),)


# ---------------------------------------------------------------- the box

def test_box_single_vertex_minus_two():
    ctx = single(-2)
    assert [tuple(k) for k in char_box(ctx)] == [(0,), (2,)]


def test_box_single_vertex_minus_three():
    ctx = single(-3)
    assert [tuple(k) for k in char_box(ctx)] == [(-1,), (1,), (3,)]


def test_box_e8_has_256_vectors():
    ctx = QFormContext(e8_forest())
    box = list(ctx.iter_box())
    assert len(box) == 256 == ctx.box_size
    assert box == sorted(box)
    assert all(all(kv in (0, 2) for kv in k) for k in box)


def test_box_lex_sorted_and_in_bounds():
    ctx = QFormContext(chain_forest([-3, -2, -4]))
    box = list(ctx.iter_box())
    assert len(box) == 24 == ctx.box_size
    assert box == sorted(box)
    assert all(ctx.in_box(k) for k in box)
    assert box[0] == tuple(w + 2 for w in ctx.weights)
    assert box[-1] == tuple(-w for w in ctx.weights)


def test_budget_refuses_large_box():
    forest = chain_forest([-100] * 4)
    ctx = QFormContext(forest, budget=1000)
    with pytest.raises(EnumerationBudgetError):
        list(ctx.iter_box())
    with pytest.raises(EnumerationBudgetError):
        ctx.box_sweep()
    with pytest.raises(EnumerationBudgetError):
        engine.is_rational(ctx)


def test_terminal_box_bounds():
    ctx = single(-2)
    assert in_terminal_box(ctx, (-2,))
    assert in_terminal_box(ctx, (0,))
    assert not in_terminal_box(ctx, (2,))


# --------------------------------------------------------------- vectors

def test_require_characteristic_parity():
    ctx = QFormContext(chain_forest([-2, -3]))
    assert ctx.require_characteristic((0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        ctx.require_characteristic((1, 1))  # parity at -2
    with pytest.raises(ValueError):
        ctx.require_characteristic((0, 0))  # parity at -3
    with pytest.raises(ValueError):
        ctx.require_characteristic((0,))  # wrong length


def test_canonical_char():
    assert tuple(QFormContext(e8_forest()).canonical_char()) == (0,) * 8
    assert tuple(single(-3).canonical_char()) == (-1,)
    star = QFormContext(star_forest(-1, [-2, -3, -7]))
    assert tuple(star.canonical_char()) == (1, 0, -1, -5)


def test_add_pd_single_vertex():
    ctx = single(-2)
    assert tuple(ctx.add_pd((2,), 0)) == (-2,)


def test_add_pd_chain_and_inverse():
    ctx = QFormContext(chain_forest([-2, -2]))
    assert tuple(ctx.add_pd((0, 0), 0)) == (-4, 2)
    k = (2, 0)
    assert tuple(ctx.add_pd(ctx.add_pd(k, 1), 1, times=-1)) == k


def test_conjugate_involution():
    ctx = QFormContext(chain_forest([-2, -5]))
    k = (0, 3)
    assert tuple(ctx.conjugate(ctx.conjugate(k))) == k
    assert k_square(ctx, k) == k_square(ctx, ctx.conjugate(k))


# ----------------------------------------------------------- spin^c orbits

def test_same_spinc_single_vertices():
    ctx2 = single(-2)
    assert not same_spinc(ctx2, (0,), (2,))
    assert same_spinc(ctx2, (2,), (-2,))
    ctx3 = single(-3)
    assert same_spinc(ctx3, (3,), (-3,))
    assert not same_spinc(ctx3, (1,), (-1,))


def test_spinc_class_counts():
    assert len(single(-2).spinc_classes()) == 2
    assert len(single(-3).spinc_classes()) == 3
    assert len(QFormContext(e8_forest()).spinc_classes()) == 1


def test_spinc_classes_partition_box():
    ctx = QFormContext(chain_forest([-3, -2]))
    assert ctx.h1 == 5
    reps = ctx.spinc_classes()
    assert len(reps) == 5
    seen = {}
    for k in ctx.iter_box():
        seen.setdefault(spinc_key(ctx, k), []).append(k)
    assert len(seen) == 5
    # representatives are the lex-least member of each class
    for rep in reps:
        members = seen[spinc_key(ctx, rep)]
        assert tuple(rep) == min(members)


def test_class_index_consistent():
    ctx = QFormContext(chain_forest([-3, -2]))
    for i, rep in enumerate(ctx.spinc_classes()):
        assert ctx.class_index(rep) == i
        assert ctx.class_index(ctx.add_pd(rep, 0)) == i


# ------------------------------------------------------------------- K²

def test_k_square_examples():
    assert k_square(QFormContext(e8_forest()), (0,) * 8) == 0
    assert k_square(single(-2), (2,)) == Fraction(-2)
    assert k_square(single(-3), (3,)) == Fraction(-3)


def test_k_square_matches_direct_solve():
    ctx = QFormContext(star_forest(-2, [-3, -2, -5]))
    k = tuple(ctx.canonical_char())
    # k^T adj k / det, done longhand
    adj = ctx.adjugate
    n = ctx.n
    total = sum(k[i] * adj[i][j] * k[j] for i in range(n) for j in range(n))
    assert k_square(ctx, k) == Fraction(total, ctx.det)


def test_k_square_step_identity():
    ctx = QFormContext(chain_forest([-2, -3, -2]))
    for k in ctx.iter_box():
        for v in range(ctx.n):
            n_step = (k[v] + ctx.weights[v]) // 2
            assert k_square(ctx, ctx.add_pd(k, v)) == k_square(ctx, k) + 8 * n_step
