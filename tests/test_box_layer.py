"""The block-wise box layer (QFormContext.box_blocks and the sweeps built
on it) against the scalar oracles iter_box, run_path, spinc_key and
k_square. Blocks are shrunk to 7 rows so that block boundaries cut
through spin^c classes."""

import numpy as np
import pytest

from plumb import census, engine, lattice
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import parse_forest
from plumb.lattice import CharVector, EnumerationBudgetError, QFormContext


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(lattice, "_BLOCK", 7)


@pytest.fixture(scope="module")
def trees():
    """Every tree with n <= 4 and weights >= -5."""
    return [g for n in range(1, 5) for g in census.enumerate_weighted(n, -5)]


def scalar_oracle(ctx):
    """(classes, per_class, overflow_count, d) from one scalar box sweep."""
    reps, members = {}, {}
    overflow = 0
    for k in ctx.iter_box():
        key = ctx.spinc_key(k)
        reps.setdefault(key, CharVector(k))
        if engine.run_path(ctx, k).basic:
            members.setdefault(key, []).append(CharVector(k))
        else:
            overflow += 1
    classes = tuple(sorted(reps.values()))
    per_class = tuple(tuple(members[ctx.spinc_key(rep)]) for rep in classes)
    d = tuple(max(ctx.k_square(k) + ctx.n for k in group) / 4 for group in per_class)
    return classes, per_class, overflow, d


def test_box_blocks_match_iter_box(small_blocks):
    graphs = [chain_forest([-3, -2, -4]), e8_forest(), star_forest(-2, [-2, -3, -5])]
    for g in graphs + [parse_forest("")]:
        ctx = QFormContext(g)
        blocks = list(ctx.box_blocks())
        assert all(len(b) <= 7 and b.dtype == np.int64 for b in blocks)
        got = [tuple(k) for k in np.concatenate(blocks).tolist()]
        assert got == list(ctx.iter_box())
        keys = np.concatenate([ctx.spinc_keys(b) for b in blocks]).tolist()
        assert [tuple(k) for k in keys] == [ctx.spinc_key(k) for k in got]


def test_box_layer_matches_scalar_oracles(small_blocks, trees):
    for g in [parse_forest("")] + trees:
        ctx = QFormContext(g)
        classes, per_class, overflow, d = scalar_oracle(ctx)
        assert ctx.spinc_classes() == classes, g.weights
        basics = engine.basic_vectors(ctx)
        assert basics.classes == classes, g.weights
        assert basics.per_class == per_class, g.weights
        assert basics.overflow_count == overflow, g.weights
        assert engine.d_invariants(ctx, basics=basics).d == d, g.weights
        assert [ctx.class_index(rep) for rep in classes] == list(range(len(classes)))


def test_basic_vectors_rng_matches_lowest_eligible(small_blocks, trees):
    for g in trees:
        ctx = QFormContext(g)
        want = engine.basic_vectors(ctx)
        for seed in (0, 1, 2):
            assert engine.basic_vectors(ctx, rng=np.random.default_rng(seed)) == want, g.weights


def test_class_index_rejects_foreign_key():
    ctx = QFormContext(chain_forest([-3, -2]))
    with pytest.raises(ValueError, match="no box representative"):
        ctx.class_indices(np.array([[1, 1]], dtype=np.int64))


def test_box_layer_int64_guard_raises_before_any_block(monkeypatch):
    """|k| reaches 2^31 + 1, so k.adj(Q).k does not fit in int64; the box
    is within budget, so only the guard stops a 2^31-vector sweep."""
    ctx = QFormContext(chain_forest([-(2**31 + 1)]), budget=2**32)
    built = []
    monkeypatch.setattr(QFormContext, "_blocks", lambda self: built.append(1))
    for call in (ctx.box_blocks, ctx.spinc_classes, lambda: engine.basic_vectors(ctx)):
        with pytest.raises(EnumerationBudgetError, match="box layer"):
            call()
    assert not built
