"""The block-wise box layer (QFormContext.box_blocks and the sweeps built
on it) against the scalar oracles iter_box, run_path, spinc_key and
k_square. Blocks are shrunk to 7 rows so that block boundaries cut
through spin^c classes."""

from fractions import Fraction

import numpy as np
import pytest

from plumb import census, engine, lattice
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import parse_forest
from plumb.lattice import CharVector, EnumerationBudgetError, QFormContext

from oracles import k_square


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
    d = tuple(max(k_square(ctx, k) + ctx.n for k in group) / 4 for group in per_class)
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


def test_box_batch_lays_the_boxes_end_to_end(monkeypatch):
    """A BoxBatch of several graphs on one shape, read in blocks of 7 rows
    (which span graphs and cut boxes), gives each graph's iter_box in
    order, and each row's adj(Q).k, det and |H1| from its own graph."""
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    weights = np.array([[-3, -2, -4], [-2, -2, -2], [-5, -1, -3]], dtype=np.int64)
    forests = [chain_forest(w) for w in weights.tolist()]
    batch = lattice.BoxBatch(forests[0].neighbors(), weights)
    blocks = list(batch.blocks())
    assert all(len(block) <= 7 for _, block in blocks)
    assert any(len(set(graph.tolist())) > 1 for graph, _ in blocks)
    graph = np.concatenate([g for g, _ in blocks]).tolist()
    rows = np.concatenate([b for _, b in blocks])
    pairings = np.concatenate([batch.pairings(g, b) for g, b in blocks]).tolist()
    contexts = [QFormContext(f) for f in forests]
    assert [(g, tuple(k)) for g, k in zip(graph, rows.tolist())] == [
        (i, k) for i, ctx in enumerate(contexts) for k in ctx.iter_box()
    ]
    assert pairings == [list(contexts[g].adj_image(k)) for g, k in zip(graph, rows.tolist())]
    assert batch.det.tolist() == [ctx.det for ctx in contexts]
    assert batch.h1.tolist() == [ctx.h1 for ctx in contexts]


def test_box_batch_checks_every_graph_before_any_block():
    """The budget and the int64 guard of box_blocks hold for each graph of
    a batch; the first graph at fault raises."""
    nb = chain_forest([-2, -2]).neighbors()
    weights = np.array([[-2, -2], [-30, -2], [-40, -40]], dtype=np.int64)
    with pytest.raises(EnumerationBudgetError, match="box holds 60 vectors, budget is 59"):
        lattice.BoxBatch(nb, weights, budget=59)
    big = np.array([[-2], [-(2**31 + 1)]], dtype=np.int64)
    with pytest.raises(EnumerationBudgetError, match="box layer"):
        lattice.BoxBatch(((),), big, budget=2**32)


def test_box_layer_matches_scalar_oracles(small_blocks, trees):
    for g in [parse_forest("")] + trees:
        ctx = QFormContext(g)
        classes, per_class, overflow, d = scalar_oracle(ctx)
        assert ctx.spinc_classes() == classes, g.weights
        basics = engine.basic_vectors(ctx)
        assert basics.classes == classes, g.weights
        assert basics.per_class == per_class, g.weights
        assert basics.overflow_count == overflow, g.weights
        assert basics.counts.tolist() == [len(group) for group in per_class]
        assert basics.rows.tolist() == [list(k) for group in per_class for k in group]
        assert basics.total == len(basics.rows)
        dinv = engine.d_invariants(ctx, basics=basics)
        assert dinv.d == d, g.weights
        assert dinv.dual == tuple(-x for x in d)
        assert dinv.denominator == 4 * ctx.h1
        assert [Fraction(q, dinv.denominator) for q in dinv.numerators] == list(d)
        assert [ctx.class_index(rep) for rep in classes] == list(range(len(classes)))


def test_basic_vectors_rng_matches_lowest_eligible(small_blocks, trees):
    for g in trees:
        ctx = QFormContext(g)
        want = engine.basic_vectors(ctx)
        for seed in (0, 1, 2):
            assert engine.basic_vectors(ctx, rng=np.random.default_rng(seed)) == want, g.weights


def test_classify_matches_public_objects(small_blocks, trees):
    """classify sorts the integer d-numerators and reads the class counts;
    its record must equal what the public BasicSet and DInvariants give."""
    for g in trees:
        ctx = QFormContext(g)
        basics = engine.basic_vectors(ctx)
        canonical = basics.per_class[ctx.class_index(ctx.canonical_char())]
        record = census.classify(g)
        assert record.d == tuple(sorted(engine.d_invariants(ctx).d)), g.weights
        assert record.basic == basics.total, g.weights
        assert record.rational == (len(canonical) == 1), g.weights
        assert record.lspace == (basics.total == ctx.h1), g.weights


def test_basic_set_builds_char_vectors_only_on_read(monkeypatch):
    """basic_vectors and d_invariants keep the basic vectors as one array:
    the only CharVectors they build are the class representatives. Reading
    per_class builds one per basic vector, once."""
    ctx = QFormContext(chain_forest([-5] * 5))
    built = []
    init = CharVector.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CharVector, "__init__", counting)
    basics = engine.basic_vectors(ctx)
    engine.d_invariants(ctx, basics=basics)
    assert basics.total >= ctx.h1 > 1
    assert len(built) <= ctx.h1
    built.clear()
    assert basics.per_class is basics.per_class
    assert len(built) == basics.total


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
