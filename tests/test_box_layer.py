"""The block-wise box layer (BoxBatch.sweep, QFormContext.box_sweep on a
batch of one graph, and the sweeps built on it) against the scalar
oracles iter_box, run_path, spinc_key and k_square. Blocks are shrunk to
7 rows so that block boundaries cut through spin^c classes."""

from fractions import Fraction

import numpy as np
import pytest

from plumb import census, engine, exact, lattice
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import PlumbingForest, _forest_det_negdef, _shape_tables, parse_forest
from plumb.lattice import (
    CharVector,
    EnumerationBudgetError,
    NotNegativeDefiniteError,
    QFormContext,
)

from oracles import adj_image, adjugate, canonical_counts_sweep, classify, k_square, spinc_key


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)


@pytest.fixture(scope="module")
def trees():
    """Every tree with n <= 4 and weights >= -5."""
    return [g for n in range(1, 5) for g in census.enumerate_weighted(n, -5)]


def scalar_oracle(ctx):
    """(classes, per_class, overflow_count, d) from one scalar box sweep."""
    reps, members = {}, {}
    overflow = 0
    for k in ctx.iter_box():
        key = spinc_key(ctx, k)
        reps.setdefault(key, CharVector(k))
        if engine.run_path(ctx, k).basic:
            members.setdefault(key, []).append(CharVector(k))
        else:
            overflow += 1
    classes = tuple(sorted(reps.values()))
    per_class = tuple(tuple(members[spinc_key(ctx, rep)]) for rep in classes)
    d = tuple(max(k_square(ctx, k) + ctx.n for k in group) / 4 for group in per_class)
    return classes, per_class, overflow, d


def test_box_blocks_match_iter_box(small_blocks):
    graphs = [chain_forest([-3, -2, -4]), e8_forest(), star_forest(-2, [-2, -3, -5])]
    for g in graphs + [parse_forest("")]:
        ctx = QFormContext(g)
        sweep = list(ctx.box_sweep())
        blocks = [b for _, b, _ in sweep]
        assert all(len(b) <= 7 and b.dtype == np.int64 for b in blocks)
        got = [tuple(k) for k in np.concatenate(blocks).tolist()]
        assert got == list(ctx.iter_box())
        classes = np.concatenate([ctx.class_indices(b) for b in blocks]).tolist()
        assert np.concatenate([ctx.classes_of(r) for _, _, r in sweep]).tolist() == classes
        reps = [tuple(rep) for rep in ctx.class_reps.tolist()]
        assert [spinc_key(ctx, reps[c]) for c in classes] == [spinc_key(ctx, k) for k in got]


def swept(batch):
    """(blocks, rank, reps) of a BoxBatch.sweep: the blocks it yields and
    the first rows it returns."""
    sweep, blocks = batch.sweep(), []
    while True:
        try:
            blocks.append(next(sweep))
        except StopIteration as end:
            return (blocks, *end.value)


def test_box_batch_lays_the_boxes_end_to_end(monkeypatch):
    """A BoxBatch of several graphs on one shape, swept in blocks of 7 rows
    (some inside one box, some spanning boxes), gives each graph's
    iter_box in order, and each row's adj(Q).k, det and |H1| from its own
    graph. The class ids are the spinc_key partition of each graph, in
    its own range of ids, the canonical vector's first; the sweep returns
    each id's first row, numbered in the order of those rows."""
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    weights = np.array([[-3, -2, -4], [-2, -2, -2], [-5, -1, -3]], dtype=np.int64)
    forests = [chain_forest(w) for w in weights.tolist()]
    batch = lattice.BoxBatch(forests[0].neighbors(), weights)
    blocks, rank, reps = swept(batch)
    assert all(len(block) <= 7 for _, block, _ in blocks)
    spans = [len(set(graph.tolist())) for graph, _, _ in blocks]
    assert 1 in spans and max(spans) > 1
    graph = np.concatenate([g for g, _, _ in blocks]).tolist()
    rows = np.concatenate([b for _, b, _ in blocks])
    ids = np.concatenate([i for _, _, i in blocks]).tolist()
    pairings = np.concatenate([batch.pairings(g, b) for g, b, _ in blocks]).tolist()
    contexts = [QFormContext(f) for f in forests]
    assert [(g, tuple(k)) for g, k in zip(graph, rows.tolist())] == [
        (i, k) for i, ctx in enumerate(contexts) for k in ctx.iter_box()
    ]
    assert pairings == [list(adj_image(contexts[g], k)) for g, k in zip(graph, rows.tolist())]
    assert batch.det.tolist() == [ctx.det for ctx in contexts]
    assert batch.h1.tolist() == [ctx.h1 for ctx in contexts]
    offsets = batch.class_offsets.tolist()
    keys = [(g, spinc_key(contexts[g], k)) for g, k in zip(graph, rows.tolist())]
    # one id per key and one key per id
    assert len(set(zip(ids, keys))) == len(set(ids)) == len(set(keys)) == offsets[-1]
    assert all(offsets[g] <= i < offsets[g + 1] for g, i in zip(graph, ids))
    assert [ids[start] for start in batch.offsets[:-1].tolist()] == offsets[:-1]
    first = sorted(ids.index(i) for i in range(len(rank)))
    assert [first[r] for r in rank.tolist()] == [ids.index(i) for i in range(len(rank))]
    assert reps.tolist() == rows[first].tolist()


def test_box_batch_checks_every_graph_before_any_block():
    """The budget and the int64 guard of box_sweep hold for each graph of
    a batch; the first graph at fault raises."""
    nb = chain_forest([-2, -2]).neighbors()
    weights = np.array([[-2, -2], [-30, -2], [-40, -40]], dtype=np.int64)
    with pytest.raises(EnumerationBudgetError, match="box holds 60 vectors, budget is 59"):
        lattice.BoxBatch(nb, weights, budget=59)
    big = np.array([[-2], [-(2**31 + 1)]], dtype=np.int64)
    with pytest.raises(EnumerationBudgetError, match="box layer"):
        lattice.BoxBatch(((),), big, budget=2**32)


def test_residue_guard_raises_before_any_class(monkeypatch):
    """The chain (-2^11, -2^10, -2^11) passes the guard on its pairings,
    but |H1| = 4,294,963,200 puts n |H1|^2 past int64, so its spin^c
    residues are refused, in QFormContext before any block is built and
    in a BoxBatch (whose set-up passes) before its sweep's first block."""
    ctx = QFormContext(chain_forest([-2**11, -2**10, -2**11]), budget=2**32)
    built = []
    monkeypatch.setattr(lattice, "_digits", lambda *args: built.append(1))
    for call in (ctx.box_sweep, ctx.spinc_classes):
        with pytest.raises(EnumerationBudgetError, match="spin\\^c residues"):
            call()
    weights = np.array([ctx.weights], dtype=np.int64)
    batch = lattice.BoxBatch(ctx.neighbors, weights, budget=2**32)
    with pytest.raises(EnumerationBudgetError, match="spin\\^c residues"):
        next(batch.sweep())
    assert not built


def _by_shape(forests):
    """(neighbors, int64 weight rows, forests) of each shape among the
    forests, the shape read off the neighbour lists."""
    shapes = {}
    for f in forests:
        shapes.setdefault(f.neighbors(), []).append(f)
    return [
        (nb, np.array([f.weights for f in fs], dtype=np.int64).reshape(len(fs), -1), fs)
        for nb, fs in shapes.items()
    ]


@pytest.fixture(scope="module")
def two_component_forests():
    """The forests of enumerate_forests(5, -3) with two components."""
    return [
        f for f in census.enumerate_forests(5, -3)
        if len({v.split(".")[0] for v in f.ids}) == 2
    ]


def test_canonical_counts_match_the_sweep(monkeypatch, trees, two_component_forests):
    """canonical_counts_rows builds only the canonical class's members by
    a meet in the middle; its counts equal those of the full sweep
    (oracles.canonical_counts_sweep), batched by shape, with chunks of 7
    rows that cut through the join (the sweep runs first, in full-size
    blocks)."""
    assert len(two_component_forests) > 100
    chains = [chain_forest([-8] + [-7] * 5), chain_forest([-3] * 12)]
    batches = _by_shape(trees) + _by_shape(two_component_forests)
    batches += _by_shape([e8_forest()]) + _by_shape(chains)
    want = [canonical_counts_sweep(nb, weights).tolist() for nb, weights, _ in batches]
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    monkeypatch.setattr(engine, "_BATCH_ROWS", 7)
    for (nb, weights, _), counts in zip(batches, want):
        batch = lattice.BoxBatch(nb, weights)
        assert engine.canonical_counts_rows(batch).tolist() == counts, weights
    assert QFormContext(e8_forest()).h1 == 1


def test_canonical_counts_build_no_row_outside_the_class(monkeypatch, trees):
    """Every row canonical_counts_rows sends to _basic_rows is a box member
    of its graph's canonical class, and each member is sent once."""
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    sent = []
    real = engine._basic_rows

    def recording(block, weights, adj, rng=None):
        sent.extend(zip(np.asarray(weights).tolist(), block.tolist()))
        return real(block, weights, adj, rng)

    monkeypatch.setattr(engine, "_basic_rows", recording)
    for nb, weights, forests in _by_shape(trees + [e8_forest(), chain_forest([-5] * 5)]):
        sent.clear()
        engine.canonical_counts_rows(lattice.BoxBatch(nb, weights))
        got = sorted((tuple(w), tuple(k)) for w, k in sent)
        want = []
        for f in forests:
            ctx = QFormContext(f)
            key = spinc_key(ctx, ctx.canonical_char())
            want += [(f.weights, k) for k in ctx.iter_box() if spinc_key(ctx, k) == key]
        assert got == sorted(want), weights


def test_box_batch_setup_matches_exact(two_component_forests):
    """BoxBatch builds det, |H1| and the adjugates of a whole batch in
    array operations; they equal the subtree recursion and the scalar
    oracle adjugate on every graph of the (4, -6) census grid and on the
    forests."""
    batches = []
    for n in range(1, 5):
        for edges in census.enumerate_trees(n):
            tables = _shape_tables(edges, n)
            rows = census._distinct_rows(tables, -6)
            forests = [census._shape_forest(edges, n, w) for w in rows.tolist()]
            batches.append((tables.neighbors, rows, forests))
    assert sum(len(rows) for _, rows, _ in batches) == 1042
    for nb, rows, forests in batches + _by_shape(two_component_forests):
        batch = lattice.BoxBatch(nb, rows)
        contexts = [QFormContext(f) for f in forests]
        assert batch.adjugates.tolist() == [
            [list(row) for row in adjugate(ctx.q)] for ctx in contexts
        ]
        assert batch.det.tolist() == [_forest_det_negdef(f)[0] for f in forests]
        assert batch.h1.tolist() == [ctx.h1 for ctx in contexts]
    # (-1, -1) is not negative definite: det 0
    nb = chain_forest([-2, -2]).neighbors()
    with pytest.raises(NotNegativeDefiniteError):
        lattice.BoxBatch(nb, np.array([[-2, -2], [-1, -1]], dtype=np.int64))


def test_box_batch_past_its_int64_bounds_is_exact():
    """Past the bounds under which the set-up runs in int64 it runs on
    exact ints, with the same det and adjugates: the elimination past a
    box of 2^31 vectors (2^32 here), and the subtree recursion past a
    product of |m_v| + deg_v + 1 of 2^61 (2^86 on the star with centre
    -21 and 40 legs -2, whose box is 21 * 2^40)."""
    chains = [chain_forest([-3, -2, -4]), chain_forest([-2**11, -2**10, -2**11])]
    for forests, budget in ((chains, 2**32), ([star_forest(-21, [-2] * 40)], 2**50)):
        nb, rows, _ = _by_shape(forests)[0]
        batch = lattice.BoxBatch(nb, rows, budget=budget)
        contexts = [QFormContext(f, budget=budget) for f in forests]
        assert batch.adjugates.tolist() == [[list(r) for r in ctx.adjugate] for ctx in contexts]
        assert batch.det.tolist() == [ctx.det for ctx in contexts]


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


def oracle_partition(ctx):
    """(representatives, class of each box row) of the box's spin^c
    classes, keyed by the oracle spinc_key (computed for all rows in one
    matrix product): each class is represented by its first box row, and
    classes are numbered in the order of those rows."""
    rows = np.array(list(ctx.iter_box()), dtype=np.int64).reshape(ctx.box_size, ctx.n)
    adj = np.array(ctx.adjugate, dtype=np.int64).reshape(ctx.n, ctx.n)
    keys = np.column_stack([rows @ adj.T % (2 * ctx.h1), np.zeros(len(rows), dtype=np.int64)])
    _, first, key = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    index = np.empty(len(first), dtype=np.int64)
    index[order] = np.arange(len(first))
    return rows, rows[first[order]], index[key.ravel()]


def test_residue_classes_match_the_oracle_partition(trees, two_component_forests):
    """The Smith-form residues give the classes of the oracle partition:
    the same representatives and the same class for every box row, and
    for the rows moved by twice a row of Q (out of the box). Covered: the
    trees with n <= 4 and weights >= -5, the two-component forests, the
    empty forest and E8 (|H1| = 1), the D4 star, whose H1 is Z/2 + Z/2,
    and the chains (-2)^12 and (-7)^6. The last graph has H1 = Z/24, but
    no row of its adjugate is prime to 24, so it takes the Smith form."""
    d4 = star_forest(-2, [-2, -2, -2])
    large = [chain_forest([-2] * 12), chain_forest([-7] * 6)]
    edges = ((0, 1), (0, 4), (0, 5), (1, 2), (1, 3))
    z24 = PlumbingForest(tuple(f"v{i}" for i in range(6)), (-3, -1, -4, -4, -3, -3), edges)
    graphs = trees + two_component_forests + [parse_forest(""), e8_forest(), d4, z24]
    for g in graphs + large:
        ctx = QFormContext(g)
        rows, reps, index = oracle_partition(ctx)
        assert len(reps) == ctx.h1, g.weights
        assert ctx.class_reps.tolist() == reps.tolist(), g.weights
        assert ctx.spinc_classes() == tuple(CharVector(tuple(k)) for k in reps.tolist())
        assert ctx.class_indices(rows).tolist() == index.tolist(), g.weights
        q = np.array(ctx.q, dtype=np.int64).reshape(ctx.n, ctx.n)
        for v in range(ctx.n):
            moved = rows - 2 * (v + 1) * q[v]
            assert ctx.class_indices(moved).tolist() == index.tolist(), g.weights
    assert sorted(exact.smith_form(QFormContext(d4).q)[0]) == [1, 1, 2, 2]


def test_class_indices_reject_a_vector_that_is_not_characteristic():
    ctx = QFormContext(star_forest(-2, [-2, -2, -2]))
    assert ctx.class_index((0, 0, 0, 2)) == 1
    for k in ((1, 0, 0, 0), (0, 0, 0, -1)):
        with pytest.raises(ValueError, match="not characteristic"):
            ctx.class_index(k)
        with pytest.raises(ValueError, match="not characteristic"):
            ctx.class_indices(np.array([k, (0, 0, 0, 0)], dtype=np.int64))


def test_basic_vectors_rng_matches_lowest_eligible(small_blocks, trees):
    for g in trees:
        ctx = QFormContext(g)
        want = engine.basic_vectors(ctx)
        for seed in (0, 1, 2):
            assert engine.basic_vectors(ctx, rng=np.random.default_rng(seed)) == want, g.weights


def test_classify_matches_public_objects(small_blocks, trees):
    """The census oracle (oracles.classify) sorts the integer d-numerators
    and reads the class counts; its record must equal what the public
    BasicSet and DInvariants give."""
    for g in trees:
        ctx = QFormContext(g)
        basics = engine.basic_vectors(ctx)
        canonical = basics.per_class[ctx.class_index(ctx.canonical_char())]
        record = classify(g)
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
    monkeypatch.setattr(lattice, "_digits", lambda *args: built.append(1))
    for call in (ctx.box_sweep, ctx.spinc_classes, lambda: engine.basic_vectors(ctx)):
        with pytest.raises(EnumerationBudgetError, match="box layer"):
            call()
    assert not built


def test_basic_vectors_sweeps_the_box_once(monkeypatch, two_component_forests):
    """On a fresh context, basic_vectors reads each block's vectors and
    residues off one _digits call, and settles the class table as it
    goes: class_reps then calls _digits no more. The classes and the
    BasicSet match the oracle partition and the scalar path runner.
    Blocks of 7 rows cut through the classes; covered: (-7)^4, the D4
    star and a two-component forest."""
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    calls = []
    real = lattice._digits

    def counting(weights, index):
        calls.append(len(index))
        return real(weights, index)

    monkeypatch.setattr(lattice, "_digits", counting)
    forest = next(f for f in two_component_forests if QFormContext(f).box_size > 7)
    for g in [chain_forest([-7] * 4), star_forest(-2, [-2, -2, -2]), forest]:
        ctx = QFormContext(g)
        calls.clear()
        basics = engine.basic_vectors(ctx)
        assert calls == [min(7, ctx.box_size - i) for i in range(0, ctx.box_size, 7)], g.weights
        calls.clear()
        reps = ctx.class_reps
        assert calls == [], g.weights
        rows, want_reps, index = oracle_partition(ctx)
        assert reps.tolist() == want_reps.tolist(), g.weights
        basic = np.array([engine.run_path(ctx, k).basic for k in rows.tolist()])
        order = np.argsort(index[basic], kind="stable")
        assert basics.rows.tolist() == rows[basic][order].tolist(), g.weights
        assert basics.counts.tolist() == np.bincount(index[basic], minlength=ctx.h1).tolist()
        assert basics.reps is reps


def test_a_context_builds_one_box_batch(monkeypatch):
    """A fresh context builds one BoxBatch, its own, for basic_vectors,
    class_reps, d_invariants and the canonical count of is_rational:
    on (-7)^4 and the D4 star, both rational, so that the count runs."""
    built = []
    real = lattice.BoxBatch

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "BoxBatch", counting)
    monkeypatch.setattr(engine, "BoxBatch", counting)
    for g in (chain_forest([-7] * 4), star_forest(-2, [-2, -2, -2])):
        ctx = QFormContext(g)
        built.clear()
        basics = engine.basic_vectors(ctx)
        assert ctx.class_reps is basics.reps
        engine.d_invariants(ctx, basics=basics)
        assert engine.is_rational(ctx)
        assert len(built) == 1, g.weights


def test_class_reps_alone_stops_early_and_a_later_sweep_keeps_it(monkeypatch):
    """class_reps read alone stops its sweep once every residue has a row
    (the D4 star's four classes lie in its first box rows); a later
    box_sweep does not replace the table it settled."""
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    ctx = QFormContext(star_forest(-2, [-2, -2, -2]))
    calls = []
    real = lattice._digits
    monkeypatch.setattr(lattice, "_digits", lambda w, i: calls.append(1) or real(w, i))
    reps = ctx.class_reps
    assert 0 < len(calls) < ctx.box_size // 7
    basics = engine.basic_vectors(ctx)
    assert ctx.class_reps is reps and basics.reps is reps
