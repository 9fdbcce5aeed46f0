"""Path runs, basic vectors, verdicts, d-invariants, lens calibration."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plumb import census, engine
from plumb.catalog import chain_forest, e8_forest, lens_chain, star_forest
from plumb.forest import PlumbingForest, _shape_tables, parse_forest
from plumb.lattice import EnumerationBudgetError, QFormContext

from oracles import (
    ar_status_loop,
    canonical_walk,
    in_terminal_box,
    laufer_rational_scalar,
    laufer_steps,
    random_strategy,
    spinc_key,
    strategy_run_path,
    two_node_tree,
)


def star237():
    return QFormContext(star_forest(-1, [-2, -3, -7]))


# ---------------------------------------------------------------- run_path

def test_run_path_immediate_basic():
    ctx = QFormContext(chain_forest([-2]))
    r = engine.run_path(ctx, (0,))
    assert r.basic and r.steps == 0
    assert tuple(r.final) == (0,)


def test_run_path_one_step_basic():
    ctx = QFormContext(chain_forest([-2]))
    r = engine.run_path(ctx, (2,))
    assert r.basic and r.steps == 1
    assert tuple(r.final) == (-2,)


def test_run_path_terminal_vector_in_terminal_box():
    ctx = QFormContext(chain_forest([-2, -3, -2]))
    for k in ctx.iter_box():
        r = engine.run_path(ctx, k)
        if r.basic:
            assert in_terminal_box(ctx, r.final)
            assert r.witness is None


def test_run_path_overflow_records_witness():
    ctx = QFormContext(e8_forest())
    # a single coordinate 2 overflows; the witness is a vertex index
    k = (2,) + (0,) * 7
    r = engine.run_path(ctx, k)
    assert r.outcome == "overflow"
    assert r.witness is not None
    w = r.witness
    assert tuple(r.final)[w] > -ctx.weights[w]


def test_run_path_rejects_bad_strategy_choice():
    ctx = QFormContext(chain_forest([-2, -2]))
    with pytest.raises(ValueError, match="strategy chose"):
        strategy_run_path(ctx, (2, 0), strategy=lambda elig, k: 99)


def test_run_path_strategy_changes_nothing():
    ctx = QFormContext(star_forest(-2, [-2, -3, -2]))
    rng = random.Random(11)
    strat = random_strategy(rng)
    for k in ctx.iter_box():
        a = engine.run_path(ctx, k)
        # the oracle with its default rule retraces the library's run
        assert strategy_run_path(ctx, k) == a
        b = strategy_run_path(ctx, k, strategy=strat)
        assert a.outcome == b.outcome
        if a.basic:
            assert a.final == b.final


# ------------------------------------------------------------ basic sets

def test_basic_vectors_single_minus_two():
    ctx = QFormContext(chain_forest([-2]))
    basics = engine.basic_vectors(ctx)
    assert basics.total == 2
    assert sorted(tuple(k) for group in basics.per_class for k in group) == [
        (0,),
        (2,),
    ]
    assert all(len(g) == 1 for g in basics.per_class)


def test_basic_vectors_e8():
    ctx = QFormContext(e8_forest())
    basics = engine.basic_vectors(ctx)
    assert basics.total == 1
    assert basics.box_size == 256
    assert basics.overflow_count == 255
    assert tuple(basics.per_class[0][0]) == (0,) * 8


def test_basic_vectors_star_237():
    basics = engine.basic_vectors(star237())
    assert len(basics.classes) == 1
    assert basics.total == 2
    got = [tuple(k) for k in basics.per_class[0]]
    assert got == sorted(got)


def test_every_class_has_a_basic_vector():
    for weights in ([-2, -2, -2], [-3, -4], [-5]):
        ctx = QFormContext(chain_forest(weights))
        basics = engine.basic_vectors(ctx)
        assert all(len(g) >= 1 for g in basics.per_class)
        assert len(basics.classes) == ctx.h1


# ------------------------------------------------------------- rationality

def test_is_rational_examples():
    assert engine.is_rational(QFormContext(e8_forest()))
    assert not engine.is_rational(star237())
    for n in range(1, 9):
        assert engine.is_rational(QFormContext(chain_forest([-2] * n)))


def test_is_rational_empty_forest():
    ctx = QFormContext(parse_forest(""))
    assert engine.run_path(ctx, ()).basic
    # no canonical class to inspect, but verdicts treat it as rational
    assert engine.verdicts(ctx).rational


def _canonical_basic_total(ctx):
    """Every basic vector of the canonical class, read off the full
    BasicSet (1 for the empty forest, which has no class table)."""
    if ctx.n == 0:
        return 1
    return int(engine.basic_vectors(ctx).counts[ctx.class_index(ctx.canonical_char())])


def _disjoint(a, b):
    """The forest with components a and b, b's vertices renamed."""
    return PlumbingForest(
        a.ids + tuple(f"b{v}" for v in b.ids),
        a.weights + b.weights,
        a.edges + tuple((i + a.n, j + a.n) for i, j in b.edges),
    )


def _laufer_cases():
    e8, s237 = e8_forest(), star_forest(-1, [-2, -3, -7])
    graphs = [e8, s237, parse_forest("")]
    # two components: Laufer's argument and the basic count go per component
    a2 = chain_forest([-2, -2])
    graphs += [_disjoint(e8, s237), _disjoint(a2, s237), _disjoint(e8, a2)]
    for n in range(1, 6):
        graphs.extend(census.enumerate_weighted(n, -5))
    return graphs


def test_laufer_agrees_with_basic_count_and_certificates_hold(monkeypatch):
    """Laufer's test against the canonical-class basic count on every tree
    with n <= 5 and weights >= -5 (3,533 graphs), E8, Sigma(2,3,7), the
    empty forest and three two-component forests. Every non-rational
    verdict but two has a valid two-basic certificate (canonical_pair_rows
    of the one graph); the two are the forests E8 + Sigma(2,3,7) and
    A2 + Sigma(2,3,7), whose rational component holds one basic member of
    its canonical class, and is_rational confirms them by the count."""
    count = engine._canonical_basic_count
    counted = []

    def counting(ctx):
        counted.append(ctx.forest)
        return count(ctx)

    monkeypatch.setattr(engine, "_canonical_basic_count", counting)
    rational = nonrational = 0
    uncertified = []
    for g in _laufer_cases():
        ctx = QFormContext(g)
        weights = np.array(g.weights, dtype=np.int64).reshape(1, g.n)
        laufer = bool(engine.laufer_rational_rows(engine._adjacency(ctx.neighbors), weights)[0])
        assert laufer == (_canonical_basic_total(ctx) == 1), g
        counted.clear()
        assert engine.is_rational(ctx) == laufer, g
        if laufer:
            rational += 1
            continue
        nonrational += 1
        found, pairs = engine.canonical_pair_rows(engine._adjacency(ctx.neighbors), weights)
        if not found[0]:
            assert counted == [g]
            uncertified.append(g)
            continue
        assert counted == []
        a, b = (tuple(k) for k in pairs[0].tolist())
        assert a != b
        canonical = spinc_key(ctx, ctx.canonical_char())
        for k in (a, b):
            assert ctx.in_box(k)
            assert spinc_key(ctx, k) == canonical
            assert engine.run_path(ctx, k).basic
    assert rational == 3364 and nonrational == 175
    s237, a2 = star_forest(-1, [-2, -3, -7]), chain_forest([-2, -2])
    assert uncertified == [_disjoint(e8_forest(), s237), _disjoint(a2, s237)]


def _laufer_start(ctx):
    """The oracle's cycle Z = sum of E_v and its pairings Q Z."""
    return [1] * ctx.n, [sum(row) for row in ctx.q]


def test_laufer_steps_reach_the_fundamental_cycle():
    # E8's fundamental cycle is its highest root, of height 29; every step
    # pairs to 1, and the batched closure reaches the same pairings
    ctx = QFormContext(e8_forest())
    z, pairing = _laufer_start(ctx)
    steps = list(laufer_steps(ctx, z, pairing))
    assert set(steps) == {1} and sum(z) == 29
    assert all(p <= 0 for p in pairing)
    weights = np.array(ctx.weights, dtype=np.int64)
    batch = np.array([[sum(row) for row in ctx.q]], dtype=np.int64)
    rise = engine._laufer_close(engine._adjacency(ctx.neighbors), weights, batch)
    assert rise.tolist() == [0] and batch.tolist() == [pairing]
    # the -1 centre of Sigma(2,3,7) pairs to -1 + 3 = 2 at the first step
    star = star237()
    z, pairing = _laufer_start(star)
    assert next(laufer_steps(star, z, pairing)) == 2


def test_laufer_steps_skip_vertex_never_steps():
    # the -1 centre of Sigma(2,3,7) is the only vertex that pairs positively
    # with the sum of the E_v; skipped, it leaves no step at all
    star = star237()
    z, pairing = _laufer_start(star)
    assert list(laufer_steps(star, z, pairing, skip=0)) == []
    assert z == [1] * 4
    assert engine.ar_vertex(star) == 0
    # skipping E8's end vertex v1, every step is still a unit step, and
    # the closure keeps z_v1 = 1
    ctx = QFormContext(e8_forest())
    z, pairing = _laufer_start(ctx)
    assert set(laufer_steps(ctx, z, pairing, skip=0)) == {1}
    assert z[0] == 1 and all(p <= 0 for p in pairing[1:])


def test_laufer_close_rise_is_the_oracles_chi_rise():
    """The batched closure reaches the pairings of the oracle's
    stack-order closure, and its rise of chi is the oracle's sum of
    (1 - step): from the sum of E_v on every negative-definite column of
    the n <= 6, wmin -4 grids (one weight row per graph), and with each
    vertex skipped in turn on every tree with n <= 5 and weights >= -5
    (one shared weight row, one skip per row)."""
    falls = 0
    for edges, tables, rows in _grid_graphs(6, -4):
        adj = engine._adjacency(tables.neighbors)
        pairing = rows + adj.sum(axis=1)
        rise = engine._laufer_close(adj, rows, pairing)
        for w, got, p in zip(rows.tolist(), rise.tolist(), pairing.tolist()):
            ctx = _context(edges, w)
            z, want = _laufer_start(ctx)
            assert got == sum(1 - step for step in laufer_steps(ctx, z, want)), w
            assert p == want, w
            falls += got < 0
    assert falls == 15_750 - 13_864
    for n in range(1, 6):
        for g in census.enumerate_weighted(n, -5):
            ctx = QFormContext(g)
            adj = engine._adjacency(ctx.neighbors)
            weights = np.array(g.weights, dtype=np.int64)
            pairing = np.tile(weights + adj.sum(axis=1), (n, 1))
            rise = engine._laufer_close(adj, weights, pairing, skip=np.arange(n))
            for v in range(n):
                z, want = _laufer_start(ctx)
                steps = list(laufer_steps(ctx, z, want, skip=v))
                assert rise[v] == sum(1 - step for step in steps), (g, v)
                assert pairing[v].tolist() == want, (g, v)


def test_ar_vertex_is_the_first_vertex_the_oracle_passes():
    """ar_vertex is the first vertex whose skip passes the scalar Laufer
    test, or None when none does: every tree with n <= 5 and weights
    >= -5, and the two-node tree."""
    graphs = [g for n in range(1, 6) for g in census.enumerate_weighted(n, -5)]
    none = 0
    for g in graphs + [two_node_tree()]:
        ctx = QFormContext(g)
        want = next((v for v in range(g.n) if laufer_rational_scalar(ctx, skip=v)), None)
        assert engine.ar_vertex(ctx) == want, g
        none += want is None
    assert none == 1


def test_ar_vertex_found_whenever_ar_status_finds():
    for n in range(1, 5):
        for g in census.enumerate_weighted(n, -5):
            ctx = QFormContext(g)
            if engine.ar_status(ctx).found:
                assert engine.ar_vertex(ctx) is not None, g.weights


def _ar_forests():
    """Forests of two components for the AR decider: a rational component
    beside a non-rational one, and two non-rational ones."""
    s237, a2 = star_forest(-1, [-2, -3, -7]), chain_forest([-2, -2])
    return [_disjoint(e8_forest(), s237), _disjoint(a2, s237), _disjoint(s237, s237)]


def test_verdicts_certified_iff_ar_vertex():
    """verdicts certifies exactly the graphs ar_vertex calls almost-
    rational: every tree with n <= 6 and weights >= -4, the two-node tree
    and the forests. The chain (-5, -3, -1, -4) takes the tau path in
    hf_summary and is certified as well."""
    graphs = [g for n in range(1, 7) for g in census.enumerate_weighted(n, -4)]
    assert len(graphs) == 6_235
    for g in graphs + [two_node_tree()] + _ar_forests():
        ctx = QFormContext(g)
        assert engine.verdicts(ctx).certified == (engine.ar_vertex(ctx) is not None), g
    ctx = QFormContext(chain_forest([-5, -3, -1, -4]))
    assert engine.verdicts(ctx).certified and engine.ar_vertex(ctx) is not None


def test_least_drop_lies_in_the_bisection_range():
    """The two facts the bisection of ar_status_rows rests on, held to
    the scalar Laufer test on every tree with n <= 5 and weights >= -5:
    for each vertex v that passes the skip closure, with closure pairing
    p_v, the graph is rational once v's weight drops by max(1, p_v), and
    once rational stays rational as the drop rises over 1..max(1, p_v) + 1."""
    passing = 0
    for n in range(1, 6):
        for g in census.enumerate_weighted(n, -5):
            passes, top = engine._skip_closures(engine._adjacency(g.neighbors()), np.array([g.weights]))
            for v in np.flatnonzero(passes[0]).tolist():
                hi = max(1, int(top[0, v]))
                rational = [
                    laufer_rational_scalar(
                        QFormContext(g.with_weight(v, g.weights[v] - d))
                    )
                    for d in range(1, hi + 2)
                ]
                assert rational[hi - 1], (g, v)
                assert rational == sorted(rational), (g, v)
                passing += 1
    assert passing > 5_000


def test_ar_status_rows_match_the_candidate_loop():
    """The batched AR decider, run on each shape's distinct graphs
    together, gives the witness of the per-candidate loop
    (oracles.ar_status_loop) on every tree with n <= 5 and weights >= -4,
    on the two-node tree (no witness) and on forests of two components;
    ar_status is its one-row call."""
    found = missing = 0
    for n in range(1, 6):
        for edges in census.enumerate_trees(n):
            tables = _shape_tables(edges, n)
            rows = census._distinct_rows(tables, -4)
            vertex, delta = engine.ar_status_rows(tables.neighbors, rows)
            for w, v, d in zip(rows.tolist(), vertex.tolist(), delta.tolist()):
                ctx = QFormContext(census._shape_forest(edges, n, w))
                want = ar_status_loop(ctx)
                assert engine.ar_status(ctx) == want
                if v < 0:
                    assert not want.found and d == 0
                    missing += 1
                else:
                    assert (ctx.forest.ids[v], d) == (want.vertex, want.delta)
                    found += 1
    assert found > 1000 and missing == 0
    for g in [two_node_tree()] + _ar_forests():
        ctx = QFormContext(g)
        assert engine.ar_status(ctx) == ar_status_loop(ctx), g


def test_ar_status_rows_checks_the_witness_budget(monkeypatch):
    """The box budget is charged on the witness, whose canonical class is
    counted: the star with centre -2 and leaves -4, -3, -3, -2, -2 (box
    288) turns rational once its centre drops by 2, to a box of 576. The
    two-node tree has no witness, so it passes any budget and builds no
    box."""
    g = PlumbingForest(
        tuple(f"v{i}" for i in range(6)),
        (-2, -4, -3, -3, -2, -2),
        tuple((0, i) for i in range(1, 6)),
    )
    rows = np.array([g.weights], dtype=np.int64)
    nb = g.neighbors()
    assert [a.tolist() for a in engine.ar_status_rows(nb, rows, budget=576)] == [[0], [2]]
    with pytest.raises(EnumerationBudgetError, match="box holds 576 vectors"):
        engine.ar_status_rows(nb, rows, budget=575)
    built = []
    real = engine.BoxBatch

    def recording(neighbors, weights, budget):
        built.append(len(weights))
        return real(neighbors, weights, budget)

    monkeypatch.setattr(engine, "BoxBatch", recording)
    g = two_node_tree()
    rows = np.array([g.weights], dtype=np.int64)
    assert engine.ar_status_rows(g.neighbors(), rows, budget=0)[0].tolist() == [-1]
    assert sum(built) == 0


def test_ar_vertex_none_on_two_node_tree():
    ctx = QFormContext(two_node_tree())
    assert engine.ar_vertex(ctx) is None
    assert not engine.ar_status(ctx).found


def test_wrong_laufer_verdict_raises(monkeypatch):
    right = engine.laufer_rational_rows
    monkeypatch.setattr(engine, "laufer_rational_rows", lambda adj, rows, cycle=None: ~right(adj, rows, cycle))
    # rational E8 sent down the non-rational branch: its canonical class
    # holds one basic vector, so the pair fails and the count confirms one
    with pytest.raises(engine.RationalityDisagreementError, match="non-rational"):
        engine.is_rational(QFormContext(e8_forest()))
    # non-rational Sigma(2,3,7) sent to the confirming count
    with pytest.raises(engine.RationalityDisagreementError, match="says rational"):
        engine.is_rational(star237())


def test_walk_limit_zero_falls_back_to_the_count(monkeypatch):
    """With a certificate that certifies nothing, is_rational counts the
    canonical class of every graph, with the same verdicts."""
    graphs = [g for n in range(1, 5) for g in census.enumerate_weighted(n, -5)]
    want = [engine.is_rational(QFormContext(g)) for g in graphs]
    sweeps = []
    count = engine._canonical_basic_count
    real = engine.canonical_pair_rows

    def counted(ctx):
        sweeps.append(ctx.forest)
        return count(ctx)

    def nothing(adj, weights, cycle=None):
        found, pairs = real(adj, weights, cycle)
        return np.zeros_like(found), pairs

    monkeypatch.setattr(engine, "canonical_pair_rows", nothing)
    monkeypatch.setattr(engine, "_canonical_basic_count", counted)
    assert [engine.is_rational(QFormContext(g)) for g in graphs] == want
    assert sweeps == graphs
    assert not all(want)


def test_is_rational_on_a_skewed_box_stays_small():
    # one dominant weight: the count holds one box block at a time
    tracemalloc.start()
    try:
        assert engine.is_rational(QFormContext(chain_forest([-500000])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak


def test_many_classes_are_fast():
    """basic_vectors and d_invariants on the chain (-7)^6, whose box of
    117,649 vectors holds 105,937 spin^c classes, take well under a
    second: each vector's class is one int64 residue, with no sorted
    keys and no Python loop over the classes."""
    ctx = QFormContext(chain_forest([-7] * 6))
    start = time.perf_counter()
    basics = engine.basic_vectors(ctx)
    dinv = engine.d_invariants(ctx, basics=basics)
    elapsed = time.perf_counter() - start
    assert basics.total == ctx.h1 == len(dinv.numerators) == 105_937
    assert elapsed < 1.0, elapsed
    # the d-invariants stay integers: one read-only int64 array
    assert dinv.numerators.dtype == np.int64 and not dinv.numerators.flags.writeable


def test_canonical_count_on_a_large_chain_is_fast():
    """The chain (-8, -7^7) has a box of 6,588,344 vectors; the canonical
    class's members are found by a meet in the middle, so is_rational and
    ar_status (whose witness is counted too) take well under a second."""
    ctx = QFormContext(chain_forest([-8] + [-7] * 7))
    assert ctx.box_size == 6_588_344
    start = time.perf_counter()
    assert engine.is_rational(ctx)
    st = engine.ar_status(ctx)
    elapsed = time.perf_counter() - start
    assert (st.vertex, st.delta) == ("v1", 1)
    assert elapsed < 1.0, elapsed


def test_is_rational_shares_the_box_layer_int64_guard():
    ctx = QFormContext(chain_forest([-(2**31 + 1)]), budget=2**32)
    with pytest.raises(EnumerationBudgetError, match="box layer"):
        engine.is_rational(ctx)


# ---------------------------------------------------------------- verdicts

def test_ar_status_e8():
    st = engine.ar_status(QFormContext(e8_forest()))
    assert st.found and st.delta == 1


def test_ar_status_star_finds_center():
    st = engine.ar_status(star237())
    assert st.found
    assert st.vertex == "c" or st.delta >= 1


def test_verdicts_e8():
    v = engine.verdicts(QFormContext(e8_forest()))
    assert v.lspace and v.certified and v.rational
    assert v.basic_total == 1 and v.spinc_count == 1


def test_verdicts_star_237():
    v = engine.verdicts(star237())
    assert not v.lspace
    assert not v.rational
    assert v.basic_total == 2 and v.spinc_count == 1
    assert v.certified  # the weight-drop scan does find a witness


def test_verdicts_accept_precomputed_basics():
    ctx = QFormContext(chain_forest([-3, -2]))
    basics = engine.basic_vectors(ctx)
    v = engine.verdicts(ctx, basics=basics)
    assert v.lspace and v.rational
    assert v.spinc_count == 5


# ------------------------------------------------------------ d-invariants

def test_d_invariants_e8():
    d = engine.d_invariants(QFormContext(e8_forest()))
    assert d.d == (Fraction(2),)
    assert d.dual == (Fraction(-2),)


def test_d_invariants_single_minus_two():
    d = engine.d_invariants(QFormContext(chain_forest([-2])))
    assert sorted(d.d) == [Fraction(-1, 4), Fraction(1, 4)]


def test_d_invariants_single_minus_three():
    d = engine.d_invariants(QFormContext(chain_forest([-3])))
    assert sorted(d.d) == [Fraction(-1, 2), Fraction(1, 6), Fraction(1, 6)]
    assert sorted(d.dual) == [Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 2)]


def test_d_invariants_star_237():
    d = engine.d_invariants(star237())
    assert d.d == (Fraction(0),)


# ------------------------------------------------------------- lens oracle

def test_lens_oracle_base_and_small():
    assert engine.lens_d_oracle(1, 0, 0) == 0
    assert sorted(engine.lens_d_oracle(2, 1, i) for i in range(2)) == [
        Fraction(-1, 4),
        Fraction(1, 4),
    ]
    assert sorted(engine.lens_d_oracle(3, 1, i) for i in range(3)) == [
        Fraction(-1, 6),
        Fraction(-1, 6),
        Fraction(1, 2),
    ]


def test_lens_oracle_validation():
    with pytest.raises(ValueError):
        engine.lens_d_oracle(0, 1, 0)
    with pytest.raises(ValueError):
        engine.lens_d_oracle(4, 2, 0)  # not coprime
    with pytest.raises(ValueError):
        engine.lens_d_oracle(3, 4, 0)  # q out of range
    with pytest.raises(ValueError):
        engine.lens_d_oracle(3, 1, 3)  # i out of range
    with pytest.raises(ValueError):
        engine.lens_d_oracle(1, 0, 1)


def test_lens_multiset_is_sorted():
    ms = engine.lens_d_multiset(4, 3)
    assert ms == tuple(sorted(ms))
    assert ms == (Fraction(-3, 4), 0, 0, Fraction(1, 4))


def test_chain_duals_match_lens_oracle():
    for n in range(1, 9):
        ctx = QFormContext(chain_forest([-2] * n))
        d = engine.d_invariants(ctx)
        assert tuple(sorted(d.dual)) == engine.lens_d_multiset(n + 1, n)


def test_lens_chain_catalog_matches_oracle():
    # continued-fraction chains for a few L(p, q), dual side
    for p, q in [(5, 2), (7, 3), (9, 4)]:
        ctx = QFormContext(lens_chain(p, q))
        assert ctx.h1 == p
        d = engine.d_invariants(ctx)
        assert tuple(sorted(d.dual)) == engine.lens_d_multiset(p, q)


# ------------------------------------------------- batched kernels per shape

def _grid_graphs(nmax, wmin):
    """(edges, tables, weight rows) of the negative-definite columns of
    every tree shape with n <= nmax and weights >= wmin."""
    for n in range(1, nmax + 1):
        for edges in census.enumerate_trees(n):
            tables = _shape_tables(edges, n)
            scan = census._grid_scan(tables, wmin)
            yield edges, tables, np.ascontiguousarray(scan.weights[:, scan.negdef].T)


def _context(edges, weights):
    return QFormContext(census._shape_forest(edges, len(weights), weights))


def test_laufer_rational_rows_match_scalar():
    """The batched Laufer test equals the scalar stack-order oracle
    (oracles.laufer_rational_scalar) on every negative-definite column of
    the n <= 6, wmin -4 grids."""
    checked = rational = 0
    for edges, tables, rows in _grid_graphs(6, -4):
        got = engine.laufer_rational_rows(engine._adjacency(tables.neighbors), rows)
        for w, verdict in zip(rows.tolist(), got.tolist()):
            assert verdict == laufer_rational_scalar(_context(edges, w)), w
            checked += 1
            rational += verdict
    assert checked == 15_750 and rational == 13_864


def test_canonical_pair_rows_are_basic_canonical_members():
    """Every row the batched certificate certifies has two distinct box
    members of its canonical class that run_path calls basic, and only
    Laufer-non-rational rows are certified: on the n <= 6, wmin -4 grids,
    all 1,886 of them."""
    certified = 0
    for edges, tables, rows in _grid_graphs(6, -4):
        found, pairs = engine.canonical_pair_rows(engine._adjacency(tables.neighbors), rows)
        assert not (found & engine.laufer_rational_rows(engine._adjacency(tables.neighbors), rows)).any()
        for i in np.flatnonzero(found).tolist():
            ctx = _context(edges, rows[i].tolist())
            a, b = (tuple(k) for k in pairs[i].tolist())
            assert a != b
            canonical = spinc_key(ctx, ctx.canonical_char())
            for k in (a, b):
                assert ctx.in_box(k)
                assert spinc_key(ctx, k) == canonical
                assert engine.run_path(ctx, k).basic
            certified += 1
    assert certified == 1_886


def test_basic_rows_with_per_row_weights_match_run_path():
    """The path runner given one weight row per block row (a batch of
    graphs on one shape) agrees with run_path on a random box vector of
    each graph."""
    rng = np.random.default_rng(5)
    for edges, tables, rows in _grid_graphs(5, -4):
        # a random box vector per row: m_v + 2 + 2 * (0..|m_v| - 1)
        block = rows + 2 + 2 * (rng.random(rows.shape) * -rows).astype(np.int64)
        got = engine._basic_rows(block, rows, engine._adjacency(tables.neighbors))
        for w, k, basic in zip(rows.tolist(), block.tolist(), got.tolist()):
            assert basic == engine.run_path(_context(edges, w), k).basic, (w, k)


def test_canonical_pair_rows_are_the_walks_first_members():
    """The batched pair is the oracle walk's first two members: the
    canonical vector and, when the walk has a second member, the one
    member of its first layer; when it has none, the second vector of the
    pair lies outside the box (every negative-definite column of the
    n <= 6, wmin -3 grids)."""
    second = alone = 0
    for edges, tables, rows in _grid_graphs(6, -3):
        _, pairs = engine.canonical_pair_rows(engine._adjacency(tables.neighbors), rows)
        for w, pair in zip(rows.tolist(), pairs.tolist()):
            ctx = _context(edges, w)
            walk = list(itertools.islice(canonical_walk(ctx), 2))
            assert list(walk[0]) == pair[0]
            if len(walk) == 2:
                assert list(walk[1]) == pair[1]
                second += 1
            else:
                assert not ctx.in_box(pair[1])
                alone += 1
    assert second and alone


def test_is_rational_certifies_before_the_box_budget():
    """A non-rational graph that the pair certifies needs no box: the
    star (-1; -2, -3, -7), with a box of 42, is decided at a budget of 10.
    A rational verdict is confirmed by the canonical count, whose box
    still answers to the budget."""
    assert not engine.is_rational(QFormContext(star_forest(-1, [-2, -3, -7]), budget=10))
    # Sigma(2,3,95): centre -2, legs (-2), (-2, -2) and the chain of 95/79
    weights = (-2, -2, -2, -2, -2, -2, -2, -2, -3) + (-2,) * 14
    edges = ((0, 1), (0, 2), (2, 3), (0, 4)) + tuple((i, i + 1) for i in range(4, 22))
    g = PlumbingForest(tuple(f"v{i}" for i in range(23)), weights, edges)
    ctx = QFormContext(g)
    assert ctx.h1 == 1 and ctx.box_size == 12_582_912 > ctx.budget
    assert not engine.is_rational(ctx)
    with pytest.raises(EnumerationBudgetError, match="box holds 256 vectors"):
        engine.is_rational(QFormContext(e8_forest(), budget=10))
