"""Tree enumeration, weighted-grid scanning, record schema, and the two
exhaustive verification scans."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from plumb import census, engine, lattice
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import (
    _shape_code,
    _shape_tables,
    canonical_code,
    h1_order,
    is_minimal,
    parse_forest,
)
from plumb.lattice import EnumerationBudgetError, QFormContext

from oracles import classify, e8_scan, labeled_tree_codes, record_to_obj


# ----------------------------------------------------------------- shapes

def test_tree_counts_match_reference_table():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n, want in enumerate(expected, start=1):
        assert len(census.enumerate_trees(n)) == want


# sha256 of repr((n, edges)) of every enumerate_trees(n), n = 1..12, one
# line each, recorded from networkx's nonisomorphic_trees before the
# generator replaced it: census output order and vertex ids follow it
TREE_ORDER_SHA256 = "63097181e0f261d2fe0e04c1c46c4dd4fa0cac6ada0b8021fa6522802b5b95a6"


def test_enumerate_trees_keeps_the_recorded_order():
    lines = [
        repr((n, edges))
        for n in range(1, census.MAX_TREE_VERTICES + 1)
        for edges in census.enumerate_trees(n)
    ]
    assert len(lines) == sum(census._FREE_TREE_COUNTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TREE_ORDER_SHA256


def test_trees_against_labeled_enumeration():
    """Free-tree shapes weighted all -2 reproduce exactly the canonical
    codes obtained by brute-forcing all labeled trees."""
    for n in range(1, 8):
        shapes = census.enumerate_trees(n)
        codes = {
            canonical_code(census._shape_forest(e, n, [-2] * n)) for e in shapes
        }
        assert len(codes) == len(shapes)  # shapes are pairwise nonisomorphic
        assert codes == labeled_tree_codes(n)


def test_grid_column_codes_match_canonical_code():
    """The grid codes each weight column from its shape's tables: on every
    column of the n <= 6, wmin -3 grids that code is canonical_code of the
    column's forest, and of the same forest with its labels shuffled."""
    rng = random.Random(7)
    bicentral = 0
    for n in range(1, 7):
        for edges in census.enumerate_trees(n):
            tables = _shape_tables(edges, n)
            bicentral += len(tables.centers[0]) == 2
            for w in census._grid_scan(tables, -3).weights.T.tolist():
                code = _shape_code(tables, w)
                assert code == canonical_code(census._shape_forest(edges, n, w))
                p = list(range(n))
                rng.shuffle(p)
                moved = [0] * n
                for v in range(n):
                    moved[p[v]] = w[v]
                shuffled = [(p[a], p[b]) for a, b in edges]
                assert code == canonical_code(census._shape_forest(shuffled, n, moved))
    assert bicentral > 0


def _partition(keys) -> set[frozenset[int]]:
    """The column positions grouped by equal key."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def test_shape_keys_partition_columns_like_shape_code():
    """The integer isomorphism keys group the columns of every n <= 6,
    wmin -3 grid exactly as _shape_code does, also on a copy of the shape
    with its labels shuffled, and keep the first column of each class."""
    rng = random.Random(11)
    bicentral = 0
    for n in range(1, 7):
        for edges in census.enumerate_trees(n):
            tables = _shape_tables(edges, n)
            bicentral += len(tables.centers[0]) == 2
            weights = census._grid_scan(tables, -3).weights
            codes = [_shape_code(tables, w) for w in weights.T.tolist()]
            partition = _partition(codes)
            assert _partition(census._shape_keys(tables, weights).tolist()) == partition
            first = sorted({code: i for i, code in reversed(list(enumerate(codes)))}.values())
            assert census._first_columns(tables, weights).tolist() == first
            p = list(range(n))
            rng.shuffle(p)
            moved = np.empty_like(weights)
            moved[p] = weights
            shuffled = _shape_tables([(p[a], p[b]) for a, b in edges], n)
            assert _partition(census._shape_keys(shuffled, moved).tolist()) == partition
    assert bicentral > 0


def test_enumerate_trees_rejects_out_of_range():
    with pytest.raises(ValueError):
        census.enumerate_trees(0)
    with pytest.raises(EnumerationBudgetError):
        census.enumerate_trees(census.MAX_TREE_VERTICES + 1)


# -------------------------------------------------------------- weighted

def test_enumerate_weighted_single_vertex():
    got = list(census.enumerate_weighted(1, -3))
    assert sorted(f.weights for f in got) == [(-3,), (-2,), (-1,)]


def test_enumerate_weighted_two_vertices():
    # (-1,-1) has det 0, so only three weightings survive at wmin=-2,
    # two of them isomorphic: 2 graphs up to isomorphism
    got = list(census.enumerate_weighted(2, -2))
    assert sorted(sorted(f.weights) for f in got) == [[-2, -2], [-2, -1]]


def test_enumerate_weighted_all_negative_definite_and_distinct():
    got = list(census.enumerate_weighted(4, -3))
    codes = [canonical_code(f) for f in got]
    assert len(codes) == len(set(codes))
    from plumb.forest import is_negative_definite

    assert all(is_negative_definite(f) for f in got)
    assert all(len(f.components()) == 1 for f in got)


def test_enumerate_weighted_brute_force_cross_check():
    """Count n=3 negative-definite trees at wmin=-3 by raw labeled
    enumeration and compare."""
    from plumb.forest import PlumbingForest, is_negative_definite

    seen = set()
    for edges in [((0, 1), (1, 2)), ((0, 1), (0, 2))]:  # path relabelings
        for w in [
            (a, b, c)
            for a in range(-3, 0)
            for b in range(-3, 0)
            for c in range(-3, 0)
        ]:
            f = PlumbingForest(ids=("a", "b", "c"), weights=w, edges=edges)
            if is_negative_definite(f):
                seen.add(canonical_code(f))
    got = {canonical_code(f) for f in census.enumerate_weighted(3, -3)}
    assert got == seen


def test_enumerate_forests_includes_empty_and_disconnected():
    got = list(census.enumerate_forests(2, -2))
    sizes = sorted(f.n for f in got)
    # empty, two 1-vertex graphs, their three unordered pairs, two trees
    assert sizes[0] == 0
    singles = [f for f in got if f.n == 1]
    assert len(singles) == 2
    pairs = [f for f in got if f.n == 2 and not f.edges]
    assert len(pairs) == 3
    connected2 = [f for f in got if f.n == 2 and f.edges]
    assert len(connected2) == 2
    assert len(got) == 1 + 2 + 3 + 2


def test_grid_budget_counts_the_columns_each_scan_builds():
    """census_scan and enumerate_weighted build every column of each
    shape's grid; verify_classification builds only the minimal ones and
    is charged for those: 101,745,155 against 20,613,524 at (9, -5), 930
    against 182 at (5, -3)."""
    assert census._grid_size(9, -5) == 101_745_155
    assert census._grid_size(9, -5, minimal=True) == 20_613_524
    assert census._grid_size(5, -3) == 930
    assert census._grid_size(5, -3, minimal=True) == 182
    with pytest.raises(EnumerationBudgetError, match="minimal weighted-tree grid has 20613524"):
        census.verify_classification(9, -5, budget=20_613_523)
    with pytest.raises(EnumerationBudgetError, match="weighted-tree grid has 101745155"):
        census.census_scan(9, -5, budget=101_745_154)
    assert census.verify_classification(5, -3, budget=182).ok
    with pytest.raises(EnumerationBudgetError, match="has 182 assignments"):
        census.verify_classification(5, -3, budget=181)
    assert census.census_scan(2, -3, budget=12) == census.census_scan(2, -3)
    with pytest.raises(EnumerationBudgetError, match="has 12 assignments"):
        census.census_scan(2, -3, budget=11)


def test_enumerate_weighted_budget():
    with pytest.raises(EnumerationBudgetError):
        list(census.enumerate_weighted(4, -100, budget=10))


def test_enumerate_weighted_int64_guard_raises_before_allocating():
    # within the caller's budget, but the subtree determinants of this
    # grid would overflow int64
    with pytest.raises(EnumerationBudgetError):
        next(census.enumerate_weighted(2, -2**31, budget=2**64))


# ------------------------------------------------------------ rationality

def test_is_rational_agrees_with_basic_set():
    """engine.is_rational runs only the canonical class; the BasicSet
    count over the whole box is the independent check."""
    graphs = [
        chain_forest([-2]),
        chain_forest([-3]),
        chain_forest([-2, -2]),
        chain_forest([-5, -2, -3]),
        star_forest(-1, [-2, -3, -7]),
        star_forest(-2, [-3, -2, -2]),
        e8_forest(),
        parse_forest(""),
    ]
    graphs += list(census.enumerate_weighted(3, -4))
    for g in graphs:
        ctx = QFormContext(g)
        basics = engine.basic_vectors(ctx)
        count = len(basics.for_class(ctx.class_index(ctx.canonical_char())))
        assert engine.is_rational(ctx) == (count == 1), canonical_code(g)


# ----------------------------------------------------------------- records

def test_classify_star_record():
    r = classify(star_forest(-1, [-2, -3, -7]))
    assert r.n == 4
    assert r.det == 1 and r.spinc == 1
    assert r.basic == 2
    assert not r.rational and not r.lspace
    assert r.certified and r.minimal and r.negdef
    assert r.d == (Fraction(0),)
    assert r.d_numerators.tolist() == [0] and not r.d_numerators.flags.writeable


def test_record_to_obj_schema():
    r = classify(chain_forest([-2]))
    obj = record_to_obj(r)
    assert obj["lspace"] == "yes"
    assert obj["rational"] is True
    assert sorted(obj["d"]) == [["-1", "4"], ["1", "4"]]
    assert set(obj) == {
        "code",
        "n",
        "weights",
        "negdef",
        "det",
        "spinc",
        "basic",
        "rational",
        "lspace",
        "certified",
        "minimal",
        "d",
    }
    json.dumps(obj)  # serializable


def test_schema_header():
    h = census.schema_header()
    assert h == {"schema": "plumb-census", "version": 1}


# ------------------------------------------------------------------- scans

def test_census_scan_sorted_and_deterministic():
    a = census.census_scan(3, -3)
    b = census.census_scan(3, -3)
    assert a == b
    codes = [r.code for r in a]
    assert codes == sorted(codes)
    # the census corpus is connected trees, one record per isomorphism class
    assert all(r.n >= 1 for r in a)
    assert len(codes) == len(set(codes))


def test_census_scan_filters_conjunctive():
    recs = census.census_scan(4, -4, filters=("zhs", "minimal"))
    assert all(abs(r.det) == 1 and r.minimal for r in recs)
    with pytest.raises(ValueError, match="unknown filter"):
        census.census_scan(2, -2, filters=("nope",))


def test_census_forest_filters_run_before_classify(monkeypatch):
    """zhs and minimal are read off the weight columns: filtering the scan
    gives the records of an unfiltered scan filtered afterwards, and the
    batch classifies only the graphs that pass them."""
    everything = census.census_scan(4, -4)
    post = {
        "zhs": lambda r: abs(r.det) == 1,
        "minimal": lambda r: r.minimal,
        "nonrational": lambda r: not r.rational,
    }
    for filters in (("zhs",), ("minimal",), ("zhs", "minimal"), ("minimal", "nonrational")):
        want = [r for r in everything if all(post[f](r) for f in filters)]
        assert census.census_scan(4, -4, filters=filters) == want, filters
    seen = []
    real = census._classify_task

    def recording(task):
        seen.extend(zip(task.codes, map(tuple, task.weights.tolist())))
        return real(task)

    monkeypatch.setattr(census, "_classify_task", recording)
    recs = census.census_scan(4, -7, filters=("zhs",))
    assert len(recs) == 16
    assert sorted(seen) == [(r.code, r.weights) for r in recs]


def test_census_scan_threads_match_sequential():
    seq = census.census_scan(3, -3)
    par = census.census_scan(3, -3, threads=2)
    assert seq == par
    # the d-numerators stay read-only, also through a worker's pickle
    assert not any(r.d_numerators.flags.writeable for r in seq + par)


def test_census_scan_threads_bounds(monkeypatch):
    """threads < 1 is refused; the pool has at most min(threads, CPU
    count, tasks) workers, maps _classify_task over the tasks, each a run
    of one shape's graphs, and there is no pool when nothing is left to
    classify. With one box row per task, every graph is a task of its
    own. A stand-in executor records max_workers and the tasks, and maps
    in this process, so no worker is started."""
    import concurrent.futures

    made, mapped = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            assert fn is census._classify_task
            mapped.append([len(task.weights) for task in items])
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            census.census_scan(2, -3, threads=bad)
    want = census.census_scan(2, -3)
    graphs = sum(1 for n in (1, 2) for _ in census.enumerate_weighted(n, -3))
    assert made == []
    # by default each of the two shapes is one task: 3 graphs on one
    # vertex, 5 on two
    monkeypatch.setattr(census.os, "cpu_count", lambda: 1000)
    assert census.census_scan(2, -3, threads=1000) == want
    assert made == [2] and mapped == [[3, 5]]
    monkeypatch.setattr(census, "_TASK_ROWS", 1)
    made.clear()
    mapped.clear()
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    assert census.census_scan(2, -3, threads=1000) == want
    monkeypatch.setattr(census.os, "cpu_count", lambda: 1000)
    assert census.census_scan(2, -3, threads=1000) == want
    assert census.census_scan(2, -3, threads=4) == want
    assert made == [3, graphs, 4]
    assert mapped == [[1] * graphs] * 3
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert census.census_scan(2, -3, threads=1000) == want
    assert census.census_scan(2, -3, threads=1000, box_cap=0) == []
    assert made == [3, graphs, 4]


# ----------------------------------------------------- the batch's oracle

_FOREST_FILTERS = {"zhs": lambda f: h1_order(f) == 1, "minimal": is_minimal}


@pytest.mark.parametrize("nmax, wmin", [(4, -6), (5, -4)])
def test_census_scan_matches_per_graph_classify(nmax, wmin):
    """The batch gives the records of oracles.classify, the census oracle,
    on every forest of enumerate_weighted: unfiltered, under each filter
    (zhs and minimal read off the forest, the others off the oracle's
    record), under a box cap, and through a pool of two workers."""
    forests = [f for n in range(1, nmax + 1) for f in census.enumerate_weighted(n, wmin)]
    pairs = sorted(((classify(f), f) for f in forests), key=lambda pair: pair[0].code)
    want = [r for r, _ in pairs]
    assert census.census_scan(nmax, wmin) == want
    for name in census.FILTER_NAMES:
        if name in _FOREST_FILTERS:
            kept = [r for r, f in pairs if _FOREST_FILTERS[name](f)]
        else:
            kept = [r for r in want if census._RECORD_FILTERS[name](r)]
        assert 0 < len(kept) < len(want), name
        assert census.census_scan(nmax, wmin, filters=(name,)) == kept, name
    capped = [r for r, f in pairs if QFormContext(f).box_size <= 100]
    assert 0 < len(capped) < len(want)
    assert census.census_scan(nmax, wmin, box_cap=100) == capped
    assert census.census_scan(nmax, wmin, threads=2) == want


def _counting_contexts(monkeypatch):
    """Record every QFormContext made, by its weights."""
    made = []
    real = QFormContext.__init__

    def counting(self, forest, budget=lattice.DEFAULT_BUDGET):
        made.append(forest.weights)
        real(self, forest, budget)

    monkeypatch.setattr(QFormContext, "__init__", counting)
    return made


def test_census_scan_builds_no_context_per_graph(monkeypatch):
    """On the bench workload (4, -6) the batch builds no QFormContext at
    all, and no _basic_rows call sees more than a block of rows; calls
    carry one weight row per box row, from more than one graph."""
    made = _counting_contexts(monkeypatch)
    sizes, graphs = [], []
    real = engine._basic_rows

    def recording(block, weights, adj, rng=None):
        sizes.append(len(block))
        graphs.append(len(np.unique(np.asarray(weights).reshape(-1, block.shape[1]), axis=0)))
        return real(block, weights, adj, rng)

    monkeypatch.setattr(engine, "_basic_rows", recording)
    recs = census.census_scan(4, -6)
    assert len(recs) == 1042
    assert made == []
    assert max(sizes) <= lattice._BATCH_ROWS
    assert max(graphs) > 1


def test_census_scan_sends_uncertified_candidates_to_is_rational(monkeypatch):
    """With a certificate that certifies nothing, every AR probe that
    Laufer finds non-rational goes to is_rational, which alone builds a
    QFormContext, one per probe; the records stay the same. At (6, -3)
    the bisection makes 2 such probes, the weight rows (-3^5, -2) and
    (-3^6) (none at (4, -6), where every probe is Laufer-rational)."""
    want = census.census_scan(6, -3)
    real = engine.canonical_pair_rows

    def nothing(adj, weights, cycle=None):
        found, pairs = real(adj, weights, cycle)
        return np.zeros_like(found), pairs

    checked = []
    is_rational = engine.is_rational

    def counting(ctx):
        checked.append(ctx.weights)
        return is_rational(ctx)

    monkeypatch.setattr(engine, "canonical_pair_rows", nothing)
    monkeypatch.setattr(engine, "is_rational", counting)
    made = _counting_contexts(monkeypatch)
    assert census.census_scan(6, -3) == want
    assert checked == [(-3, -3, -3, -3, -3, -2), (-3, -3, -3, -3, -3, -3)]
    assert made == checked


def test_census_scan_raises_on_a_count_that_contradicts_laufer(monkeypatch):
    """A witness whose canonical class holds two basic vectors is a
    disagreement with Laufer's test."""
    real = engine.canonical_counts_rows
    monkeypatch.setattr(
        engine, "canonical_counts_rows", lambda *args: real(*args) + 1
    )
    with pytest.raises(engine.RationalityDisagreementError, match="says rational"):
        census.census_scan(3, -3)


def test_census_scan_does_not_depend_on_blocks_or_tasks(monkeypatch):
    """Blocks of 7 box rows cut boxes mid-way and span graphs; tasks of
    one graph each, or of every graph of a shape, give the same records."""
    want = census.census_scan(4, -4)
    monkeypatch.setattr(lattice, "_BATCH_ROWS", 7)
    monkeypatch.setattr(engine, "_BATCH_ROWS", 7)
    for rows in (1, 10**9):
        monkeypatch.setattr(census, "_TASK_ROWS", rows)
        assert census.census_scan(4, -4) == want
def test_census_scan_contains_star_zhs_witness():
    recs = census.census_scan(4, -7, filters=("zhs", "nonrational"))
    codes = {r.code for r in recs}
    assert canonical_code(star_forest(-1, [-2, -3, -7])) in codes


# ---------------------------------------------------------------- verify

def test_verify_e8_at_8_and_9():
    for nmax in (8, 9):
        rep = census.verify_e8_unique(nmax)
        assert rep.ok
        assert rep.unimodular_codes == (census.e8_code(),)
        assert rep.trees_scanned == sum(
            census._FREE_TREE_COUNTS[n - 1] for n in range(1, nmax + 1)
        )


def test_verify_e8_matches_the_per_tree_scan():
    """The scan of every tree of a size at once (one parent row each)
    counts and codes what the per-tree scan does, nmax 8 to 12."""
    for nmax in range(8, 13):
        rep = census.verify_e8_unique(nmax)
        assert (rep.trees_scanned, rep.negdef_count, rep.unimodular_codes) == e8_scan(nmax)


def test_verify_e8_requires_enough_vertices():
    with pytest.raises(ValueError):
        census.verify_e8_unique(7)


def test_verify_classification_small():
    rep = census.verify_classification(4, -7)
    assert rep.ok
    assert rep.counterexamples == ()
    # the Sigma(2,3,7) star is a minimal tree with a -1 vertex
    assert rep.case3_checked >= 1
    assert all(code == census.e8_code() for code in rep.unimodular_rational_codes)


def test_verify_classification_includes_e8_when_reachable():
    rep = census.verify_classification(8, -2)
    assert rep.ok
    assert census.e8_code() in rep.unimodular_rational_codes


def test_verify_classification_builds_one_forest_per_graph(monkeypatch):
    """Grid columns are deduplicated and decided per shape; a forest is
    built only for each graph the batched Laufer test and certificate
    leave open (per_graph): none at (6, -4), and only Laufer-rational E8
    at (8, -2)."""
    built = []
    real = census._shape_forest

    def counting(edges, n, weights):
        built.append(weights)
        return real(edges, n, weights)

    monkeypatch.setattr(census, "_shape_forest", counting)
    rep = census.verify_classification(6, -4)
    assert rep.ok
    assert rep.unimodular_checked + rep.case3_checked == 118
    assert built == [] and rep.per_graph == 0
    rep = census.verify_classification(8, -2)
    assert rep.ok and rep.per_graph == 1
    assert built == [(-2,) * 8]


def _recording(monkeypatch, seen):
    """Record the calls of laufer_rational_rows and canonical_pair_rows
    that take one adjacency matrix per row (the verify chunks)."""
    laufer, pair = engine.laufer_rational_rows, engine.canonical_pair_rows

    def laufer_rows(adj, weights, cycle=None):
        got = laufer(adj, weights, cycle)
        if adj.ndim == 3:
            seen["laufer"].append((adj, weights, cycle, got))
        return got

    def pair_rows(adj, weights, cycle=None):
        found, pairs = pair(adj, weights, cycle)
        if adj.ndim == 3:
            seen["pair"].append((adj, weights, cycle, found, pairs))
        return found, pairs

    monkeypatch.setattr(engine, "laufer_rational_rows", laufer_rows)
    monkeypatch.setattr(engine, "canonical_pair_rows", pair_rows)
    return laufer, pair


def _by_own_shape(calls):
    """The rows of recorded chunk calls, unpadded and grouped by their
    graph's shape: {(n, adjacency bytes): (adjacency, [(weights,
    results...)])}; every pad is an isolated -2 vertex outside the
    cycle, after the graph's own vertices."""
    groups = {}
    for adj, weights, cycle, *results in calls:
        assert adj.dtype == np.int8
        for i, (a, w, c) in enumerate(zip(adj, weights, cycle)):
            n = int(c.sum())
            assert c[:n].all() and (w[n:] == -2).all()
            assert not a[n:].any() and not a[:, n:].any()
            own = a[:n, :n].astype(np.int64)
            group = groups.setdefault((n, own.tobytes()), (own, []))
            group[1].append((w[:n], *(r[i] for r in results)))
    return groups


@pytest.mark.parametrize("nmax, wmin, checked", [(6, -4, 114), (7, -5, 8001)])
def test_verify_chunks_across_shapes_match_per_shape_calls(monkeypatch, nmax, wmin, checked):
    """With chunks of 100 rows, which cut through shapes and hold rows of
    several, every checked graph gets the Laufer verdict and the
    certificate pair (its pads at 0) that laufer_rational_rows and
    canonical_pair_rows give on its own shape's rows alone, and the
    report is unchanged."""
    want = census.verify_classification(nmax, wmin)
    seen = {"laufer": [], "pair": []}
    laufer, pair = _recording(monkeypatch, seen)
    monkeypatch.setattr(census, "_BATCH_ROWS", 100)
    assert census.verify_classification(nmax, wmin) == want
    assert max(len(call[1]) for call in seen["laufer"]) == 100
    assert max(len({a.tobytes() for a in call[0]}) for call in seen["laufer"]) > 1
    rows = 0
    for own, entries in _by_own_shape(seen["laufer"]).values():
        weights = np.array([w for w, _ in entries])
        assert [v for _, v in entries] == laufer(own, weights).tolist()
        rows += len(entries)
    assert rows == checked
    pairs = 0
    for own, entries in _by_own_shape(seen["pair"]).values():
        weights = np.array([w for w, _, _ in entries])
        found, per_shape = pair(own, weights)
        assert [f for _, f, _ in entries] == found.tolist()
        n = weights.shape[1]
        for (_, _, padded), p in zip(entries, per_shape):
            assert (padded[:, :n] == p).all() and not padded[:, n:].any()
        pairs += len(entries)
    assert pairs == sum(len(call[1]) for call in seen["pair"]) > 0


def test_verify_certificate_runs_once_per_chunk(monkeypatch):
    """At (7, -5) the 8,001 checked graphs of 25 shapes (32 unimodular,
    8,001 with a -1 vertex) go through Laufer's test and the certificate
    in ceil(8,001 / _BATCH_ROWS) chunks: two calls of each at the
    default 4,096 rows, nine at 1,000."""
    seen = {"laufer": [], "pair": []}
    _recording(monkeypatch, seen)
    for rows, chunks in ((census._BATCH_ROWS, 2), (1000, 9)):
        monkeypatch.setattr(census, "_BATCH_ROWS", rows)
        seen["laufer"].clear()
        seen["pair"].clear()
        census.verify_classification(7, -5)
        assert sum(len(call[1]) for call in seen["laufer"]) == 8001
        assert len(seen["laufer"]) == len(seen["pair"]) == chunks


def test_verify_classification_sends_uncertified_graphs_to_is_rational(monkeypatch):
    """A Laufer-non-rational graph the batched certificate leaves open
    goes on to is_rational: with a certificate that certifies nothing,
    every one of the 114 graphs at (6, -4) (its 4 unimodular graphs all
    have a -1 vertex) is checked one by one, with the same report."""
    want = census.verify_classification(6, -4)

    def nothing(adj, weights, cycle=None):
        found, pairs = real(adj, weights, cycle)
        return np.zeros_like(found), pairs

    real = engine.canonical_pair_rows
    monkeypatch.setattr(engine, "canonical_pair_rows", nothing)
    rep = census.verify_classification(6, -4)
    assert rep.per_graph == 114
    assert rep == dataclasses.replace(want, per_graph=114)
