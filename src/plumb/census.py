"""Exhaustive scans over small negative-definite weighted trees.

Trees are enumerated one isomorphism class of shapes at a time; weight
assignments are swept as a (wmin..-1)^n grid per shape, with the
subtree-determinant recursion of forest.py run on whole columns, so
definiteness, determinant and minimality filters run before any graph
object is materialized. Each shape is held as its canonical level
sequence, and a grid keeps only the columns that are the least of their
orbits under the shape's automorphisms (_least_columns), a test on each
column alone; census_scan and verify_classification decide a shape's
columns together, and string codes are built only for the graphs that
are output.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import engine
from .forest import (
    PlumbingForest,
    _det_negdef,
    _shape_code,
    _shape_tables,
    _ShapeTables,
    canonical_code,
)
from .lattice import (
    _BATCH_ROWS,
    _INT64_GUARD,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    BoxBatch,
    CharVector,
    QFormContext,
    _ArrayFields,
)

MAX_TREE_VERTICES = 12

# number of isomorphism classes of free trees on n vertices, n = 1..12;
# used as an internal consistency check on the generator
_FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)

# per-graph cap on the characteristic-vector box inside census scans,
# tighter than the library default so full sweeps stay fast
CENSUS_BOX_CAP = 10**6

SCHEMA_NAME = "plumb-census"
SCHEMA_VERSION = 1


def enumerate_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Edge lists (on vertices 0..n-1) of one representative per
    isomorphism class of free trees on n vertices, in the order of
    _free_tree_levels."""
    return [_level_edges(levels) for levels in _tree_levels(n)]


def _tree_levels(n: int) -> list[list[int]]:
    """The level sequences of enumerate_trees(n): _free_tree_levels, or
    the one vertex at n = 1, checked against _FREE_TREE_COUNTS."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_TREE_VERTICES:
        raise EnumerationBudgetError(
            f"tree enumeration is budgeted to {MAX_TREE_VERTICES} vertices, got {n}"
        )
    shapes = list(_free_tree_levels(n)) if n > 1 else [[0]]
    if len(shapes) != _FREE_TREE_COUNTS[n - 1]:
        raise AssertionError(
            f"free-tree generator returned {len(shapes)} shapes on {n} "
            f"vertices, expected {_FREE_TREE_COUNTS[n - 1]}"
        )
    return shapes


def _free_tree_levels(n: int) -> Iterator[list[int]]:
    """Level sequences of the free trees on n >= 2 vertices, one per
    isomorphism class, each rooted at its center (or at one end of its
    central edge): Wright, Richmond, Odlyzko and McKay, "Constant time
    generation of free trees", SIAM J. Comput. 15 (1986). The walk starts
    from the path and steps through rooted trees in the order of
    _next_rooted, skipping each run of sequences that is not the
    canonical rooting of a free tree."""
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        left, rest = _split_levels(levels)
        # the rooting is the canonical one when the root's first subtree
        # is no higher than the rest, then no larger, then not later
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            yield levels
            levels = _next_rooted(levels)
        else:
            # no successor is canonical until the first child's subtree changes
            p = len(left)
            grow = levels[p] > 2
            levels = _next_rooted(levels, p)
            if grow:
                # the rest restarts as a path one level above the new left height
                top = max(_split_levels(levels)[0]) + 1
                levels[n - top:] = range(1, top + 1)


def _split_levels(levels: list[int]) -> tuple[list[int], list[int]]:
    """The level sequences of the root's first subtree (levels lowered by
    one) and of the tree without it."""
    second = levels.index(1, 2) if 1 in levels[2:] else len(levels)
    return [h - 1 for h in levels[1:second]], [0] + levels[second:]


def _next_rooted(levels: list[int], p: int | None = None) -> list[int] | None:
    """Beyer and Hedetniemi's successor of a rooted tree's level sequence:
    the last vertex p above level 1 (or the given p) and everything after
    it become copies of the segment from p's parent q up to p, with p's
    level lowered by one. None after the star."""
    if p is None:
        p = max(i for i, h in enumerate(levels) if h != 1)
    if p == 0:
        return None
    q = max(i for i in range(p) if levels[i] == levels[p] - 1)
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - p + q])
    return out


def _level_edges(levels: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Sorted edge list of the tree with this level sequence: each vertex
    hangs from the last earlier vertex one level up."""
    last = {}
    edges = []
    for i, h in enumerate(levels):
        if h:
            edges.append((last[h - 1], i))
        last[h] = i
    return tuple(sorted(edges))


def _level_parents(levels: np.ndarray) -> np.ndarray:
    """The parent of each vertex (-1 at the root) of each tree whose level
    sequence is a row of levels (G, n), as _level_edges hangs it: the
    last earlier vertex one level up. Parents come before children."""
    parent = np.full(levels.shape, -1, dtype=np.int64)
    for i in range(1, levels.shape[1]):
        up = levels[:, i - 1::-1] == levels[:, i, None] - 1
        parent[:, i] = i - 1 - up.argmax(axis=1)
    return parent


def _shape_forest(
    edges: Sequence[tuple[int, int]], n: int, weights: Sequence[int]
) -> PlumbingForest:
    ids = tuple(f"v{i + 1}" for i in range(n))
    return PlumbingForest(ids=ids, weights=tuple(weights), edges=tuple(edges))


@dataclass(frozen=True)
class _GridScan:
    weights: np.ndarray  # (n, C) int64, one column per kept weight assignment
    negdef: np.ndarray  # boolean mask over combos
    det: np.ndarray  # determinant per combo


def _grid_scan(
    tables: _ShapeTables, levels: list[int], wmin: int, minimal: bool = False
) -> _GridScan:
    """The weight columns in {wmin..-1}^n of a shape with this level
    sequence that are the least of their orbits (_least_columns), in
    lexicographic order, with their determinants and definiteness. With
    minimal, only the minimal columns: no -1 weight at a vertex of degree
    <= 2. Definiteness, the determinant and minimality are the same on a
    whole orbit, so the recursion runs on the kept columns only."""
    n = tables.n
    if (abs(wmin) + n) ** n >= _INT64_GUARD:
        raise EnumerationBudgetError(
            f"weight grid on {n} vertices with weights >= {wmin}: subtree "
            "determinants may overflow int64"
        )
    top = [-2 if minimal and d <= 2 else -1 for d in tables.degrees]
    weights = np.indices([t - wmin + 1 for t in top], dtype=np.int64).reshape(n, -1)
    weights += wmin
    weights = weights[:, _least_columns(levels, weights)]
    det, negdef = _det_negdef(tables.parent, weights, tables.postorder)
    return _GridScan(weights=weights, negdef=negdef, det=det)


def _least_columns(levels: list[int], weights: np.ndarray) -> np.ndarray:
    """Which weight columns (n, C) of the tree with this canonical level
    sequence are the lexicographic least of their orbits under its
    automorphisms, vertex 0 the most significant. Identical sibling
    subtrees sit side by side in the sequence, so a column is the least
    iff the weights of each such left subtree read no greater than those
    of its right neighbour, and, when the root's first subtree is a copy
    of the rest (two halves of one shape on the central edge), no greater
    than the column with the halves swapped."""
    n = len(levels)
    # the subtree of v is the slice levels[v:end[v]]
    end = [
        next((u for u in range(v + 1, n) if levels[u] <= levels[v]), n)
        for v in range(n)
    ]
    keep = np.ones(weights.shape[1], dtype=bool)
    for v, u in enumerate(end):
        if u < n and levels[v:u] == levels[u:end[u]]:
            keep &= _lex_le(weights, range(v, u), range(u, end[u]))
    left, rest = _split_levels(levels)
    if left == rest:
        swap = [1, 0, *range(end[1], n), *range(2, end[1])]
        keep &= _lex_le(weights, range(n), swap)
    return keep


def _lex_le(weights: np.ndarray, left, right) -> np.ndarray:
    """Whether each column of weights (n, C) reads no greater on the rows
    left than on the rows right, taken in order and compared at the first
    difference."""
    le = np.ones(weights.shape[1], dtype=bool)
    tied = le.copy()
    for a, b in zip(left, right):
        le &= ~tied | (weights[a] <= weights[b])
        tied &= weights[a] == weights[b]
    return le


def _grid_size(nmax: int, wmin: int, minimal: bool = False) -> int:
    """Weight columns of the shapes' grids on n <= nmax vertices: all of
    (wmin..-1)^n, or with minimal only the minimal ones, which take no -1
    at a vertex of degree <= 2 (_grid_scan)."""
    if not minimal:
        return sum(_FREE_TREE_COUNTS[n - 1] * abs(wmin) ** n for n in range(1, nmax + 1))
    total = 0
    for n in range(1, nmax + 1):
        for edges in enumerate_trees(n):
            degrees = np.bincount(np.ravel(edges).astype(np.int64), minlength=n).tolist()
            total += math.prod(abs(wmin) - (d <= 2) for d in degrees)
    return total


def _check_grid_budget(nmax: int, wmin: int, budget: int, minimal: bool = False) -> None:
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    if wmin > -1:
        raise ValueError("wmin must be <= -1")
    if nmax > MAX_TREE_VERTICES:
        raise EnumerationBudgetError(
            f"tree enumeration is budgeted to {MAX_TREE_VERTICES} vertices, got {nmax}"
        )
    total = _grid_size(nmax, wmin, minimal)
    if total > budget:
        grid = "minimal weighted-tree grid" if minimal else "weighted-tree grid"
        raise EnumerationBudgetError(f"{grid} has {total} assignments, budget {budget}")


def _distinct_rows(tables: _ShapeTables, levels: list[int], wmin: int) -> np.ndarray:
    """The first column of each isomorphism class among the negative-
    definite columns of a shape's grid, as weight rows (C, n), in grid
    order."""
    scan = _grid_scan(tables, levels, wmin)
    return np.ascontiguousarray(scan.weights[:, scan.negdef].T)


def _chunks(parts: Iterator[tuple[np.ndarray, ...]], size: int):
    """The rows of a stream of tuples of equally long arrays, laid end to
    end and cut into tuples of size rows (the last may be shorter); at
    most a part and a chunk are held at once."""
    held, count = [], 0
    for part in parts:
        held.append(part)
        count += len(part[0])
        if count >= size:
            joined = [np.concatenate(x) for x in zip(*held)]
            cut = count - count % size
            for start in range(0, cut, size):
                yield tuple(x[start:start + size] for x in joined)
            held = [tuple(x[cut:] for x in joined)]
            count -= cut
    if count:
        yield tuple(np.concatenate(x) for x in zip(*held))


def _minimal_rows(tables: _ShapeTables, rows: np.ndarray) -> np.ndarray:
    """is_minimal of each weight row (C, n) of one shape."""
    return ~((rows == -1) & (np.array(tables.degrees) <= 2)).any(axis=1)


def enumerate_weighted(
    n: int, wmin: int, budget: int = DEFAULT_BUDGET
) -> Iterator[PlumbingForest]:
    """All connected negative-definite trees on n vertices with weights
    in {wmin..-1}, one representative per isomorphism class, in
    canonical-code order within each shape."""
    if wmin > -1:
        raise ValueError("wmin must be <= -1")
    if abs(wmin) ** n > budget:
        raise EnumerationBudgetError(
            f"{abs(wmin) ** n} weight assignments per shape exceeds budget {budget}"
        )
    for levels in _tree_levels(n):
        edges = _level_edges(levels)
        tables = _shape_tables(edges, n)
        distinct = _distinct_rows(tables, levels, wmin).tolist()
        for _, weights in sorted((_shape_code(tables, w), w) for w in distinct):
            yield _shape_forest(edges, n, weights)


@dataclass(frozen=True, eq=False)
class CensusRecord(_ArrayFields):
    """One graph's census line. Its d-invariants are held exactly as
    d_numerators, a read-only sorted int64 array of numerators over the
    common denominator 4 * spinc (as in engine.DInvariants); the d
    Fractions are built on first read."""

    code: str
    n: int
    weights: tuple[int, ...]
    negdef: bool
    det: int
    spinc: int
    basic: int
    rational: bool
    lspace: bool
    certified: bool
    minimal: bool
    d_numerators: np.ndarray

    @cached_property
    def d(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(q, 4 * self.spinc) for q in self.d_numerators.tolist())

    def __setstate__(self, state):
        # an array comes back from a pickle (a pool worker's records) writable
        state["d_numerators"].flags.writeable = False
        self.__dict__.update(state)


# filters known from a weight column alone run on the grid, before any
# graph is classified: (shape tables, weight rows) -> mask
_COLUMN_FILTERS = {
    "zhs": lambda tables, rows: (
        np.abs(_det_negdef(tables.parent, rows.T, tables.postorder)[0]) == 1
    ),
    "minimal": _minimal_rows,
}

_RECORD_FILTERS = {
    "rational": lambda r: r.rational,
    "nonrational": lambda r: not r.rational,
    "lspace": lambda r: r.lspace,
    "nonlspace": lambda r: not r.lspace,
}

FILTER_NAMES = tuple(sorted({**_COLUMN_FILTERS, **_RECORD_FILTERS}))


def schema_header() -> dict:
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}


# box rows per census task: a run of one shape's graphs that
# _classify_task decides together, and the unit of work of a pool
_TASK_ROWS = 2**16


@dataclass(frozen=True)
class _CensusTask:
    """Graphs of one shape, in code order, that _classify_task decides
    together."""

    edges: tuple[tuple[int, int], ...]
    n: int
    weights: np.ndarray  # (G, n) int64, one weight row per graph
    codes: tuple[str, ...]
    budget: int


def _census_tasks(edges, tables: _ShapeTables, rows: np.ndarray, budget: int) -> list[_CensusTask]:
    """One shape's graphs in code order, cut into tasks of at most
    _TASK_ROWS box rows (or of one graph whose box is larger)."""
    coded = sorted((_shape_code(tables, w), i) for i, w in enumerate(rows.tolist()))
    sizes = np.prod(np.abs(rows), axis=1).tolist()
    runs, filled = [], 0
    for code, i in coded:
        if not runs or filled + sizes[i] > _TASK_ROWS:
            runs.append([])
            filled = 0
        runs[-1].append((code, i))
        filled += sizes[i]
    return [
        _CensusTask(
            edges=tuple(edges),
            n=tables.n,
            weights=rows[[i for _, i in run]],
            codes=tuple(code for code, _ in run),
            budget=budget,
        )
        for run in runs
    ]


def _class_counts(batch: BoxBatch, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The basic count and the maximum |det| K^2 of every class of a
    batch (its ids as BoxBatch.sweep numbers them), from one sweep of its
    boxes (those that fit a block end to end, a larger one from its low
    table); each block goes through engine._basic_rows with one weight
    row per box row. Returning drops the sweep's lists before the caller
    goes on."""
    sign = np.sign(batch.det)
    basic_ids, basic_k2 = [], []
    sweep = batch.sweep()
    while True:
        try:
            graph, block, ids = next(sweep)
        except StopIteration as end:  # the sweep's first rows
            rank, reps = end.value
            break
        basic = engine._basic_rows(block, batch.weights[graph], adj)
        basic_ids.append(ids[basic])
        graph, block = graph[basic], block[basic]
        pairings = batch.pairings(graph, block)
        basic_k2.append(sign[graph] * np.einsum("ij,ij->i", pairings, block))
    members = np.concatenate(basic_ids)
    counts = np.bincount(members, minlength=len(reps))
    if not counts.all():
        rep = CharVector(tuple(reps[rank[np.argmin(counts)]].tolist()))
        raise AssertionError(f"spin^c class of {rep} has no basic vector")
    top = np.full(len(reps), np.iinfo(np.int64).min)
    np.maximum.at(top, members, np.concatenate(basic_k2))
    return counts, top


def _classify_task(task: _CensusTask) -> list[CensusRecord]:
    """The census record of every graph of a task, in one sweep of their
    boxes laid end to end (lattice.BoxBatch.sweep, in _class_counts), a
    block of rows at a time. Each block goes through engine._basic_rows with one weight row
    per box row, and takes its class ids and K^2 from each row's own
    graph: ids are graph-major and each graph's canonical class comes
    first, so one np.bincount counts every class's basic vectors and one
    np.maximum.at takes its maximum K^2. The per-graph checks hold: |H1|
    classes per graph (the sweep's), none without a basic vector, and
    one basic vector in the canonical class exactly when Laufer's test
    (engine.laufer_rational_rows) says rational, or
    engine.RationalityDisagreementError names the graph; the box budget
    and the int64 guard are checked for every graph here and for every
    AR witness in engine.ar_status_rows. The records are those that
    QFormContext, basic_vectors, verdicts and d_invariants give one
    graph at a time."""
    tables = _shape_tables(task.edges, task.n)
    neighbors, weights = tables.neighbors, task.weights
    adj = engine._adjacency(neighbors)
    batch = BoxBatch(neighbors, weights, task.budget)
    counts, numerators = _class_counts(batch, adj)
    # d = (K^2 + |V|) / 4, over the common denominator 4|H1|
    owner = np.repeat(np.arange(len(weights)), batch.h1)
    numerators += task.n * batch.h1[owner]
    canonical = batch.class_offsets[:-1]
    rational = counts[canonical] == 1
    laufer = engine.laufer_rational_rows(adj, weights)
    for g in np.flatnonzero(rational != laufer)[:1].tolist():
        try:
            engine._check_count(int(counts[canonical[g]]), bool(laufer[g]))
        except engine.RationalityDisagreementError as e:
            raise engine.RationalityDisagreementError(f"{task.codes[g]}: {e}") from None
    rational = rational.tolist()
    basic = np.add.reduceat(counts, canonical).tolist()
    witness, _ = engine.ar_status_rows(neighbors, weights, budget=task.budget)
    minimal = _minimal_rows(tables, weights).tolist()
    # one common denominator 4|H1| per graph: sorting the numerators sorts
    # the d-invariants
    numerators = numerators[np.lexsort((numerators, owner))]
    numerators.flags.writeable = False
    per_graph = np.split(numerators, canonical[1:])
    records = []
    for g, (w, h1, nums) in enumerate(zip(weights.tolist(), batch.h1.tolist(), per_graph)):
        records.append(
            CensusRecord(
                code=task.codes[g],
                n=task.n,
                weights=tuple(w),
                negdef=True,
                det=int(batch.det[g]),
                spinc=h1,
                basic=basic[g],
                rational=rational[g],
                lspace=basic[g] == h1,
                certified=bool(witness[g] >= 0),
                minimal=minimal[g],
                d_numerators=nums,
            )
        )
    return records


def census_scan(
    nmax: int,
    wmin: int,
    filters: Sequence[str] = (),
    budget: int = DEFAULT_BUDGET,
    box_cap: int = CENSUS_BOX_CAP,
    threads: int = 1,
) -> list[CensusRecord]:
    """Classify every enumerated tree with n <= nmax; apply the named
    filters conjunctively; return records sorted by canonical code.
    Filters read off a weight column (zhs, minimal) drop graphs on the
    grid, before any is classified. Graphs whose characteristic-vector box
    exceeds box_cap are omitted. The records are those that a
    QFormContext, basic_vectors, verdicts and d_invariants give each
    graph, but each shape's graphs are decided in tasks of many graphs
    (_classify_task).
    threads > 1 maps the tasks over a process pool (same records, same
    order) of at most min(threads, CPU count, tasks) workers. threads < 1,
    nmax < 1 and wmin > -1 raise ValueError; a grid larger than budget
    raises EnumerationBudgetError."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_grid_budget(nmax, wmin, budget)
    for name in filters:
        if name not in FILTER_NAMES:
            raise ValueError(
                f"unknown filter {name!r}; known: {', '.join(FILTER_NAMES)}"
            )
    column_preds = [_COLUMN_FILTERS[name] for name in filters if name in _COLUMN_FILTERS]
    record_preds = [_RECORD_FILTERS[name] for name in filters if name in _RECORD_FILTERS]
    tasks = []
    for n in range(1, nmax + 1):
        for levels in _tree_levels(n):
            edges = _level_edges(levels)
            tables = _shape_tables(edges, n)
            rows = _distinct_rows(tables, levels, wmin)
            keep = np.prod(np.abs(rows), axis=1) <= box_cap
            for pred in column_preds:
                keep &= pred(tables, rows)
            tasks.extend(_census_tasks(edges, tables, rows[keep], budget))
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            classified = list(pool.map(_classify_task, tasks))
    else:
        classified = list(map(_classify_task, tasks))
    records = [r for batch in classified for r in batch if all(p(r) for p in record_preds)]
    records.sort(key=lambda r: r.code)
    return records


@dataclass(frozen=True)
class E8Report:
    ok: bool
    nmax: int
    trees_scanned: int
    negdef_count: int
    unimodular_codes: tuple[str, ...]
    expected_code: str


def e8_code() -> str:
    from .catalog import e8_forest

    return canonical_code(e8_forest())


def verify_e8_unique(nmax: int) -> E8Report:
    """Scan every all-(-2) tree with at most nmax vertices; the ones that
    are negative definite with |det| = 1 must be exactly one shape."""
    if nmax < 8:
        raise ValueError("nmax must be at least 8")
    expected = e8_code()
    scanned = 0
    negdef_count = 0
    hits = []
    for n in range(1, nmax + 1):
        # every tree of this size at once, one parent row each
        levels = np.array(_tree_levels(n), dtype=np.int64)
        weights = np.full((n, len(levels)), -2, dtype=np.int64)
        det, negdef = _det_negdef(_level_parents(levels), weights)
        scanned += len(levels)
        negdef_count += int(negdef.sum())
        for i in np.flatnonzero(negdef & (np.abs(det) == 1)).tolist():
            tables = _shape_tables(_level_edges(levels[i].tolist()), n)
            hits.append(_shape_code(tables, (-2,) * n))
    hits.sort()
    ok = hits == [expected]
    return E8Report(
        ok=ok,
        nmax=nmax,
        trees_scanned=scanned,
        negdef_count=negdef_count,
        unimodular_codes=tuple(hits),
        expected_code=expected,
    )


def _checked_rows(nmax: int, wmin: int):
    """The graphs verify_classification checks, shape by shape: the least
    column of each isomorphism class among a shape's minimal negative-
    definite columns in case (a) or (c), as (weight rows, int8 adjacency
    matrices, starting cycles) padded to nmax vertices with isolated -2
    vertices outside the cycle, and whether each is in case (a) and in
    case (c)."""
    for n in range(1, nmax + 1):
        for levels in _tree_levels(n):
            tables = _shape_tables(_level_edges(levels), n)
            scan = _grid_scan(tables, levels, wmin, minimal=True)
            det1 = np.abs(scan.det) == 1
            has_m1 = (scan.weights == -1).any(axis=0)
            pick = np.flatnonzero(scan.negdef & (det1 | has_m1))
            rows = np.full((len(pick), nmax), -2, dtype=np.int64)
            rows[:, :n] = scan.weights[:, pick].T
            adj = np.zeros((nmax, nmax), dtype=np.int8)
            adj[:n, :n] = engine._adjacency(tables.neighbors)
            yield (
                rows,
                np.broadcast_to(adj, (len(pick), nmax, nmax)),
                np.broadcast_to(np.arange(nmax) < n, rows.shape),
                det1[pick],
                has_m1[pick],
            )


@dataclass(frozen=True)
class ClassificationReport:
    ok: bool
    nmax: int
    wmin: int
    unimodular_checked: int
    unimodular_rational_codes: tuple[str, ...]
    case2_checked: int
    case3_checked: int
    counterexamples: tuple[str, ...]
    per_graph: int  # graphs the batched tests left to engine.is_rational
    checked: int  # distinct graphs decided, in case (a), (c) or both


def verify_classification(
    nmax: int, wmin: int, budget: int = DEFAULT_BUDGET
) -> ClassificationReport:
    """Over all minimal connected negative-definite trees with n <= nmax
    and weights in {wmin..-1}:

    (a) every rational graph with |det| = 1 has the E8 code;
    (b) every rational graph with no -1 weight and some weight <= -3 has
        |det| > 1 (checked as: such graphs with |det| = 1 are never
        rational);
    (c) every minimal graph containing a -1 vertex is non-rational.

    Each shape's grid columns of cases (a) and (c), one per isomorphism
    class (_least_columns), are padded to nmax vertices with isolated
    -2 vertices, and decided with the other shapes' rows in chunks of
    _BATCH_ROWS rows, each row with its own int8 adjacency matrix:
    Laufer's test (engine.laufer_rational_rows) and, for its
    non-rational verdicts, two basic canonical-class members
    (engine.canonical_pair_rows). The pads stay out of each row's
    starting cycle, so that they pair to 0 with it and never step, and
    in both members of the pair they sit at their box floor, 0 against
    a ceiling of 2: a padded row is rational, and certified, iff its
    graph is (see both functions). Only a graph the two leave open,
    Laufer-rational or uncertified, gets a forest and engine.is_rational,
    which counts the canonical class. A graph on which Laufer's test and
    that count disagree (engine.RationalityDisagreementError) is a
    counterexample.
    """
    _check_grid_budget(nmax, wmin, budget, minimal=True)
    expected = e8_code()
    unimodular = case2 = case3 = per_graph = checked = 0
    rational_codes = []
    # (code, line) counterexamples of cases (a)/(b) and of case (c)
    found_a, found_c = [], []

    for rows, adj, cycle, in_a, in_c in _chunks(_checked_rows(nmax, wmin), _BATCH_ROWS):
        checked += len(rows)
        unimodular += int(in_a.sum())
        case3 += int(in_c.sum())
        # a pad's -2 leaves the least weight of a row at or below -3 as it was
        case2 += int((in_a & ~in_c & (rows.min(axis=1) <= -3)).sum())
        laufer = engine.laufer_rational_rows(adj, rows, cycle)
        nonrational = np.flatnonzero(~laufer)
        certified, _ = engine.canonical_pair_rows(
            adj[nonrational], rows[nonrational], cycle[nonrational]
        )
        # the Laufer-rational and the uncertified graphs go to is_rational
        undecided = laufer.copy()
        undecided[nonrational[~certified]] = True
        for i in np.flatnonzero(undecided).tolist():
            per_graph += 1
            n = int(cycle[i].sum())
            w = tuple(rows[i, :n].tolist())
            edges = tuple(zip(*(x.tolist() for x in np.nonzero(np.triu(adj[i])))))
            forest = _shape_forest(edges, n, w)
            try:
                if not engine.is_rational(QFormContext(forest, budget=budget)):
                    continue
                error = None
            except engine.RationalityDisagreementError as e:
                error = str(e)
            code = canonical_code(forest)
            if error:
                why_a = why_c = [error]
            else:
                why_a = ["rational |det|=1 graph is not E8"] * (code != expected)
                if not in_c[i] and min(w) <= -3:
                    why_a.append(
                        "rational graph without -1 and with a weight <= -3 has |det| = 1"
                    )
                why_c = ["minimal graph with a -1 vertex is rational"]
                if in_a[i]:
                    rational_codes.append(code)
            if in_a[i]:
                found_a += [(code, f"{why}: {code} weights={w}") for why in why_a]
            if in_c[i]:
                found_c += [(code, f"{why}: {code} weights={w}") for why in why_c]
    # in code order, as each case's lines of one graph stay together
    found_a.sort(key=lambda f: f[0])
    found_c.sort(key=lambda f: f[0])
    counterexamples = tuple(line for _, line in found_a + found_c)
    return ClassificationReport(
        ok=not counterexamples,
        nmax=nmax,
        wmin=wmin,
        unimodular_checked=unimodular,
        unimodular_rational_codes=tuple(sorted(rational_codes)),
        case2_checked=case2,
        case3_checked=case3,
        counterexamples=counterexamples,
        per_graph=per_graph,
        checked=checked,
    )
