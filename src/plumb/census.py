"""Exhaustive scans over small negative-definite weighted trees.

Trees are enumerated one isomorphism class of shapes at a time; weight
assignments are swept as a (wmin..-1)^n grid per shape, with the
subtree-determinant recursion of forest.py run on whole columns, so
definiteness, determinant and minimality filters run before any graph
object is materialized. Columns are deduplicated by integer isomorphism
keys, and census_scan and verify_classification decide a shape's
columns together; string codes are built only for the graphs that are
output.
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
    _INT64_GUARD,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    BoxBatch,
    CharVector,
    QFormContext,
    _ArrayFields,
    _key_rows,
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
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_TREE_VERTICES:
        raise EnumerationBudgetError(
            f"tree enumeration is budgeted to {MAX_TREE_VERTICES} vertices, got {n}"
        )
    shapes = [_level_edges(levels) for levels in _free_tree_levels(n)] if n > 1 else [()]
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


def _shape_forest(
    edges: Sequence[tuple[int, int]], n: int, weights: Sequence[int]
) -> PlumbingForest:
    ids = tuple(f"v{i + 1}" for i in range(n))
    return PlumbingForest(ids=ids, weights=tuple(weights), edges=tuple(edges))


@dataclass(frozen=True)
class _GridScan:
    weights: np.ndarray  # (n, C) int64, one column per weight assignment
    negdef: np.ndarray  # boolean mask over combos
    det: np.ndarray  # determinant per combo


def _grid_scan(tables: _ShapeTables, wmin: int, minimal: bool = False) -> _GridScan:
    """Every weight column in {wmin..-1}^n, in lexicographic order, with
    its determinant and definiteness. With minimal, only the minimal
    columns: no -1 weight at a vertex of degree <= 2."""
    n = tables.n
    if (abs(wmin) + n) ** n >= _INT64_GUARD:
        raise EnumerationBudgetError(
            f"weight grid on {n} vertices with weights >= {wmin}: subtree "
            "determinants may overflow int64"
        )
    top = [-2 if minimal and d <= 2 else -1 for d in tables.degrees]
    digits = np.indices([t - wmin + 1 for t in top], dtype=np.int64)
    weights = digits.reshape(n, -1) + wmin
    det, negdef = _det_negdef(tables, weights)
    return _GridScan(weights=weights, negdef=negdef, det=det)


def _shape_keys(tables: _ShapeTables, weights: np.ndarray) -> np.ndarray:
    """One integer per weight column (n, C) of a tree shape, equal for two
    columns iff their weighted trees are isomorphic; keys compare only
    within one call. This is AHU's numbering: the tree hangs from its
    center, or from a virtual root on its central edge, and each height's
    subtrees are numbered by one np.unique over rows of (weight, sorted
    numbers of the children), each row taken as one opaque scalar
    (lattice._key_rows), numbers rising from height to height."""
    n, cols = tables.n, weights.shape[1]
    (centers,) = tables.centers
    # vertex n is the virtual root of a bicentral tree
    root = centers[0] if len(centers) == 1 else n
    children = [[] for _ in range(n)] + [list(centers)]
    order, seen = [root], set(centers)
    for v in order:
        if v < n:
            children[v] = [u for u in tables.neighbors[v] if u not in seen]
            seen.update(children[v])
        order.extend(children[v])
    height = [0] * (n + 1)
    for v in reversed(order):
        height[v] = max((height[c] + 1 for c in children[v]), default=0)
    label = [None] * (n + 1)
    issued = 0
    for h in range(height[root] + 1):
        level = [v for v in order if height[v] == h]
        width = max(len(children[v]) for v in level)
        rows = np.full((len(level), cols, 1 + width), -1, dtype=np.int64)
        for i, v in enumerate(level):
            rows[i, :, 0] = weights[v] if v < n else 0
            if children[v]:
                below = np.stack([label[c] for c in children[v]], axis=1)
                rows[i, :, 1:1 + len(children[v])] = np.sort(below, axis=1)
        uniq, inverse = np.unique(
            _key_rows(rows.reshape(-1, 1 + width)), return_inverse=True
        )
        inverse = inverse.reshape(len(level), cols) + issued
        issued += len(uniq)
        for i, v in enumerate(level):
            label[v] = inverse[i]
    return label[root]


def _first_columns(tables: _ShapeTables, weights: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the first column of each isomorphism class
    among the weight columns (n, C) of one tree shape."""
    _, first = np.unique(_shape_keys(tables, weights), return_index=True)
    return np.sort(first)


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


def _distinct_rows(tables: _ShapeTables, wmin: int) -> np.ndarray:
    """The first column of each isomorphism class among the negative-
    definite columns of a shape's grid, as weight rows (C, n), in grid
    order."""
    scan = _grid_scan(tables, wmin)
    pick = np.flatnonzero(scan.negdef)
    pick = pick[_first_columns(tables, scan.weights[:, pick])]
    return np.ascontiguousarray(scan.weights[:, pick].T)


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
    for edges in enumerate_trees(n):
        tables = _shape_tables(edges, n)
        distinct = _distinct_rows(tables, wmin).tolist()
        for _, weights in sorted((_shape_code(tables, w), w) for w in distinct):
            yield _shape_forest(edges, n, weights)


def enumerate_forests(
    nmax: int, wmin: int, budget: int = DEFAULT_BUDGET
) -> Iterator[PlumbingForest]:
    """All negative-definite weighted forests with at most nmax vertices
    (weights in {wmin..-1}), one per isomorphism class, including the
    empty forest. Components are drawn from enumerate_weighted."""
    trees: list[PlumbingForest] = []
    for n in range(1, nmax + 1):
        trees.extend(enumerate_weighted(n, wmin, budget=budget))

    def build(parts: list[PlumbingForest]) -> PlumbingForest:
        ids, weights, edges = [], [], []
        for pi, part in enumerate(parts):
            off = len(ids)
            ids.extend(f"t{pi + 1}.{v}" for v in part.ids)
            weights.extend(part.weights)
            edges.extend((a + off, b + off) for a, b in part.edges)
        return PlumbingForest(
            ids=tuple(ids), weights=tuple(weights), edges=tuple(edges)
        )

    def rec(start: int, room: int, parts: list[PlumbingForest]) -> Iterator[PlumbingForest]:
        yield build(parts)
        for i in range(start, len(trees)):
            if trees[i].n <= room:
                parts.append(trees[i])
                yield from rec(i, room - trees[i].n, parts)
                parts.pop()

    yield from rec(0, nmax, [])


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
    "zhs": lambda tables, rows: np.abs(_det_negdef(tables, rows.T)[0]) == 1,
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


def _classify_task(task: _CensusTask) -> list[CensusRecord]:
    """The census record of every graph of a task, in one sweep of their
    boxes laid end to end (lattice.BoxBatch.sweep), a block of rows at a
    time. Each block goes through engine._basic_rows with one weight row
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
    batch = BoxBatch(neighbors, weights, task.budget)
    sign = np.sign(batch.det)
    basic_ids, basic_k2 = [], []
    sweep = batch.sweep()
    while True:
        try:
            graph, block, ids = next(sweep)
        except StopIteration as end:  # the sweep's first rows
            rank, reps = end.value
            break
        basic = engine._basic_rows(block, weights[graph], neighbors)
        basic_ids.append(ids[basic])
        graph, block = graph[basic], block[basic]
        pairings = batch.pairings(graph, block)
        basic_k2.append(sign[graph] * np.einsum("ij,ij->i", pairings, block))
    members = np.concatenate(basic_ids)
    counts = np.bincount(members, minlength=len(reps))
    if not counts.all():
        rep = CharVector(tuple(reps[rank[np.argmin(counts)]].tolist()))
        raise AssertionError(f"spin^c class of {rep} has no basic vector")
    # max K^2 per class, as |det| * K^2; d = (K^2 + |V|) / 4
    owner = np.repeat(np.arange(len(weights)), batch.h1)
    top = np.full(len(reps), np.iinfo(np.int64).min)
    np.maximum.at(top, members, np.concatenate(basic_k2))
    numerators = top + task.n * batch.h1[owner]
    canonical = batch.class_offsets[:-1]
    rational = counts[canonical] == 1
    laufer = engine.laufer_rational_rows(neighbors, weights)
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
        for edges in enumerate_trees(n):
            tables = _shape_tables(edges, n)
            rows = _distinct_rows(tables, wmin)
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
        for edges in enumerate_trees(n):
            scanned += 1
            tables = _shape_tables(edges, n)
            det, negdef = _det_negdef(tables, (-2,) * n)
            if not negdef:
                continue
            negdef_count += 1
            if abs(det) == 1:
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

    Each shape's grid columns of cases (a) and (c) are deduplicated by
    isomorphism (_first_columns) and decided together: Laufer's test
    (engine.laufer_rational_rows) and, for its non-rational verdicts,
    two basic canonical-class members (engine.canonical_pair_rows). Only
    a graph the two leave open, Laufer-rational or uncertified, gets a
    forest and engine.is_rational, which counts the canonical class. A
    graph on which Laufer's test and that count disagree
    (engine.RationalityDisagreementError) is a counterexample.
    """
    _check_grid_budget(nmax, wmin, budget, minimal=True)
    expected = e8_code()
    unimodular = case2 = case3 = per_graph = 0
    rational_codes = []
    # (code, line) counterexamples of cases (a)/(b) and of case (c)
    found_a, found_c = [], []
    for n in range(1, nmax + 1):
        for edges in enumerate_trees(n):
            tables = _shape_tables(edges, n)
            scan = _grid_scan(tables, wmin, minimal=True)
            det1 = np.abs(scan.det) == 1
            has_m1 = (scan.weights == -1).any(axis=0)
            checked = scan.negdef & (det1 | has_m1)
            # case (a) and (c) are isomorphism-invariant, so the first
            # column of a class is that of either case
            pick = np.flatnonzero(checked)
            pick = pick[_first_columns(tables, scan.weights[:, pick])]
            rows = np.ascontiguousarray(scan.weights[:, pick].T)
            in_a, in_c = det1[pick], has_m1[pick]
            unimodular += int(in_a.sum())
            case3 += int(in_c.sum())
            case2 += int((in_a & ~in_c & (rows.min(axis=1) <= -3)).sum())
            laufer = engine.laufer_rational_rows(tables.neighbors, rows)
            nonrational = np.flatnonzero(~laufer)
            certified, _ = engine.canonical_pair_rows(tables.neighbors, rows[nonrational])
            # the Laufer-rational and the uncertified graphs go to is_rational
            undecided = laufer.copy()
            undecided[nonrational[~certified]] = True
            for i in np.flatnonzero(undecided).tolist():
                per_graph += 1
                w = tuple(rows[i].tolist())
                forest = _shape_forest(edges, n, w)
                try:
                    if not engine.is_rational(QFormContext(forest, budget=budget)):
                        continue
                    error = None
                except engine.RationalityDisagreementError as e:
                    error = str(e)
                code = _shape_code(tables, w)
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
    )
