"""Exhaustive scans over small negative-definite weighted trees.

Trees are enumerated one isomorphism class of shapes at a time; weight
assignments are swept as a (wmin..-1)^n grid per shape, with the
subtree-determinant recursion of forest.py run on whole columns, so
definiteness, determinant and minimality filters run before any graph
object is materialized. Columns are deduplicated by integer isomorphism
keys, and verify_classification decides a shape's columns together;
string codes are built only for the graphs that are output.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from . import engine
from .forest import (
    PlumbingForest,
    _det_negdef,
    _shape_code,
    _shape_tables,
    _ShapeTables,
    canonical_code,
    h1_order,
    is_minimal,
)
from .lattice import (
    _INT64_GUARD,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    QFormContext,
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
    isomorphism class of free trees on n vertices."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_TREE_VERTICES:
        raise EnumerationBudgetError(
            f"tree enumeration is budgeted to {MAX_TREE_VERTICES} vertices, got {n}"
        )
    if n == 1:
        shapes = [()]
    else:
        shapes = [
            tuple(sorted(tuple(sorted(e)) for e in g.edges()))
            for g in nx.nonisomorphic_trees(n)
        ]
    if len(shapes) != _FREE_TREE_COUNTS[n - 1]:
        raise AssertionError(
            f"free-tree generator returned {len(shapes)} shapes on {n} "
            f"vertices, expected {_FREE_TREE_COUNTS[n - 1]}"
        )
    return shapes


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


def _check_grid_budget(nmax: int, wmin: int, budget: int) -> None:
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    if wmin > -1:
        raise ValueError("wmin must be <= -1")
    if nmax > MAX_TREE_VERTICES:
        raise EnumerationBudgetError(
            f"tree enumeration is budgeted to {MAX_TREE_VERTICES} vertices, got {nmax}"
        )
    total = sum(
        _FREE_TREE_COUNTS[n - 1] * abs(wmin) ** n for n in range(1, nmax + 1)
    )
    if total > budget:
        raise EnumerationBudgetError(
            f"weighted-tree grid has {total} assignments, budget {budget}"
        )


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
        scan = _grid_scan(tables, wmin)
        columns = scan.weights[:, scan.negdef]
        distinct = columns[:, _first_columns(tables, columns)].T.tolist()
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


@dataclass(frozen=True)
class CensusRecord:
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
    d: tuple[Fraction, ...]


# filters known from the forest alone run before classify
_FOREST_FILTERS = {
    "zhs": lambda f: h1_order(f) == 1,
    "minimal": is_minimal,
}

_RECORD_FILTERS = {
    "rational": lambda r: r.rational,
    "nonrational": lambda r: not r.rational,
    "lspace": lambda r: r.lspace,
    "nonlspace": lambda r: not r.lspace,
}

FILTER_NAMES = tuple(sorted({**_FOREST_FILTERS, **_RECORD_FILTERS}))


def classify(forest: PlumbingForest, budget: int = DEFAULT_BUDGET) -> CensusRecord:
    """Full invariant record for one negative-definite forest."""
    ctx = QFormContext(forest, budget=budget)
    basics = engine.basic_vectors(ctx)
    verd = engine.verdicts(ctx, basics=basics)
    dinv = engine.d_invariants(ctx, basics=basics)
    # one common denominator: sorting the numerators sorts the d-invariants;
    # conjugate classes share a value, so each distinct one is built once
    value = {q: Fraction(q, dinv.denominator) for q in set(dinv.numerators)}
    d = tuple(value[q] for q in sorted(dinv.numerators))
    return CensusRecord(
        code=forest.code,
        n=forest.n,
        weights=forest.weights,
        negdef=True,
        det=ctx.det,
        spinc=verd.spinc_count,
        basic=verd.basic_total,
        rational=verd.rational,
        lspace=verd.lspace,
        certified=verd.certified,
        minimal=is_minimal(forest),
        d=d,
    )


def record_to_obj(record: CensusRecord) -> dict:
    return {
        "code": record.code,
        "n": record.n,
        "weights": list(record.weights),
        "negdef": record.negdef,
        "det": record.det,
        "spinc": record.spinc,
        "basic": record.basic,
        "rational": record.rational,
        "lspace": "yes" if record.lspace else "no",
        "certified": record.certified,
        "minimal": record.minimal,
        "d": [[str(x.numerator), str(x.denominator)] for x in record.d],
    }


def schema_header() -> dict:
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}


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
    Filters read off the forest (zhs, minimal) drop graphs before they
    are classified. Graphs whose characteristic-vector box exceeds box_cap
    are omitted.
    threads > 1 classifies with a process pool (same records, same
    order) of at most min(threads, CPU count, graphs to classify)
    workers. threads < 1, nmax < 1 and wmin > -1 raise ValueError; a grid
    larger than budget raises EnumerationBudgetError."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_grid_budget(nmax, wmin, budget)
    for name in filters:
        if name not in FILTER_NAMES:
            raise ValueError(
                f"unknown filter {name!r}; known: {', '.join(FILTER_NAMES)}"
            )
    forest_preds = [_FOREST_FILTERS[name] for name in filters if name in _FOREST_FILTERS]
    record_preds = [_RECORD_FILTERS[name] for name in filters if name in _RECORD_FILTERS]
    forests = [
        forest
        for n in range(1, nmax + 1)
        for forest in enumerate_weighted(n, wmin, budget=budget)
        if math.prod(abs(w) for w in forest.weights) <= box_cap
        and all(p(forest) for p in forest_preds)
    ]
    workers = min(threads, os.cpu_count() or 1, len(forests))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=workers) as pool:
            classified = list(
                pool.map(partial(classify, budget=budget), forests, chunksize=16)
            )
    else:
        classified = [classify(f, budget=budget) for f in forests]
    records = [r for r in classified if all(p(r) for p in record_preds)]
    records.sort(key=lambda r: (r.code,))
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
    _check_grid_budget(nmax, wmin, budget)
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
