"""Exhaustive scans over small negative-definite weighted trees.

Trees are enumerated one isomorphism class of shapes at a time; weight
assignments are swept as a (wmin..-1)^n grid per shape, with the
subtree-determinant recursion of forest.py run on whole columns, so
definiteness, determinant and minimality filters run before any graph
object is materialized; columns are coded from their shape's tables.
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
from .lattice import _INT64_GUARD, DEFAULT_BUDGET, EnumerationBudgetError, QFormContext

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
    tables: _ShapeTables
    weights: np.ndarray  # (n, C) int64, one column per weight assignment
    negdef: np.ndarray  # boolean mask over combos
    det: np.ndarray  # determinant per combo
    minimal: np.ndarray  # no -1 weight at a degree <= 2 vertex


def _grid_scan(tables: _ShapeTables, wmin: int) -> _GridScan:
    n = tables.n
    if (abs(wmin) + n) ** n >= _INT64_GUARD:
        raise EnumerationBudgetError(
            f"weight grid on {n} vertices with weights >= {wmin}: subtree "
            "determinants may overflow int64"
        )
    vals = np.arange(wmin, 0, dtype=np.int64)
    digits = np.indices((len(vals),) * n).reshape(n, -1)
    weights = vals[digits]
    det, negdef = _det_negdef(tables, weights)
    minimal = np.ones(weights.shape[1], dtype=bool)
    for v in range(n):
        if tables.degrees[v] <= 2:
            minimal &= weights[v] != -1
    return _GridScan(
        tables=tables,
        weights=weights,
        negdef=negdef,
        det=det,
        minimal=minimal,
    )


def _distinct_columns(scan: _GridScan, mask: np.ndarray) -> dict[str, tuple[int, ...]]:
    """The masked grid columns as weight tuples, keyed by canonical code
    (read off the shape's tables); the first column of each code is kept."""
    by_code: dict[str, tuple[int, ...]] = {}
    for weights in map(tuple, scan.weights[:, mask].T.tolist()):
        by_code.setdefault(_shape_code(scan.tables, weights), weights)
    return by_code


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
        scan = _grid_scan(_shape_tables(edges, n), wmin)
        by_code = _distinct_columns(scan, scan.negdef)
        for code in sorted(by_code):
            yield _shape_forest(edges, n, by_code[code])


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

    A graph on which Laufer's test and the canonical-class basic count
    disagree (engine.RationalityDisagreementError) is a counterexample.
    """
    _check_grid_budget(nmax, wmin, budget)
    expected = e8_code()
    # code -> (edges, first weight column); forests are built when checked
    det1: dict[str, tuple] = {}
    case3: dict[str, tuple] = {}
    for n in range(1, nmax + 1):
        for edges in enumerate_trees(n):
            scan = _grid_scan(_shape_tables(edges, n), wmin)
            mask_a = scan.negdef & scan.minimal & (np.abs(scan.det) == 1)
            mask_c = scan.negdef & scan.minimal & (scan.weights == -1).any(axis=0)
            for by_code, mask in ((det1, mask_a), (case3, mask_c)):
                for code, w in _distinct_columns(scan, mask).items():
                    by_code[code] = (edges, w)

    counterexamples = []

    def rational(code: str, edges, weights) -> bool:
        forest = _shape_forest(edges, len(weights), weights)
        try:
            return engine.is_rational(QFormContext(forest, budget=budget))
        except engine.RationalityDisagreementError as e:
            counterexamples.append(f"{e}: {code} weights={forest.weights}")
            return False

    def case2(weights) -> bool:
        # isomorphism-invariant, so read off the kept column
        return -1 not in weights and min(weights) <= -3

    rational_codes = []
    for code, (edges, w) in sorted(det1.items()):
        if rational(code, edges, w):
            rational_codes.append(code)
            if code != expected:
                counterexamples.append(
                    f"rational |det|=1 graph is not E8: {code} weights={w}"
                )
            if case2(w):
                counterexamples.append(
                    f"rational graph without -1 and with a weight <= -3 has "
                    f"|det| = 1: {code} weights={w}"
                )
    for code, (edges, w) in sorted(case3.items()):
        if rational(code, edges, w):
            counterexamples.append(
                f"minimal graph with a -1 vertex is rational: {code} "
                f"weights={w}"
            )
    return ClassificationReport(
        ok=not counterexamples,
        nmax=nmax,
        wmin=wmin,
        unimodular_checked=len(det1),
        unimodular_rational_codes=tuple(rational_codes),
        case2_checked=sum(case2(w) for _, w in det1.values()),
        case3_checked=len(case3),
        counterexamples=tuple(counterexamples),
    )
