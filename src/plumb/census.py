"""Exhaustive scans over small negative-definite weighted trees.

Trees are enumerated one isomorphism class of shapes at a time; weight
assignments are swept as a (wmin..-1)^n grid per shape with a vectorized
subtree-determinant recursion, so definiteness, determinant and
minimality filters run before any graph object is materialized.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from . import engine
from .exact import determinant
from .forest import PlumbingForest, canonical_code, intersection_matrix, is_minimal
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


def labeled_tree_codes(n: int, weights: Sequence[int] | None = None) -> set[str]:
    """Independent cross-check generator: canonical codes of all labeled
    trees on n vertices (sequence decoding), optionally with a fixed
    weight vector applied by label. Exponential; intended for small n."""
    if n == 1:
        trees = [()]
    elif n == 2:
        trees = [((0, 1),)]
    else:
        trees = []
        for seq in itertools.product(range(n), repeat=n - 2):
            trees.append(_decode_tree_sequence(seq, n))
    w = tuple(weights) if weights is not None else (-2,) * n
    codes = set()
    for edges in trees:
        codes.add(canonical_code(_shape_forest(edges, n, w)))
    return codes


def _decode_tree_sequence(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def _shape_forest(
    edges: Sequence[tuple[int, int]], n: int, weights: Sequence[int]
) -> PlumbingForest:
    ids = tuple(f"v{i + 1}" for i in range(n))
    return PlumbingForest(ids=ids, weights=tuple(weights), edges=tuple(edges))


@dataclass(frozen=True)
class _ShapeTables:
    n: int
    edges: tuple[tuple[int, int], ...]
    children: tuple[tuple[int, ...], ...]
    postorder: tuple[int, ...]
    sizes: tuple[int, ...]
    degrees: tuple[int, ...]


def _shape_tables(edges: Sequence[tuple[int, int]], n: int) -> _ShapeTables:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * n
    order = [0]
    seen = {0}
    for v in order:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                order.append(u)
    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    sizes = [1] * n
    for v in reversed(order):
        for c in children[v]:
            sizes[v] += sizes[c]
    return _ShapeTables(
        n=n,
        edges=tuple(edges),
        children=tuple(tuple(c) for c in children),
        postorder=tuple(reversed(order)),
        sizes=tuple(sizes),
        degrees=tuple(len(a) for a in adj),
    )


def _subtree_determinants(tables: _ShapeTables, weights):
    """Determinant of every rooted subtree via the leaf-to-root
    recursion; weights may be per-vertex scalars or equal-length arrays
    (the recursion is elementwise)."""
    d = [None] * tables.n
    p = [None] * tables.n
    for v in tables.postorder:
        cs = tables.children[v]
        if not cs:
            d[v] = weights[v] * 1
            p[v] = weights[v] * 0 + 1
            continue
        pre = [weights[v] * 0 + 1]
        for c in cs:
            pre.append(pre[-1] * d[c])
        suf = [None] * (len(cs) + 1)
        suf[len(cs)] = weights[v] * 0 + 1
        for i in range(len(cs) - 1, -1, -1):
            suf[i] = suf[i + 1] * d[cs[i]]
        a = pre[len(cs)]
        b = weights[v] * 0
        for i, c in enumerate(cs):
            b = b + p[c] * pre[i] * suf[i + 1]
        d[v] = weights[v] * a - b
        p[v] = a
    return d


def _negdef_from_subtrees(tables: _ShapeTables, d):
    """Elementwise: all rooted-subtree determinants carry the alternating
    sign (-1)^size, which is the leading-principal-minor test in a
    children-first vertex order."""
    ok = None
    for v in range(tables.n):
        want_neg = tables.sizes[v] % 2 == 1
        cond = (d[v] < 0) if want_neg else (d[v] > 0)
        ok = cond if ok is None else (ok & cond)
    return ok


@dataclass(frozen=True)
class _GridScan:
    tables: _ShapeTables
    weights: np.ndarray  # (n, C) int64, one column per weight assignment
    negdef: np.ndarray  # boolean mask over combos
    det: np.ndarray  # root determinant per combo
    minimal: np.ndarray  # no -1 weight at a degree <= 2 vertex
    has_minus_one: np.ndarray
    has_le_minus_three: np.ndarray


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
    d = _subtree_determinants(tables, weights)
    minimal = np.ones(weights.shape[1], dtype=bool)
    for v in range(n):
        if tables.degrees[v] <= 2:
            minimal &= weights[v] != -1
    return _GridScan(
        tables=tables,
        weights=weights,
        negdef=_negdef_from_subtrees(tables, d),
        det=d[tables.postorder[-1]],
        minimal=minimal,
        has_minus_one=(weights == -1).any(axis=0),
        has_le_minus_three=(weights <= -3).any(axis=0),
    )


def _masked_forests(scan: _GridScan, mask: np.ndarray) -> Iterator[PlumbingForest]:
    """The forests of the grid columns selected by a boolean mask."""
    t = scan.tables
    for weights in scan.weights[:, mask].T.tolist():
        yield _shape_forest(t.edges, t.n, weights)


def _check_grid_budget(nmax: int, wmin: int, budget: int) -> None:
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
        by_code: dict[str, PlumbingForest] = {}
        for forest in _masked_forests(scan, scan.negdef):
            by_code.setdefault(canonical_code(forest), forest)
        for code in sorted(by_code):
            yield by_code[code]


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
    "zhs": lambda f: abs(determinant(intersection_matrix(f))) == 1,
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
    return CensusRecord(
        code=canonical_code(forest),
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
        d=tuple(sorted(dinv.d)),
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
    order)."""
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
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=threads) as pool:
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
            d = _subtree_determinants(tables, (-2,) * n)
            if not _negdef_from_subtrees(tables, d):
                continue
            negdef_count += 1
            if abs(d[tables.postorder[-1]]) == 1:
                hits.append(canonical_code(_shape_forest(edges, n, (-2,) * n)))
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
    """
    _check_grid_budget(nmax, wmin, budget)
    expected = e8_code()
    det1: dict[str, PlumbingForest] = {}
    det1_case2: set[str] = set()
    case3: dict[str, PlumbingForest] = {}
    for n in range(1, nmax + 1):
        for edges in enumerate_trees(n):
            tables = _shape_tables(edges, n)
            scan = _grid_scan(tables, wmin)
            has1 = scan.has_minus_one
            mask_a = scan.negdef & scan.minimal & (np.abs(scan.det) == 1)
            mask_b = mask_a & ~has1 & scan.has_le_minus_three
            mask_c = scan.negdef & scan.minimal & has1
            for forest in _masked_forests(scan, mask_a):
                det1.setdefault(canonical_code(forest), forest)
            for forest in _masked_forests(scan, mask_b):
                det1_case2.add(canonical_code(forest))
            for forest in _masked_forests(scan, mask_c):
                case3.setdefault(canonical_code(forest), forest)

    counterexamples = []
    rational_codes = []
    for code, forest in sorted(det1.items()):
        if engine.is_rational(QFormContext(forest, budget=budget)):
            rational_codes.append(code)
            if code != expected:
                counterexamples.append(
                    f"rational |det|=1 graph is not E8: {code} weights={forest.weights}"
                )
            if code in det1_case2:
                counterexamples.append(
                    f"rational graph without -1 and with a weight <= -3 has "
                    f"|det| = 1: {code} weights={forest.weights}"
                )
    for code, forest in sorted(case3.items()):
        if engine.is_rational(QFormContext(forest, budget=budget)):
            counterexamples.append(
                f"minimal graph with a -1 vertex is rational: {code} "
                f"weights={forest.weights}"
            )
    return ClassificationReport(
        ok=not counterexamples,
        nmax=nmax,
        wmin=wmin,
        unimodular_checked=len(det1),
        unimodular_rational_codes=tuple(rational_codes),
        case2_checked=len(det1_case2),
        case3_checked=len(case3),
        counterexamples=tuple(counterexamples),
    )
