"""Relations between lattice states U^a (x) K: path weights, minimal
relations between basic vectors, and truncated equivalence-class tables.

States are pairs (a, K) with a >= 0. Traversing K -> K + 2*PD[v] carries
U-exponent weight n = (<K,v> + m(v))/2: the states (a, K) and (a+n, K')
are identified whenever both exponents are nonnegative. The degree
delta(U^a (x) K) = 2a - (K^2 + |V|)/4 is constant on equivalence classes,
so the class count can be tabulated degree by degree.

For a fixed spin^c class and degree row delta, the valid states are
exactly the class members with K^2 >= -4*delta - |V| (each K appears with
one forced exponent a >= 0). Row state sets therefore grow with delta,
and each row's class count is the number of connected components of the
graph induced on it by the single-step moves. This module enumerates the
K^2 shell directly instead of sweeping the full expanded product box; the
two descriptions coincide on every reported row. A step never leaves its
spin^c class, so one minimum spanning forest over the shell states of all
classes counts every class's rows at once.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .lattice import (
    _INT64_GUARD,
    CharVector,
    EnumerationBudgetError,
    QFormContext,
    _coords,
)


class NotSameClassError(ValueError):
    """The two vectors are not in the same spin^c class."""


class BoundExceededError(RuntimeError):
    """No connecting path exists inside the expanded search box."""

    def __init__(self, expansion: int):
        self.expansion = expansion
        super().__init__(
            f"no path found within the box expanded by B={expansion}; "
            "retry with a larger expansion"
        )


@dataclass(frozen=True)
class UState:
    a: int
    k: CharVector

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("U-exponent must be nonnegative")


def default_expansion(ctx: QFormContext) -> int:
    return 2 * ctx.n


def step_weight(ctx: QFormContext, k, v: int) -> int:
    """n = (<K,v> + m(v))/2 for the move K -> K + 2*PD[v]."""
    k = _coords(k)
    return (k[v] + ctx.weights[v]) // 2


def path_weight(ctx: QFormContext, k1, k2) -> int:
    """Sum of step weights along any lattice path K1 -> K2.

    Path-independent: equals (<K1,x> + x.Q.x)/2 where Q x = (k2-k1)/2.
    Raises NotSameClassError when that system has no integer solution,
    i.e. when the vectors lie in different spin^c classes.
    """
    k1 = ctx.require_characteristic(k1)
    k2 = ctx.require_characteristic(k2)
    half = [(b - a) // 2 for a, b in zip(k1, k2)]
    x = []
    for row in ctx.adjugate:
        num = sum(r * h for r, h in zip(row, half))
        if num % ctx.det:
            raise NotSameClassError("vectors lie in different spin^c classes")
        x.append(num // ctx.det)
    twice = sum(a * xi for a, xi in zip(k1, x)) + sum(xi * h for xi, h in zip(x, half))
    assert twice % 2 == 0, "path weight parity violated"
    return twice // 2


@dataclass(frozen=True)
class MinimalRelation:
    """Smallest (n, m) with U^n (x) K1 ~ U^m (x) K2; m - n = path_weight."""

    k1: CharVector
    k2: CharVector
    n: int
    m: int
    expansion: int


def minimal_relation(ctx: QFormContext, k1, k2, expansion: int | None = None) -> MinimalRelation:
    """Minimax search for the lowest merge level of two equivalent vectors.

    Over all lattice paths K1 -> K2 with pairings confined to the box
    expanded by B (m(v)+2-2B <= k_v <= -m(v)+2B), minimizes the deepest
    prefix dip of the running weight; that dip is n, and m = n + the
    (path-independent) total weight. Dijkstra on the max-dip objective.
    """
    if expansion is None:
        expansion = default_expansion(ctx)
    k1 = ctx.require_characteristic(k1)
    k2 = ctx.require_characteristic(k2)
    pw = path_weight(ctx, k1, k2)
    c1, c2 = CharVector(k1), CharVector(k2)
    if k1 == k2:
        return MinimalRelation(c1, c2, 0, 0, expansion)
    lo = [w + 2 - 2 * expansion for w in ctx.weights]
    hi = [-w + 2 * expansion for w in ctx.weights]
    if not all(a <= x <= b for a, x, b in zip(lo, k1, hi)):
        raise BoundExceededError(expansion)
    if not all(a <= x <= b for a, x, b in zip(lo, k2, hi)):
        raise BoundExceededError(expansion)
    q = ctx.q
    weights = ctx.weights
    n = ctx.n
    levels: dict[tuple[int, ...], int] = {k1: 0}
    best: dict[tuple[int, ...], int] = {k1: 0}
    heap: list[tuple[int, tuple[int, ...]]] = [(0, k1)]
    settled: set[tuple[int, ...]] = set()
    while heap:
        cost, k = heapq.heappop(heap)
        if k in settled:
            continue
        settled.add(k)
        if k == k2:
            nn = max(0, cost)
            return MinimalRelation(c1, c2, nn, nn + pw, expansion)
        if len(settled) > ctx.budget:
            raise EnumerationBudgetError(
                f"minimax search visited more than {ctx.budget} states"
            )
        level = levels[k]
        for v in range(n):
            row = q[v]
            for sign, lvl in (
                (1, level + (k[v] + weights[v]) // 2),
                (-1, level - (k[v] - weights[v]) // 2),
            ):
                nxt = tuple(x + 2 * sign * r for x, r in zip(k, row))
                if not all(a <= x <= b for a, x, b in zip(lo, nxt, hi)):
                    continue
                known = levels.get(nxt)
                if known is None:
                    levels[nxt] = lvl
                elif known != lvl:
                    raise AssertionError("path weight is not path-independent")
                c = max(cost, -lvl)
                if c < best.get(nxt, math.inf):
                    best[nxt] = c
                    heapq.heappush(heap, (c, nxt))
    raise BoundExceededError(expansion)


# --------------------------------------------------------------------------
# Truncated class tables


@dataclass(frozen=True)
class DegreeRow:
    degree: Fraction
    count: int


@dataclass(frozen=True)
class ClassTable:
    """Per-degree equivalence-class counts for one spin^c class.

    rows[j] covers degree bottom + 2j for j = 0..max_u; converged means
    the top row's count is 1 (the infinite tower alone survives).
    """

    rep: CharVector
    bottom: Fraction
    rows: tuple[DegreeRow, ...]
    converged: bool
    reduced_rank: int


@dataclass(frozen=True)
class HFSummary:
    classes: tuple[ClassTable, ...]
    max_u: int
    expansion: int
    converged: bool
    reduced_total: int


def _shell_bounds(ctx: QFormContext, expansion: int, rhs: int):
    """Per-coordinate bounds of the shell k.A.k <= rhs inside the box
    expanded by `expansion`. A = |H1| * (-Q^-1), whose inverse has diagonal
    -m_i/|H1|, so every shell state has |k_i| <= sqrt(rhs*|m_i|/|H1|)."""
    lo, hi = [], []
    for w in ctx.weights:
        e = math.isqrt(rhs * -w // ctx.h1)
        lo.append(max(w + 2 - 2 * expansion, -e))
        hi.append(min(-w + 2 * expansion, e))
    return lo, hi


def _ldl(a_rows):
    """LDL data for a positive definite Fraction/int matrix: returns
    (d, u) with f(k) = sum_i d[i] * (k_i + sum_{j>i} u[i][j] k_j)^2."""
    n = len(a_rows)
    a = [[Fraction(x) for x in row] for row in a_rows]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[i][r] * a[i][c] / d[i]
    return d, u


def _check_int64(ctx, lo, hi) -> None:
    """k.adj(Q).k stays within int64 for every k between lo and hi."""
    big = max(max(abs(a), abs(b)) for a, b in zip(lo, hi))
    wmax = max(sum(abs(x) for x in row) for row in ctx.adjugate) * big
    if wmax * big * ctx.n >= _INT64_GUARD:
        raise EnumerationBudgetError(
            f"shell enumeration: pairings up to {big} overflow int64"
        )


def _np_shell_enum(ctx, rhs, lo, hi, budget):
    """Vectorized shell enumeration: float LDL bounds widened by one step,
    then an exact int64 filter on the K^2 numerators. Returns the (N, n)
    int64 states and their ctx.k_square_numerators."""
    n = ctx.n
    sgn = 1 if ctx.det > 0 else -1
    a_rows = [[-sgn * x for x in row] for row in ctx.adjugate]
    d, u = _ldl(a_rows)
    df = np.array([float(x) for x in d])
    uf = np.array([[float(x) for x in row] for row in u])
    slack = 1e-9 * (rhs + 1) + 1e-6
    # grow partial suffixes from coordinate n-1 down to 0
    ks = np.zeros((1, 0), dtype=np.int64)  # chosen coords (i+1 .. n-1)
    remaining = np.array([float(rhs)])
    for i in range(n - 1, -1, -1):
        # ks columns hold k_{i+1} .. k_{n-1} in increasing index order
        t = ks @ uf[i, i + 1:] if ks.shape[1] else np.zeros(len(ks))
        rad = np.sqrt(np.maximum(remaining, 0.0) + slack) / math.sqrt(df[i])
        lo_b = np.ceil(-rad - t).astype(np.int64) - 1
        hi_b = np.floor(rad - t).astype(np.int64) + 1
        lo_b = np.maximum(lo_b, lo[i])
        hi_b = np.minimum(hi_b, hi[i])
        lo_b += (ctx.weights[i] - lo_b) % 2
        counts = np.maximum((hi_b - lo_b) // 2 + 1, 0)
        total = int(counts.sum())
        if total > budget:
            raise EnumerationBudgetError(
                f"shell enumeration exceeded the budget of {budget} states"
            )
        if total == 0:
            return np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=np.int64)
        idx = np.repeat(np.arange(len(ks)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        newk = np.repeat(lo_b, counts) + 2 * (np.arange(total) - np.repeat(starts, counts))
        term = df[i] * (newk + np.repeat(t, counts)) ** 2
        remaining = remaining[idx] - term
        ks = np.concatenate([newk[:, None], ks[idx]], axis=1)
    # ks columns are now coordinates 0..n-1 in order; exact filter
    q = ctx.k_square_numerators(ks)
    keep = q >= -rhs
    return ks[keep], q[keep]


def _class_reps_and_qmax(ctx):
    """Box sweep: spin^c representatives (sorted) and the exact maximum of
    q = K^2 * |det| over the box, per class. The class-wide maximum of K^2
    is attained inside the box."""
    reps = ctx.spinc_classes()
    q_max = np.full(len(reps), np.iinfo(np.int64).min, dtype=np.int64)
    for block in ctx.box_blocks():
        classes = ctx.class_indices(ctx.spinc_keys(block))
        np.maximum.at(q_max, classes, ctx.k_square_numerators(block))
    return reps, q_max.tolist()


def _row_counts(ctx, states, cls, level, nclasses, max_u):
    """Connected-component counts of every class's rows: entry [c, j]
    counts the components of the states of class c with level <= j.

    A move K -> K + 2*PD[v] never leaves a spin^c class, so one minimum
    spanning forest over all states, each edge weighted by its deeper
    endpoint's level + 1, holds a spanning forest of every row (Kruskal):
    count[c, j] = #states of c up to level j - #forest edges of c up to
    weight j + 1. states must be in _np_shell_enum's order (last
    coordinate outermost), so their mixed-radix keys already increase.
    """
    lo, hi = states.min(axis=0), states.max(axis=0)
    sizes = ((hi - lo) // 2 + 1).tolist()
    place = [math.prod(sizes[:i]) for i in range(ctx.n)]  # exact ints
    space = place[-1] * sizes[-1]
    if space >= _INT64_GUARD:
        raise EnumerationBudgetError(
            f"row counts: a key space of {space} overflows int64"
        )
    keys = (states - lo) // 2 @ np.array(place, dtype=np.int64)
    assert (np.diff(keys) > 0).all(), "shell states out of order"
    q_rows = np.array(ctx.q, dtype=np.int64)
    edges = [np.zeros((2, 0), dtype=np.int64)]
    for v, row in enumerate(ctx.q):
        # digits move only where Q[v] is nonzero; one moved out of range
        # has no state, and its key would alias another state's
        nz = np.flatnonzero(q_rows[v])
        moved = states[:, nz] + 2 * q_rows[v, nz]
        ok = np.flatnonzero(((moved >= lo[nz]) & (moved <= hi[nz])).all(axis=1))
        if len(ok):  # then every moved key lies in [0, space)
            nk = keys[ok] + sum(r * p for r, p in zip(row, place))
            pos = np.minimum(np.searchsorted(keys, nk), len(keys) - 1)
            hit = keys[pos] == nk
            edges.append(np.stack((ok[hit], pos[hit])))
    src, dst = np.concatenate(edges, axis=1)
    graph = csr_matrix(
        (np.maximum(level[src], level[dst]) + 1.0, (src, dst)),
        shape=(len(states), len(states)),
    )
    forest = minimum_spanning_tree(graph).tocoo()
    width = max_u + 1
    merge_level = forest.data.astype(np.int64) - 1
    at = np.bincount(cls * width + level, minlength=nclasses * width)
    merged = np.bincount(
        cls[forest.row] * width + merge_level, minlength=nclasses * width
    )
    return np.cumsum((at - merged).reshape(nclasses, width), axis=1)


def truncated_classes(
    ctx: QFormContext, max_u: int = 8, expansion: int | None = None
) -> tuple[ClassTable, ...]:
    """Per-degree equivalence-class counts over the window
    [bottom, bottom + 2*max_u] for every spin^c class.

    Equivalent to union-find over all states U^a (x) K with a <= max_u and
    K in the box expanded by `expansion`: within the window, a state's
    exponent is determined by its degree and is automatically <= max_u,
    so each row's states are exactly the class members above the row's
    K^2 threshold.
    """
    if expansion is None:
        expansion = default_expansion(ctx)
    if max_u < 0:
        raise ValueError("max_u must be nonnegative")
    if expansion < 0:
        raise ValueError("expansion must be nonnegative")
    if ctx.n == 0:
        rows = tuple(DegreeRow(Fraction(2 * j), 1) for j in range(max_u + 1))
        return (ClassTable(CharVector(()), Fraction(0), rows, True, 0),)

    reps, q_max = _class_reps_and_qmax(ctx)
    h1 = ctx.h1
    r_global = min(q_max) - 8 * max_u * h1
    rhs = -r_global  # shell: k.A.k <= rhs, A = -sign(det) * adjugate
    lo, hi = _shell_bounds(ctx, expansion, rhs)
    _check_int64(ctx, lo, hi)

    states, q = _np_shell_enum(ctx, rhs, lo, hi, ctx.budget)
    cls = ctx.class_indices(ctx.spinc_keys(states))
    # within a class, |det| * K^2 moves in steps of 8|H1|: exact levels
    level = (np.array(q_max)[cls] - q) // (8 * h1)
    del q  # not held through the row counts, which set the peak memory
    seen = np.bincount(cls, minlength=len(reps)) > 0
    keep = level <= max_u  # deeper states belong to no row
    states, cls, level = states[keep], cls[keep], level[keep]
    at_top = np.bincount(cls[level == 0], minlength=len(reps)) > 0
    if (level < 0).any() or (seen & ~at_top).any():
        raise AssertionError("class maximum of K^2 not attained in the box")
    if not at_top.all():
        raise AssertionError("bottom row of a spin^c class is empty")
    counts = _row_counts(ctx, states, cls, level, len(reps), max_u).tolist()

    tables = []
    for rep, qm, row_counts in zip(reps, q_max, counts):
        bottom = -(Fraction(qm, h1) + ctx.n) / 4
        rows = tuple(
            DegreeRow(bottom + 2 * j, c) for j, c in enumerate(row_counts)
        )
        tables.append(
            ClassTable(
                rep=rep,
                bottom=bottom,
                rows=rows,
                converged=rows[-1].count == 1,
                reduced_rank=sum(r.count - 1 for r in rows),
            )
        )
    return tuple(tables)


def hf_summary(
    ctx: QFormContext,
    max_u: int = 8,
    expansion: int | None = None,
    d_inv=None,
) -> HFSummary:
    """Truncated class tables plus totals, cross-checked against the
    d-invariants: each class's bottom degree must equal -d."""
    from . import engine

    if expansion is None:
        expansion = default_expansion(ctx)
    tables = truncated_classes(ctx, max_u=max_u, expansion=expansion)
    if d_inv is None:
        d_inv = engine.d_invariants(ctx)
    for table, d, rep in zip(tables, d_inv.d, d_inv.classes):
        if table.rep != rep or table.bottom != -d:
            raise AssertionError(
                f"tower bottom {table.bottom} of class {rep} does not match -d = {-d}"
            )
    return HFSummary(
        classes=tables,
        max_u=max_u,
        expansion=expansion,
        converged=all(t.converged for t in tables),
        reduced_total=sum(t.reduced_rank for t in tables),
    )
