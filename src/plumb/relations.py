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
two descriptions coincide on every reported row.
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
    then an exact int64 filter. Returns an (N, n) int64 array."""
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
            return np.zeros((0, n), dtype=np.int64)
        idx = np.repeat(np.arange(len(ks)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        newk = np.repeat(lo_b, counts) + 2 * (np.arange(total) - np.repeat(starts, counts))
        term = df[i] * (newk + np.repeat(t, counts)) ** 2
        remaining = remaining[idx] - term
        ks = np.concatenate([newk[:, None], ks[idx]], axis=1)
    # ks columns are now coordinates 0..n-1 in order; exact filter
    adj = np.array(ctx.adjugate, dtype=np.int64)
    q = np.einsum("ij,ij->i", ks @ adj.T, ks) * sgn
    keep = q >= -rhs
    return ks[keep]


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


def _encode_scalar_keys(states, lo_arr, sizes):
    digits = (states - lo_arr) // 2
    key = digits[:, 0].astype(np.int64)
    for i in range(1, digits.shape[1]):
        key *= int(sizes[i])
        key += digits[:, i]
    return key


def _horner_shift(row, sizes):
    shift = int(row[0])
    for i in range(1, len(sizes)):
        shift = shift * int(sizes[i]) + int(row[i])
    return shift


def _row_counts_np(ctx, states, q, thresholds):
    """Connected-component counts of the induced subgraph at each
    threshold. states must be sorted by descending q.

    The row state sets are nested (thresholds only decrease), so one
    maximum spanning forest over edge activation = min endpoint q gives
    every row count at once: count(t) = #states(q >= t) - #forest edges
    with activation >= t.
    """
    n = ctx.n
    if not len(states):
        return [0] * len(thresholds)
    lo_arr = states.min(axis=0)
    sizes = (states.max(axis=0) - lo_arr) // 2 + 1
    space = math.prod(int(s) for s in sizes)
    if space >= _INT64_GUARD:
        return None  # caller counts with _row_counts_python
    keys = _encode_scalar_keys(states, lo_arr, sizes)
    if space < 2**30:  # |key + shift| stays within int32
        keys = keys.astype(np.int32)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    q_rows = np.array(ctx.q, dtype=np.int64)
    hi_arr = lo_arr + 2 * (sizes - 1)
    srcs, nks = [], []
    for v in range(n):
        # digits move only where Q[v] is nonzero; the rest stay in range
        nz = np.flatnonzero(q_rows[v])
        sub = states[:, nz] + 2 * q_rows[v][nz]
        ok = ((sub >= lo_arr[nz]) & (sub <= hi_arr[nz])).all(axis=1)
        # moving by 2*Q[v] shifts every digit by Q[v], i.e. the key by a constant
        shift = _horner_shift(q_rows[v], sizes)
        srcs.append(np.flatnonzero(ok))
        nks.append(keys[ok] + keys.dtype.type(shift))
    src = np.concatenate(srcs)
    nk = np.concatenate(nks)
    pos = np.searchsorted(sorted_keys, nk)
    pos[pos == len(sorted_keys)] = 0
    hit = sorted_keys[pos] == nk
    src = src[hit]
    dst = order[pos[hit]]
    counts = []
    if len(src):
        activation = np.minimum(q[src], q[dst])
        # minimum spanning tree on (qmax + 1 - activation) = maximum
        # spanning forest on activation; forest edge weights recover the
        # merge level of each union in the filtration
        wmax = int(q[0])
        span = wmax - int(activation.min())
        if span >= 2**52:  # keep the float edge weights exact
            return None
        graph = csr_matrix(
            ((wmax + 1.0) - activation, (src, dst)),
            shape=(len(states), len(states)),
        )
        forest = minimum_spanning_tree(graph)
        merge_acts = np.sort(wmax + 1 - np.rint(forest.data).astype(np.int64))[::-1]
    else:
        merge_acts = np.zeros(0, dtype=np.int64)
    neg_q = -q
    neg_acts = -merge_acts
    for t in thresholds:
        nstates = int(np.searchsorted(neg_q, -t, side="right"))
        merges = int(np.searchsorted(neg_acts, -t, side="right"))
        counts.append(nstates - merges)
    return counts


def _row_counts_python(ctx, states, q, thresholds):
    """Per-threshold union-find over the induced subgraph, for classes
    whose keys or edge weights _row_counts_np cannot hold exactly. states
    sorted by descending q (lists of tuples)."""
    index = {s: i for i, s in enumerate(states)}
    counts = []
    for t in thresholds:
        nstates = 0
        while nstates < len(states) and q[nstates] >= t:
            nstates += 1
        parent = list(range(nstates))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comp = nstates
        for i in range(nstates):
            s = states[i]
            for v in range(ctx.n):
                row = ctx.q[v]
                nbr = tuple(x + 2 * r for x, r in zip(s, row))
                j = index.get(nbr)
                if j is None or j >= nstates:
                    continue
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    comp -= 1
        counts.append(comp)
    return counts


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
    if ctx.n == 0:
        rows = tuple(DegreeRow(Fraction(2 * j), 1) for j in range(max_u + 1))
        return (ClassTable(CharVector(()), Fraction(0), rows, True, 0),)

    reps, q_max = _class_reps_and_qmax(ctx)
    h1 = ctx.h1
    r_global = min(q_max) - 8 * max_u * h1
    rhs = -r_global  # shell: k.A.k <= rhs, A = -sign(det) * adjugate
    lo, hi = _shell_bounds(ctx, expansion, rhs)
    _check_int64(ctx, lo, hi)

    states_arr = _np_shell_enum(ctx, rhs, lo, hi, ctx.budget)
    q_all = ctx.k_square_numerators(states_arr)
    cls = ctx.class_indices(ctx.spinc_keys(states_arr))

    tables = []
    for ci, rep in enumerate(reps):
        qm = q_max[ci]
        bottom = -(Fraction(qm, h1) + ctx.n) / 4
        thresholds = [qm - 8 * j * h1 for j in range(max_u + 1)]
        sel = cls == ci
        qs = q_all[sel]
        if len(qs) and int(qs.max()) != qm:
            raise AssertionError("class maximum of K^2 not attained in the box")
        order = np.argsort(-qs, kind="stable")
        st, qs = states_arr[sel][order], qs[order]
        counts = _row_counts_np(ctx, st, qs, thresholds)
        if counts is None:
            counts = _row_counts_python(
                ctx, [tuple(s) for s in st.tolist()], qs.tolist(), thresholds
            )
        rows = tuple(
            DegreeRow(bottom + 2 * j, c) for j, c in enumerate(counts)
        )
        if rows[0].count < 1:
            raise AssertionError("bottom row of a spin^c class is empty")
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
