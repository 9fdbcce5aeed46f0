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
graph induced on it by the single-step moves. For an almost-rational
graph, _tau_classes reads these counts off Nemethi's tau-function, a walk
over one integer per class. For any other graph, truncated_classes
enumerates the K^2 shell directly instead of sweeping the full expanded
product box; the two descriptions coincide on every reported row. A step
never leaves its spin^c class, so one minimum spanning forest over the
shell states of all classes counts every class's rows at once. Both
give integer tables, held by HFSummary; ClassTables are built on read.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import engine
from .lattice import (
    _INT64_GUARD,
    CharVector,
    EnumerationBudgetError,
    QFormContext,
    _ArrayFields,
    _char_vectors,
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


@dataclass(frozen=True, eq=False)
class HFSummary(_ArrayFields):
    """Truncated class tables of every spin^c class, held as integers.

    Class i has the representative reps[i] (QFormContext.class_reps), the
    bottom degree bottoms[i] / denominator, with denominator 4|H1| and
    bottoms[i] = -(|det| * max K^2 + |V| * |H1|) (so bottom = -d, on
    DInvariants' numerators), and the row counts counts[i, j] of the
    degrees bottom + 2j for j = 0..max_u. All three are read-only int64
    arrays; classes builds the ClassTables on first read."""

    reps: np.ndarray
    bottoms: np.ndarray
    denominator: int
    counts: np.ndarray
    max_u: int
    expansion: int

    @property
    def degrees(self) -> np.ndarray:
        """The numerators over denominator of every row's degree, bottom + 2j."""
        return self.bottoms[:, None] + 2 * self.denominator * np.arange(self.max_u + 1)

    @property
    def reduced_ranks(self) -> np.ndarray:
        """Each class's reduced rank, the sum of count - 1 over its rows."""
        return self.counts.sum(axis=1) - (self.max_u + 1)

    @property
    def converged(self) -> bool:
        return bool((self.counts[:, -1] == 1).all())

    @property
    def reduced_total(self) -> int:
        return int(self.reduced_ranks.sum())

    @cached_property
    def classes(self) -> tuple[ClassTable, ...]:
        den = self.denominator
        return tuple(
            ClassTable(
                rep=rep,
                bottom=Fraction(bottom, den),
                rows=tuple(DegreeRow(Fraction(d, den), c) for d, c in zip(degrees, counts)),
                converged=counts[-1] == 1,
                reduced_rank=reduced,
            )
            for rep, bottom, degrees, counts, reduced in zip(
                _char_vectors(self.reps),
                self.bottoms.tolist(),
                self.degrees.tolist(),
                self.counts.tolist(),
                self.reduced_ranks.tolist(),
            )
        )


def _summary(ctx, max_u, expansion, q_max, counts) -> HFSummary:
    """The HFSummary of each class's |H1| * max K^2 and row counts."""
    bottoms = -(q_max + ctx.n * ctx.h1)
    bottoms.flags.writeable = False
    counts.flags.writeable = False
    return HFSummary(ctx.class_reps, bottoms, 4 * ctx.h1, counts, max_u, expansion)


def _check_window(ctx, max_u, expansion) -> None:
    """The table window is valid and its |H1| * (max_u + 1) rows fit the
    budget; checked before any walk or shell."""
    if max_u < 0:
        raise ValueError("max_u must be nonnegative")
    if expansion < 0:
        raise ValueError("expansion must be nonnegative")
    rows = ctx.h1 * (max_u + 1)
    if rows > ctx.budget:
        raise EnumerationBudgetError(
            f"class tables: {ctx.h1} classes of {max_u + 1} rows, "
            f"{rows} rows exceed the budget of {ctx.budget}"
        )


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


def _class_qmax(ctx) -> np.ndarray:
    """Box sweep: the exact maximum of q = K^2 * |det| over the box, per
    class (in class_reps order), taken per spin^c residue and then put in
    class order. The class-wide maximum of K^2 is attained inside the
    box."""
    q_max = np.full(ctx.h1, np.iinfo(np.int64).min, dtype=np.int64)
    for _, block, residues in ctx.box_sweep():
        np.maximum.at(q_max, residues, ctx.k_square_numerators(block))
    by_class = np.empty_like(q_max)
    by_class[ctx.classes_of(np.arange(ctx.h1))] = q_max
    return by_class


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
    from scipy.sparse import csr_matrix  # scipy loads only when rows are counted
    from scipy.sparse.csgraph import minimum_spanning_tree

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
    _check_window(ctx, max_u, expansion)
    return _summary(ctx, max_u, expansion, *_shell_classes(ctx, max_u, expansion)).classes


def _shell_classes(ctx: QFormContext, max_u: int, expansion: int):
    """The tables of truncated_classes as integers: (q_max, counts),
    each class's |H1| * max K^2 and its (|H1|, max_u + 1) row counts."""
    if ctx.n == 0:
        return np.zeros(1, dtype=np.int64), np.ones((1, max_u + 1), dtype=np.int64)

    q_max = _class_qmax(ctx)
    h1 = ctx.h1
    r_global = int(q_max.min()) - 8 * max_u * h1
    rhs = -r_global  # shell: k.A.k <= rhs, A = -sign(det) * adjugate
    lo, hi = _shell_bounds(ctx, expansion, rhs)
    _check_int64(ctx, lo, hi)

    states, q = _np_shell_enum(ctx, rhs, lo, hi, ctx.budget)
    cls = ctx.class_indices(states)
    # within a class, |det| * K^2 moves in steps of 8|H1|: exact levels
    level = (q_max[cls] - q) // (8 * h1)
    del q  # not held through the row counts, which set the peak memory
    seen = np.bincount(cls, minlength=h1) > 0
    keep = level <= max_u  # deeper states belong to no row
    states, cls, level = states[keep], cls[keep], level[keep]
    at_top = np.bincount(cls[level == 0], minlength=h1) > 0
    if (level < 0).any() or (seen & ~at_top).any():
        raise AssertionError("class maximum of K^2 not attained in the box")
    if not at_top.all():
        raise AssertionError("bottom row of a spin^c class is empty")
    return q_max, _row_counts(ctx, states, cls, level, h1, max_u)


def _tau_classes(ctx: QFormContext, max_u: int, v0: int):
    """The tables of _shell_classes, (q_max, counts), with no box bound,
    for a graph that is almost-rational at vertex v0, read off Nemethi's
    tau-function (Geom. Topol. 9, 2005). v0 is not re-checked: it must
    come from engine.ar_vertex, and any such vertex gives the same tables.

    A cycle x (a rational vector) is held by its pairings p = Q x. It
    stands for K = K_can - 2 Q x, with K_can the pairings m_v + 2, and
    chi(x) = (K_can.x - x.Q.x) / 2 rises by 1 - p_v when E_v is added,
    so K^2 falls by 8 for every unit of chi. Every class is stepped at
    once, one row of an int64 (|H1|, n) array each:
    1. the representative is K_can - 2 Q l'; r_h is the fractional part
       of l' = adj(Q) (K_can - rep) / (2 det), numerators mod |det|;
    2. s_h is the Laufer closure of r_h, and k_r = K_can - 2 Q s_h;
    3. x(0) = s_h, and x(i+1) is the closure over v != v0 of x(i) + E_v0;
       tau(i) = chi(x(i)) - chi(s_h);
    4. max K^2 = k_r^2 - 8 min tau, so the bottom degree is
       -(k_r^2 - 8 min tau + n) / 4;
    5. row j counts the runs of consecutive i with tau(i) <= min tau + j.

    The walk stops by a proven rule. K(x(i))^2 = 4 w.Q.w with
    w = Q^-1 K_can / 2 - x(i), so w_v0 = c/2 - i, c = (Q^-1 k_r)_v0. The
    least of -w.Q.w with w_v0 fixed is w_v0^2 / G, G = -(Q^-1)_v0v0, so
    tau(i) >= ((i - c/2)^2 / G + k_r^2 / 4) / 2, which rises with i once
    i >= c/2. From the first such i where the bound exceeds the running
    min + max_u, no later i enters a row. In integers, with
    X = 2|H1| i - |H1| c, g = |H1| G and q = |H1| k_r^2: stop once
    X >= 0 and X^2 + g q > 8 |H1| g (min + max_u).
    """
    if max_u < 0:
        raise ValueError("max_u must be nonnegative")
    h1, n = ctx.h1, ctx.n
    sgn = 1 if ctx.det > 0 else -1
    adj = ctx._adj_np
    q = np.array(ctx.q, dtype=np.int64)
    weights = np.array(ctx.weights, dtype=np.int64)
    adjacency = engine._adjacency(ctx.neighbors)
    half = (weights + 2 - ctx.class_reps) // 2
    r = sgn * (half @ adj.T) % h1  # l' = r / |H1| + an integer vector
    p, rest = np.divmod(r @ q, h1)
    assert not rest.any(), "r_h pairs to a non-integer"
    engine._laufer_close(adjacency, weights, p)
    k_r = weights + 2 - 2 * p

    big = int(np.abs(k_r).max())
    rowsum = max(sum(abs(x) for x in row) for row in ctx.adjugate)
    if rowsum * big * big * n >= _INT64_GUARD:
        raise EnumerationBudgetError(f"tau walk: pairings up to {big} overflow int64")
    q_r = ctx.k_square_numerators(k_r)  # |H1| k_r^2 <= 0
    cn = sgn * (k_r @ adj[v0])  # |H1| c
    gn = -sgn * ctx.adjugate[v0][v0]  # |H1| G > 0
    # the last step any class can take: the rule with min tau = 0 >= min
    span = 8 * h1 * gn * max_u
    far = [math.isqrt(span - gn * x) + 1 for x in q_r.tolist()]
    last = [max(0, -(-(c + f) // (2 * h1))) for c, f in zip(cn.tolist(), far)]
    if sum(last) + h1 > ctx.budget:
        raise EnumerationBudgetError(
            f"tau walk: {sum(last) + h1} steps exceed the budget of {ctx.budget}"
        )
    # tau >= q_r / (8 |H1|), so the running min stays within gn * |q_r| below
    worst = max(max(cn.tolist(), key=abs) ** 2, (max(far) + 2 * h1) ** 2)
    if worst + 2 * gn * int(-q_r.min()) + span >= _INT64_GUARD:
        raise EnumerationBudgetError("tau walk: the stop rule overflows int64")

    # the walk as (class, tau(i - 1), tau(i)) triples; tau(-1) is +infinity
    alive = np.arange(h1)
    tau = np.zeros(h1, dtype=np.int64)
    low, c_alive, q_alive = tau.copy(), cn, q_r
    walk = [(alive, np.full(h1, np.iinfo(np.int64).max), tau.copy())]
    for i in range(1, max(last) + 1):
        x = 2 * h1 * i - c_alive
        go = (x < 0) | (x * x + gn * q_alive <= 8 * h1 * gn * (low + max_u))
        if not go.all():
            alive, p, tau, low, c_alive, q_alive = (
                a[go] for a in (alive, p, tau, low, c_alive, q_alive)
            )
            if not len(alive):
                break
        before = tau.copy()
        tau += 1 - p[:, v0]
        p += q[v0]
        tau += engine._laufer_close(adjacency, weights, p, skip=v0)
        np.minimum(low, tau, out=low)
        walk.append((alive, before, tau.copy()))

    cls, before, now = (np.concatenate(parts) for parts in zip(*walk))
    lowest = np.zeros(h1, dtype=np.int64)
    np.minimum.at(lowest, cls, now)
    # levels above max_u all read width: they lie in no row
    width = max_u + 1
    top = lowest[cls] + width
    level = np.minimum(now, top) - lowest[cls]
    prev = np.minimum(before, top) - lowest[cls]
    # a run of row j starts at i iff level(i) <= j < level(i - 1)
    starts = level < prev
    cls = cls[starts] * (width + 1)
    opened = np.bincount(cls + level[starts], minlength=h1 * (width + 1))
    closed = np.bincount(cls + prev[starts], minlength=h1 * (width + 1))
    counts = np.cumsum((opened - closed).reshape(h1, width + 1), axis=1)[:, :width]
    return q_r - 8 * h1 * lowest, counts


def hf_summary(
    ctx: QFormContext,
    max_u: int = 8,
    expansion: int | None = None,
    d_inv=None,
) -> HFSummary:
    """Truncated class tables plus totals, cross-checked against the
    d-invariants: each class's bottom degree must equal -d.

    An almost-rational graph (engine.ar_vertex finds a vertex) takes
    _tau_classes, which needs no box; any other graph takes the shell of
    truncated_classes, and only the shell is bounded by expansion. The
    |H1| * (max_u + 1) rows of the tables are charged against the budget
    first."""
    if expansion is None:
        expansion = default_expansion(ctx)
    _check_window(ctx, max_u, expansion)
    v0 = engine.ar_vertex(ctx)
    if v0 is None:
        tables = _shell_classes(ctx, max_u, expansion)
    else:
        tables = _tau_classes(ctx, max_u, v0)
    summary = _summary(ctx, max_u, expansion, *tables)
    if d_inv is None:
        d_inv = engine.d_invariants(ctx)
    wrong = np.flatnonzero(summary.bottoms + d_inv.numerators)
    if len(wrong) or not np.array_equal(summary.reps, d_inv.reps):
        i = int(wrong[0]) if len(wrong) else 0
        raise AssertionError(
            f"tower bottom {Fraction(int(summary.bottoms[i]), summary.denominator)} of "
            f"class {tuple(summary.reps[i].tolist())} does not match -d = {-d_inv.d[i]}"
        )
    return summary
