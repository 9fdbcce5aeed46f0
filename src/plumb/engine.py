"""Path sequences in the characteristic lattice and the verdicts built on
them: basic vectors, rationality, almost-rationality, L-space detection,
and exact correction terms.

The core loop starts from a box vector K and repeatedly adds twice the dual
of any vertex v with <K, v> = -m(v). The run ends either inside the
terminal bounds m(v) <= <L, v> <= -m(v) - 2 at every vertex (outcome
"basic") or with some pairing pushed above -m(v) (outcome "overflow").
The outcome, and for basic runs the final vector, do not depend on the
choice of vertex at each step; the test suite exercises that empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .forest import PlumbingForest
from .lattice import (
    _BATCH_ROWS,
    DEFAULT_BUDGET,
    BoxBatch,
    CharVector,
    QFormContext,
    _ArrayFields,
    _char_vectors,
)


class SafetyLimitError(RuntimeError):
    """A path ran longer than the safety envelope; the input was likely
    not a valid box vector of a negative-definite form."""


@dataclass(frozen=True)
class TerminationResult:
    outcome: str  # "basic" | "overflow"
    final: CharVector  # terminal vector L, or the vector that overflowed
    witness: int | None  # overflow: first vertex index with <K,v> > -m(v)
    steps: int

    @property
    def basic(self) -> bool:
        return self.outcome == "basic"


def run_path(ctx: QFormContext, k) -> TerminationResult:
    """Run the vector sequence from k until it terminates, moving at the
    lowest eligible vertex each step.

    The safety limit of 10 * box_size steps can only trip on inputs that
    violate the preconditions (k a box vector of a negative-definite form).
    """
    k = list(ctx.require_characteristic(k))
    weights = ctx.weights
    nb = ctx.neighbors
    limit = 10 * max(1, ctx.box_size)
    steps = 0
    while True:
        move = None
        for v, (x, w) in enumerate(zip(k, weights)):
            if x > -w:
                return TerminationResult("overflow", CharVector(tuple(k)), v, steps)
            if x == -w and move is None:
                move = v
        if move is None:
            return TerminationResult("basic", CharVector(tuple(k)), None, steps)
        # twice row `move` of Q: 2 m_v at the vertex, 2 at each neighbour
        k[move] += 2 * weights[move]
        for u in nb[move]:
            k[u] += 2
        steps += 1
        if steps > limit:
            raise SafetyLimitError(
                f"no termination within {limit} steps; input is likely invalid"
            )


@dataclass(frozen=True, eq=False)
class BasicSet(_ArrayFields):
    """Basic initial vectors of the box, grouped by spin^c class.

    reps holds the class representatives (QFormContext.class_reps) and
    rows the basic vectors, each as one read-only int64 array: rows is
    grouped by class and in lexicographic order inside each class, and
    counts[i] is the number of rows of class i. classes (the
    representatives) and per_class (the vectors of each class) are the
    same data as CharVectors, built on first read."""

    reps: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    overflow_count: int
    box_size: int

    @property
    def total(self) -> int:
        return len(self.rows)

    @cached_property
    def classes(self) -> tuple[CharVector, ...]:
        return _char_vectors(self.reps)

    @cached_property
    def per_class(self) -> tuple[tuple[CharVector, ...], ...]:
        vectors = _char_vectors(self.rows)
        ends = np.cumsum(self.counts).tolist()
        return tuple(vectors[start:end] for start, end in zip([0] + ends[:-1], ends))

    def for_class(self, i: int) -> tuple[CharVector, ...]:
        return self.per_class[i]


def _adjacency(neighbors) -> np.ndarray:
    """The 0/1 adjacency matrix of a forest given by its neighbour lists."""
    adj = np.zeros((len(neighbors), len(neighbors)), dtype=np.int64)
    for v, nbs in enumerate(neighbors):
        adj[v, list(nbs)] = 1
    return adj


def _times_adj(rows: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """rows @ adj, with adj one matrix or one matrix per row."""
    if adj.ndim == 2:
        return rows @ adj
    return np.matmul(rows[:, None, :], adj)[:, 0]


def _basic_rows(block: np.ndarray, weights, adj: np.ndarray) -> np.ndarray:
    """run_path on every row of a block at once: which rows end basic.

    adj is the 0/1 adjacency matrix of one graph shape (_adjacency), or
    an int8 stack of one per block row; weights is one weight sequence
    (with one adjacency matrix only), or an int64 array with one weight
    row per block row. The runner holds each row's slack k + m, k less
    its ceiling -m, and each numpy step advances every live row by one
    move under run_path's rules, read off one argmax per row: a top slack
    above 0 overflows (tested before eligibility), one below 0 is basic,
    and a top of 0 moves at the argmax, the lowest eligible vertex. The
    same 10 * box_size step limit applies; a batch takes max|m_v|^n,
    which bounds every row's box. With no vertex (n = 0) every row is
    basic."""
    w = np.asarray(weights, dtype=np.int64)
    if not block.shape[1]:
        return np.ones(len(block), dtype=bool)
    per_row = w.ndim == 2
    if per_row:
        box = int(np.abs(w).max(initial=1)) ** w.shape[1]
    else:
        box = math.prod(abs(x) for x in w.tolist())
        moves = 2 * (adj + np.diag(w))
    limit = 10 * max(1, box)
    basic = np.zeros(len(block), dtype=bool)
    live = np.arange(len(block))
    slack = block + w
    steps = 0
    while len(live):
        v = slack.argmax(axis=1)
        rows = np.arange(len(slack))
        top = slack[rows, v]
        go = top == 0
        if not go.all():
            basic[live[top < 0]] = True
            live, slack, v = live[go], slack[go], v[go]
            if not len(live):
                break
            rows = rows[:len(live)]
            if per_row:
                w = w[go]
                adj = adj[go] if adj.ndim == 3 else adj
        if per_row:
            # twice row v of each row's own Q
            slack += 2 * (adj[v] if adj.ndim == 2 else adj[rows, v])
            slack[rows, v] += 2 * w[rows, v]
        else:
            slack += moves[v]
        steps += 1
        if steps > limit:
            raise SafetyLimitError(
                f"no termination within {limit} steps; input is likely invalid"
            )
    return basic


def basic_vectors(ctx: QFormContext) -> BasicSet:
    """Classify every box vector's run and group the basic ones by class.

    One sweep of the box (QFormContext.box_sweep, the sweep of the
    context's BoxBatch, from the table of its low coordinates when the
    box is larger than a block) gives each block's vectors and spin^c
    residues: the paths run on the block (_basic_rows), the basic rows
    keep their residues, and the finished sweep settles the class table,
    so that class_reps does not sweep again. Each path steps at its
    lowest eligible vertex; the result does not depend on that choice."""
    rows, residues = [], []
    adj = _adjacency(ctx.neighbors)
    for _, block, res in ctx.box_sweep():
        basic = _basic_rows(block, ctx.weights, adj)
        rows.append(block[basic])
        residues.append(res[basic])
    reps = ctx.class_reps
    rows = np.concatenate(rows)
    classes = ctx.classes_of(np.concatenate(residues))
    counts = np.bincount(classes, minlength=len(reps))
    if not counts.all():
        empty = tuple(reps[int(np.argmin(counts))].tolist())
        raise AssertionError(f"spin^c class of {empty} has no basic vector")
    # a stable sort keeps each class's rows in lexicographic order
    grouped = rows[np.argsort(classes, kind="stable")]
    grouped.flags.writeable = False
    counts.flags.writeable = False
    return BasicSet(reps, grouped, counts, ctx.box_size - len(rows), ctx.box_size)


class RationalityDisagreementError(RuntimeError):
    """Laufer's algorithm and the canonical-class basic count disagree."""


def _laufer_close(adj, weights, pairing, skip=None, fall=False) -> np.ndarray:
    """Laufer's closure of a batch of cycles on the shape of the 0/1
    adjacency matrix adj (one for all rows, or an int8 stack of one per
    row), in place; returns the rise of chi of each row.

    Row r of pairing holds the pairings Q x of a cycle x, Q = adj plus
    the diagonal of weights (one row per cycle, or one for all). Each
    round adds E_v at once for every v with x.E_v > 0 but skip (a vertex,
    or one per row), which never steps, as if its weight were -infinity.
    On a negative-definite form the rounds end at the least cycle >= x
    pairing non-positively with every vertex but skip: a vertex pairing
    positively with x <= s has x_v < s_v for every such s, so the steps
    reach it in any order. Adding E_v raises chi by 1 - x.E_v, so adding
    a 0/1 set e raises it by the sum over e of (1 - x.E_v), less the
    edges inside e; each step pairs to at least 1, so chi never rises.
    With fall, a row stops in the round its chi falls, short of its
    closure. A round works on the rows still moving, held apart, and a
    row's pairings and rise are written back when it stops."""
    rise = np.zeros(len(pairing), dtype=np.int64)
    live = np.arange(len(pairing))
    p, w, risen, a = pairing, np.broadcast_to(weights, pairing.shape), rise, adj
    if skip is not None:
        skip = np.broadcast_to(skip, len(pairing))
    while len(live):
        e = p > 0
        if skip is not None:
            e[np.arange(len(live)), skip] = False
        go = e.any(axis=1)
        if fall:
            go &= risen == 0
        if not go.all():
            pairing[live[~go]] = p[~go]
            rise[live[~go]] = risen[~go]
            live, p, e, risen, w = live[go], p[go], e[go], risen[go], w[go]
            a = a[go] if a.ndim == 3 else a
            skip = None if skip is None else skip[go]
            if not len(live):
                break
        # 0/1 as int8: an int8 adjacency stack multiplies in int8
        e = e.view(np.int8)
        ea = _times_adj(e, a)
        risen = risen + (e * (1 - p)).sum(axis=1) - (ea * e).sum(axis=1) // 2
        # E_v pairs to m_v with itself and to 1 with each neighbour
        p = p + ea + e * w
    return rise


def _cycle_pairings(adj, weights: np.ndarray, cycle) -> np.ndarray:
    """Q Z of each row's starting cycle Z: the sum of E_v over the
    vertices of cycle (a boolean mask per row), or over every vertex."""
    z = np.ones_like(weights) if cycle is None else cycle.astype(np.int64)
    return weights * z + _times_adj(z, adj)


def laufer_rational_rows(adj, weights: np.ndarray, cycle=None) -> np.ndarray:
    """Laufer's test on a batch of negative-definite graphs, one int64
    weight row per graph, on the shape of the adjacency matrix adj (one
    for all rows, or an int8 stack of one per row): from Z = sum of E_v,
    add E_v while (Z.E_v) = 1. A step with (Z.E_v) >= 2 proves the graph
    non-rational; unit steps end at the fundamental cycle of a rational
    graph. Every step pairs to at least 1 and chi of the closure does
    not depend on their order, so the graph is rational iff the closure
    (_laufer_close) leaves chi as it was.

    The argument is per component: steps in one component leave the
    pairings of the others unchanged, and the restriction of Z to v's
    component C starts as the sum of C's vertices, with chi = 1. A step
    with (Z.E_v) >= 2 makes chi(Z|C + E_v) <= 0, so C is non-rational,
    and the canonical class's basic count, a product over components,
    is then at least 2.

    cycle (a boolean mask per row) may leave isolated vertices out of Z,
    such as the -2 vertices that pad rows of different sizes to one
    width in census.verify_classification: each pairs to 0 with Z and
    never steps, so the verdict is that of the rest of the row."""
    pairing = _cycle_pairings(adj, weights, cycle)
    return _laufer_close(adj, weights, pairing, fall=True) == 0


def _skip_closures(adj, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Laufer's test with one vertex's weight at -infinity, so that it
    never steps, for every vertex of each graph of a batch on the one
    shape of the adjacency matrix adj (one int64 weight row per graph): n
    rows per graph in one _laufer_close call. Returns (passes, top), each
    of shape (graphs, n): passes[i, v] when the run skipping v takes only
    unit steps, and top[i, v], on a passing row, v's pairing p_v with
    that run's closure."""
    graphs, n = weights.shape
    rows = np.repeat(weights, n, axis=0)
    pairing = rows + adj.sum(axis=1)
    skip = np.tile(np.arange(n), graphs)
    rise = _laufer_close(adj, rows, pairing, skip=skip, fall=True)
    top = pairing[np.arange(len(skip)), skip]
    return (rise == 0).reshape(graphs, n), top.reshape(graphs, n)


def ar_vertex(ctx: QFormContext) -> int | None:
    """The first vertex v such that the graph turns rational once v's
    weight is lowered far enough, or None if there is none (the graph is
    not almost-rational): _skip_closures of this one graph, the decider
    ar_status_rows builds on."""
    weights = np.array(ctx.weights, dtype=np.int64).reshape(1, ctx.n)
    hit = np.flatnonzero(_skip_closures(_adjacency(ctx.neighbors), weights)[0][0])
    return int(hit[0]) if len(hit) else None


def canonical_pair_rows(adj, weights: np.ndarray, cycle=None) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct basic box members of the canonical class for each of
    a batch of negative-definite graphs, one int64 weight row per graph,
    on the shape of the adjacency matrix adj (one for all rows, or an
    int8 stack of one per row): the canonical vector W + 2 and
    W + 2 - 2 Q Z, Z the fundamental cycle, which Z != 0 makes distinct.
    Returns (found, pairs): found[i] when both members of row i end
    basic, and pairs[i] the two. Such a pair shows the graph is not
    rational. On a forest the runs go per component, and a rational
    component holds one basic member of its canonical class, so a forest
    with a rational component is never certified.

    Z is the closure of the cycle of laufer_rational_rows, so a vertex
    left out of it, a padding isolated -2 vertex, pairs to 0 with Z: it
    sits at its box floor m + 2 = 0 in both members, below its ceiling
    2, and never steps, so a padded row is certified iff its graph is."""
    # Q Z: the closure of the starting cycle is Z
    pairing = _cycle_pairings(adj, weights, cycle)
    _laufer_close(adj, weights, pairing)
    pairs = np.stack([weights + 2, weights + 2 - 2 * pairing], axis=1)
    # Q Z <= 0 keeps the second member above the box's floor; a pairing
    # above its ceiling overflows at once, so only box members end basic
    block = pairs.reshape(-1, weights.shape[1])
    both = adj if adj.ndim == 2 else adj.repeat(2, axis=0)
    basic = _basic_rows(block, weights.repeat(2, axis=0), both)
    return basic.reshape(-1, 2).all(axis=1), pairs


def canonical_counts_rows(batch: BoxBatch) -> np.ndarray:
    """Basic vectors of the canonical class of each graph of a BoxBatch
    (whose set-up checked the budget and the int64 guard). Its
    canonical_blocks builds only the box members of each graph's
    canonical class, by a meet in the middle on the coset W + 2 + 2 Q.Z^n;
    they go through _basic_rows a block at a time."""
    counts = np.zeros(len(batch.weights), dtype=np.int64)
    adj = _adjacency(batch.neighbors)
    for graph, block in batch.canonical_blocks():
        basic = _basic_rows(block, batch.weights[graph], adj)
        counts += np.bincount(graph[basic], minlength=len(counts))
    return counts


def _canonical_basic_count(ctx: QFormContext) -> int:
    """canonical_counts_rows of the context's own one-graph batch."""
    return int(canonical_counts_rows(ctx._batch)[0])


def _check_count(count: int, laufer: bool) -> None:
    """The canonical class's basic count must agree with Laufer's verdict:
    one basic vector iff rational."""
    if count == 0:
        raise AssertionError("canonical spin^c class has no basic vector")
    if (count == 1) != laufer:
        verdict = "rational" if laufer else "non-rational"
        held = "one basic vector" if count == 1 else "two or more basic vectors"
        raise RationalityDisagreementError(
            f"Laufer's test says {verdict}, but the canonical class holds {held}"
        )


def is_rational(ctx: QFormContext) -> bool:
    """True iff the class of the canonical vector (all pairings m(v)+2)
    holds exactly one basic vector.

    Laufer's test (laufer_rational_rows) decides. A non-rational verdict
    is certified by two basic members of the canonical class
    (canonical_pair_rows of this one graph); a rational one, or a
    non-rational one the pair cannot certify (a forest with a rational
    component), by the basic count of the whole canonical class
    (canonical_counts_rows, which builds only that class's box members).
    A count that contradicts Laufer raises RationalityDisagreementError.
    Only that count builds box rows, so only it checks the box budget,
    when it builds the context's BoxBatch."""
    weights = np.array(ctx.weights, dtype=np.int64).reshape(1, ctx.n)
    adj = _adjacency(ctx.neighbors)
    laufer = bool(laufer_rational_rows(adj, weights)[0])
    if not laufer and canonical_pair_rows(adj, weights)[0][0]:
        return False
    _check_count(_canonical_basic_count(ctx), laufer)
    return laufer


@dataclass(frozen=True)
class ArStatus:
    """The least single-weight decrease that makes the graph rational
    (found), or none within bound = default_ar_bound (not found)."""

    found: bool
    vertex: str | None
    delta: int | None
    bound: int


def default_ar_bound(ctx: QFormContext) -> int:
    return ctx.n + sum(abs(w) for w in ctx.weights)


def ar_status_rows(
    neighbors, weights: np.ndarray, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """ar_status of a batch of negative-definite graphs on the one shape
    that neighbors describes, one int64 weight row per graph (n >= 1).
    Returns (vertex, delta): graph i turns rational once the weight of
    vertex[i] drops by delta[i], the least such drop in (delta, vertex)
    order, or vertex[i] = -1 (and delta[i] = 0) if no drop up to
    default_ar_bound of the graph does.

    Lowering a weight keeps a rational graph rational: lowering m_v by d
    raises chi(Z) by d Z_v (Z_v - 1) / 2 >= 0 for every cycle Z, and
    Artin's criterion asks chi(Z) >= 1 of every Z > 0. So the drops at v
    that work are all d from a least one, d_v, on. They exist iff v
    passes _skip_closures, and then d_v lies in [1, max(1, p_v)]:
    - with v's weight lowered by d, Laufer's cycle pairs with E_v to its
      pairing in the run skipping v, less d, as long as v has not
      stepped; that pairing only rises (a step at u != v adds
      E_u.E_v >= 0), up to p_v. For d >= p_v, v never steps, Laufer's
      run is the skip run, and the graph is rational iff v passes.
    - if some d works, so does every larger d'. Laufer's run at d' stays
      below the fundamental cycle Z at d, which pairs non-positively
      there too, so once d' >= m_v plus the sum of Z over v's neighbours,
      v never steps, and the skip run is that rational run.

    One bisection on [1, max(1, p_v)] then finds d_v for every passing
    (graph, v) at once, each round one laufer_rational_rows call. Every
    probe Laufer finds non-rational is certified by canonical_pair_rows,
    and is_rational checks the rest one by one. A canonical-class count
    (canonical_counts_rows, on a BoxBatch that checks the box budget)
    confirms each reported witness; a count that contradicts Laufer
    raises RationalityDisagreementError, as in is_rational."""
    graphs, n = weights.shape
    vertex = np.full(graphs, -1, dtype=np.int64)
    delta = np.zeros(graphs, dtype=np.int64)
    adj = _adjacency(neighbors)
    passes, top = _skip_closures(adj, weights)
    graph, at = np.nonzero(passes)
    lo = np.ones(len(graph), dtype=np.int64)
    hi = np.maximum(top[graph, at], 1)
    probes = [np.empty((0, n), dtype=np.int64)]  # the Laufer-non-rational ones
    while True:
        open_ = np.flatnonzero(lo < hi)
        if not len(open_):
            break
        mid = (lo[open_] + hi[open_]) // 2
        rows = weights[graph[open_]]
        rows[np.arange(len(open_)), at[open_]] -= mid
        rational = laufer_rational_rows(adj, rows)
        hi[open_[rational]] = mid[rational]
        lo[open_[~rational]] = mid[~rational] + 1
        probes.append(rows[~rational])
    nonrational = np.concatenate(probes)
    certified = np.zeros(len(nonrational), dtype=bool)
    step = _BATCH_ROWS // 2  # canonical_pair_rows runs two rows per graph
    for start in range(0, len(nonrational), step):
        certified[start:start + step] = canonical_pair_rows(
            adj, nonrational[start:start + step]
        )[0]
    if not certified.all():
        ids = tuple(f"v{i + 1}" for i in range(n))
        edges = tuple((a, b) for a, nbs in enumerate(neighbors) for b in nbs if a < b)
        for w in nonrational[~certified].tolist():
            is_rational(QFormContext(PlumbingForest(ids, tuple(w), edges), budget=budget))
    # each graph's least (delta, vertex), if within its default_ar_bound
    order = np.lexsort((at, lo, graph))
    first = order[np.unique(graph[order], return_index=True)[1]]
    first = first[lo[first] <= n + np.abs(weights[graph[first]]).sum(axis=1)]
    vertex[graph[first]] = at[first]
    delta[graph[first]] = lo[first]
    witnesses = weights[graph[first]]
    witnesses[np.arange(len(first)), at[first]] -= lo[first]
    for count in canonical_counts_rows(BoxBatch(neighbors, witnesses, budget)).tolist():
        _check_count(count, True)
    return vertex, delta


def ar_status(ctx: QFormContext) -> ArStatus:
    """The least single-weight decrease, in (delta, vertex) order with
    vertices in definition order, that makes the graph rational, if its
    delta is at most default_ar_bound: ar_status_rows of this one
    graph."""
    bound = default_ar_bound(ctx)
    if ctx.n == 0:
        # the empty graph is rational as it stands; decreasing nothing is moot
        return ArStatus(True, None, 0, bound)
    weights = np.array(ctx.weights, dtype=np.int64).reshape(1, ctx.n)
    vertex, delta = ar_status_rows(ctx.neighbors, weights, ctx.budget)
    if vertex[0] < 0:
        return ArStatus(False, None, None, bound)
    return ArStatus(True, ctx.forest.ids[int(vertex[0])], int(delta[0]), bound)


@dataclass(frozen=True)
class Verdicts:
    lspace: bool
    certified: bool  # the almost-rational hypothesis was witnessed
    rational: bool
    ar: ArStatus
    basic_total: int
    spinc_count: int


def verdicts(ctx: QFormContext, basics: BasicSet | None = None) -> Verdicts:
    """L-space / rationality / almost-rationality verdicts.

    lspace holds iff the total basic count equals the spin^c count (one
    basic vector per class); the verdict is certified when ar_status
    finds a single-weight drop that makes the graph rational (the graph
    is almost-rational), and otherwise stands at the combinatorial level
    only.
    """
    if basics is None:
        basics = basic_vectors(ctx)
    ar = ar_status(ctx)
    return Verdicts(
        lspace=basics.total == ctx.h1,
        certified=ar.found,
        # the canonical vector, the box's first row, is in class 0
        rational=int(basics.counts[0]) == 1,
        ar=ar,
        basic_total=basics.total,
        spinc_count=ctx.h1,
    )


@dataclass(frozen=True, eq=False)
class DInvariants(_ArrayFields):
    """Correction terms per spin^c class, for both orientations.

    d[i] = max over basic K in class i of (K^2 + |V|)/4; dual[i] = -d[i]
    is the value for the reversed orientation, the side the lens-space
    oracle computes. They are held exactly as integer numerators over
    one common denominator 4|H1|, numerators[i] = |det| * max K^2 +
    |V| * |H1| (a read-only int64 array), beside the class
    representatives reps (an int64 array, as in BasicSet); classes and
    the d and dual Fractions are built on first read.
    """

    reps: np.ndarray
    numerators: np.ndarray
    denominator: int

    @cached_property
    def classes(self) -> tuple[CharVector, ...]:
        return _char_vectors(self.reps)

    @cached_property
    def d(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(q, self.denominator) for q in self.numerators.tolist())

    @cached_property
    def dual(self) -> tuple[Fraction, ...]:
        return tuple(-x for x in self.d)


def d_invariants(ctx: QFormContext, basics: BasicSet | None = None) -> DInvariants:
    if basics is None:
        basics = basic_vectors(ctx)
    starts = np.cumsum(basics.counts) - basics.counts
    # max K^2 per class, as |det| * K^2; d = (K^2 + |V|) / 4
    numerators = np.maximum.reduceat(ctx.k_square_numerators(basics.rows), starts)
    numerators += ctx.n * ctx.h1
    numerators.flags.writeable = False
    return DInvariants(basics.reps, numerators, 4 * ctx.h1)


def lens_d_oracle(p: int, q: int, i: int) -> Fraction:
    """Correction term of the lens space L(p, q) with reversed orientation,
    spin^c index i, by the classical two-term recursion. Independent of
    the lattice machinery; used to calibrate d-invariant signs.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if p == 1:
        if q != 0 or i != 0:
            raise ValueError("base case takes q = 0, i = 0")
        return Fraction(0)
    if not (0 < q < p):
        raise ValueError("need 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    if not (0 <= i < p):
        raise ValueError("need 0 <= i < p")
    return (
        Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q)
        - lens_d_oracle(q, p % q, i % q)
    )


def lens_d_multiset(p: int, q: int) -> tuple[Fraction, ...]:
    """Sorted multiset of lens_d_oracle(p, q, i) over all p classes."""
    return tuple(sorted(lens_d_oracle(p, q, i) for i in range(p)))
