"""Pure-Python oracles the tests check the library against.

strategy_run_path is engine.run_path with a pluggable vertex-selection
rule: the library always moves at the lowest eligible vertex, and the
tests use this runner to check that the outcome, and a basic run's final
vector, do not depend on that choice.

char_box, in_terminal_box, k_square and spinc_key are the scalar
counterparts of the box layer's blocks, K^2 numerators and spin^c
classes: spinc_key(ctx, k), adj(Q) k mod 2|det|, is the partition the
class indices must reproduce, and same_spinc compares two keys;
labeled_tree_codes cross-checks census.enumerate_trees, and e8_scan is
the uniqueness scan one tree at a time (a forest and its scalar
determinant recursion each), which census.verify_e8_unique, running
every tree of a size at once, must agree with. weight_grid is a
shape's full census grid, before census._least_columns keeps one column
per isomorphism class. enumerate_forests lays
census.enumerate_weighted's trees side by side into every forest of a
size, for the tests that need graphs of several components.

laufer_steps is Laufer's closure one vertex at a time, in stack order,
and laufer_rational_scalar the rationality test on it; canonical_walk
lists the canonical class's box members breadth-first through those
closures. The batched closure (engine._laufer_close), which adds every
positive vertex at once, and the certificate built on it
(engine.canonical_pair_rows) must agree with them.

canonical_counts_sweep is the canonical-class count by a full sweep of
each box (BoxBatch.sweep), keeping the rows whose spin^c key is the
canonical vector's; engine.canonical_counts_rows, which builds only that
class's members, must agree with it.

adjugate is the exact adjugate by a scalar fraction-free elimination;
QFormContext.adjugate and BoxBatch.adjugates, both from the batched
lattice._adjugates, must agree with it.

classify is the census oracle: one graph's census record from its
QFormContext and the public basic_vectors, verdicts and d_invariants;
census.census_scan, which decides whole batches of graphs at once
(census._classify_task), must give the records it gives.

ar_status_loop is engine.ar_status as a loop over candidates, one
is_rational each; the batched decider (engine.ar_status_rows: a skip
closure per vertex, then a bisection on the drop) must agree.

two_node_tree is a graph that is not almost-rational, so the tests can
reach the code kept for such graphs.

class_tables builds the ClassTables of relations.truncated_classes in
Fractions, one per row, from each class's |H1| * max K^2 and row
counts; relations.HFSummary holds the same tables as integers and must
read back equal to it.

record_to_obj is a census record as a JSON object, read off its d
Fractions; each line `plumb census` writes from the integers must be
json.dumps(record_to_obj(r), sort_keys=True).
"""

import heapq
import itertools
from collections import deque
from fractions import Fraction

import numpy as np

from plumb.census import CensusRecord, enumerate_trees, enumerate_weighted
from plumb.engine import (
    ArStatus,
    SafetyLimitError,
    TerminationResult,
    _adjacency,
    _basic_rows,
    basic_vectors,
    d_invariants,
    default_ar_bound,
    is_rational,
    verdicts,
)
from plumb.forest import PlumbingForest, _forest_det_negdef, canonical_code, is_minimal
from plumb.lattice import DEFAULT_BUDGET, BoxBatch, CharVector, QFormContext
from plumb.relations import ClassTable, DegreeRow


def char_box(ctx) -> list[CharVector]:
    """All characteristic vectors K with m_v + 2 <= k_v <= -m_v, sorted."""
    return [CharVector(k) for k in ctx.iter_box()]


def in_terminal_box(ctx, k) -> bool:
    """m_v <= k_v <= -m_v - 2 for every vertex."""
    return all(w <= x <= -w - 2 for x, w in zip(k, ctx.weights))


def k_square(ctx, k) -> Fraction:
    """K^2 = k^T Q^{-1} k, exactly."""
    k = tuple(k)
    total = sum(ki * sum(r * kj for r, kj in zip(row, k)) for ki, row in zip(k, ctx.adjugate))
    return Fraction(total, ctx.det)


def adj_image(ctx, k) -> tuple[int, ...]:
    """adj(Q) . k, the integer vector det * Q^{-1} k."""
    return tuple(sum(r * kj for r, kj in zip(row, k)) for row in ctx.adjugate)


def spinc_key(ctx, k) -> tuple[int, ...]:
    """The partition oracle: adj(Q) . k mod 2|det Q|, equal for two
    characteristic vectors iff they share a spin^c class."""
    return tuple(x % (2 * ctx.h1) for x in adj_image(ctx, k))


def same_spinc(ctx, k1, k2) -> bool:
    """True iff K1 - K2 is twice an integer combination of matrix rows."""
    return spinc_key(ctx, k1) == spinc_key(ctx, k2)


def labeled_tree_codes(n, weights=None) -> set[str]:
    """Canonical codes of all labeled trees on n vertices (decoded from
    their Pruefer sequences), with a fixed weight vector applied by label
    (all -2 by default). Exponential; for small n."""
    if n == 1:
        trees = [()]
    elif n == 2:
        trees = [((0, 1),)]
    else:
        trees = [_decode_tree_sequence(seq, n) for seq in itertools.product(range(n), repeat=n - 2)]
    w = tuple(weights) if weights is not None else (-2,) * n
    ids = tuple(f"v{i + 1}" for i in range(n))
    return {canonical_code(PlumbingForest(ids, w, edges)) for edges in trees}


def e8_scan(nmax: int) -> tuple[int, int, tuple[str, ...]]:
    """(trees scanned, negative definite, sorted codes of the unimodular
    ones) over the all-(-2) trees with at most nmax vertices, one forest
    per tree."""
    scanned = negdef_count = 0
    hits = []
    for n in range(1, nmax + 1):
        for edges in enumerate_trees(n):
            forest = PlumbingForest(tuple(f"v{i + 1}" for i in range(n)), (-2,) * n, edges)
            det, negdef = _forest_det_negdef(forest)
            scanned += 1
            negdef_count += negdef
            if negdef and abs(det) == 1:
                hits.append(canonical_code(forest))
    return scanned, negdef_count, tuple(sorted(hits))


def weight_grid(n: int, wmin: int) -> np.ndarray:
    """Every weight column (n, C) of {wmin..-1}^n, in lexicographic
    order, vertex 0 the most significant."""
    grid = np.array(list(itertools.product(range(wmin, 0), repeat=n)), dtype=np.int64)
    return np.ascontiguousarray(grid.reshape(-1, n).T)


def enumerate_forests(nmax: int, wmin: int, budget: int = DEFAULT_BUDGET):
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

    def rec(start: int, room: int, parts: list[PlumbingForest]):
        yield build(parts)
        for i in range(start, len(trees)):
            if trees[i].n <= room:
                parts.append(trees[i])
                yield from rec(i, room - trees[i].n, parts)
                parts.pop()

    yield from rec(0, nmax, [])


def _decode_tree_sequence(seq, n) -> tuple[tuple[int, int], ...]:
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


def lowest_eligible(eligible, k):
    """The library's vertex-selection rule: smallest vertex index."""
    return eligible[0]


def random_strategy(rng):
    """A vertex-selection rule choosing uniformly among eligible vertices."""

    def pick(eligible, k):
        return rng.choice(eligible)

    return pick


def strategy_run_path(ctx, k, strategy=lowest_eligible) -> TerminationResult:
    """Run the vector sequence from k, moving at the vertex that
    strategy(eligible, k) picks, under engine.run_path's rules and step
    limit. Raises ValueError if the strategy picks an ineligible vertex."""
    k = list(ctx.require_characteristic(k))
    weights = ctx.weights
    q = ctx.q
    limit = 10 * max(1, ctx.box_size)
    steps = 0
    while True:
        witness = None
        eligible = []
        for v, (x, w) in enumerate(zip(k, weights)):
            if x > -w:
                witness = v
                break
            if x == -w:
                eligible.append(v)
        if witness is not None:
            return TerminationResult("overflow", CharVector(tuple(k)), witness, steps)
        if not eligible:
            return TerminationResult("basic", CharVector(tuple(k)), None, steps)
        v = strategy(tuple(eligible), tuple(k))
        if v not in eligible:
            raise ValueError(f"strategy chose vertex {v}, not among eligible {eligible}")
        row = q[v]
        for i in range(len(k)):
            k[i] += 2 * row[i]
        steps += 1
        if steps > limit:
            raise SafetyLimitError(
                f"no termination within {limit} steps; input is likely invalid"
            )


def add_vertex(ctx, z, pairing, v) -> None:
    """z += E_v, keeping pairing = Q z: E_v pairs to m_v with itself and
    to 1 with each neighbour."""
    z[v] += 1
    pairing[v] += ctx.weights[v]
    for u in ctx.neighbors[v]:
        pairing[u] += 1


def laufer_steps(ctx, z, pairing, skip=None):
    """Add E_v to the cycle z while some vertex v has z.E_v > 0, yielding
    that pairing before each addition.

    z and pairing (= Q z) are lists updated in place. On a negative-definite
    form the additions end, in any order, at the least cycle >= z that
    pairs non-positively with every vertex. Vertex skip, if given, never
    steps, as if its weight were -infinity; the additions then end at the
    least such cycle with the same skip coordinate, pairing non-positively
    with every other vertex."""
    nb = ctx.neighbors
    # every positive vertex is on the stack exactly once
    stack = [v for v in range(ctx.n) if pairing[v] > 0 and v != skip]
    while stack:
        v = stack.pop()
        yield pairing[v]
        add_vertex(ctx, z, pairing, v)
        if pairing[v] > 0:
            stack.append(v)
        for u in nb[v]:
            if pairing[u] == 1 and u != skip:
                stack.append(u)


def laufer_rational_scalar(ctx, skip=None) -> bool:
    """Laufer's test: from Z = sum of E_v, add E_v while (Z.E_v) = 1; a
    step with (Z.E_v) >= 2 proves the graph non-rational. With skip, the
    test is for the graph with that vertex's weight lowered to -infinity."""
    z = [1] * ctx.n
    pairing = [sum(row) for row in ctx.q]
    return all(step == 1 for step in laufer_steps(ctx, z, pairing, skip))


def canonical_walk(ctx):
    """Box members of the canonical class, breadth-first.

    The members are k = canonical_char - 2 Q z, z a cycle with z.E_v <= 0
    and -z.E_v <= |m_v| - 1 at every vertex. The walk starts at z = 0 and
    steps from z to the closure (laufer_steps) of z + E_v; a child is
    built only when the caller asks for the next member."""
    base = ctx.canonical_char().k
    room = [-w - 1 for w in ctx.weights]
    start = (0,) * ctx.n
    seen = {start}
    queue = deque([(start, start)])
    yield base
    while queue:
        z, pairing = queue.popleft()
        for v in range(ctx.n):
            cz, cp = list(z), list(pairing)
            add_vertex(ctx, cz, cp, v)
            for _ in laufer_steps(ctx, cz, cp):
                pass
            key = tuple(cz)
            if key in seen or any(-x > r for x, r in zip(cp, room)):
                continue
            seen.add(key)
            queue.append((key, tuple(cp)))
            yield tuple(b - 2 * x for b, x in zip(base, cp))


def canonical_counts_sweep(neighbors, weights):
    """engine.canonical_counts_rows by a sweep of every box row: the rows
    whose spin^c key is that of their graph's canonical vector W + 2 go
    through _basic_rows."""
    batch = BoxBatch(neighbors, weights)
    adj = _adjacency(neighbors)
    modulus = 2 * batch.h1
    canonical = batch.pairings(np.arange(len(weights)), weights + 2) % modulus[:, None]
    counts = np.zeros(len(weights), dtype=np.int64)
    for graph, block, _ in batch.sweep():
        keys = batch.pairings(graph, block) % modulus[graph, None]
        members = (keys == canonical[graph]).all(axis=1)
        graph, block = graph[members], block[members]
        basic = _basic_rows(block, weights[graph], adj)
        counts += np.bincount(graph[basic], minlength=len(counts))
    return counts


def adjugate(rows) -> tuple[tuple[int, ...], ...]:
    """Integer adjugate adj(Q) with Q @ adj(Q) = det(Q) * I.

    Fraction-free Gauss-Jordan (Montante) on [Q | I]: every update is
    integral, the left block ends as det*I and the right block as the
    adjugate. The pivots are the leading principal minors, all nonzero
    for definite forms; a zero pivot raises ValueError.
    """
    n = len(rows)
    m = [[int(rows[i][j]) for j in range(n)]
         + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv == 0:
            raise ValueError(f"leading principal minor {k + 1} is zero")
        for i in range(n):
            if i == k:
                continue
            mi, mk = m[i], m[k]
            f = mi[k]
            for j in range(2 * n):
                mi[j] = (mi[j] * piv - f * mk[j]) // prev
        prev = piv
    return tuple(tuple(m[i][n:]) for i in range(n))


def classify(forest: PlumbingForest, budget: int = DEFAULT_BUDGET) -> CensusRecord:
    """The census record of one negative-definite forest, from its
    QFormContext and the public basic_vectors, verdicts and
    d_invariants."""
    ctx = QFormContext(forest, budget=budget)
    basics = basic_vectors(ctx)
    verd = verdicts(ctx, basics=basics)
    dinv = d_invariants(ctx, basics=basics)
    # one common denominator: sorting the numerators sorts the d-invariants
    d_numerators = np.sort(np.array(dinv.numerators, dtype=np.int64))
    d_numerators.flags.writeable = False
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
        d_numerators=d_numerators,
    )


def ar_status_loop(ctx) -> ArStatus:
    """Scan delta = 1..default_ar_bound, then vertices in definition
    order, for the first single-weight decrease that is_rational
    accepts."""
    bound = default_ar_bound(ctx)
    if ctx.n == 0:
        return ArStatus(True, None, 0, bound)
    for delta in range(1, bound + 1):
        for i in range(ctx.n):
            candidate = ctx.forest.with_weight(i, ctx.weights[i] - delta)
            if is_rational(QFormContext(candidate, budget=ctx.budget)):
                return ArStatus(True, ctx.forest.ids[i], delta, bound)
    return ArStatus(False, None, None, bound)


def two_node_tree() -> PlumbingForest:
    """A -3 vertex joined to two -2 nodes, one with leaves -3, -3, -2 and
    the other with leaves -3, -2, -2: no single weight decrease makes it
    rational (|H1| = 36, box 2,592)."""
    ids = tuple(f"v{i}" for i in range(9))
    weights = (-3, -2, -2, -3, -3, -2, -3, -2, -2)
    edges = ((0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8))
    return PlumbingForest(ids, weights, edges)


def class_tables(ctx, reps, q_max, counts) -> tuple[ClassTable, ...]:
    """ClassTables from each class's representative, |H1| * max K^2 and
    row counts."""
    tables = []
    for rep, qm, row_counts in zip(reps, q_max, counts):
        bottom = -(Fraction(qm, ctx.h1) + ctx.n) / 4
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


def record_to_obj(record) -> dict:
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
