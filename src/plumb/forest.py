"""Weighted plumbing forests: parsing, validation, reduction, canonical form.

A plumbing forest is a finite acyclic graph with an integer weight on each
vertex. Vertices keep the order in which they were defined; all derived
matrices and enumerations use that order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np


class ParseError(ValueError):
    """Input rejected, with 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" (line {line}" + (f", col {column})" if column else ")") if line else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class PlumbingForest:
    """Immutable weighted forest. Edges are index pairs (i, j) with i < j."""

    ids: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.ids)
        if len(self.weights) != n:
            raise ValueError("ids and weights must have equal length")
        if len(set(self.ids)) != n:
            raise ValueError("duplicate vertex id")
        norm = []
        seen = set()
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge endpoint out of range: ({a}, {b})")
            if a == b:
                raise ValueError(f"self-loop at vertex {self.ids[a]!r}")
            a, b = min(a, b), max(a, b)
            if (a, b) in seen:
                raise ValueError(f"repeated edge {self.ids[a]!r} -- {self.ids[b]!r}")
            seen.add((a, b))
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError(f"cycle closed by edge {self.ids[a]!r} -- {self.ids[b]!r}")
            parent[ra] = rb
            norm.append((a, b))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def code(self) -> str:
        """canonical_code(self), computed once per forest."""
        return canonical_code(self)

    @cached_property
    def _tables(self) -> _ShapeTables:
        return _shape_tables(self.edges, self.n)

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return self._tables.neighbors

    def degrees(self) -> tuple[int, ...]:
        return self._tables.degrees

    def index_of(self, vertex_id) -> int:
        try:
            return self.ids.index(str(vertex_id))
        except ValueError:
            raise KeyError(f"no vertex with id {vertex_id!r}") from None

    def with_weight(self, index: int, weight: int) -> "PlumbingForest":
        w = list(self.weights)
        w[index] = weight
        return PlumbingForest(self.ids, tuple(w), self.edges)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex index sets of connected components, in first-seen order."""
        return self._tables.components


def parse_forest(text: str) -> PlumbingForest:
    """Parse the line-oriented graph format.

    Directives, one per line ('#' starts a comment):

        vertex <id> <weight>
        edge <id> <id>
        chain <weight> <weight> ...

    A chain line defines a path of fresh vertices auto-named c1, c2, ...
    (numbering continues across multiple chain lines). Edges may reference
    vertices defined later in the file.
    """
    ids: list[str] = []
    weights: list[int] = []
    pending_edges: list[tuple[str, str, int, int]] = []
    chain_counter = 0

    def column_of(line, token_index):
        # 1-based column of the token's first character
        pos = 0
        for i, tok in enumerate(line.split()):
            pos = line.index(tok, pos)
            if i == token_index:
                return pos + 1
            pos += len(tok)
        return 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "vertex":
            if len(tokens) != 3:
                raise ParseError("vertex takes an id and a weight", lineno, 1)
            vid = tokens[1]
            try:
                w = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad weight {tokens[2]!r}", lineno, column_of(line, 2))
            if vid in ids:
                raise ParseError(f"duplicate vertex id {vid!r}", lineno, column_of(line, 1))
            ids.append(vid)
            weights.append(w)
        elif head == "edge":
            if len(tokens) != 3:
                raise ParseError("edge takes two vertex ids", lineno, 1)
            pending_edges.append((tokens[1], tokens[2], lineno, column_of(line, 1)))
        elif head == "chain":
            if len(tokens) < 2:
                raise ParseError("chain needs at least one weight", lineno, 1)
            prev = None
            for j, tok in enumerate(tokens[1:], start=1):
                try:
                    w = int(tok)
                except ValueError:
                    raise ParseError(f"bad weight {tok!r}", lineno, column_of(line, j))
                chain_counter += 1
                vid = f"c{chain_counter}"
                if vid in ids:
                    raise ParseError(f"duplicate vertex id {vid!r}", lineno, 1)
                ids.append(vid)
                weights.append(w)
                if prev is not None:
                    pending_edges.append((prev, vid, lineno, 1))
                prev = vid
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)

    index = {vid: i for i, vid in enumerate(ids)}
    edges = []
    for a, b, lineno, col in pending_edges:
        if a not in index:
            raise ParseError(f"unknown endpoint {a!r}", lineno, col)
        if b not in index:
            raise ParseError(f"unknown endpoint {b!r}", lineno, col)
        edges.append((index[a], index[b]))
    try:
        return PlumbingForest(tuple(ids), tuple(weights), tuple(edges))
    except ValueError as e:
        raise ParseError(str(e)) from None


def parse_forest_json(data) -> PlumbingForest:
    """Parse the JSON mirror: {"vertices": [{"id", "weight"}], "edges": [[a, b]]}."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e.msg}", e.lineno, e.colno) from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    ids, weights = [], []
    for v in data.get("vertices", []):
        if not isinstance(v, dict) or "id" not in v or "weight" not in v:
            raise ParseError("each vertex needs an id and a weight")
        ids.append(str(v["id"]))
        if not isinstance(v["weight"], int) or isinstance(v["weight"], bool):
            raise ParseError(f"bad weight for vertex {v['id']!r}")
        weights.append(v["weight"])
    index = {vid: i for i, vid in enumerate(ids)}
    if len(index) != len(ids):
        raise ParseError("duplicate vertex id")
    edges = []
    for e in data.get("edges", []):
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ParseError(f"bad edge {e!r}")
        a, b = str(e[0]), str(e[1])
        if a not in index:
            raise ParseError(f"unknown endpoint {a!r}")
        if b not in index:
            raise ParseError(f"unknown endpoint {b!r}")
        edges.append((index[a], index[b]))
    try:
        return PlumbingForest(tuple(ids), tuple(weights), tuple(edges))
    except ValueError as e:
        raise ParseError(str(e)) from None


def forest_to_text(forest: PlumbingForest) -> str:
    """Serialize back to the line format (vertex lines, then edge lines)."""
    lines = [f"vertex {vid} {w}" for vid, w in zip(forest.ids, forest.weights)]
    lines += [f"edge {forest.ids[a]} {forest.ids[b]}" for a, b in forest.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def forest_to_json_obj(forest: PlumbingForest) -> dict:
    return {
        "vertices": [{"id": vid, "weight": w} for vid, w in zip(forest.ids, forest.weights)],
        "edges": [[forest.ids[a], forest.ids[b]] for a, b in forest.edges],
    }


def intersection_matrix(forest: PlumbingForest) -> tuple[tuple[int, ...], ...]:
    """Symmetric matrix with weights on the diagonal and 1 per edge."""
    n = forest.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = forest.weights[i]
    for a, b in forest.edges:
        rows[a][b] = rows[b][a] = 1
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class _ShapeTables:
    """A forest shape rooted at the least vertex of each component: the
    one traversal behind a forest's neighbours, components, determinant
    and canonical code. parent is -1 at a root, and postorder visits
    every vertex after its children."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    postorder: tuple[int, ...]
    degrees: tuple[int, ...]

    @cached_property
    def centers(self) -> tuple[tuple[int, ...], ...]:
        """The one or two centers of each component."""
        return tuple(_tree_centers(comp, self.neighbors) for comp in self.components)


def _shape_tables(edges: Sequence[tuple[int, int]], n: int) -> _ShapeTables:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    nb = tuple(tuple(sorted(x)) for x in adj)
    parent = [-1] * n
    seen = [False] * n
    order, components = [], []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:
            for u in nb[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    queue.append(u)
        order += queue
        components.append(tuple(sorted(queue)))
    return _ShapeTables(
        n=n,
        neighbors=nb,
        components=tuple(components),
        parent=tuple(parent),
        postorder=tuple(reversed(order)),
        degrees=tuple(len(x) for x in nb),
    )


def _det_negdef(parent, weights: np.ndarray, order=None):
    """det Q and whether Q is negative definite, for each column of the
    weights (n, C) of C forests on n vertices: int64 columns, or exact
    ints (an object array). parent (-1 at a root) is one sequence for
    all columns, or one row per column (C, n); order visits every vertex
    after its children, by default n - 1 down to 0, which does when each
    vertex's parent comes before it.

    One recursion, children first, runs on -Q. It gives each rooted
    subtree's determinant d_v = -m_v A_v - B_v (Laplace along v's row),
    where A_v is the product of the children's d_c and B_v the sum over
    children c of A_c times the other children's d; B is kept negated,
    as beta = -B. Folding v into its parent p sets A_p <- A_p d_v and
    B_p <- B_p d_v + A_v A_p; the roots fold into a sink, row n, whose A
    ends as det(-Q) = (-1)^n det Q, the product of the roots' d. In the
    children-first order every prefix of the vertices is a disjoint
    union of whole rooted subtrees, and adding v to it multiplies its
    leading minor by d_v over the product of v's children's d, so
    Sylvester's criterion reads: Q is negative definite iff every d_v
    is positive. The empty forest is definite, with det 1."""
    n, cols = weights.shape
    a = np.ones((n + 1, cols), dtype=weights.dtype)
    beta = np.zeros((n + 1, cols), dtype=weights.dtype)
    negdef = np.ones(cols, dtype=bool)
    per_column = np.ndim(parent) == 2
    every = np.arange(cols)
    for v in range(n - 1, -1, -1) if order is None else order:
        d = weights[v] * a[v]
        np.subtract(beta[v], d, out=d)
        negdef &= d > 0
        if per_column:
            up = parent[:, v], every
            top = a[up]
            beta[up] = beta[up] * d - a[v] * top
            a[up] = top * d
        else:
            # rows of one parent: update them in place
            p = parent[v]
            beta[p] *= d
            beta[p] -= a[v] * a[p]
            a[p] *= d
    # a new array, which does not hold the others alive
    return (-1) ** n * a[n], negdef


def _forest_det_negdef(forest: PlumbingForest) -> tuple[int, bool]:
    """(det Q, Q negative definite) of a forest, from one recursion in
    exact ints."""
    tables = forest._tables
    weights = np.array(forest.weights, dtype=object).reshape(-1, 1)
    det, negdef = _det_negdef(tables.parent, weights, tables.postorder)
    return int(det[0]), bool(negdef[0])


def is_negative_definite(forest: PlumbingForest) -> bool:
    """True iff the intersection form is negative definite."""
    return _forest_det_negdef(forest)[1]


def h1_order(forest: PlumbingForest) -> int:
    """|det Q|; the order of H_1 of the boundary when Q is nondegenerate, else 0."""
    return abs(_forest_det_negdef(forest)[0])


@dataclass(frozen=True)
class BlowDown:
    """One reduction move: removing a weight -1 vertex of degree <= 2.

    neighbor ids are listed in vertex order; each named neighbor had its
    weight increased by 1, and for degree 2 the two neighbors were joined.
    """

    vertex: str
    neighbors: tuple[str, ...]


@dataclass(frozen=True)
class ReductionTrace:
    moves: tuple[BlowDown, ...] = field(default_factory=tuple)

    def __len__(self):
        return len(self.moves)


def _first_blowdown(ids, weights, adj):
    for i, vid in enumerate(ids):
        if weights[i] == -1 and len(adj[vid]) <= 2:
            return i
    return None


def _mutable_graph(forest):
    ids = list(forest.ids)
    weights = list(forest.weights)
    adj = {vid: set() for vid in ids}
    for a, b in forest.edges:
        adj[ids[a]].add(ids[b])
        adj[ids[b]].add(ids[a])
    return ids, weights, adj


def _freeze_graph(ids, weights, adj):
    index = {vid: i for i, vid in enumerate(ids)}
    edges = sorted(
        (index[a], index[b])
        for a in ids for b in adj[a] if index[a] < index[b]
    )
    return PlumbingForest(tuple(ids), tuple(weights), tuple(edges))


def apply_blowdown(ids, weights, adj, i):
    """Remove vertex i in place and return the recorded move."""
    vid = ids[i]
    nbs = sorted(adj[vid], key=ids.index)
    for nb in nbs:
        weights[ids.index(nb)] += 1
        adj[nb].discard(vid)
    if len(nbs) == 2:
        a, b = nbs
        adj[a].add(b)
        adj[b].add(a)
    del weights[i]
    del ids[i]
    del adj[vid]
    return BlowDown(vid, tuple(nbs))


def reduce_forest(forest: PlumbingForest) -> tuple[PlumbingForest, ReductionTrace]:
    """Blow down weight -1 vertices of degree <= 2 until none remain.

    Deletion bumps each neighbor's weight by 1; a degree-2 deletion joins the
    two neighbors by an edge. The result presents the same 3-manifold.
    Returns the reduced forest and a replayable trace of the moves applied
    (first eligible vertex in definition order, repeated to a fixed point).
    """
    ids, weights, adj = _mutable_graph(forest)
    moves = []
    while True:
        i = _first_blowdown(ids, weights, adj)
        if i is None:
            break
        moves.append(apply_blowdown(ids, weights, adj, i))
    return _freeze_graph(ids, weights, adj), ReductionTrace(tuple(moves))


def replay_trace(forest: PlumbingForest, trace: ReductionTrace) -> PlumbingForest:
    """Re-apply a recorded trace to `forest`, validating each move."""
    ids, weights, adj = _mutable_graph(forest)
    for move in trace.moves:
        if move.vertex not in adj:
            raise ValueError(f"trace names missing vertex {move.vertex!r}")
        i = ids.index(move.vertex)
        if weights[i] != -1 or len(adj[move.vertex]) > 2:
            raise ValueError(f"vertex {move.vertex!r} is not blow-downable here")
        if tuple(sorted(adj[move.vertex], key=ids.index)) != move.neighbors:
            raise ValueError(f"trace neighbors do not match at {move.vertex!r}")
        apply_blowdown(ids, weights, adj, i)
    return _freeze_graph(ids, weights, adj)


def is_minimal(forest: PlumbingForest) -> bool:
    """True iff no weight -1 vertex of degree <= 2 exists (reduce is a no-op)."""
    deg = forest.degrees()
    return all(not (w == -1 and deg[i] <= 2) for i, w in enumerate(forest.weights))


def _rooted_code(root, parent, nb, weights):
    children = sorted(
        _rooted_code(c, root, nb, weights) for c in nb[root] if c != parent
    )
    return f"({weights[root]};{''.join(children)})"


def _tree_centers(comp, nb):
    # strip one component's leaves layer by layer; each layer is the leaf
    # set of what remains, so the last one holds the 1 or 2 centers
    deg = {v: len(nb[v]) for v in comp}
    layer = [v for v in comp if deg[v] <= 1]
    left = len(comp)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in nb[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def _shape_code(tables: _ShapeTables, weights: Sequence[int]) -> str:
    """canonical_code of the forest with this shape and these weights."""
    nb = tables.neighbors
    codes = sorted(
        min(_rooted_code(c, -1, nb, weights) for c in centers)
        for centers in tables.centers
    )
    return "[" + "|".join(codes) + "]"


def canonical_code(forest: PlumbingForest) -> str:
    """Canonical string for the weighted forest up to isomorphism.

    Each component is rooted at its center (both choices tried for
    bicentral trees) and encoded by recursively sorted subtree codes with
    weights as labels; component codes are sorted and joined.
    """
    return _shape_code(forest._tables, forest.weights)
