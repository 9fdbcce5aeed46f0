"""Characteristic vectors of the intersection form and their spin^c classes.

A characteristic vector K is stored by its pairing values k_v = <K, v>
against the vertex basis, so k_v has the parity of the vertex weight m_v.
Adding twice the dual of vertex v adds twice row v of the intersection
matrix to the pairing vector. Two characteristic vectors lie in the same
spin^c class when their difference is twice an integer combination of
matrix rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import exact
from .forest import (
    PlumbingForest,
    _det_negdef,
    _forest_det_negdef,
    _shape_tables,
    intersection_matrix,
)

DEFAULT_BUDGET = 10_000_000

# numpy paths run in int64 only while their magnitudes stay below this
_INT64_GUARD = 2**62

# rows per block of the box layer (BoxBatch.sweep, canonical_blocks):
# small, so that a census holds little at once
_BATCH_ROWS = 2**12


class NotNegativeDefiniteError(ValueError):
    """The intersection form is not negative definite."""


class EnumerationBudgetError(RuntimeError):
    """An enumeration would exceed the configured state budget."""


@dataclass(frozen=True, order=True)
class CharVector:
    """A characteristic vector, by its pairings against the vertex basis."""

    k: tuple[int, ...]

    def __iter__(self):
        return iter(self.k)

    def __len__(self):
        return len(self.k)


class _ArrayFields:
    """Equality and hashing of a dataclass by its field values, numpy
    array fields compared by shape and contents."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(
            (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _coords(k) -> tuple[int, ...]:
    return tuple(k.k if isinstance(k, CharVector) else k)


def _char_vectors(rows: np.ndarray) -> tuple[CharVector, ...]:
    """One CharVector per row of an int64 array."""
    return tuple(CharVector(tuple(k)) for k in rows.tolist())


class QFormContext:
    """Cached exact data for one negative-definite forest.

    Holds the intersection matrix, its determinant and adjugate, the
    characteristic-vector box bounds, and the spin^c classification. All
    arithmetic is exact (int).
    """

    def __init__(self, forest: PlumbingForest, budget: int = DEFAULT_BUDGET):
        self.forest = forest
        self.budget = budget
        self.q = intersection_matrix(forest)
        self.det, negdef = _forest_det_negdef(forest)
        if not negdef:
            raise NotNegativeDefiniteError(
                "intersection form is not negative definite"
            )
        self.n = forest.n
        self.weights = forest.weights

    @cached_property
    def h1(self) -> int:
        return abs(self.det)

    @cached_property
    def adjugate(self):
        """adj(Q), exact: _adjugates on a batch of this one form, which runs
        in exact ints where int64 could overflow."""
        sizes = np.array([self.box_size], dtype=object)
        adj = _adjugates(_forms(self.neighbors, self._weights_np), sizes, np.ones(1, dtype=bool))
        return tuple(map(tuple, adj[0].tolist()))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return self.forest.neighbors()

    @cached_property
    def box_size(self) -> int:
        return math.prod(abs(w) for w in self.weights)

    # ------------------------------------------------------------- vectors

    def require_characteristic(self, k) -> tuple[int, ...]:
        k = _coords(k)
        if len(k) != self.n:
            raise ValueError(f"vector length {len(k)} != {self.n} vertices")
        for kv, w in zip(k, self.weights):
            if (kv - w) % 2:
                raise ValueError(f"{k} is not characteristic (parity at weight {w})")
        return k

    def canonical_char(self) -> CharVector:
        """The box vector with every coordinate at its minimum m_v + 2."""
        return CharVector(tuple(w + 2 for w in self.weights))

    def conjugate(self, k) -> CharVector:
        return CharVector(tuple(-x for x in _coords(k)))

    def add_pd(self, k, v: int, times: int = 1) -> CharVector:
        """k plus 2*times copies of the dual of vertex v (twice row v of Q)."""
        k = _coords(k)
        row = self.q[v]
        return CharVector(tuple(x + 2 * times * r for x, r in zip(k, row)))

    def in_box(self, k) -> bool:
        """m_v + 2 <= k_v <= -m_v for every vertex."""
        return all(w + 2 <= x <= -w for x, w in zip(_coords(k), self.weights))

    def check_box_budget(self) -> None:
        _check_boxes([self.box_size], self.budget)

    def iter_box(self):
        """Yield the box pairing tuples in lexicographic order."""
        self.check_box_budget()
        ranges = [range(w + 2, -w + 1, 2) for w in self.weights]
        return itertools.product(*ranges)

    # ----------------------------------------------------------- box layer

    @cached_property
    def _adj_np(self) -> np.ndarray:
        return np.array(self.adjugate, dtype=np.int64).reshape(self.n, self.n)

    @cached_property
    def _batch(self) -> BoxBatch:
        """The box layer of this form: a BoxBatch of one graph, which checks
        the budget and the int64 guard of the pairings when it is built."""
        return BoxBatch(self.neighbors, self._weights_np, self.budget)

    def box_sweep(self):
        """BoxBatch.sweep of the context's batch: the box in lexicographic
        order (iter_box's), as (graph, block, residues) blocks, graph 0 and
        the class ids the spin^c residues. Every guard is checked on the
        call, before any block is built. A sweep run to its end also
        settles the class table behind class_reps, so that class_reps never
        sweeps again."""
        self._batch._residue_map  # the residue guard, on the call
        return self._settled(self._batch.sweep())

    def _settled(self, sweep):
        """The blocks of a sweep of the batch; at its end, unless a table is
        settled, the class table from the sweep's first rows: each residue's
        first row is its class's lexicographically least box vector, and
        classes are numbered in the order of those rows (the sweep's
        rank)."""
        rank, reps = yield from sweep
        if "_table" not in self.__dict__:
            reps.flags.writeable = False
            self._table = reps, rank

    @cached_property
    def _weights_np(self) -> np.ndarray:
        return np.array(self.weights, dtype=np.int64).reshape(1, self.n)

    def k_square_numerators(self, block: np.ndarray) -> np.ndarray:
        """|det| * K^2 = sign(det) * k.adj(Q).k of every row of a block."""
        sgn = 1 if self.det > 0 else -1
        return np.einsum("ij,ij->i", block @ self._adj_np.T, block) * sgn

    @property
    def _classes(self):
        """The class table behind class_reps and class_indices(), from a
        sweep that stops once every residue has its first row, unless a
        sweep has settled it."""
        if "_table" not in self.__dict__:
            for _ in self._settled(self._batch.sweep(early=True)):
                pass
        return self._table

    @property
    def class_reps(self) -> np.ndarray:
        """spinc_classes() as one read-only int64 array, a row per class."""
        return self._classes[0]

    @cached_property
    def _spinc_classes(self) -> tuple[CharVector, ...]:
        return _char_vectors(self.class_reps)

    def spinc_classes(self) -> tuple[CharVector, ...]:
        """One representative per spin^c class: the lexicographically least
        box vector, classes sorted by that representative. The CharVectors
        are built on first read; class_reps holds the same rows."""
        return self._spinc_classes

    def classes_of(self, residues: np.ndarray) -> np.ndarray:
        """spinc_classes() index of each spin^c residue (box_sweep's)."""
        return self._classes[1][residues]

    def class_indices(self, vectors: np.ndarray) -> np.ndarray:
        """spinc_classes() index of each row of an int64 array of pairing
        vectors, read off its spin^c residue (_residues): for vectors that
        box_sweep did not give, such as shell states. Raises ValueError on
        a row that is not characteristic."""
        half = vectors - self._weights_np - 2
        if (half & 1).any():
            raise ValueError("vector is not characteristic, so its class has no box representative")
        u, d, stride = self._batch._residue_map
        return self.classes_of(_residues(half >> 1, u[0], d[0], stride[0]))

    def class_index(self, k) -> int:
        """Index of k's spin^c class in the spinc_classes() ordering."""
        k = self.require_characteristic(k)
        return int(self.class_indices(np.array(k, dtype=np.int64).reshape(1, self.n))[0])


def _digits(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The digits j of index[i] in the mixed radix |weights[i]|, most
    significant first, for every i: the box vector at position index[i]
    is weights[i] + 2 + 2j."""
    digits = np.empty((len(index), weights.shape[1]), dtype=np.int64)
    for v in range(weights.shape[1] - 1, -1, -1):
        index, digits[:, v] = np.divmod(index, -weights[:, v])
    return digits


def _residue_maps(forms: np.ndarray, adjugates: np.ndarray, h1: np.ndarray):
    """The spin^c residue map of each of a batch of negative-definite forms
    Q (graphs, n, n), given their int64 adjugates and |H1|: (u, d, stride),
    of shapes (graphs, r, n), (graphs, r) and (graphs, r), for _residues.

    The characteristic vectors m + 2 + 2j and m + 2 + 2j' share a class iff
    j - j' lies in Q.Z^n. From a Smith normal form U Q V = diag(d)
    (exact.smith_form), that holds iff U j = U j' mod d_i in each row i,
    so the rows of U with d_i != 1, each reduced mod d_i, map H1 =
    Z^n / Q.Z^n onto the product of the Z/d_i. A row a of adj(Q) whose
    entries have gcd 1 with |H1| does the same in one row, d = |H1|: it
    vanishes on Q.Z^n, as adj(Q) Q = det I, and its image is all of
    Z/|H1|. Such a row, where there is one, is the map of its graph, and
    only the other graphs (among them every graph whose H1 is not cyclic)
    take a Smith normal form. Maps of fewer rows are padded with d = 1,
    which adds 0."""
    graphs, n = adjugates.shape[:2]
    prime = np.gcd(np.gcd.reduce(adjugates, axis=2), h1[:, None]) == 1
    smith = {}
    for g in np.flatnonzero(~prime.any(axis=1)).tolist():
        d, u = exact.smith_form(forms[g].tolist())
        smith[g] = [(di, [x % di for x in ui]) for di, ui in zip(d, u) if di != 1]
    r = max([1, *map(len, smith.values())])
    u = np.zeros((graphs, r, n), dtype=np.int64)
    d = np.ones((graphs, r), dtype=np.int64)
    stride = np.zeros((graphs, r), dtype=np.int64)
    by_row = np.flatnonzero(prime.any(axis=1))
    if len(by_row):
        row = prime[by_row].argmax(axis=1)
        u[by_row, 0] = adjugates[by_row, row] % h1[by_row, None]
        d[by_row, 0] = h1[by_row]
        stride[by_row, 0] = 1
    for g, factors in smith.items():
        place = 1
        for i, (di, ui) in enumerate(factors):
            u[g, i], d[g, i], stride[g, i] = ui, di, place
            place *= di
    return u, d, stride


def _residues(j: np.ndarray, u: np.ndarray, d: np.ndarray, stride: np.ndarray) -> np.ndarray:
    """The spin^c residue sum_i (u_i.j mod d_i) * stride_i, one int64 in
    [0, |H1|), of every row j of an int64 array, for one map (u of shape
    (r, n), d and stride (r,)) or one map per row (u (rows, r, n), d and
    stride (rows, r)): see _residue_maps. Residue 0 is the canonical
    class, j = 0."""
    return np.einsum("...i,...i->...", _factor_residues(j, u, d), stride)


def _factor_residues(j: np.ndarray, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The terms u_i.j mod d_i of _residues, of shape (rows, r). Each
    product u_iv * (j_v mod d_i) is below d_i^2, so the sums stay below
    n |H1|^2, which _check_boxes bounds."""
    return np.einsum("...iv,...iv->...i", j[:, None, :] % d[..., None], u) % d


def _first_rows(first: np.ndarray, ids: np.ndarray, start: int) -> np.ndarray:
    """Lower first[id] to start + i, the position of row i of ids, for the
    first row i that holds each id: first starts at a position past every
    row, and rows come in order. Returns the rows i that hold their ids
    first."""
    at = np.arange(start, start + len(ids))
    np.minimum.at(first, ids, at)
    return np.flatnonzero(first[ids] == at)


def _key_rows(keys: np.ndarray) -> np.ndarray:
    """Each row of an int64 key array as one opaque scalar, so that rows
    sort, compare and search as units. A zero-width row (the empty
    forest) becomes one zero column."""
    if not keys.shape[1]:
        keys = np.zeros((len(keys), 1), dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    return keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _check_boxes(sizes, budget: int, weights=None, rowsums=None, h1=None) -> None:
    """Raise EnumerationBudgetError at the first box, in row order, that
    holds more vectors than the budget or that the int64 guard refuses.
    The guard needs weights (one row per box) and takes rowsums (the
    largest row sum of |adj(Q)| of each box's form) and h1 (|H1| of
    each form) where given: it refuses a size at least _INT64_GUARD, a
    rowsum * max|m_v|^2 * n or an h1^2 * n beyond it, tested by floor
    divisions, which are exact on int64 and on exact ints alike.

    The box layer runs in int64: every box vector k has |k_v| <= |m_v|,
    which bounds adj(Q).k and k.adj(Q).k, and every term of a spin^c
    residue (_residues) is below |H1|^2."""
    sizes = np.asarray(sizes)
    over = sizes > budget
    # wide: sizes or pairings past int64; deep: residues past int64
    wide = deep = np.zeros(sizes.shape, dtype=bool)
    if weights is not None:
        big = np.abs(weights).max(axis=1, initial=0)
        room = (_INT64_GUARD - 1) // max(weights.shape[1], 1)
        wide = sizes >= _INT64_GUARD
        if rowsums is not None:
            one = np.maximum(big, 1)
            wide = wide | ((big > 0) & (np.asarray(rowsums) > room // one // one))
        if h1 is not None:
            h1 = np.asarray(h1)
            deep = h1 > room // np.maximum(h1, 1)
    bad = np.flatnonzero(over | wide | deep)
    if not len(bad):
        return
    g = bad[0]
    if over[g]:
        raise EnumerationBudgetError(f"box holds {sizes[g]} vectors, budget is {budget}")
    if wide[g]:
        raise EnumerationBudgetError(
            f"box layer: {sizes[g]} vectors with pairings up to {big[g]} overflow int64"
        )
    raise EnumerationBudgetError(f"box layer: spin^c residues mod {h1[g]} overflow int64")


def _forms(neighbors, weights: np.ndarray) -> np.ndarray:
    """The intersection matrix of each weight row on the one shape that
    neighbors describes, as an int64 array of shape (graphs, n, n)."""
    graphs, n = weights.shape
    q = np.zeros((graphs, n, n), dtype=np.int64)
    for v, nbs in enumerate(neighbors):
        q[:, v, list(nbs)] = 1
    q[:, np.arange(n), np.arange(n)] = weights
    return q


def _adjugates(q: np.ndarray, sizes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """adj(Q) of each wanted negative-definite form of a batch q (graphs,
    n, n), whose boxes hold sizes vectors; the other rows are left as the
    identity's. A fraction-free Gauss-Jordan (Montante) on [Q | I], run on
    the whole batch at once: every update is integral, and the right block
    ends as the adjugate. Its pivots are the leading principal minors,
    nonzero on a definite form. Every entry it holds is, up to sign, a
    minor of Q, at most the box size in magnitude: for a definite form a
    minor is at most the geometric mean of two principal minors, and a
    principal minor at most the product of its diagonal (Hadamard). So each
    product it forms is at most the box size squared, and int64 holds
    them while the largest wanted box is below 2^31; above that the batch
    runs on exact ints (an object array)."""
    graphs, n = q.shape[:2]
    eye = np.eye(n, dtype=np.int64)
    m = np.concatenate([np.where(wanted[:, None, None], q, eye), np.broadcast_to(eye, q.shape)], axis=2)
    if int(np.max(sizes[wanted], initial=0)) ** 2 >= _INT64_GUARD:
        m = m.astype(object)
    prev = 1
    for k in range(n):
        piv = m[:, k, k, None, None]
        step = (m * piv - m[:, :, k, None] * m[:, k, None, :]) // prev
        step[:, k] = m[:, k]
        m, prev = step, piv
    return m[:, :, n:]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Where each of a run of blocks of the given sizes starts, and the
    total at the end."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _spread(offsets: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(block, position inside it) of each flat position of a run of
    blocks laid end to end at offsets."""
    block = np.searchsorted(offsets, flat, side="right") - 1
    return block, flat - offsets[block]


def _held_coordinates(weights: np.ndarray) -> np.ndarray:
    """A cut of each weight row's coordinates into a prefix and a suffix,
    where the larger of their boxes (the products of |m_v|) is smallest,
    as a mask of the smaller side."""
    logs = np.log2(-weights)
    cum = np.concatenate([np.zeros((len(logs), 1)), np.cumsum(logs, axis=1)], axis=1)
    total = cum[:, -1:]
    cut = np.argmin(np.maximum(cum, total - cum), axis=1)
    prefix = np.arange(weights.shape[1]) < cut[:, None]
    larger = 2 * np.take_along_axis(cum, cut[:, None], axis=1) > total
    return prefix ^ larger


class BoxBatch:
    """The boxes of a batch of negative-definite graphs on the one shape
    that neighbors describes, one int64 weight row per graph, laid end to
    end: graph by graph, each box in lexicographic order (iter_box's). It
    is the one box layer: it is swept in blocks of rows with the spin^c
    class id of each (sweep), or read by the members of each graph's
    canonical class alone (canonical_blocks). A QFormContext holds a
    batch of its one graph.

    The set-up runs on the whole batch in array operations: det from the
    subtree recursion (forest._det_negdef) and the adjugates from one
    fraction-free elimination (_adjugates), each in int64 where a bound
    proves int64 exact and in exact ints past it; then the budget and
    the int64 guard of the pairings for every graph, the first graph at
    fault raising (_check_boxes). A graph whose form is not negative
    definite raises NotNegativeDefiniteError."""

    def __init__(self, neighbors, weights: np.ndarray, budget: int = DEFAULT_BUDGET):
        self.neighbors = neighbors
        self.weights = weights
        self.budget = budget
        n = weights.shape[1]
        edges = [(a, b) for a, nbs in enumerate(neighbors) for b in nbs if a < b]
        tables = _shape_tables(edges, n)
        # every value of the subtree recursion is at most n + 1 times a
        # principal minor of Q, which is at most the product of
        # |m_v| + deg_v + 1 over its vertices (Hadamard)
        degrees = np.array(tables.degrees, dtype=np.int64)
        bound = np.log2(np.abs(weights) + degrees + 1).sum(axis=1) + math.log2(n + 1)
        exact_ints = weights if bound.max(initial=0) < 61 else weights.astype(object)
        sizes = np.abs(exact_ints).prod(axis=1)
        det, negdef = _det_negdef(tables.parent, exact_ints.T, tables.postorder)
        if not np.all(negdef):
            raise NotNegativeDefiniteError("intersection form is not negative definite")
        wanted = (sizes <= budget) & (sizes < _INT64_GUARD)
        adjugates = _adjugates(_forms(neighbors, weights), sizes, wanted)
        rowsums = np.abs(adjugates).sum(axis=2).max(axis=1, initial=0)
        _check_boxes(sizes, budget, weights, rowsums)
        self.adjugates = adjugates.astype(np.int64)
        # |det| <= the box size on a negative-definite form (Hadamard)
        self.det = det.astype(np.int64)
        self.h1 = np.abs(self.det)
        self.offsets = _offsets(sizes.astype(np.int64))

    def pairings(self, graph: np.ndarray, block: np.ndarray) -> np.ndarray:
        """adj(Q).k of every row k of a block, by its own graph's adjugate,
        one coordinate at a time."""
        out = np.empty_like(block)
        for j in range(block.shape[1]):
            out[:, j] = np.einsum("ij,ij->i", self.adjugates[graph, j], block)
        return out

    @cached_property
    def class_offsets(self) -> np.ndarray:
        """Where each graph's ids start among the class ids (sweep), and
        their total at the end."""
        return _offsets(self.h1)

    @cached_property
    def _residue_map(self):
        """_residue_maps of every graph, once the int64 guard of the
        residues holds for every graph (_check_boxes with |H1|)."""
        _check_boxes(np.diff(self.offsets), self.budget, self.weights, h1=self.h1)
        return _residue_maps(_forms(self.neighbors, self.weights), self.adjugates, self.h1)

    def sweep(self, early: bool = False):
        """The boxes in order, as (graph index, box vectors, class ids)
        blocks of at most _BATCH_ROWS rows (_blocks). The box vector at
        position i of a box is m + 2 + 2j, j the digits of i (_digits), and
        its class id is its graph's class offset plus j's spin^c residue
        (_residues). Graph g's classes are the ids from class_offsets[g] to
        class_offsets[g + 1], its canonical class first.

        Each class's first row is noted as the blocks go, and the sweep
        returns them, (rank, reps), once every class has its row: rank[c]
        numbers class c in the order of the first rows and reps[rank[c]]
        is its first row. That is at the end of the boxes, where each graph
        must have its |H1| classes, or with early as soon as the last class
        has its row (that block is not yielded). The residue guard holds
        before the first block (_residue_map)."""
        u, d, stride = self._residue_map
        first = np.full(self.class_offsets[-1], self.offsets[-1], dtype=np.int64)
        rank = np.full(len(first), -1, dtype=np.int64)
        reps = np.empty((len(first), self.weights.shape[1]), dtype=np.int64)
        found = 0
        for start, graph, block, ids in self._blocks(u, d, stride):
            # the first rows come in order, so each is its class's rank
            new = _first_rows(first, ids, start)
            rank[ids[new]] = np.arange(found, found + len(new))
            reps[found:found + len(new)] = block[new]
            found += len(new)
            if early and found == len(first):
                return rank, reps
            yield graph, block, ids
        if found < len(first):
            owner = np.repeat(np.arange(len(self.h1)), self.h1)
            classes = np.bincount(owner[rank >= 0], minlength=len(self.h1))
            g = np.flatnonzero(classes != self.h1)[0]
            raise AssertionError(f"found {classes[g]} spin^c classes, expected {self.h1[g]}")
        return rank, reps

    def _blocks(self, u, d, stride):
        """sweep's blocks, each with the position of its first row. Runs of
        boxes that fit a block are laid end to end and cut every _BATCH_ROWS
        rows, so a block may span graphs: each row takes its own graph's
        weights and residue map, and one _digits call gives vectors and ids.
        A larger box comes in blocks of its own, from its table
        (_table_blocks)."""
        sizes = np.diff(self.offsets)
        run = 0  # the first graph of a run of boxes that fit a block
        for g in [*np.flatnonzero(sizes > _BATCH_ROWS).tolist(), len(sizes)]:
            stop = int(self.offsets[g])
            for start in range(int(self.offsets[run]), stop, _BATCH_ROWS):
                graph, index = _spread(self.offsets, np.arange(start, min(start + _BATCH_ROWS, stop)))
                weights = self.weights[graph]
                block = _digits(weights, index)
                ids = self.class_offsets[graph] + _residues(block, u[graph], d[graph], stride[graph])
                block *= 2
                block += weights + 2
                yield start, graph, block, ids
            if g < len(sizes):
                yield from self._table_blocks(g, u[g], d[g], stride[g])
            run = g + 1

    def _table_blocks(self, g: int, u, d, stride):
        """_blocks of graph g's box, larger than a block, from a table of
        its low box: the longest suffix of its coordinates whose box, of L
        rows, fits a block. Its digits, their residue terms
        (_factor_residues) and its box vectors are built once. A block
        takes _BATCH_ROWS // L consecutive indices of the other, high,
        coordinates and runs _digits on those alone: it is the table plus
        2 j_high, and its ids are the class offset plus sum ((high_i +
        low_i) mod d_i) stride_i. The box is cut at multiples of L only."""
        w, n = self.weights[g], self.weights.shape[1]
        split = n - int(np.searchsorted(np.cumprod(-w[::-1]), _BATCH_ROWS, side="right"))
        lift = 2 * np.eye(n, dtype=np.int64)
        low = _digits(w[None, split:], np.arange(np.prod(-w[split:])))
        low_res, table = _factor_residues(low, u[:, split:], d), w + 2 + low @ lift[split:]
        high, step = int(np.prod(-w[:split])), _BATCH_ROWS // len(low)
        for at in range(0, high, step):
            j = _digits(w[None, :split], np.arange(at, min(at + step, high)))
            res = (_factor_residues(j, u[:, :split], d)[:, None] + low_res) % d
            block = (table + (j @ lift[:split])[:, None]).reshape(-1, n)
            ids = self.class_offsets[g] + (res @ stride).ravel()
            yield self.offsets[g] + at * len(low), np.full(len(block), g), block, ids

    def _coset_keys(self, graph: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(graph, adj(Q).j mod |det|) of every row j, as one opaque
        scalar per row (_key_rows)."""
        keys = self.pairings(graph, j) % self.h1[graph, None]
        return _key_rows(np.column_stack([graph, keys]))

    def canonical_blocks(self):
        """The members of each graph's canonical class in its box, as
        (graph index, box vectors) blocks of at most _BATCH_ROWS rows; no
        other box row is built.

        The box vector W + 2 + 2j (0 <= j_v < |m_v|) is in the class of
        the canonical vector W + 2 iff j is in Q.Z^n, that is iff
        adj(Q).j = 0 mod |det|. Each graph's coordinates are cut in two
        (_held_coordinates), j = h + s with h on one side and s on the
        other, and the test reads adj(Q).h = adj(Q).(-s) mod |det|: a
        meet in the middle. The held halves, at most the square root of
        each box, are built whole and sorted by (graph, key); the other
        halves are streamed _BATCH_ROWS rows at a time, each row joined to
        the held rows of its key, and the joined rows leave in blocks of
        _BATCH_ROWS."""
        held = _held_coordinates(self.weights)
        # each half as a box of its own: weight -1 (one digit, 0) off its side
        held, streamed = np.where(held, self.weights, -1), np.where(held, -1, self.weights)
        offsets = _offsets(np.prod(-held, axis=1))
        graph, index = _spread(offsets, np.arange(offsets[-1]))
        h = _digits(held[graph], index)
        keys = self._coset_keys(graph, h)
        order = np.argsort(keys, kind="stable")
        keys, h = keys[order], h[order]
        offsets = _offsets(np.prod(-streamed, axis=1))
        total = int(offsets[-1])
        for start in range(0, total, _BATCH_ROWS):
            graph, index = _spread(offsets, np.arange(start, min(start + _BATCH_ROWS, total)))
            s = _digits(streamed[graph], index)
            want = self._coset_keys(graph, -s)
            hi = np.searchsorted(keys, want, side="right")
            ends = np.cumsum(hi - np.searchsorted(keys, want, side="left"))
            for out in range(0, int(ends[-1]), _BATCH_ROWS):
                at = np.arange(out, min(out + _BATCH_ROWS, int(ends[-1])))
                row = np.searchsorted(ends, at, side="right")
                pick = hi[row] - (ends[row] - at)
                g = graph[row]
                yield g, self.weights[g] + 2 + 2 * (s[row] + h[pick])
