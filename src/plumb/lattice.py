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

# rows per block of the box layer (box_blocks)
_BLOCK = 2**16

# rows per block of a batch of boxes (BoxBatch.blocks): small, so that a
# census holds little at once
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
        return exact.adjugate(self.q)

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

    def adj_image(self, k) -> tuple[int, ...]:
        """adj(Q) . k — integer vector, det * Q^{-1} k."""
        k = _coords(k)
        return tuple(sum(r * kj for r, kj in zip(row, k)) for row in self.adjugate)

    def spinc_key(self, k) -> tuple[int, ...]:
        """Hashable spin^c invariant: adj(Q).k reduced mod 2|det Q|."""
        m = 2 * self.h1
        return tuple(x % m for x in self.adj_image(k))

    # ----------------------------------------------------------- box layer

    @cached_property
    def _adj_np(self) -> np.ndarray:
        return np.array(self.adjugate, dtype=np.int64).reshape(self.n, self.n)

    def box_blocks(self):
        """The box pairing vectors in lexicographic order (the order of
        iter_box), as int64 arrays of at most _BLOCK rows.

        The budget and the int64 guard are checked here, before the first
        block is built: every box vector k has |k_v| <= |m_v|, which bounds
        the spin^c keys adj(Q).k and k.adj(Q).k."""
        self.check_box_budget()
        rowsum = max((sum(abs(x) for x in row) for row in self.adjugate), default=0)
        weights = np.array(self.weights, dtype=object).reshape(1, self.n)
        _check_boxes([self.box_size], self.budget, weights, [rowsum])
        return self._blocks()

    def _blocks(self):
        for start in range(0, self.box_size, _BLOCK):
            yield self._box_rows(np.arange(start, min(start + _BLOCK, self.box_size)))

    def _box_rows(self, flat: np.ndarray) -> np.ndarray:
        """The box vectors at the given positions of the lexicographic order."""
        weights = np.array(self.weights, dtype=np.int64).reshape(1, self.n)
        return _box_vectors(np.broadcast_to(weights, (len(flat), self.n)), flat)

    def spinc_keys(self, block: np.ndarray) -> np.ndarray:
        """spinc_key of every row of a block, in one matmul."""
        return block @ self._adj_np.T % (2 * self.h1)

    def k_square_numerators(self, block: np.ndarray) -> np.ndarray:
        """|det| * K^2 = sign(det) * k.adj(Q).k of every row of a block."""
        sgn = 1 if self.det > 0 else -1
        return np.einsum("ij,ij->i", block @ self._adj_np.T, block) * sgn

    @cached_property
    def _classes(self):
        """The box sweep behind class_reps and class_indices():
        (representative rows, sorted key rows, class index of each sorted key).

        np.unique reports each key's first row in a block. Over the blocks'
        keys, concatenated in box order, it reports the first block that
        holds the key, so that row is the class's lexicographically least
        box vector. Classes are numbered in the order of those rows."""
        keys, firsts = [], []
        offset = 0
        for block in self.box_blocks():
            uniq, first = np.unique(_key_rows(self.spinc_keys(block)), return_index=True)
            keys.append(uniq)
            firsts.append(offset + first)
            offset += len(block)
        table, pick = np.unique(np.concatenate(keys), return_index=True)
        if len(table) != self.h1:
            raise AssertionError(
                f"found {len(table)} spin^c classes, expected {self.h1}"
            )
        first = np.concatenate(firsts)[pick]
        order = np.argsort(first)
        index = np.empty(len(first), dtype=np.int64)
        index[order] = np.arange(len(first))
        reps = self._box_rows(first[order])
        reps.flags.writeable = False
        return reps, table, index

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

    def class_indices(self, keys: np.ndarray) -> np.ndarray:
        """spinc_classes() index of each row of spin^c keys (spinc_keys).
        Raises ValueError on a key of no class."""
        _, table, index = self._classes
        rows = _key_rows(keys)
        pos = np.minimum(np.searchsorted(table, rows), len(table) - 1)
        if not (table[pos] == rows).all():
            raise ValueError("vector's class has no box representative (not characteristic?)")
        return index[pos]

    def class_index(self, k) -> int:
        """Index of k's spin^c class in the spinc_classes() ordering."""
        key = self.spinc_key(self.require_characteristic(k))
        return int(self.class_indices(np.array([key], dtype=np.int64).reshape(1, self.n))[0])


def _digits(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The digits j of index[i] in the mixed radix |weights[i]|, most
    significant first, for every i: the box vector at position index[i]
    is weights[i] + 2 + 2j."""
    digits = np.empty(weights.shape, dtype=np.int64)
    for v in range(weights.shape[1] - 1, -1, -1):
        index, digits[:, v] = np.divmod(index, -weights[:, v])
    return digits


def _box_vectors(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The box vector at position index[i] of the lexicographic order of
    the box of weight row weights[i], for every i."""
    rows = _digits(weights, index)
    rows *= 2
    rows += weights
    rows += 2
    return rows


def _key_rows(keys: np.ndarray) -> np.ndarray:
    """Each row of an int64 key array as one opaque scalar, so that rows
    sort, compare and search as units. A zero-width row (the empty
    forest) becomes one zero column."""
    if not keys.shape[1]:
        keys = np.zeros((len(keys), 1), dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    return keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _box_sizes(weights: np.ndarray) -> np.ndarray:
    """The box size, the product of |m_v|, of each weight row: in int64
    when every product is below 2^61, else as exact ints (an object
    array)."""
    radices = np.abs(weights)
    if np.log2(np.maximum(radices, 1)).sum(axis=1).max(initial=0) < 61:
        return radices.prod(axis=1)
    return radices.astype(object).prod(axis=1)


def _check_boxes(sizes, budget: int, weights=None, rowsums=None) -> None:
    """Raise EnumerationBudgetError at the first box, in row order, that
    holds more vectors than the budget or, when weights (one row per
    box) and rowsums (the largest row sum of |adj(Q)| of each box's
    form) are given, that the int64 guard refuses: size or rowsum *
    max|m_v|^2 * n at least _INT64_GUARD, tested by floor divisions,
    which are exact on int64 and on exact ints alike.

    The box layer runs in int64: every box vector k has |k_v| <= |m_v|,
    which bounds the spin^c keys adj(Q).k and k.adj(Q).k."""
    sizes = np.asarray(sizes)
    over = sizes > budget
    fault = over
    if rowsums is not None:
        big = np.abs(weights).max(axis=1, initial=0)
        one = np.maximum(big, 1)
        room = (_INT64_GUARD - 1) // one // one // max(weights.shape[1], 1)
        fault = over | (sizes >= _INT64_GUARD) | ((big > 0) & (np.asarray(rowsums) > room))
    bad = np.flatnonzero(fault)
    if not len(bad):
        return
    g = bad[0]
    if over[g]:
        raise EnumerationBudgetError(f"box holds {sizes[g]} vectors, budget is {budget}")
    raise EnumerationBudgetError(
        f"box layer: {sizes[g]} vectors with pairings up to {big[g]} overflow int64"
    )


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
    identity's. exact.adjugate's fraction-free Gauss-Jordan, run on the
    whole batch at once. Every entry it holds is, up to sign, a minor of
    Q, at most the box size in magnitude: for a definite form a minor is
    at most the geometric mean of two principal minors, and a principal
    minor at most the product of its diagonal (Hadamard). So each
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
    is read in blocks of rows (blocks), which may span graphs and cut a
    large box, or by the members of each graph's canonical class alone
    (canonical_blocks).

    The set-up runs on the whole batch in array operations: det from the
    subtree recursion (forest._det_negdef) and the adjugates from one
    fraction-free elimination (_adjugates), each in int64 where a bound
    proves int64 exact and in exact ints past it; then the budget and
    the int64 guard of box_blocks for every graph, the first graph at
    fault raising (_check_boxes). A graph whose form is not negative
    definite raises NotNegativeDefiniteError."""

    def __init__(self, neighbors, weights: np.ndarray, budget: int = DEFAULT_BUDGET):
        self.weights = weights
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
        det, negdef = _det_negdef(tables, exact_ints.T)
        det = np.broadcast_to(det, sizes.shape)
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

    def blocks(self):
        """rows() of the whole batch, _BATCH_ROWS rows at a time."""
        total = int(self.offsets[-1])
        for start in range(0, total, _BATCH_ROWS):
            yield self.rows(np.arange(start, min(start + _BATCH_ROWS, total)))

    def rows(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(graph index, box vector) of the rows at the given positions."""
        graph, index = _spread(self.offsets, flat)
        return graph, _box_vectors(self.weights[graph], index)

    def pairings(self, graph: np.ndarray, block: np.ndarray) -> np.ndarray:
        """adj(Q).k of every row k of a block, by its own graph's adjugate,
        one coordinate at a time."""
        out = np.empty_like(block)
        for j in range(block.shape[1]):
            out[:, j] = np.einsum("ij,ij->i", self.adjugates[graph, j], block)
        return out

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
