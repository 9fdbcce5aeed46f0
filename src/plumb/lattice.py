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
from .forest import PlumbingForest, _forest_det_negdef, intersection_matrix

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
        _check_box_budget(self.box_size, self.budget)

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
        _check_box_guard(self.box_size, self.weights, self.adjugate)
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


def _box_vectors(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The box vector at position index[i] of the lexicographic order of
    the box of weight row weights[i], for every i."""
    rows = np.empty(weights.shape, dtype=np.int64)
    for v in range(weights.shape[1] - 1, -1, -1):
        index, digit = np.divmod(index, -weights[:, v])
        rows[:, v] = weights[:, v] + 2 + 2 * digit
    return rows


def _key_rows(keys: np.ndarray) -> np.ndarray:
    """Each row of an int64 key array as one opaque scalar, so that rows
    sort, compare and search as units. A zero-width row (the empty
    forest) becomes one zero column."""
    if not keys.shape[1]:
        keys = np.zeros((len(keys), 1), dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    return keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _check_box_budget(size: int, budget: int) -> None:
    if size > budget:
        raise EnumerationBudgetError(f"box holds {size} vectors, budget is {budget}")


def _check_box_guard(size: int, weights, adjugate) -> None:
    """The box layer runs in int64: every box vector k has |k_v| <= |m_v|,
    which bounds the spin^c keys adj(Q).k and k.adj(Q).k."""
    big = max((abs(w) for w in weights), default=0)
    rowsum = max((sum(abs(x) for x in row) for row in adjugate), default=0)
    if size >= _INT64_GUARD or rowsum * big * big * len(weights) >= _INT64_GUARD:
        raise EnumerationBudgetError(
            f"box layer: {size} vectors with pairings up to {big} overflow int64"
        )


class BoxBatch:
    """The boxes of a batch of negative-definite graphs on the one shape
    that neighbors describes, one int64 weight row per graph, laid end to
    end: graph by graph, each box in lexicographic order (iter_box's). It
    is read in blocks of rows (blocks), which may span graphs and cut a
    large box.

    Each graph's adjugate is exact.adjugate of its form. The budget and
    the int64 guard of box_blocks are checked for every graph when the
    batch is made, and the first graph at fault raises."""

    def __init__(self, neighbors, weights: np.ndarray, budget: int = DEFAULT_BUDGET):
        self.weights = weights
        adjugates, dets, sizes = [], [], []
        for w in weights.tolist():
            size = math.prod(abs(x) for x in w)
            _check_box_budget(size, budget)
            q = [[0] * len(w) for _ in w]
            for v, nbs in enumerate(neighbors):
                q[v][v] = w[v]
                for u in nbs:
                    q[v][u] = 1
            adj = exact.adjugate(q)
            _check_box_guard(size, w, adj)
            adjugates.append(adj)
            # det Q from the first row of Q against the first column of adj(Q)
            dets.append(sum(a * row[0] for a, row in zip(q[0], adj)) if w else 1)
            sizes.append(size)
        n = weights.shape[1]
        self.adjugates = np.array(adjugates, dtype=np.int64).reshape(len(sizes), n, n)
        self.det = np.array(dets, dtype=np.int64)
        self.h1 = np.abs(self.det)
        self.offsets = np.cumsum([0] + sizes, dtype=np.int64)

    def blocks(self):
        """rows() of the whole batch, _BATCH_ROWS rows at a time."""
        total = int(self.offsets[-1])
        for start in range(0, total, _BATCH_ROWS):
            yield self.rows(np.arange(start, min(start + _BATCH_ROWS, total)))

    def rows(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(graph index, box vector) of the rows at the given positions."""
        graph = np.searchsorted(self.offsets, flat, side="right") - 1
        return graph, _box_vectors(self.weights[graph], flat - self.offsets[graph])

    def pairings(self, graph: np.ndarray, block: np.ndarray) -> np.ndarray:
        """adj(Q).k of every row k of a block, by its own graph's adjugate,
        one coordinate at a time."""
        out = np.empty_like(block)
        for j in range(block.shape[1]):
            out[:, j] = np.einsum("ij,ij->i", self.adjugates[graph, j], block)
        return out
