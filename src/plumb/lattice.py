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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .forest import PlumbingForest, intersection_matrix, is_negative_definite

DEFAULT_BUDGET = 10_000_000

# numpy paths run in int64 only while their magnitudes stay below this
_INT64_GUARD = 2**62

# rows per block of the box layer (box_blocks)
_BLOCK = 2**16


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


def _coords(k) -> tuple[int, ...]:
    return tuple(k.k if isinstance(k, CharVector) else k)


class QFormContext:
    """Cached exact data for one negative-definite forest.

    Holds the intersection matrix, its determinant and adjugate, the
    characteristic-vector box bounds, and the spin^c classification. All
    arithmetic is exact (int / Fraction).
    """

    def __init__(self, forest: PlumbingForest, budget: int = DEFAULT_BUDGET):
        self.forest = forest
        self.budget = budget
        self.q = intersection_matrix(forest)
        if not is_negative_definite(forest):
            raise NotNegativeDefiniteError(
                "intersection form is not negative definite"
            )
        self.n = forest.n
        self.weights = forest.weights

    @cached_property
    def det(self) -> int:
        return exact.determinant(self.q)

    @cached_property
    def h1(self) -> int:
        return abs(self.det)

    @cached_property
    def adjugate(self):
        return exact.adjugate(self.q)

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

    def in_terminal_box(self, k) -> bool:
        """m_v <= k_v <= -m_v - 2 for every vertex."""
        return all(w <= x <= -w - 2 for x, w in zip(_coords(k), self.weights))

    def _check_box_budget(self) -> None:
        if self.box_size > self.budget:
            raise EnumerationBudgetError(
                f"box holds {self.box_size} vectors, budget is {self.budget}"
            )

    def iter_box(self):
        """Yield the box pairing tuples in lexicographic order."""
        self._check_box_budget()
        ranges = [range(w + 2, -w + 1, 2) for w in self.weights]
        return itertools.product(*ranges)

    def canonical_class_members(self):
        """Yield, in lexicographic order, the box vectors in the spin^c
        class of canonical_char(): the k = base + 2*digits with
        adj(Q).(k - base) = 0 mod 2|det|.

        Two half-coordinate residue sweeps meet in the middle: the right
        half is indexed by residue, the left half is matched against it,
        and matches are yielded as found. About sqrt(box) digit tuples are
        held at once, even when |H1| = 1 and every box vector is a member."""
        self._check_box_budget()
        n = self.n
        sizes = [abs(w) for w in self.weights]
        m = 2 * self.h1
        adj = self.adjugate
        base = self.canonical_char().k
        # residue contribution of digit d at coordinate v: column v of adj times 2d
        contrib = [
            [tuple((2 * d * adj[u][v]) % m for u in range(n)) for d in range(sizes[v])]
            for v in range(n)
        ]
        split = n
        prod = 1
        target = math.isqrt(self.box_size)
        for v in range(n):
            if prod >= target:
                split = v
                break
            prod *= sizes[v]

        def sweep(coords):
            acc = [((0,) * n, ())]
            for v in coords:
                acc = [
                    (tuple((r + x) % m for r, x in zip(res, c)), dg + (d,))
                    for res, dg in acc
                    for d, c in enumerate(contrib[v])
                ]
            return acc

        by_res: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for res, dg in sweep(range(split, n)):
            by_res.setdefault(res, []).append(dg)
        for res, dg_left in sweep(range(split)):
            want = tuple((-x) % m for x in res)
            for dg_right in by_res.get(want, ()):
                yield tuple(b + 2 * d for b, d in zip(base, dg_left + dg_right))

    def char_box(self) -> list[CharVector]:
        """All characteristic vectors K with m_v + 2 <= k_v <= -m_v, sorted."""
        return [CharVector(k) for k in self.iter_box()]

    # ------------------------------------------------------------ invariants

    def k_square(self, k) -> Fraction:
        """K^2 = k^T Q^{-1} k, exactly."""
        k = _coords(k)
        adj = self.adjugate
        total = 0
        for i, ki in enumerate(k):
            if ki:
                row = adj[i]
                total += ki * sum(r * kj for r, kj in zip(row, k))
        return Fraction(total, self.det)

    def adj_image(self, k) -> tuple[int, ...]:
        """adj(Q) . k — integer vector, det * Q^{-1} k."""
        k = _coords(k)
        return tuple(sum(r * kj for r, kj in zip(row, k)) for row in self.adjugate)

    def spinc_key(self, k) -> tuple[int, ...]:
        """Hashable spin^c invariant: adj(Q).k reduced mod 2|det Q|."""
        m = 2 * self.h1
        return tuple(x % m for x in self.adj_image(k))

    def same_spinc(self, k1, k2) -> bool:
        """True iff K1 - K2 is twice an integer combination of matrix rows."""
        m = 2 * self.h1
        d1 = self.adj_image(k1)
        d2 = self.adj_image(k2)
        return all((a - b) % m == 0 for a, b in zip(d1, d2))

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
        self._check_box_budget()
        big = max((abs(w) for w in self.weights), default=0)
        rowsum = max((sum(abs(x) for x in row) for row in self.adjugate), default=0)
        if self.box_size >= _INT64_GUARD or rowsum * big * big * self.n >= _INT64_GUARD:
            raise EnumerationBudgetError(
                f"box layer: {self.box_size} vectors with pairings up to {big} overflow int64"
            )
        return self._blocks()

    def _blocks(self):
        for start in range(0, self.box_size, _BLOCK):
            yield self._box_rows(np.arange(start, min(start + _BLOCK, self.box_size)))

    def _box_rows(self, flat: np.ndarray) -> np.ndarray:
        """The box vectors at the given positions of the lexicographic order."""
        rows = np.empty((len(flat), self.n), dtype=np.int64)
        stride = 1
        for v in range(self.n - 1, -1, -1):
            size = -self.weights[v]
            rows[:, v] = self.weights[v] + 2 + 2 * (flat // stride % size)
            stride *= size
        return rows

    def spinc_keys(self, block: np.ndarray) -> np.ndarray:
        """spinc_key of every row of a block, in one matmul."""
        return block @ self._adj_np.T % (2 * self.h1)

    def k_square_numerators(self, block: np.ndarray) -> np.ndarray:
        """|det| * K^2 = sign(det) * k.adj(Q).k of every row of a block."""
        sgn = 1 if self.det > 0 else -1
        return np.einsum("ij,ij->i", block @ self._adj_np.T, block) * sgn

    @cached_property
    def _classes(self):
        """The box sweep behind spinc_classes() and class_indices():
        (representatives, sorted key rows, class index of each sorted key).

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
        reps = tuple(CharVector(tuple(k)) for k in self._box_rows(first[order]).tolist())
        return reps, table, index

    def spinc_classes(self) -> tuple[CharVector, ...]:
        """One representative per spin^c class: the lexicographically least
        box vector, classes sorted by that representative."""
        return self._classes[0]

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


def _key_rows(keys: np.ndarray) -> np.ndarray:
    """Each row of an int64 key array as one opaque scalar, so that rows
    sort, compare and search as units. A zero-width row (the empty
    forest) becomes one zero column."""
    if not keys.shape[1]:
        keys = np.zeros((len(keys), 1), dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    return keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()
