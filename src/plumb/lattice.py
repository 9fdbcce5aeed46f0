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

from . import exact
from .forest import PlumbingForest, intersection_matrix, is_negative_definite

DEFAULT_BUDGET = 10_000_000

# numpy paths run in int64 only while their magnitudes stay below this
_INT64_GUARD = 2**62


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

    @cached_property
    def _classes(self) -> dict[tuple[int, ...], CharVector]:
        """spin^c key -> lexicographically least box representative."""
        out: dict[tuple[int, ...], CharVector] = {}
        for k in self.iter_box():
            key = self.spinc_key(k)
            if key not in out:
                out[key] = CharVector(k)
        if len(out) != self.h1:
            raise AssertionError(
                f"found {len(out)} spin^c classes, expected {self.h1}"
            )
        return out

    def spinc_classes(self) -> tuple[CharVector, ...]:
        """One representative per spin^c class: the lexicographically least
        box vector, classes sorted by that representative."""
        return tuple(sorted(self._classes.values()))

    def class_index(self, k) -> int:
        """Index of k's spin^c class in the spinc_classes() ordering."""
        key = self.spinc_key(self.require_characteristic(k))
        reps = self.spinc_classes()
        rep = self._classes.get(key)
        if rep is None:
            raise ValueError("vector's class has no box representative (not characteristic?)")
        return reps.index(rep)
