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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .lattice import CharVector, QFormContext


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


def lowest_eligible(eligible, k):
    """Default vertex-selection rule: smallest vertex index."""
    return eligible[0]


def random_strategy(rng):
    """A vertex-selection rule choosing uniformly among eligible vertices."""

    def pick(eligible, k):
        return rng.choice(eligible)

    return pick


def run_path(ctx: QFormContext, k, strategy=None) -> TerminationResult:
    """Run the vector sequence from k until it terminates.

    The safety limit of 10 * box_size steps can only trip on inputs that
    violate the preconditions (k a box vector of a negative-definite form).
    """
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
        v = lowest_eligible(eligible, k) if strategy is None else strategy(tuple(eligible), tuple(k))
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


@dataclass(frozen=True)
class BasicSet:
    """Basic initial vectors of the box, grouped by spin^c class.

    classes[i] is the class representative; per_class[i] lists, in
    lexicographic order, the box vectors of that class whose runs
    terminate basic.
    """

    classes: tuple[CharVector, ...]
    per_class: tuple[tuple[CharVector, ...], ...]
    overflow_count: int
    box_size: int

    @property
    def total(self) -> int:
        return sum(len(b) for b in self.per_class)

    def for_class(self, i: int) -> tuple[CharVector, ...]:
        return self.per_class[i]


def _basic_rows(ctx: QFormContext, block: np.ndarray, rng=None) -> np.ndarray:
    """run_path on every row of a block at once: which rows end basic.

    Each numpy step advances every live row by one move under run_path's
    rules: a row with a pairing above -m(v) overflows (tested before
    eligibility), a row with no eligible vertex is basic, and any other
    row moves at its lowest eligible vertex, or at a uniformly random one
    when rng is given. The same 10 * box_size step limit applies."""
    ceiling = -np.array(ctx.weights, dtype=np.int64)
    moves = 2 * np.array(ctx.q, dtype=np.int64)
    limit = 10 * max(1, ctx.box_size)
    basic = np.zeros(len(block), dtype=bool)
    live = np.arange(len(block))
    k = block
    steps = 0
    while len(live):
        eligible = k == ceiling
        moving = eligible.any(axis=1)
        overflow = (k > ceiling).any(axis=1)
        basic[live[~overflow & ~moving]] = True
        go = moving & ~overflow
        live, k, eligible = live[go], k[go], eligible[go]
        if not len(live):
            break
        if rng is None:
            v = eligible.argmax(axis=1)
        else:
            pick = rng.integers(eligible.sum(axis=1))
            v = (eligible.cumsum(axis=1) > pick[:, None]).argmax(axis=1)
        k = k + moves[v]
        steps += 1
        if steps > limit:
            raise SafetyLimitError(
                f"no termination within {limit} steps; input is likely invalid"
            )
    return basic


def basic_vectors(ctx: QFormContext, rng: np.random.Generator | None = None) -> BasicSet:
    """Classify every box vector's run and group the basic ones by class.

    The box is swept block by block (QFormContext.box_blocks). The result
    does not depend on the choice of eligible vertex; passing an rng (a
    uniformly random eligible vertex per row and step) only exercises
    that property."""
    reps = ctx.spinc_classes()
    rows, classes = [], []
    for block in ctx.box_blocks():
        found = block[_basic_rows(ctx, block, rng)]
        rows.append(found)
        classes.append(ctx.class_indices(ctx.spinc_keys(found)))
    rows = np.concatenate(rows)
    classes = np.concatenate(classes)
    counts = np.bincount(classes, minlength=len(reps))
    if not counts.all():
        empty = reps[int(np.argmin(counts))]
        raise AssertionError(f"spin^c class of {empty} has no basic vector")
    # a stable sort keeps each class's rows in lexicographic order
    vectors = [CharVector(tuple(k)) for k in rows[np.argsort(classes, kind="stable")].tolist()]
    ends = np.cumsum(counts).tolist()
    per_class = tuple(
        tuple(vectors[start:end]) for start, end in zip([0] + ends[:-1], ends)
    )
    return BasicSet(reps, per_class, ctx.box_size - len(rows), ctx.box_size)


def is_rational(ctx: QFormContext) -> bool:
    """True iff the class of the canonical vector (all pairings m(v)+2)
    holds exactly one basic vector. Runs the paths of that class's box
    members only and stops at the second basic one."""
    count = 0
    for k in ctx.canonical_class_members():
        if run_path(ctx, k).basic:
            count += 1
            if count > 1:
                return False
    if count == 0:
        raise AssertionError("canonical spin^c class has no basic vector")
    return True


@dataclass(frozen=True)
class ArStatus:
    """Witness that the graph becomes rational after decreasing a single
    weight (found), or the exhausted search bound (not found)."""

    found: bool
    vertex: str | None
    delta: int | None
    bound: int


def default_ar_bound(ctx: QFormContext) -> int:
    return ctx.n + sum(abs(w) for w in ctx.weights)


def ar_status(ctx: QFormContext, bound: int | None = None) -> ArStatus:
    """Scan delta = 1..bound (then vertices in definition order) for a
    single-weight decrease making the graph rational. The scan never
    stops early on failure, only on the first success, so the reported
    delta is the smallest that works."""
    if bound is None:
        bound = default_ar_bound(ctx)
    if ctx.n == 0:
        # the empty graph is rational as it stands; decreasing nothing is moot
        return ArStatus(True, None, 0, bound)
    for delta in range(1, bound + 1):
        for i in range(ctx.n):
            candidate = ctx.forest.with_weight(i, ctx.weights[i] - delta)
            if is_rational(QFormContext(candidate, budget=ctx.budget)):
                return ArStatus(True, ctx.forest.ids[i], delta, bound)
    return ArStatus(False, None, None, bound)


@dataclass(frozen=True)
class Verdicts:
    lspace: bool
    certified: bool  # the almost-rational hypothesis was witnessed
    rational: bool
    ar: ArStatus
    basic_total: int
    spinc_count: int


def verdicts(
    ctx: QFormContext,
    basics: BasicSet | None = None,
    ar_bound: int | None = None,
) -> Verdicts:
    """L-space / rationality / almost-rationality verdicts.

    lspace holds iff the total basic count equals the spin^c count (one
    basic vector per class); the verdict is certified when the AR scan
    finds a witness, and otherwise stands at the combinatorial level only.
    """
    if basics is None:
        basics = basic_vectors(ctx)
    if ctx.n == 0:
        rational = True
    else:
        canonical_index = ctx.class_index(ctx.canonical_char())
        rational = len(basics.per_class[canonical_index]) == 1
    ar = ar_status(ctx, bound=ar_bound)
    return Verdicts(
        lspace=basics.total == ctx.h1,
        certified=ar.found,
        rational=rational,
        ar=ar,
        basic_total=basics.total,
        spinc_count=ctx.h1,
    )


@dataclass(frozen=True)
class DInvariants:
    """Correction terms per spin^c class, for both orientations.

    d[i] = max over basic K in class i of (K^2 + |V|)/4; dual[i] = -d[i]
    is the value for the reversed orientation, the side the lens-space
    oracle computes.
    """

    classes: tuple[CharVector, ...]
    d: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


def d_invariants(ctx: QFormContext, basics: BasicSet | None = None) -> DInvariants:
    if basics is None:
        basics = basic_vectors(ctx)
    rows = np.array([k.k for group in basics.per_class for k in group], dtype=np.int64)
    starts = np.cumsum([0] + [len(group) for group in basics.per_class[:-1]])
    # max K^2 per class, as |det| * K^2; d = (K^2 + |V|) / 4
    top = np.maximum.reduceat(ctx.k_square_numerators(rows), starts).tolist()
    d = tuple(Fraction(q + ctx.n * ctx.h1, 4 * ctx.h1) for q in top)
    return DInvariants(basics.classes, d, tuple(-x for x in d))


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
