"""Pure-Python oracles the tests check the library against.

strategy_run_path is engine.run_path with a pluggable vertex-selection
rule: the library always moves at the lowest eligible vertex, and the
tests use this runner to check that the outcome, and a basic run's final
vector, do not depend on that choice.
"""

from plumb.engine import SafetyLimitError, TerminationResult
from plumb.lattice import CharVector


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
