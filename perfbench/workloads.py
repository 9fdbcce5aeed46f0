"""Workload definitions: the operations each workload runs, and the
independent answer checks applied to their outputs.

An operation is one call into plumb: either the public CLI entry point
``plumb.cli.main(argv)`` or one public library function. Inputs depend
only on the workload name and the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("report", "manyclass", "census", "verify")

E8_TEXT = """\
vertex v1 -2
vertex v2 -2
vertex v3 -2
vertex v4 -2
vertex v5 -2
vertex v6 -2
vertex v7 -2
vertex v8 -2
edge v1 v2
edge v2 v3
edge v3 v4
edge v4 v5
edge v5 v6
edge v6 v7
edge v5 v8
"""

# Sigma(2,3,7) as the star (-1; -2, -3, -7)
SIGMA237_TEXT = """\
vertex v0 -1
vertex v1 -2
vertex v2 -3
vertex v3 -7
edge v0 v1
edge v0 v2
edge v0 v3
"""

# report: the seed draws this many lens chains from lens_pool(), which is
# L(p, q) with three vertices and 250 <= p <= 300; every member costs
# 0.2-0.3 s, so the pass time moves little from seed to seed.
LENS_DRAWS = 4
LENS_P_RANGE = (250, 300)
LENS_VERTICES = 3


@dataclass(frozen=True)
class Op:
    """One operation. kind is "cli" (argv for plumb.cli.main, optional
    stdin text) or "lib" (a library step of the manyclass chain)."""

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    stdin: str | None = None
    lens: tuple[int, int] | None = None  # (p, q): check dual d against the lens recursion
    checks: tuple[str, ...] = field(default=())


def lens_weights(p: int, q: int) -> list[int]:
    """Chain weights -a_i of p/q = [a_1, ..., a_k] (negative continued
    fraction, every a_i >= 2)."""
    out = []
    num, den = p, q
    while den:
        a = -(-num // den)
        out.append(-a)
        num, den = den, a * den - num
    return out


def lens_pool() -> list[tuple[int, int]]:
    lo, hi = LENS_P_RANGE
    return [
        (p, q)
        for p in range(lo, hi + 1)
        for q in range(1, p)
        if math.gcd(p, q) == 1 and len(lens_weights(p, q)) == LENS_VERTICES
    ]


def _chain_arg(weights) -> str:
    return "--chain=" + ",".join(str(w) for w in weights)


def invariants_chain(name, weights, lens=None) -> Op:
    return Op(name, "cli", ("invariants", _chain_arg(weights), "--json"), lens=lens)


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload == "report":
        ops = [
            Op("invariants:E8", "cli", ("invariants", "-", "--json"), stdin=E8_TEXT,
               checks=("e8",)),
            invariants_chain("invariants:L(97,38)", lens_weights(97, 38), lens=(97, 38)),
            Op("invariants:Sigma(2,3,7)", "cli", ("invariants", "-", "--json"),
               stdin=SIGMA237_TEXT, checks=("sigma237",)),
        ]
        for p, q in random.Random(seed).sample(lens_pool(), LENS_DRAWS):
            ops.append(invariants_chain(f"invariants:L({p},{q})", lens_weights(p, q), lens=(p, q)))
        return ops
    if workload == "manyclass":
        return [
            Op("context:(-7)^6", "lib"),
            Op("basic_vectors:(-7)^6", "lib"),
            Op("verdicts:(-7)^6", "lib"),
            Op("d_invariants:(-7)^6", "lib"),
            # (-7)^4 presents L(2255, 329)
            invariants_chain("invariants:(-7)^4", [-7] * 4, lens=(2255, 329)),
        ]
    if workload == "census":
        return [Op("census:4:-6", "cli",
                   ("census", "--max-vertices", "4", "--min-weight", "-6"))]
    if workload == "verify":
        return [
            Op("verify-classification:7:-5", "cli",
               ("verify-classification", "--max-vertices", "7", "--min-weight", "-5",
                "--json"), checks=("ok",)),
            Op("verify-e8:12", "cli", ("verify-e8", "--max-vertices", "12", "--json"),
               checks=("ok",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _frac(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def check_cli_output(op: Op, text: str, lens_d_multiset) -> str | None:
    """Independent checks on a CLI op's stdout; returns an error or None."""
    if not (op.lens or op.checks):
        return None
    obj = json.loads(text)
    if op.lens:
        got = tuple(sorted(_frac(c["dual"]) for c in obj["d"]))
        if got != lens_d_multiset(*op.lens):
            return f"dual d-invariants differ from the lens recursion for L{op.lens}"
    for check in op.checks:
        if check == "e8":
            if [_frac(c["d"]) for c in obj["d"]] != [Fraction(2)] or obj["hf"]["reduced_rank"] != 0:
                return "E8: expected d = 2 and reduced rank 0"
        elif check == "sigma237":
            if obj["basic"]["total"] != 2 or obj["hf"]["reduced_rank"] != 1:
                return "Sigma(2,3,7): expected 2 basic vectors and reduced rank 1"
        elif check == "ok":
            if obj.get("ok") is not True:
                return "verification reported ok = false"
    return None
