#!/usr/bin/env python3
"""Run a small census of negative-definite plumbing trees and print a
verdict breakdown plus the most interesting specimens. Bad arguments
end the run with exit code 2, a census over the budget with exit
code 3."""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import dataclass

from plumb import census
from plumb.lattice import EnumerationBudgetError


@dataclass(frozen=True)
class DemoConfig:
    max_vertices: int
    min_weight: int
    threads: int
    show: int


def parse_args(argv=None) -> DemoConfig:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=5)
    ap.add_argument("--min-weight", type=int, default=-5)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--show", type=int, default=5, help="specimens to print per bucket")
    ns = ap.parse_args(argv)
    return DemoConfig(
        max_vertices=ns.max_vertices,
        min_weight=ns.min_weight,
        threads=ns.threads,
        show=ns.show,
    )


def main(argv=None) -> int:
    cfg = parse_args(argv)
    t0 = time.perf_counter()
    try:
        records = census.census_scan(
            cfg.max_vertices, cfg.min_weight, threads=cfg.threads
        )
    except EnumerationBudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    print(
        f"scanned {len(records)} trees "
        f"(n <= {cfg.max_vertices}, weights >= {cfg.min_weight}) "
        f"in {elapsed:.1f}s"
    )

    by_size = Counter(r.n for r in records)
    print("by size:", dict(sorted(by_size.items())))

    buckets = {
        "integral homology spheres": [r for r in records if r.spinc == 1],
        "rational (one basic per class)": [r for r in records if r.rational],
        "L-spaces": [r for r in records if r.lspace],
        "non-L-spaces": [r for r in records if not r.lspace],
        "rational but not minimal": [
            r for r in records if r.rational and not r.minimal
        ],
    }
    for name, rows in buckets.items():
        print(f"\n{name}: {len(rows)}")
        for r in rows[: cfg.show]:
            d_str = ", ".join(str(x) for x in r.d)
            print(f"  {r.code}  h1={r.spinc}  d=[{d_str}]")
        if len(rows) > cfg.show:
            print(f"  ... and {len(rows) - cfg.show} more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
