#!/usr/bin/env python3
"""Run the uniqueness and classification verifiers over a grid of sizes
and weight floors, printing a timing/result row for each setting; the
classification rows show how many graphs the batched tests left to the
per-graph rationality check and end with the process's peak resident
memory so far (ru_maxrss, in MB) and the distinct graphs checked per
second.
A grid over the budget stops the sweep with exit code 3, and a weight
floor above -1 with exit code 2."""

from __future__ import annotations

import argparse
import resource
import sys
import time
from dataclasses import dataclass

from plumb import census
from plumb.lattice import DEFAULT_BUDGET, EnumerationBudgetError


@dataclass(frozen=True)
class SweepConfig:
    e8_max: int
    class_max: int
    min_weight: int
    budget: int


def parse_args(argv=None) -> SweepConfig:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--e8-max", type=int, default=10, help="largest n for the uniqueness scan")
    ap.add_argument("--class-max", type=int, default=7, help="largest n for the classification scan")
    ap.add_argument("--min-weight", type=int, default=-5)
    ap.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="weight assignments the classification grid may hold",
    )
    ns = ap.parse_args(argv)
    return SweepConfig(
        e8_max=ns.e8_max, class_max=ns.class_max, min_weight=ns.min_weight,
        budget=ns.budget,
    )


def main(argv=None) -> int:
    cfg = parse_args(argv)
    failed = False

    print("unimodular L-space uniqueness scan")
    print(f"{'nmax':>6} {'trees':>10} {'negdef':>10} {'unimodular':>34} {'ok':>4} {'time':>9}")
    for nmax in range(8, cfg.e8_max + 1):
        t0 = time.perf_counter()
        rep = census.verify_e8_unique(nmax)
        dt = time.perf_counter() - t0
        codes = ";".join(rep.unimodular_codes) or "-"
        print(
            f"{rep.nmax:>6} {rep.trees_scanned:>10} {rep.negdef_count:>10} "
            f"{codes:>34} {'yes' if rep.ok else 'NO':>4} {dt:>8.2f}s"
        )
        failed |= not rep.ok

    print("\nbasic-vector classification scan")
    print(
        f"{'nmax':>6} {'wmin':>6} {'unimod':>8} {'case2':>8} {'case3':>8} "
        f"{'per-graph':>9} {'ok':>4} {'time':>9} {'peak_MB':>8} {'graphs/s':>10}"
    )
    for nmax in range(4, cfg.class_max + 1):
        t0 = time.perf_counter()
        try:
            rep = census.verify_classification(nmax, cfg.min_weight, budget=cfg.budget)
        except EnumerationBudgetError as e:
            print(f"budget exceeded: {e}", file=sys.stderr)
            return 3
        except ValueError as e:
            print(f"input error: {e}", file=sys.stderr)
            return 2
        dt = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{rep.nmax:>6} {rep.wmin:>6} {rep.unimodular_checked:>8} "
            f"{rep.case2_checked:>8} {rep.case3_checked:>8} {rep.per_graph:>9} "
            f"{'yes' if rep.ok else 'NO':>4} {dt:>8.2f}s {peak_mb:>8.1f} "
            f"{rep.checked / dt:>10.0f}"
        )
        if rep.counterexamples:
            for code in rep.counterexamples:
                print(f"       counterexample: {code}")
        failed |= not rep.ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
