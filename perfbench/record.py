"""Record the answer hash of every operation the workloads can run.

    python3 perfbench/record.py

Writes perfbench/expected.json. The hashes were recorded once, at the
commit that introduced the benchmark; the benchmark compares every later
run against them, so a change that alters an answer fails. Re-record only
when an answer is meant to change, and say why.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402


def all_ops():
    """Every op of every workload, with the report's lens draws replaced
    by the whole pool they are drawn from."""
    ops = [op for w in workloads.WORKLOADS for op in workloads.build_ops(w, 0)
           if not (w == "report" and op.lens and op.lens != (97, 38))]
    for p, q in workloads.lens_pool():
        ops.append(workloads.invariants_chain(
            f"invariants:L({p},{q})", workloads.lens_weights(p, q), lens=(p, q)))
    return ops


def main():
    plumb = worker.load_plumb(str(HERE.parent))
    ops = all_ops()
    hashes = {}
    results = worker.run_ops(plumb, ops, worker.lib_forest(plumb, ops))
    for rec in worker.check_results(plumb, results):
        if rec["error"] is not None:
            raise SystemExit(f"{rec['name']}: {rec['error']}")
        hashes[rec["name"]] = rec["hash"]
    out = {"hashes": dict(sorted(hashes.items()))}
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"{len(hashes)} hashes written", file=sys.stderr)


if __name__ == "__main__":
    main()
