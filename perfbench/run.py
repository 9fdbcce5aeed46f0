"""plumb benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (src/plumb must be present). The
workloads are defined in workloads.py and explained in NOTES.md.

Each pass of a workload runs in a fresh worker process, one at a time,
until --seconds have elapsed (at least one pass). With --trace 0 the
passes are untraced and the result line carries the end-to-end metrics
(medians over passes). With --trace 1 untraced and traced passes
alternate; the result line carries the per-layer metrics of the traced
passes, the tracing overhead and the span coverage.

Every operation's output is hashed and compared with the hash recorded
in expected.json, and independent oracles are applied (see workloads.py).
An operation fails on an exception, a nonzero exit code or a wrong
answer. The last line of stdout is the JSON result; the line before it
is the host and commit record, which is also appended, with the result,
to .bench_build/perfbench/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # setup_s is the median of at least this many process starts
RUN_LIMIT_S = 170  # a run, all its workers included, ends before this
STATE_DIR = ROOT / ".bench_build" / "perfbench"

# one BLAS thread and one worker process: the numbers measure plumb,
# not the scheduler
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plumb").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
        commit = r.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before the next worker")
    r = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), mode, repr(t0)],
        capture_output=True, text=True, timeout=timeout, check=False,
        env={**os.environ, **WORKER_ENV}, cwd=ROOT,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError(f"{mode} worker for {workload} exited with code {r.returncode}")
    if r.stderr:
        sys.stderr.write(r.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_ops(passes: list[dict], expected: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations; a failure is an exception,
    a nonzero exit, a failed oracle or a hash that differs from the
    recorded one."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for rec in p["ops"]:
            attempted += 1
            err = rec["error"]
            if err is None and rec["name"] not in expected:
                err = "no recorded hash for this operation"
            elif err is None and rec.get("hash") != expected[rec["name"]]:
                err = "answer hash differs from the recorded one"
            if err is not None:
                failed += 1
                problems.append(f"{rec['name']}: {err}")
    return attempted, failed, problems


def check_counts_repeat(workload: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Counts must be identical in every run of the same code: compare
    with the counts an earlier run of this source, workload and seed left."""
    path = STATE_DIR / f"counts-{digest[:16]}-{workload}-{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"count {k} is {counts[k]}, an earlier run gave {before[k]}"
                for k in counts if k in before and before[k] != counts[k]]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not (ROOT / "src" / "plumb" / "__init__.py").is_file():
        print(f"no plumb sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())["hashes"]
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    host = host_record()

    plain, traced = [], []
    try:
        while True:
            if args.trace and len(traced) < len(plain):
                traced.append(run_worker(args.workload, args.seed, "traced", deadline))
            else:
                plain.append(run_worker(args.workload, args.seed, "plain", deadline))
            balanced = not args.trace or len(traced) == len(plain)
            if balanced and time.monotonic() - start >= args.seconds:
                break
        setup = [p["setup_s"] for p in plain + traced]
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(run_worker(args.workload, args.seed, "setup", deadline)["setup_s"])
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    host.update(plain[0]["versions"])
    attempted, failed, problems = check_ops(plain + traced, expected)
    # traced and untraced passes must give the same answers
    by_name = {}
    for p in plain + traced:
        for rec in p["ops"]:
            by_name.setdefault(rec["name"], set()).add(rec.get("hash"))
    problems += [f"{name}: passes disagree on the answer" for name, hs in by_name.items() if len(hs) > 1]

    if args.trace:
        try:
            metrics_raw = layers.median_metrics([p["layers"] for p in traced])
        except AssertionError as e:
            problems.append(str(e))
            metrics_raw = traced[0]["layers"]
        metrics_raw["trace.overhead_ratio"] = (
            statistics.median(p["pass_s"] for p in traced)
            / statistics.median(p["pass_s"] for p in plain)
        )
        counts = {k: v for k, v in metrics_raw.items() if layers.is_count(k)}
        problems += check_counts_repeat(args.workload, args.seed, host["source_sha256"], counts)
        metrics = {k: metric(metrics_raw[k], u) for k, u in layers.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(p["pass_s"] for p in plain), "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": {"plain": [p["pass_s"] for p in plain],
                         "traced": [p["pass_s"] for p in traced]},
              "problems": problems, "result": result}
    with open(STATE_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"host": host, "passes": record["passes"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
