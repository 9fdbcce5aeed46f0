"""One pass of one workload in a fresh process.

Usage: python3 perfbench/worker.py <root> <workload> <seed> <mode> <t0>

mode is "plain" (untraced pass), "traced" (pass with the outside-in
trace) or "setup" (import and build inputs only). t0 is the parent's
time.monotonic() just before it started this process, so setup_s
includes interpreter start-up. Prints one JSON object on stdout.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _hash_lib(kind: str, obj) -> str:
    """sha256 of a canonical JSON-lines rendering of a library result,
    streamed so that hashing a large BasicSet stays small."""
    h = hashlib.sha256()

    def put(x):
        h.update(json.dumps(x, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")

    def frac(x):
        return [x.numerator, x.denominator]

    if kind == "basic_vectors":
        put({"box": obj.box_size, "overflow": obj.overflow_count, "total": obj.total})
        for rep, vecs in zip(obj.classes, obj.per_class):
            put([list(rep), [list(v) for v in vecs]])
    elif kind == "verdicts":
        ar = obj.ar
        put({
            "lspace": obj.lspace, "certified": obj.certified, "rational": obj.rational,
            "basic_total": obj.basic_total, "spinc": obj.spinc_count,
            "ar": [ar.found, ar.vertex, ar.delta, ar.bound],
        })
    elif kind == "d_invariants":
        for rep, d, dual in zip(obj.classes, obj.d, obj.dual):
            put([list(rep), frac(d), frac(dual)])
    else:
        raise ValueError(kind)
    return h.hexdigest()


def load_plumb(root: str):
    """Import plumb from the checkout's src directory, never from elsewhere."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import plumb
    import plumb.cli

    if not os.path.realpath(plumb.__file__).startswith(src + os.sep):
        raise SystemExit(f"plumb was imported from {plumb.__file__}, not from {src}")
    return plumb


def lib_forest(plumb, ops):
    """The graph of the library steps: the (-7)^6 chain, built in set-up."""
    if any(op.kind == "lib" for op in ops):
        return plumb.catalog.chain_forest([-7] * 6)
    return None


def run_ops(plumb, ops, forest, tracer=None):
    """Run the operations in order, timing each; returns (op, record,
    output) triples. Outputs are kept for the checks made after the pass."""
    from plumb import engine, lattice

    results = []
    state = {}
    stdin0 = sys.stdin
    for op in ops:
        rec = {"name": op.name, "exit": None, "error": None}
        t = time.perf_counter()
        try:
            if op.kind == "cli":
                buf = io.StringIO()
                if op.stdin is not None:
                    sys.stdin = io.StringIO(op.stdin)
                try:
                    with contextlib.redirect_stdout(buf):
                        if tracer:
                            code = tracer.call(tracer.CLI_SPAN, plumb.cli.main, list(op.argv))
                        else:
                            code = plumb.cli.main(list(op.argv))
                finally:
                    sys.stdin = stdin0
                rec["exit"] = code
                output = buf.getvalue()
            else:
                step = op.name.split(":")[0]
                ctx = state.get("ctx")
                if step == "context":
                    output = state["ctx"] = lattice.QFormContext(forest)
                elif step == "basic_vectors":
                    output = state["basics"] = engine.basic_vectors(ctx)
                elif step == "verdicts":
                    output = engine.verdicts(ctx, basics=state["basics"])
                elif step == "d_invariants":
                    output = engine.d_invariants(ctx, basics=state["basics"])
                else:
                    raise ValueError(f"unknown library step {step!r}")
        except Exception as e:  # an operation that raises counts as failed
            output = None
            rec["error"] = f"{type(e).__name__}: {e}"
        rec["seconds"] = time.perf_counter() - t
        results.append((op, rec, output))
    return results


def check_results(plumb, results) -> list[dict]:
    """Hash every output and apply the oracles; returns the records."""
    import workloads

    for op, rec, output in results:
        if rec["error"] is not None:
            continue
        if op.kind == "cli":
            rec["hash"] = hashlib.sha256(output.encode()).hexdigest()
            if rec["exit"] != 0:
                rec["error"] = f"exit code {rec['exit']}"
                continue
            try:
                rec["error"] = workloads.check_cli_output(op, output, plumb.engine.lens_d_multiset)
            except (ValueError, KeyError, TypeError) as e:
                rec["error"] = f"unreadable output: {type(e).__name__}: {e}"
        else:
            step = op.name.split(":")[0]
            rec["hash"] = None if step == "context" else _hash_lib(step, output)
    return [rec for _, rec, _ in results]


def main(argv):
    root, workload, seed, mode, t0 = argv[1], argv[2], int(argv[3]), argv[4], float(argv[5])
    plumb = load_plumb(root)
    import layers
    import workloads

    ops = workloads.build_ops(workload, seed)
    forest = lib_forest(plumb, ops)
    out = {"setup_s": time.monotonic() - t0}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = layers.Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    results = run_ops(plumb, ops, forest, tracer)
    pass_s = sum(rec["seconds"] for _, rec, _ in results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    # everything below runs after the timed pass and after peak RSS is read
    import networkx
    import numpy
    import scipy

    out.update(
        pass_s=pass_s,
        peak_rss_mb=peak_rss_mb,
        ops=check_results(plumb, results),
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "networkx": networkx.__version__},
    )
    if tracer:
        out["layers"] = layers.layer_metrics(tracer, plumb, pass_s)
        spans_file = os.path.join(root, ".bench_build", "perfbench", f"spans-{workload}.json")
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
