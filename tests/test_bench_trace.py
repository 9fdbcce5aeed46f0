"""The benchmark's per-layer trace (perfbench/layers.py) patches plumb
from outside and calls some of its names directly, and its worker
(perfbench/worker.py) calls the library by name. A change that drops a
module the trace imports or a name its run_path sweep calls would break
`perfbench/run.py --trace 1`, and a renamed library call would fail
every bench run; these tests fail first."""

import importlib
import importlib.util
import sys
from pathlib import Path

import plumb
from plumb import census, engine
from plumb.catalog import chain_forest, star_forest
from plumb.lattice import QFormContext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load("layers")


def test_trace_target_modules_import_and_install():
    layers = load_layers()
    for modname, *_ in layers.TARGETS:
        importlib.import_module(f"plumb.{modname}")
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_sweep_names_exist_and_agree_with_basic_vectors():
    """layers._sweep runs engine.run_path over QFormContext.iter_box, and
    layer_metrics sizes the census grid with census.enumerate_trees."""
    layers = load_layers()
    assert callable(QFormContext.iter_box)
    assert callable(engine.run_path)
    assert len(census.enumerate_trees(4)) == 2
    for forest in (chain_forest([-2, -3]), star_forest(-1, [-2, -3, -7])):
        steps, overflowed = layers._sweep(plumb, forest, 10**6)
        assert overflowed == engine.basic_vectors(QFormContext(forest)).overflow_count
        assert steps > 0


def test_worker_library_calls_exist_and_run(monkeypatch):
    """perfbench/worker.py builds QFormContext(forest) from
    catalog.chain_forest, runs basic_vectors(ctx), then verdicts and
    d_invariants with basics=, hashes the fields of their results, and
    checks lens answers with engine.lens_d_multiset. Its own run_ops and
    check_results run here on the manyclass library steps (on a small
    chain) and on a lens chain of the report workload, with no error."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker, workloads = load("worker"), load("workloads")
    lib = worker.load_plumb(str(PERFBENCH.parent))
    assert lib is plumb
    ops = [op for op in workloads.build_ops("manyclass", 0) if op.kind == "lib"]
    assert worker.lib_forest(lib, ops).weights == (-7,) * 6
    lens = next(op for op in workloads.build_ops("report", 0) if op.lens)
    results = worker.run_ops(lib, ops + [lens], chain_forest([-7, -3]))
    records = worker.check_results(lib, results)
    assert [rec["error"] for rec in records] == [None] * 5
    assert [rec["hash"] is None for rec in records] == [True, False, False, False, False]
