"""The benchmark's per-layer trace (perfbench/layers.py) patches plumb
from outside and calls some of its names directly. A change that drops a
module it imports, or a name its run_path sweep calls, would break
`perfbench/run.py --trace 1`; these tests fail first."""

import importlib
import importlib.util
from pathlib import Path

import plumb
from plumb import census, engine
from plumb.catalog import chain_forest, star_forest
from plumb.lattice import QFormContext

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
