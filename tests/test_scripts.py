"""Smoke runs of the experiment scripts' main() on small inputs. The
scripts read BasicSet, DInvariants and census records, so a change to
those objects must keep them running."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(monkeypatch, name):
    """Import scripts/<name>.py; it is registered in sys.modules while the
    test runs, because its dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, expect",
    [
        ("lens_calibration", ["--max-p", "6"], "all multisets match the oracle"),
        (
            "census_demo",
            ["--max-vertices", "3", "--min-weight", "-3"],
            "integral homology spheres:",
        ),
        (
            "classification_sweep",
            ["--e8-max", "8", "--class-max", "4"],
            "basic-vector classification scan",
        ),
    ],
)
def test_script_main_runs(capsys, monkeypatch, name, argv, expect):
    assert load(monkeypatch, name).main(argv) == 0
    out = capsys.readouterr().out
    assert expect in out
    assert "NO" not in out.split()
