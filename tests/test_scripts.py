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


def test_classification_sweep_reports_throughput(capsys, monkeypatch):
    """Each classification row ends with the process's peak RSS in MB and
    the graphs checked per second."""
    sweep = load(monkeypatch, "classification_sweep")
    assert sweep.main(["--e8-max", "8", "--class-max", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if "graphs/s" in line)
    assert lines[header].split()[-2:] == ["peak_MB", "graphs/s"]
    rows = [line.split() for line in lines[header + 1:]]
    assert [row[0] for row in rows] == ["4", "5"]
    assert all(int(row[-1]) > 0 for row in rows)
    assert all(float(row[-2]) > 0 for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["--class-max", "4", "--min-weight", "-100"],
        ["--class-max", "4", "--min-weight", "-3", "--budget", "53"],
    ],
)
def test_classification_sweep_budget_exits_3(capsys, monkeypatch, argv):
    """A grid over the default budget, or over one given with --budget
    (the minimal columns of the n <= 4, wmin -3 grids, the ones the scan
    builds, are 54), ends the sweep with a one-line message and exit
    code 3."""
    sweep = load(monkeypatch, "classification_sweep")
    assert sweep.main(["--e8-max", "8"] + argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("budget exceeded:")


def test_classification_sweep_bad_weight_floor_exits_2(capsys, monkeypatch):
    """A weight floor above -1 ends the sweep with a one-line message and
    exit code 2, as plumb verify-classification does."""
    sweep = load(monkeypatch, "classification_sweep")
    assert sweep.main(["--e8-max", "8", "--class-max", "4", "--min-weight", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["input error: wmin must be <= -1"]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--min-weight", "0"], 2, "input error: wmin must be <= -1"),
        (["--threads", "0"], 2, "input error: threads must be at least 1, got 0"),
        (["--max-vertices", "0"], 2, "input error: nmax must be at least 1, got 0"),
        (
            ["--max-vertices", "13"], 3,
            "budget exceeded: tree enumeration is budgeted to 12 vertices, got 13",
        ),
    ],
)
def test_census_demo_bad_arguments_exit_with_one_line(capsys, monkeypatch, argv, code, err):
    """Bad arguments end the demo with a one-line message and exit code 2,
    a tree count over the budget with exit code 3, as plumb census does."""
    demo = load(monkeypatch, "census_demo")
    assert demo.main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [err] and captured.out == ""


def test_classification_sweep_reports_per_graph_checks(capsys, monkeypatch):
    """The per-graph column counts the graphs the batched tests left to
    is_rational: none at wmin -3 up to n = 5. The scan runs under the
    --budget given, which it spends on minimal columns only: the n <= 5
    grids hold 182 of them (and 930 assignments in all)."""
    sweep = load(monkeypatch, "classification_sweep")

    def rows(budget):
        code = sweep.main(["--e8-max", "8", "--class-max", "5", "--min-weight", "-3",
                           "--budget", str(budget)])
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if "per-graph" in line)
        column = lines[header].split().index("per-graph")
        return code, [(row.split()[0], row.split()[column]) for row in lines[header + 1:]]

    assert rows(182) == (0, [("4", "0"), ("5", "0")])
    assert rows(181) == (3, [("4", "0")])
