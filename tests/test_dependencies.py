"""Every third-party module the package imports is a declared runtime
dependency."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_top_levels(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }
    undeclared = set()
    for path in sorted((ROOT / "src" / "plumb").glob("*.py")):
        for name in imported_top_levels(path):
            if name == "plumb" or name in sys.stdlib_module_names:
                continue
            if name.lower() not in declared:
                undeclared.add(f"{path.name}: {name}")
    assert not undeclared, sorted(undeclared)


def test_scipy_loads_only_for_row_counts():
    """import plumb and an invariants run on an almost-rational graph (E8)
    leave scipy unloaded: only the shell's row counts use it."""
    code = """
import contextlib, io, sys
import plumb, plumb.cli
from plumb.catalog import e8_forest
from plumb.forest import forest_to_text
sys.stdin = io.StringIO(forest_to_text(e8_forest()))
with contextlib.redirect_stdout(io.StringIO()):
    assert plumb.cli.main(["invariants", "-", "--json"]) == 0
print("scipy" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_plumb_leaves_networkx_unloaded():
    """Trees are enumerated without networkx: import plumb and a census
    run leave it unloaded."""
    code = """
import contextlib, io, sys
import plumb, plumb.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert plumb.cli.main(["census", "--max-vertices", "5", "--min-weight", "-2"]) == 0
print("networkx" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
