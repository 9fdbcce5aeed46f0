"""Command-line interface: subcommands, output formats, exit codes."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plumb import census, cli, relations
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import canonical_code, forest_to_text
from plumb.lattice import DEFAULT_BUDGET, QFormContext

from oracles import record_to_obj, two_node_tree


@pytest.fixture()
def e8_file(tmp_path):
    p = tmp_path / "e8.txt"
    p.write_text(forest_to_text(e8_forest()))
    return str(p)


@pytest.fixture()
def star_file(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text(forest_to_text(star_forest(-1, [-2, -3, -7])))
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------------ check

def test_check_text(capsys, e8_file):
    code, out, _ = run(capsys, "check", e8_file)
    assert code == 0
    assert "negative definite: yes" in out
    assert "det: 1" in out


def test_check_json(capsys, e8_file):
    obj = run_json(capsys, "check", e8_file, "--json")
    assert obj["negdef"] is True
    assert obj["det"] == 1 and obj["spinc"] == 1
    assert obj["minimal"] is True
    assert obj["vertices"] == 8


def test_check_non_negdef_still_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--chain=2,-2")
    assert code == 0
    assert "negative definite: no" in out


def test_check_json_forms_not_definite(capsys, tmp_path):
    """A two-component forest with a +1 weight (indefinite) and the chain
    (-1, -1) (singular) report their determinant and no spin^c count."""
    p = tmp_path / "forest.txt"
    p.write_text("vertex a -2\nvertex b -3\nedge a b\nvertex c 1\nvertex d -2\nedge c d\n")
    assert run_json(capsys, "check", str(p), "--json") == {
        "code": "[(-2;(-3;))|(-2;(1;))]",
        "components": 2,
        "det": -15,
        "h1": 15,
        "minimal": True,
        "negdef": False,
        "vertices": 4,
    }
    assert run_json(capsys, "check", "--chain=-1,-1", "--json") == {
        "code": "[(-1;(-1;))]",
        "components": 1,
        "det": 0,
        "h1": 0,
        "minimal": False,
        "negdef": False,
        "vertices": 2,
    }


def test_check_empty_graph_is_definite(capsys, tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# no vertices\n")
    obj = run_json(capsys, "check", str(p), "--json")
    assert obj["det"] == 1 and obj["h1"] == 1
    assert obj["negdef"] is True and obj["spinc"] == 1


def test_check_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("vertex a -2\n"))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "det: -2" in out


def test_check_json_graph_file(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text(
        json.dumps(
            {
                "vertices": [{"id": "a", "weight": -2}, {"id": "b", "weight": -3}],
                "edges": [["a", "b"]],
            }
        )
    )
    obj = run_json(capsys, "check", str(p), "--json")
    assert obj["det"] == 5


def test_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("vertex a -2\nvertex a -3\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "input error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "/definitely/not/here.txt")
    assert code == 2


def test_no_input_exit_2(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "no input graph" in err


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--no-such-flag"])
    assert exc.value.code == 2


def test_json_dot_conflict_exit_2(capsys):
    code, _, err = run(capsys, "check", "--chain=-2", "--json", "--dot")
    assert code == 2
    assert "mutually exclusive" in err


# ------------------------------------------------------------- invariants

def test_invariants_e8_json(capsys, e8_file):
    obj = run_json(capsys, "invariants", e8_file, "--json")
    assert obj["det"] == 1
    assert obj["basic"]["total"] == 1
    assert obj["basic"]["classes"][0]["vectors"] == [[0] * 8]
    assert obj["verdicts"]["lspace"] == "yes"
    assert obj["verdicts"]["certified"] is True
    assert obj["verdicts"]["rational"] is True
    assert obj["d"] == [{"class": [0] * 8, "d": ["2", "1"], "dual": ["-2", "1"]}]
    assert obj["hf"]["reduced_rank"] == 0
    assert obj["hf"]["converged"] is True


def test_invariants_certifies_every_almost_rational_graph(capsys):
    """The AR certificate has no search bound of its own: the chain
    (-5, -3, -1, -4), whose tables take the tau path, is certified."""
    code, out, err = run(capsys, "invariants", "--chain=-5,-3,-1,-4")
    assert code == 0, err
    assert "L-space: yes, certified (drop weight of v1 by 1)" in out


def test_invariants_star_json(capsys, star_file):
    obj = run_json(capsys, "invariants", star_file, "--json")
    assert obj["basic"]["total"] == 2
    assert obj["verdicts"]["lspace"] == "no"
    assert obj["verdicts"]["rational"] is False
    assert obj["d"][0]["d"] == ["0", "1"]
    assert obj["hf"]["reduced_rank"] == 1


def test_invariants_sorted_keys_deterministic(capsys, star_file):
    _, out1, _ = run(capsys, "invariants", star_file, "--json")
    _, out2, _ = run(capsys, "invariants", star_file, "--json")
    assert out1 == out2
    obj = json.loads(out1)
    assert list(obj) == sorted(obj)


def test_invariants_non_negdef_exit_2(capsys):
    code, _, err = run(capsys, "invariants", "--chain=2,-2")
    assert code == 2
    assert "not negative definite" in err


def test_invariants_budget_exit_3(capsys):
    code, _, err = run(
        capsys, "invariants", "--chain=-9,-9,-9,-9,-9,-9,-9,-9", "--budget", "100"
    )
    assert code == 3
    assert "budget" in err


def test_invariants_int64_guard_exit_3(capsys):
    # the box (2^31 + 1 vectors) is within budget; its K^2 overflows int64
    code, _, err = run(
        capsys, "invariants", f"--chain=-{2**31 + 1}", "--budget", str(2**32)
    )
    assert code == 3
    assert "box layer" in err


def test_invariants_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("PLUMB_BUDGET", "100")
    code, _, err = run(capsys, "invariants", "--chain=-9,-9,-9,-9,-9,-9,-9,-9")
    assert code == 3
    # explicit flag wins over the environment
    monkeypatch.setenv("PLUMB_BUDGET", "100")
    code, _, _ = run(
        capsys, "invariants", "--chain=-2,-2", "--budget", "1000000"
    )
    assert code == 0


def test_invariants_bad_env_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("PLUMB_BUDGET", "lots")
    code, _, err = run(capsys, "invariants", "--chain=-2")
    assert code == 2
    assert "PLUMB_BUDGET" in err


def test_budget_default(monkeypatch):
    monkeypatch.delenv("PLUMB_BUDGET", raising=False)
    args = cli.build_parser().parse_args(["basic", "--chain=-2"])
    assert cli._budget(args) == DEFAULT_BUDGET


def test_invariants_seed_same_answer(capsys, star_file):
    a = run_json(capsys, "invariants", star_file, "--json")
    b = run_json(capsys, "invariants", star_file, "--json", "--seed", "3")
    assert a == b


@pytest.mark.parametrize("command", ["dinv", "hf"])
def test_seed_reaches_basic_vectors(capsys, monkeypatch, command):
    """--seed steps the paths of dinv and hf at random eligible vertices;
    the output is the unseeded one, byte for byte."""
    from plumb import engine

    plain = run(capsys, command, "--chain=-3,-2,-4", "--json")
    rngs = []
    real = engine.basic_vectors

    def spy(ctx, rng=None):
        rngs.append(rng)
        return real(ctx, rng=rng)

    monkeypatch.setattr(engine, "basic_vectors", spy)
    seeded = run(capsys, command, "--chain=-3,-2,-4", "--json", "--seed", "3")
    assert plain[0] == 0
    assert seeded == plain
    assert any(isinstance(r, np.random.Generator) for r in rngs)


# ------------------------------------------------- basic / dinv / hf / dot

def test_basic_json(capsys):
    obj = run_json(capsys, "basic", "--chain=-2", "--json")
    assert obj["total"] == 2
    assert obj["box"] == 2


def test_dinv_json_exact_pairs(capsys):
    obj = run_json(capsys, "dinv", "--chain=-3", "--json")
    ds = sorted(tuple(c["d"]) for c in obj["classes"])
    assert ds == [("-1", "2"), ("1", "6"), ("1", "6")]


@pytest.mark.parametrize("chain", ["-5,-3", "-4,-4", "-5,-4", "-5,-5"])
def test_hf_lens_chain_converges_at_default_settings(capsys, chain):
    # at max_u 8 the shell's default box cut these lens spaces' tables short
    obj = run_json(capsys, "hf", f"--chain={chain}", "--json")
    assert obj["converged"] is True and obj["reduced_rank"] == 0


def test_hf_e8_wide_window(capsys, e8_file):
    code, out, err = run(capsys, "hf", e8_file, "--max-u", "64")
    assert code == 0, err
    first = out.splitlines()[0]
    assert first.startswith("max_u 64, ")
    assert first.endswith(": converged, reduced rank 0")


def test_hf_json(capsys, star_file):
    obj = run_json(capsys, "hf", star_file, "--json", "--max-u", "6")
    assert obj["max_u"] == 6
    assert obj["reduced_rank"] == 1
    rows = obj["classes"][0]["rows"]
    assert rows[0] == [["0", "1"], 2]


def test_hf_huge_window_exits_3_before_any_table(capsys, monkeypatch):
    """hf charges |H1| * (max_u + 1) rows against the budget before the
    tau walk or the shell starts."""
    def never(*args):
        raise AssertionError("a table was computed")

    monkeypatch.setattr(relations, "_tau_classes", never)
    monkeypatch.setattr(relations, "_shell_classes", never)
    code, out, err = run(capsys, "hf", "--chain=-2", "--max-u", "100000000", "--json")
    assert code == 3
    assert "class tables: 2 classes of 100000001 rows" in err
    assert out == ""


def test_dot_outputs_graph_and_table(capsys, star_file):
    code, out, _ = run(capsys, "dinv", star_file, "--dot")
    assert code == 0
    assert out.startswith("graph plumbing {")
    assert '"v0" -- "v1"' in out
    assert "classtable" in out
    assert "-7" in out


def test_dot_vertices_show_weights(capsys):
    code, out, _ = run(capsys, "check", "--chain=-2,-5", "--dot")
    assert code == 0
    assert 'label="v1\\n-2"' in out
    assert 'label="v2\\n-5"' in out


# ----------------------------------------------------------------- reduce

def test_reduce_blows_down_to_minimal(capsys):
    code, out, _ = run(capsys, "reduce", "--chain=-2,-1,-3")
    assert code == 0
    assert "blow down" in out


def test_reduce_json_already_minimal(capsys, e8_file):
    obj = run_json(capsys, "reduce", e8_file, "--json")
    assert obj["moves"] == []
    assert len(obj["reduced"]["vertices"]) == 8


# ----------------------------------------------------------------- census

def test_census_jsonl_output(capsys):
    code, out, _ = run(
        capsys, "census", "--max-vertices", "4", "--min-weight", "-7",
        "--filter", "zhs", "--filter", "nonrational",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "plumb-census", "version": 1}
    records = [json.loads(x) for x in lines[1:]]
    star_code = canonical_code(star_forest(-1, [-2, -3, -7]))
    rec = next(r for r in records if r["code"] == star_code)
    assert rec["lspace"] == "no"
    assert rec["d"] == [["0", "1"]]


def test_census_threads_below_one_exit_2(capsys):
    code, _, err = run(capsys, "census", "--max-vertices", "2", "--min-weight", "-2",
                       "--threads", "0")
    assert code == 2
    assert "threads" in err


def test_census_comma_separated_filters(capsys):
    argv = ("census", "--max-vertices", "3", "--min-weight", "-3")
    code, joined, _ = run(capsys, *argv, "--filter", "lspace,minimal")
    assert code == 0
    code, repeated, _ = run(capsys, *argv, "--filter", "lspace", "--filter", "minimal")
    assert code == 0
    assert joined == repeated
    assert len(joined.strip().splitlines()) > 1


def test_main_calls_share_no_state(capsys):
    """The parser is built once per process, and one call's arguments do
    not reach the next: census with a filter, then without one, writes
    every record, as a fresh subprocess does."""
    assert cli.build_parser() is cli.build_parser()
    argv = ("census", "--max-vertices", "3", "--min-weight", "-3")
    code, filtered, _ = run(capsys, *argv, "--filter", "nonlspace")
    assert code == 0
    code, everything, _ = run(capsys, *argv)
    assert code == 0
    assert len(everything.splitlines()) == 1 + len(census.census_scan(3, -3))
    assert len(filtered.splitlines()) < len(everything.splitlines())
    fresh = subprocess.run(
        [sys.executable, "-m", "plumb.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}, check=True,
    )
    assert fresh.stdout == everything


def test_census_out_file(capsys, tmp_path):
    dst = tmp_path / "census.jsonl"
    code, out, _ = run(
        capsys, "census", "--max-vertices", "2", "--min-weight", "-3",
        "--out", str(dst),
    )
    assert code == 0
    lines = dst.read_text().strip().splitlines()
    assert json.loads(lines[0])["schema"] == "plumb-census"
    assert len(lines) > 1


def test_census_unwritable_out_exits_2_before_the_scan(capsys, monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli.census, "census_scan", never)
    dst = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(
        capsys, "census", "--max-vertices", "2", "--min-weight", "-2", "--out", str(dst),
    )
    assert code == 2
    assert err.startswith(f"input error: cannot write {dst}")
    assert out == ""


def test_census_failed_scan_leaves_no_new_out_file(capsys, tmp_path):
    argv = ("census", "--max-vertices", "13", "--min-weight", "-2", "--out")
    dst = tmp_path / "new.jsonl"
    code, out, err = run(capsys, *argv, str(dst))
    assert code == 3 and err.startswith("budget exceeded:")
    assert not dst.exists()
    # a file this run did not create stays, byte for byte
    old = tmp_path / "old.jsonl"
    old.write_bytes(b"kept\n")
    assert run(capsys, *argv, str(old))[0] == 3
    assert old.read_bytes() == b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]


def test_census_out_through_a_link_or_into_a_pipe(capsys, tmp_path):
    """--out replaces a regular file, through a symbolic link too (the
    link stays), and writes what is not a regular file, such as a named
    pipe, directly."""
    argv = ("census", "--max-vertices", "2", "--min-weight", "-2", "--out")
    real = tmp_path / "real.jsonl"
    real.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    assert run(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink() and real.read_text().startswith('{"schema"')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    assert run(capsys, *argv, str(pipe))[0] == 0
    reader.join(timeout=60)
    assert not reader.is_alive() and got[0] == real.read_text()
    assert pipe.is_fifo()


def test_census_laufer_disagreement_exits_1(capsys, monkeypatch):
    """Each census task checks its canonical-class counts against Laufer's
    test on the same graphs: a disagreement names the graph, and `plumb
    census` exits 1."""
    engine = cli.engine
    real = engine.laufer_rational_rows
    flipped = []

    def flip_first(adj, weights, cycle=None):
        rational = real(adj, weights, cycle)
        if not flipped:
            flipped.append(weights[0].tolist())
            rational[0] = ~rational[0]
        return rational

    monkeypatch.setattr(engine, "laufer_rational_rows", flip_first)
    with pytest.raises(engine.RationalityDisagreementError) as e:
        census.census_scan(3, -3)
    assert str(e.value).startswith(f"{canonical_code(chain_forest(flipped.pop()))}: ")
    code, out, err = run(capsys, "census", "--max-vertices", "2", "--min-weight", "-2")
    assert code == 1
    assert err.startswith(f"computation failed: {canonical_code(chain_forest(flipped[0]))}: ")
    assert out == ""


@pytest.mark.parametrize(
    "extra",
    [()] + [("--filter", name) for name in census.FILTER_NAMES] + [("--threads", "2")],
    ids=lambda extra: "-".join(a.lstrip("-") for a in extra) or "all",
)
def test_census_lines_match_the_oracle(capsys, extra):
    """Every record line is json.dumps of the oracle's object, read off
    the record's d Fractions, on all of census_scan(4, -5) and under
    each filter and a pool of two workers."""
    code, out, err = run(capsys, "census", "--max-vertices", "4", "--min-weight", "-5", *extra)
    assert code == 0, err
    header, *lines = out.splitlines()
    assert header == '{"schema": "plumb-census", "version": 1}'
    filters = extra[1:] if extra[:1] == ("--filter",) else ()
    records = census.census_scan(4, -5, filters=filters)
    assert len(records) > 0
    assert lines == [json.dumps(record_to_obj(r), sort_keys=True) for r in records]


# sha256 of census stdout, taken before the records held integer d-numerators
CENSUS_SHA256 = {
    ("3", "-3"): "569932fe1147de0fe6a223819a8003671f9b889de67f4ee58a75448217f83e61",
    ("4", "-4", "--filter", "zhs,minimal"): "65801bbd5c6395ccf79f9b5a7b29dd78053041f4fe7baa9fc8bf513f048a1fce",
    ("4", "-6"): "6c8ab42f32070fef0f68ffda2b2ef427118db09ef8c9b0d9060e68e0d0d20e1a",
}


@pytest.mark.parametrize("args", list(CENSUS_SHA256), ids=" ".join)
def test_census_bytes_are_pinned(capsys, args):
    nmax, wmin, *extra = args
    code, out, err = run(capsys, "census", "--max-vertices", nmax, "--min-weight", wmin, *extra)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_SHA256[args]


def test_census_builds_no_fraction(capsys, monkeypatch):
    """census writes its d-invariants from the integer numerators: no
    Fraction is made; a library caller still reads the Fractions the
    lines print."""
    made = Counter()
    real_new = Fraction.__new__

    def fraction_new(cls, *args, **kwargs):
        made["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", fraction_new)
    code, out, err = run(capsys, "census", "--max-vertices", "4", "--min-weight", "-6")
    assert code == 0, err
    assert made == Counter()
    records = census.census_scan(4, -6)
    lines = out.splitlines()[1:]
    assert len(records) == len(lines) == 1042
    assert made == Counter()
    for r, line in zip(records, lines):
        assert [[str(x.numerator), str(x.denominator)] for x in r.d] == json.loads(line)["d"]
    assert made["Fraction"] > 0


def test_census_bad_filter_exit_2(capsys):
    code, _, err = run(
        capsys, "census", "--max-vertices", "2", "--min-weight", "-2",
        "--filter", "bogus",
    )
    assert code == 2


def test_census_over_tree_budget_exit_3(capsys):
    code, _, err = run(
        capsys, "census", "--max-vertices", "13", "--min-weight", "-2"
    )
    assert code == 3


# ----------------------------------------------------------------- verify

def test_verify_e8_cli(capsys):
    code, out, _ = run(capsys, "verify-e8", "--max-vertices", "9")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_e8_json(capsys):
    obj = run_json(capsys, "verify-e8", "--max-vertices", "8", "--json")
    assert obj["ok"] is True
    assert len(obj["unimodular_codes"]) == 1


def test_verify_classification_cli(capsys):
    code, out, _ = run(
        capsys, "verify-classification", "--max-vertices", "4",
        "--min-weight", "-7",
    )
    assert code == 0
    assert out.startswith("PASS")


# sha256 of `verify-classification --json` output recorded before the
# scan was batched per shape; the batched scan must reproduce it
VERIFY_CLASSIFICATION_SHA256 = {
    (6, -4): "3f36c22d6f09db323229864dbab8a7a05e6095595baa2d093182e76586ece02b",
    (7, -5): "674ed3a5a2cb5aab3df0bdc3652e53fbcd4bb3d0b610a528268cb7905c2bbbfa",
    (8, -2): "e70ef08b81625fc234159ff268388ac672fc15065e671ef0fa5b5f3aea42280e",
}


@pytest.mark.parametrize("nmax, wmin", sorted(VERIFY_CLASSIFICATION_SHA256))
def test_verify_classification_json_is_unchanged(capsys, nmax, wmin):
    code, out, _ = run(
        capsys, "verify-classification", "--max-vertices", str(nmax),
        "--min-weight", str(wmin), "--json",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_CLASSIFICATION_SHA256[nmax, wmin]


def test_verify_classification_reports_laufer_disagreement(capsys, monkeypatch):
    """Laufer's test flipped (laufer_rational_rows, the one decider, which
    is_rational also calls): the batch sends every graph on to
    is_rational, whose count then contradicts the test. The
    counterexample lines, 45 at (4, -7) and 118 at (6, -4), come out in
    code order, byte for byte as the scan printed them before it was
    batched."""
    from plumb import engine

    batch = engine.laufer_rational_rows
    monkeypatch.setattr(
        engine, "laufer_rational_rows", lambda adj, rows, cycle=None: ~batch(adj, rows, cycle)
    )
    digests = {
        "-7": "233851f06c469ac814d82069a4dbfbfbe2c7c6155a3f2fe965eee21083fc1199",
        "-4": "332bd87cb248b4c56b21a329875e907437d111647ac4be24d0a6bf3cdb9c5e42",
    }
    for nmax, wmin in (("4", "-7"), ("6", "-4")):
        code, out, _ = run(
            capsys, "verify-classification", "--max-vertices", nmax,
            "--min-weight", wmin,
        )
        assert code == 1
        assert out.startswith("FAIL")
        assert "counterexample: Laufer's test says" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digests[wmin]


# -------------------------------------------------------- argument checks

# (argv, exit code): 2 for a bad argument, 3 for one over a budget
BAD_ARGUMENTS = [
    (("hf", "--chain=-2,-3", "--expansion", "-5"), 2),
    (("hf", "--chain=-2,-3", "--max-u", "-1"), 2),
    (("verify-classification", "--max-vertices", "13", "--min-weight", "-2"), 3),
    (("verify-classification", "--max-vertices", "6", "--min-weight", "0"), 2),
    (("verify-classification", "--max-vertices", "0", "--min-weight", "-3"), 2),
    (("verify-e8", "--max-vertices", "3"), 2),
    (("census", "--max-vertices", "13", "--min-weight", "-1"), 3),
    (("census", "--max-vertices", "0", "--min-weight", "-2"), 2),
    (("census", "--max-vertices", "2", "--min-weight", "-2", "--threads", "0"), 2),
]


@pytest.mark.parametrize(
    "argv, expected", BAD_ARGUMENTS, ids=[" ".join(a) for a, _ in BAD_ARGUMENTS]
)
def test_bad_arguments_exit_code(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected, err
    assert "Traceback" not in err


def test_readme_names_every_flag_the_parser_accepts():
    """Every optional flag of every subcommand is named in README.md, and
    every flag of README's "Common flags" list is accepted by some
    subcommand, so neither can drift from the other."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {f for a in p._actions for f in a.option_strings if f.startswith("--")}
        - {"--help"}
        for name, p in sub.choices.items()
    }
    accepted = set().union(*flags.values())
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    for name, own in flags.items():
        assert own <= named, (name, own - named)
    common = readme.split("Common flags:", 1)[1].split("\n\n", 2)[1]
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", common))
    assert {"--json", "--budget", "--out"} <= listed
    assert listed <= accepted, listed - accepted


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that closes the pipe after one line (`| head -1`) ends the
    run with exit code 1 and nothing on stderr; the output (about 180 kB
    for (-7)^4) is larger than a pipe holds, so the run is still writing
    when the pipe closes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "plumb.cli", "invariants", "--chain=-7,-7,-7,-7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"det 2255")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# ------------------------------------------------------------ JSON writer

json_text = st.text(st.characters(), max_size=6)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | json_text
    | st.integers().map(str),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=24,
)
AWKWARD = {
    "caf\u00e9 \u2603 \U0001f600": ['"quoted"', "back\\slash", "\x00\x1f\n\t\u2028", "100%"],
    "": [[], {}, [[]], {"": {}}],
    "\"\\\x07": [True, False, None, -7, 2**63, -(2**64) - 1, "0", "-12"],
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values)
@example(AWKWARD)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj, "\n", {}) == json.dumps(obj, sort_keys=True, indent=2)


def slotted(obj, values):
    """obj with each int, and each string of an int's digits, replaced by
    the writer's slot for it; the ints are appended to values in text
    order."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        values.append(obj)
        return cli._INT
    if isinstance(obj, str):
        if re.fullmatch(r"-?[0-9]+", obj) and str(int(obj)) == obj:
            values.append(int(obj))
            return cli._STR
        return obj
    if isinstance(obj, dict):
        return {k: slotted(obj[k], values) for k in sorted(obj)}
    return [slotted(x, values) for x in obj]


def table(runs, values):
    """A cli._Table of the (proto, count) runs, its values from a list
    of ints (held as exact ints, past int64 too)."""
    return cli._Table(runs, lambda lo, hi: np.array(values[lo:hi], dtype=object))


def filled(proto, values):
    """proto with its slots filled from the iterator values: the JSON
    value a table item shaped like proto stands for."""
    if proto is cli._INT:
        return next(values)
    if proto is cli._STR:
        return str(next(values))
    if isinstance(proto, dict):
        return {k: filled(proto[k], values) for k in sorted(proto)}
    if isinstance(proto, list):
        return [filled(x, values) for x in proto]
    return proto


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values)
@example(AWKWARD)
def test_json_writer_fills_match_json_dumps(obj):
    """A table item, its prototype rendered once as a %-template, writes
    what json.dumps writes for the filled-in value, at any depth."""
    values = []
    proto = slotted(obj, values)
    fill = table([(proto, 1)], values)
    nested = {"a": [fill, {"b": fill}]}
    want = {"a": [[obj], {"b": [obj]}]}
    assert cli._json(nested, "\n", {}) == json.dumps(want, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values, st.integers(min_value=0, max_value=3))
@example(AWKWARD, 0)
def test_json_writer_long_fills_match_json_dumps(obj, chunk):
    """A table item of more than _FILL_CHUNK values is written a chunk at
    a time, each item of a prototype's list whole and a repeated item
    rendered once; it writes what json.dumps writes."""
    values = []
    proto = slotted(obj, values)
    row = [[cli._STR, cli._STR], cli._INT]
    rows = [[[str(i), str(-i)], 2 * i] for i in range(5)]
    head = [x for i in range(5) for x in (i, -i, 2 * i)]
    fill = table([({"rows": [row] * 5, "x": proto}, 1)], head + values)
    want = {"a": [[{"rows": rows, "x": obj}]]}
    with mock.patch.object(cli, "_FILL_CHUNK", chunk):
        assert cli._json({"a": [fill]}, "\n", {}) == json.dumps(want, sort_keys=True, indent=2)


def test_json_writer_bounds_a_long_fill_by_its_chunks(monkeypatch):
    """A table item of 3,000 rows, cut into chunks of 30 values, is
    written in pieces of about 10 rows, and the pieces make json.dumps'
    text."""
    monkeypatch.setattr(cli, "_FILL_CHUNK", 30)
    row = [[cli._STR, cli._STR], cli._INT]
    values = [x for i in range(3000) for x in (i, 7, i)]
    pieces = []
    cli._write_json(table([({"rows": [row] * 3000}, 1)], values), "\n", {}, pieces.append)
    want = json.dumps([{"rows": [[[str(i), "7"], i] for i in range(3000)]}], sort_keys=True, indent=2)
    assert "".join(pieces) == want
    assert max(map(len, pieces)) < len(want) / 100


@st.composite
def tables(draw):
    """(runs, values, want): the runs and flat values of a table whose
    prototypes come from JSON values (with empty runs, runs of items
    with no slot, and runs wider than a small chunk), and the JSON list
    it stands for."""
    runs, values, want = [], [], []
    for obj in draw(st.lists(json_values, max_size=4)):
        ints = []
        proto = slotted(obj, ints)
        count = draw(st.integers(min_value=0, max_value=5))
        size = count * len(ints)
        fresh = draw(st.lists(st.integers(-(2**40), 2**40), min_size=size, max_size=size))
        runs.append((proto, count))
        values += fresh
        it = iter(fresh)
        want += [filled(proto, it) for _ in range(count)]
    return runs, values, want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables(), st.integers(min_value=1, max_value=7))
def test_json_writer_tables_match_json_dumps(drawn, chunk):
    """A table of runs with different prototypes, cut into chunks of 1-7
    values (so chunks end inside items and items can be wider than a
    chunk), writes what json.dumps writes for its list of items, alone
    and nested."""
    runs, values, want = drawn
    with mock.patch.object(cli, "_FILL_CHUNK", chunk):
        assert cli._json(table(runs, values), "\n", {}) == json.dumps(want, sort_keys=True, indent=2)
        nested = {"t": [table(runs, values), 1]}
        assert cli._json(nested, "\n", {}) == json.dumps({"t": [want, 1]}, sort_keys=True, indent=2)


def test_json_writer_writes_a_table_in_chunks(monkeypatch):
    """A table of R rows of S slots, cut into chunks of _FILL_CHUNK
    values, calls write at most ceil(R * S / _FILL_CHUNK) + (runs) + 1
    times, and no piece holds more than a chunk of values."""
    monkeypatch.setattr(cli, "_FILL_CHUNK", 7)
    pair = [[cli._STR, cli._STR], cli._INT]
    triple = {"k": [cli._INT, cli._INT], "v": cli._STR}
    runs = [(pair, 100), (triple, 0), (triple, 50), (pair, 31)]
    rows = sum(count for _, count in runs)
    values = list(range(3 * rows))
    pieces = []
    cli._write_json(table(runs, values), "\n", {}, pieces.append)
    it = iter(values)
    want = [filled(proto, it) for proto, count in runs for _ in range(count)]
    assert "".join(pieces) == json.dumps(want, sort_keys=True, indent=2)
    assert len(pieces) <= -(-3 * rows // 7) + len(runs) + 1
    assert max(len(re.findall(r"-?[0-9]+", p)) for p in pieces) <= 7


def test_long_fill_yields_a_repeated_row_once(monkeypatch):
    """A class wider than a chunk is written from the pieces of its
    template (_fill_pieces). Its rows are one item repeated, which comes
    as one piece with its repeat count, so one wide class yields fewer
    pieces than the chunks it is written in, and the bytes are those of
    a chunk wide enough for the whole class."""
    summary = relations.hf_summary(QFormContext(chain_forest([-2])), max_u=10**4)
    obj = cli._hf_obj(summary)
    want = cli._json(obj, "\n", {})
    monkeypatch.setattr(cli, "_FILL_CHUNK", 2**8)
    proto = obj["classes"].runs[0][0]
    pieces = list(cli._fill_pieces(proto, "\n      ", {}))
    slots = sum(count * repeat for _, count, repeat in pieces)
    assert slots > 3 * 10**4
    assert len(pieces) <= -(-slots // cli._FILL_CHUNK)
    assert cli._json(obj, "\n", {}) == want


# ------------------------------------------------- pinned output bytes

PINNED_GRAPHS = {
    "E8": (forest_to_text(e8_forest()), ()),
    "Sigma237": (forest_to_text(star_forest(-1, [-2, -3, -7])), ()),
    "(-7)^4": (forest_to_text(chain_forest([-7] * 4)), ()),
    "empty": ("", ()),
    # not almost-rational: the shell path
    "two_node_tree": (forest_to_text(two_node_tree()), ("--max-u", "2")),
}

# sha256 of stdout, taken before the tables were held as integers
PINNED_SHA256 = {
    ("E8", "invariants", "--json"): "a45e3c604fb12ec64bbf5b49c2721d3a701c52202e73596f33d1f06ebbde3007",
    ("E8", "invariants", "text"): "b7b3b08e94f4a27a7c92189281cdfaf293391e2eb264b1f6b856a809cb63c9c7",
    ("E8", "invariants", "--dot"): "678c2c7b36072c5e55cd5216013c4f03a3b6ce2c5a94c125f29f12a76faa6e44",
    ("E8", "hf", "--json"): "672dfca9a0139665663555b537b241f0bb4faf59e744c98cfe635971b26fb188",
    ("E8", "hf", "text"): "dad9242d6c65f02cdd0e2c3a103739aa12406542a03a7ed98c31ca8bce131266",
    ("E8", "hf", "--dot"): "21e23adf8efa99793d8f2638ce96513519f7b14dcfa49dfff748e7e70798abcc",
    ("E8", "dinv", "--json"): "3ae2f3382b74d25192acdb4d7c0d6461bccee9793323a86476c094f3bf930323",
    ("E8", "dinv", "text"): "91c1a862ac9e1af01b8f04f6ffbc1eb71a5f22dbdf91ca28c78b101276d4e0aa",
    ("E8", "dinv", "--dot"): "32362bd8ccae12754b2daccacd8bcefd685ece5907f68474be590ccb278da233",
    ("E8", "basic", "--json"): "fa1b2ed4706ae0063fb902e2865ba61d2905432b406858da242852cc0420f366",
    ("E8", "basic", "text"): "41eb39469dca7b11ee682506084dad1f163092e9b429dedd78091428abee77b6",
    ("E8", "basic", "--dot"): "6013960eec03be7d1ed1fc047cec1d5d7ea4556ebe99f5c14cf78dc68be9ebd6",
    ("Sigma237", "invariants", "--json"): "ff997f89785ee15860b8719849b8da7bcbbe3bbec0c07d0e6432a2c33fb60331",
    ("Sigma237", "invariants", "text"): "3e3fa42422efc1ba0bf00da1c463d59483b39832695c68a23d0fa732783e8765",
    ("Sigma237", "invariants", "--dot"): "951b37b951bf5b7a150d9fb24ef7ae27621d90e226b2c188d0324e23248d4b6d",
    ("Sigma237", "hf", "--json"): "5c54073afcc051e518132daedcf89af001bf9b6f2d78650e544c0ff84593062b",
    ("Sigma237", "hf", "text"): "2bcc06bbf2388135fceb71cc61387872baea52700bb3a8756882d3811357b34f",
    ("Sigma237", "hf", "--dot"): "9b086d8657d17535c84452ca693c2d60b93222f7f43e6682e953eb082900a5b8",
    ("Sigma237", "dinv", "--json"): "c428bfab949594f615cf90e28c08e9a4279a89a284d36ef8b4efa8225e62b65c",
    ("Sigma237", "dinv", "text"): "886c323dcb3979e849e408c4ecb8bf80de5ffa02349b17f74baf47daf0df3e2a",
    ("Sigma237", "dinv", "--dot"): "d42d936dbc8e933ffb4736950314b7482daf7c97a31a5a065d1e143ac1bbd49a",
    ("Sigma237", "basic", "--json"): "c01b3bd4e95559e7fbb73108eec8b472858c09f44ce7223f98c4f8bca263de15",
    ("Sigma237", "basic", "text"): "ec5f13206bbfa5d9e0c3fc21f36fbc1438536d517b807a8fb913ec1b0273e028",
    ("Sigma237", "basic", "--dot"): "4bc484bc18a930ef3971403277b9b9e3590422f4b0fab37df09e5535b83f910f",
    ("(-7)^4", "invariants", "--json"): "6bb0d434232869175ecbe51c9b12f97d86e251a640c9322bb7d0526a65a2d69f",
    ("(-7)^4", "invariants", "text"): "615e41a65ce0a1d05ecdb7a37231fda475b6bb7a83a88dc63119056a0900ec9a",
    ("(-7)^4", "invariants", "--dot"): "bf3ca68f51e492d04f72fdcb61f4ba338dfc447669007fcdac394e8e740a0c9e",
    ("(-7)^4", "hf", "--json"): "2c1db1e661f5607218e76c9731f8fbb56c689ddaeaa863fe62caa84fd80135c8",
    ("(-7)^4", "hf", "text"): "447c420ff27262e3492c9a59e2e4ff2dfd556b303c0327220602bc659f716f1b",
    ("(-7)^4", "hf", "--dot"): "7b1293a5799fe8f027572ac97acd7e6b9989229fc2fde0242cee9e144707ef01",
    ("(-7)^4", "dinv", "--json"): "482f9b90b64eedd2c246eca95c72708aa3aa29deb2ef6cac24dc6bbfd6cb336b",
    ("(-7)^4", "dinv", "text"): "f813250e9b1a54490c7f9dec87ea235263259de042877228c45df29a58ad1eb6",
    ("(-7)^4", "dinv", "--dot"): "8e9c06c5945ce4799a9730877650bae25a9975b4f4e6e4b99f813c49186859dd",
    ("(-7)^4", "basic", "--json"): "8f87f0e9c5dff2862dd15e8aa0b0d41b1e448849d3f229a0c890207062381f16",
    ("(-7)^4", "basic", "text"): "a6529d824ae0fe881b42376009233801664a0b9b7aa1c4c4952e315dafedc00d",
    ("(-7)^4", "basic", "--dot"): "82a6f588ac87a3cae1e109e01ac5d0d35ad03b695b711fbdb670180b938b7a3c",
    ("empty", "invariants", "--json"): "c846ad9c97fec10ac44bdc72936b48633cf6e7e444e56087abb3de829a9b8075",
    ("empty", "invariants", "text"): "8b527d470d76fa414f3e51b34f934ef8448130f63ea253a571f5f990e289d9a2",
    ("empty", "invariants", "--dot"): "94ee5508a87cf9a48fe5a183eb657cb68c88a86387b3babe1f911f5b08515b49",
    ("empty", "hf", "--json"): "89eab10da1909a5ec4eccf41b5f70d299bd0c43c46f31fdf740e834710cd3ea6",
    ("empty", "hf", "text"): "f7f9b383d2622e4c172962dd00d3c0231faf5f23bb297d4d630aa5946e129c0f",
    ("empty", "hf", "--dot"): "761f5b59fa760dcf07a805cd5613f999743ab90be597a4866a55500b1d5da180",
    ("empty", "dinv", "--json"): "f452d0c77ee0291a9b7a3b5243e229350136a960d70863dd07012ed67741eca3",
    ("empty", "dinv", "text"): "a92f1f07d92204acaf19a3a71f64c6c7525b0aa523f6f8d72cf81ec31c230281",
    ("empty", "dinv", "--dot"): "af2c916f5363fc4a52659af4a8b50013e11bb06a845a05d5ea811769d6a39c9e",
    ("empty", "basic", "--json"): "e692bd2d8587bc67ad2dd4b9e6ee1c50064acec820d3c75ec7bb64328ec6a4c7",
    ("empty", "basic", "text"): "64fa20ef20520fce9bc806ece3c5bc9c1abed0b4c7a4898b7f55d73bad2f0aa1",
    ("empty", "basic", "--dot"): "5a1de9d02c1cb08aef66a5c7c1ff675855cb7d8def6cd0edb0bd9893b10a0fb9",
    ("two_node_tree", "invariants", "--json"): "ce1d1186b544692ce486c19b98823006b120618a60b35d7b7f3468c32d5976de",
    ("two_node_tree", "invariants", "text"): "afcc14d4f229ed8151ca604625bbcf6d47ffc3070ebd4f057667f224d8b9fdca",
    ("two_node_tree", "invariants", "--dot"): "b04c88c313621c9d9beffff186a3ee2dc4b4e44c3137dbe4da32919e4e1b900e",
    ("two_node_tree", "hf", "--json"): "c91734a6f79228a066b17f53e7a31931a14ee004e586a4f0b71a54846de3cf51",
    ("two_node_tree", "hf", "text"): "bf93b549116e54e703eff83499401ce076f8dbcb72dcb465ee0cb0508b636eab",
    ("two_node_tree", "hf", "--dot"): "bf2af372084218fe8a313808bf9b21022e0ece7b9067279f337707c66cc091dd",
    ("two_node_tree", "dinv", "--json"): "eb4fc7b512a58f742dcfdb5c0e1f8bb06735ef060988339ecb206978eb282b42",
    ("two_node_tree", "dinv", "text"): "811a8fbbaca1b7070438ea607abc17fc4d4a91f0174767512dad972be14304cc",
    ("two_node_tree", "dinv", "--dot"): "1b5f791411b43b883eab973a589910e2ca0681b498f45e5acc3a248420a0a9d9",
    ("two_node_tree", "basic", "--json"): "1cc612901b7a11f9bab4645a189af1fc78482fe624c9e6425d06777cf8ef34a5",
    ("two_node_tree", "basic", "text"): "513a935bf106770b7996f7184ecee673e6cde764e6082c2b8268afd09653c01a",
    ("two_node_tree", "basic", "--dot"): "e9be3b3c94ef1788d7758c69278526af7383277f33f1cddc1a8fb0e6d824425a",
}


@pytest.mark.parametrize("graph,command,form", list(PINNED_SHA256))
def test_output_bytes_are_pinned(capsys, monkeypatch, graph, command, form):
    text, window = PINNED_GRAPHS[graph]
    argv = [command, "-"]
    if command in ("invariants", "hf"):
        argv += window
    if form != "text":
        argv.append(form)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[graph, command, form]


def test_invariants_json_builds_no_fraction_or_degree_row(capsys, monkeypatch):
    """invariants --json on (-7)^4 (2,255 classes) prints its d-invariants
    and tables from the integers: no Fraction and no DegreeRow is made."""
    made = Counter()
    real_new = Fraction.__new__

    def fraction_new(cls, *args, **kwargs):
        made["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    class CountedRow(relations.DegreeRow):
        def __new__(cls, *args, **kwargs):
            made["DegreeRow"] += 1
            return super().__new__(cls)

    monkeypatch.setattr(Fraction, "__new__", fraction_new)
    monkeypatch.setattr(relations, "DegreeRow", CountedRow)
    obj = run_json(capsys, "invariants", "--chain=-7,-7,-7,-7", "--json")
    assert len(obj["hf"]["classes"]) == 2255
    assert made == Counter()
    # the counters see the objects a library caller reads
    relations.hf_summary(relations.QFormContext(chain_forest([-2]))).classes
    assert made["Fraction"] > 0 and made["DegreeRow"] > 0


ROUND_TRIP_GRAPHS = {
    "(-7)^4": forest_to_text(chain_forest([-7] * 4)),
    "D4": forest_to_text(star_forest(-2, [-2, -2, -2])),
    # basic counts 2, 1, 1, ... and converged flags that change along
    # the classes at max_u 2
    "two_node_tree": forest_to_text(two_node_tree()),
}


@pytest.mark.parametrize("graph", list(ROUND_TRIP_GRAPHS))
@pytest.mark.parametrize("command", ["basic", "dinv", "hf", "invariants"])
def test_json_output_is_json_dumps_of_itself(capsys, monkeypatch, graph, command):
    """Each --json table round-trips: stdout is json.dumps of what it
    parses to."""
    monkeypatch.setattr("sys.stdin", io.StringIO(ROUND_TRIP_GRAPHS[graph]))
    window = ["--max-u", "2"] if command in ("hf", "invariants") else []
    code, out, err = run(capsys, command, "-", "--json", *window)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_round_trip_graphs_vary_counts_and_flags():
    """The round-trip graphs cover runs of several prototypes: basic
    counts that differ between classes and mixed converged flags."""
    from plumb import engine
    from plumb.lattice import QFormContext

    ctx = QFormContext(two_node_tree())
    counts = engine.basic_vectors(ctx).counts
    flags = relations.hf_summary(ctx, max_u=2).counts[:, -1] == 1
    assert len(cli._runs(counts)) > 1 and len(cli._runs(flags)) > 1


def test_invariants_json_on_many_classes_is_fast(capsys):
    """invariants --json on (-7)^4 (2,255 classes) runs in process in
    under a second."""
    run(capsys, "invariants", "--chain=-7,-7,-7,-7", "--json")  # imports warm
    t = time.perf_counter()
    code, out, _ = run(capsys, "invariants", "--chain=-7,-7,-7,-7", "--json")
    assert code == 0 and len(json.loads(out)["hf"]["classes"]) == 2255
    assert time.perf_counter() - t < 1.0


def test_hf_json_holds_no_wide_class_whole(monkeypatch):
    """hf --json of a class wider than a chunk reads the summary's arrays
    a chunk at a time: rendering the tables of the (-2) chain at max_u
    20,000 (two classes of 60,007 values), chunks of 1,024 values, peaks
    below what one class's values take as an int64 array."""
    from plumb import engine
    from plumb.lattice import QFormContext

    monkeypatch.setattr(cli, "_FILL_CHUNK", 2**10)
    ctx = QFormContext(chain_forest([-2]))
    summary = relations.hf_summary(ctx, max_u=20_000)
    size = [0]

    def count(text):
        size[0] += len(text)

    tracemalloc.start()
    try:
        cli._write_json(cli._hf_obj(summary), "\n", {}, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buf = io.StringIO()
    monkeypatch.setattr("sys.stdout", buf)
    cli._print_json(cli._hf_obj(summary))
    assert size[0] + 1 == len(buf.getvalue())
    top = Fraction(int(summary.bottoms[1]) + 2 * summary.denominator * 20_000, summary.denominator)
    want = [[str(top.numerator), str(top.denominator)], int(summary.counts[1, -1])]
    assert json.loads(buf.getvalue())["classes"][1]["rows"][20_000] == want
    assert peak < 8 * 60_007, peak
