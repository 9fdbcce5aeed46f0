"""Command-line interface: subcommands, output formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plumb import cli
from plumb.catalog import e8_forest, star_forest
from plumb.forest import canonical_code, forest_to_text
from plumb.lattice import DEFAULT_BUDGET


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
        engine, "laufer_rational_rows", lambda nb, rows: ~batch(nb, rows)
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
    (("invariants", "--chain=-2,-3", "--ar-bound", "-3"), 2),
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
