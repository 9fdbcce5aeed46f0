"""Command-line interface: subcommands, output formats, exit codes."""

import json

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


# ------------------------------------------------- basic / dinv / hf / dot

def test_basic_json(capsys):
    obj = run_json(capsys, "basic", "--chain=-2", "--json")
    assert obj["total"] == 2
    assert obj["box"] == 2


def test_dinv_json_exact_pairs(capsys):
    obj = run_json(capsys, "dinv", "--chain=-3", "--json")
    ds = sorted(tuple(c["d"]) for c in obj["classes"])
    assert ds == [("-1", "2"), ("1", "6"), ("1", "6")]


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
