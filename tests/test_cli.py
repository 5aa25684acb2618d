"""End-to-end command line checks via main(argv)."""

import json

import pytest

from twoway.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_exact_dfa(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "eq-dfa:3", "101###101")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "2dfa"
    assert doc["outcome"] == "accept"
    assert doc["accept_probability"] == 1.0
    assert doc["steps"] == 3 * 3 + 2


def test_simulate_exact_pfa_nonmember(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "eq-pfa:3", "101###100")
    assert rc == 0
    doc = json.loads(out)
    assert 0.0 <= doc["accept_probability"] < 0.5
    assert doc["t_max"] == 9 * 3 + 4
    assert doc["branches"] >= 4          # one branch per prime up to 9


def test_simulate_sample_is_seed_stable(capsys):
    args = ("simulate", "eq-pfa:3", "101###101", "--mode", "sample", "--seed", "3")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2
    assert json.loads(out1)["outcome"] == "accept"


def test_compile_writes_a_loadable_machine(tmp_path, capsys):
    out_path = tmp_path / "grover2.json"
    rc, out, _ = run_cli(capsys, "compile", "grover-or:2", "--n", "2",
                         "--out", str(out_path))
    assert rc == 0
    assert "declared states:" in out and "phase table:" in out
    assert out_path.exists()
    rc, out, _ = run_cli(capsys, "simulate", str(out_path), "11##11")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "2qcfa"
    assert doc["accept_probability"] > 0.5


def test_protocol_transcript_lines(capsys):
    rc, out, _ = run_cli(capsys, "protocol", "eq-dfa:4", "1011", "1011")
    assert rc == 0
    assert "crossings:  1" in out
    assert "total bits: 9" in out
    assert "output:     1" in out
    assert "Alice: 8 bits [state]" in out


def test_oracle_dcc_from_matrix_file(tmp_path, capsys):
    path = tmp_path / "eq1.txt"
    path.write_text("10\n01\n")
    rc, out, _ = run_cli(capsys, "oracle", "dcc", str(path))
    assert rc == 0 and out.strip() == "2"


def test_oracle_dtdepth_with_tree(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "dtdepth", "or:3", "--show-tree")
    assert rc == 0
    first, rest = out.split("\n", 1)
    assert first == "3"
    tree = json.loads(rest)
    assert set(tree) == {"var", "low", "high"}


def test_sweep_then_fit(tmp_path, capsys):
    csv_path = tmp_path / "pfa.csv"
    rc, out, _ = run_cli(capsys, "sweep", "eq-pfa", "--n", "8,16,32,64",
                         "--samples", "4", "--out", str(csv_path))
    assert rc == 0
    assert f"wrote {csv_path}" in out
    assert csv_path.exists() and csv_path.with_suffix(".csv.meta.json").exists()
    rc, out, _ = run_cli(capsys, "fit", str(csv_path), "--logcorrect")
    assert rc == 0
    slope = float(next(ln for ln in out.splitlines() if "slope" in ln).split()[1])
    assert 0.5 < slope < 1.5
    assert "(divide-by-log-n)" in out


def test_errors_exit_one_with_diagnostic(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "simulate", "eq-dfa:0", "¢$")
    assert rc == 1 and out == "" and err.startswith("error: ")
    rc, _, err = run_cli(capsys, "simulate", "missing.json", "0")
    assert rc == 1 and "missing.json" in err
    rc, _, err = run_cli(capsys, "compile", "shor:4", "--n", "4")
    assert rc == 1 and "shor" in err
    rc, out, err = run_cli(capsys, "sweep", "eq-dfa", "--n", "9", "--samples", "0",
                           "--out", str(tmp_path / "rows.csv"))
    assert rc == 1 and out == "" and "samples per n must be >= 1" in err
    assert not (tmp_path / "rows.csv").exists()
