"""Command-line interface: dispatch, exit codes, determinism."""

from __future__ import annotations

import json
import time

import pytest

from ddlmc.cli import main

MODEL = "worlds 3\nrel 0>=2 2>=1\nval A = {0}\nval Ap = {1}\nval B = {2}\n"


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "m.pm"
    path.write_text(MODEL, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_valid(model_file, capsys):
    code, out = run(capsys, "eval", "--model", model_file, "--rule", "max", "O(~B / A | B)")
    assert code == 0
    assert "valid in model: yes" in out


def test_eval_invalid_exit_code(model_file, capsys):
    code, out = run(capsys, "eval", "--model", model_file, "--rule", "max", "O(B / T)")
    assert code == 1


def test_eval_json(model_file, capsys):
    code, out = run(capsys, "eval", "--model", model_file, "--rule", "max", "--json", "A | Ap | B")
    report = json.loads(out)
    assert report["valid"] is True
    assert report["true_at"] == [0, 1, 2]
    assert report["elapsed_ms"] is None


def test_check_model(model_file, capsys):
    code, _ = run(
        capsys, "check-model", "--model", model_file, "--rule", "max",
        "--props", "acyclic", "O(~B / A | B)",
    )
    assert code == 0
    code, _ = run(
        capsys, "check-model", "--model", model_file, "--rule", "max",
        "--props", "transitive",
    )
    assert code == 1


def test_find_model_sat_and_unsat(capsys):
    code, out = run(
        capsys, "find-model", "O(p / T)", "<>~p", "--rule", "max", "--max-n", "3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "sat"
    assert report["witness"]["n"] == 2

    code, out = run(
        capsys, "find-model", "O(p / T)", "O(~p / T)", "<>T", "~O(q / T)",
        "--rule", "max", "--max-n", "3", "--json",
    )
    assert code == 1
    assert json.loads(out)["status"] == "unsat_up_to_bound"


def test_find_model_witness_feeds_check_model(tmp_path, capsys):
    code, out = run(
        capsys, "find-model", "O(p / T)", "<>~p", "--rule", "max", "--max-n", "3", "--json",
    )
    witness = json.loads(out)["witness"]["model_text"]
    path = tmp_path / "w.pm"
    path.write_text(witness, encoding="utf-8")
    code, _ = run(
        capsys, "check-model", "--model", str(path), "--rule", "max", "O(p / T)", "<>~p",
    )
    assert code == 0


def test_correspond_forward_and_table(capsys):
    code, _ = run(
        capsys, "correspond", "--rule", "max", "--axiom", "Dstar",
        "--props", "max_limited", "--max-n", "3",
    )
    assert code == 0
    code, _ = run(
        capsys, "correspond", "--rule", "max", "--axiom", "Sp",
        "--props", "transitive", "--max-n", "3",
    )
    assert code == 1
    code, out = run(capsys, "correspond", "--rule", "lewis", "--table", "--json")
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_correspond_converse(capsys):
    code, out = run(
        capsys, "correspond", "--rule", "max", "--axiom", "Id",
        "--converse", "transitive", "--max-n", "3", "--json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "witness"


def test_collapse(capsys):
    code, out = run(capsys, "collapse", "--max-n", "3", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "confirmed"


def test_paradox_small(capsys):
    code, out = run(capsys, "paradox", "--max-n", "3", "--rules", "max", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True


def test_lattice(capsys):
    code, out = run(capsys, "lattice", "--max-n", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(a["status"] == "confirmed" for a in report["arrows"])


def test_props(model_file, capsys):
    code, out = run(capsys, "props", "--model", model_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["properties"]["acyclic"] is True
    assert report["properties"]["transitive"] is False
    assert report["longest_strict_chain"] == 3


def test_usage_errors(model_file, capsys):
    assert main(["eval", "--model", "/nonexistent.pm", "p"]) == 2
    assert main(["eval", "--model", model_file, "p & "]) == 2
    assert main(["correspond", "--axiom", "NoSuchAxiom"]) == 2
    assert main(["find-model", "p", "--props", "nonsense"]) == 2
    assert main(["nonsense-command"]) == 2


def test_json_reports_are_deterministic(capsys):
    outputs = set()
    for workers in ("1", "2", "1"):
        code, out = run(
            capsys, "paradox", "--max-n", "3", "--rules", "max",
            "--workers", workers, "--json",
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [
    # Unbounded, this converse search runs for close to a minute.
    "correspond --axiom CM --converse max_smooth --rule max --max-n 5 --timeout 1 --json",
    "correspond --table --rule max --max-n 4 --timeout 0.05 --json",
])
def test_correspond_honours_timeout(argv, capsys):
    started = time.monotonic()
    code, out = run(capsys, *argv.split())
    assert time.monotonic() - started < 15
    assert code == 1
    report = json.loads(out)
    assert report == {"command": "correspond", "status": "timeout",
                      "max_n": report["max_n"], "elapsed_ms": None}


def test_strict_atoms_flag(model_file, capsys):
    code, _ = run(capsys, "eval", "--model", model_file, "--rule", "max", "zz | ~zz")
    assert code == 0
    code = main(["eval", "--model", model_file, "--rule", "max", "--strict-atoms", "zz | ~zz"])
    assert code == 2
