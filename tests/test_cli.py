"""Command-line interface: dispatch, exit codes, determinism."""

from __future__ import annotations

import json
import os
import time

import pytest

from ddlmc import cli
from ddlmc.cli import build_parser, main

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
    # a repeated atom name used to crash the sliced n=3 scan
    assert main("find-model []~(p&q) []~(p&r) []~(q&r) <>p <>q <>r "
                "--atoms p,q,r,s,t,p --max-n 3".split()) == 2
    # a repeated rule used to run each of its cells twice
    assert main("paradox --max-n 2 --rules max,max --json".split()) == 2
    # a repeated property used to be echoed twice, after normalising too
    assert main("find-model p --props transitive,transitive --json".split()) == 2
    assert main("correspond --axiom CM --props max_smooth,max_smooth".split()) == 2
    assert main(["check-model", "--model", model_file, "--props", "max-smooth,max_smooth"]) == 2
    assert main(["nonsense-command"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("target", ["?x", "p & ?p"])
def test_find_model_rejects_metavariables(target, capsys):
    code = main(["find-model", target])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: target contains metavariables: {target}\n"


@pytest.mark.parametrize("formula", ["?x -> p", "p & ?p"])
def test_check_model_rejects_metavariables(formula, model_file, capsys):
    code = main(["check-model", "--model", model_file, formula])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: formula contains metavariables: {formula}\n"


@pytest.mark.parametrize("target", [
    "(" * 140 + "p" + ")" * 140,
    "O(" * 300 + "p" + "/T)" * 300,
    "~" * 900 + "p",
    "~" * 100 + "p",
], ids=["140 parentheses", "300 obligations", "900 negations", "100 negations"])
def test_deep_formula_is_a_usage_error(target, capsys):
    # these used to end in a RecursionError traceback (exit 1)
    assert main(["find-model", target, "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad formula ")
    assert "formula nested more than 100 levels deep" in captured.err
    assert captured.err.count("\n") == 1
    assert main(["find-model", "~" * 99 + "p", "--max-n", "2"]) == 0  # at the limit


def test_find_model_offers_only_satisfy_and_refute(capsys):
    # valid mode is a library search (frame-level converses), not an option
    assert main(["find-model", "p | ~p", "--mode", "valid"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("axiom, prop, frames", [
    ("Dstar", "max_limited", 354),
    ("CM", "max_smooth", 1634),
])
def test_exhausted_frame_level_converse_counts(axiom, prop, frames, capsys):
    # every frame lacking the property up to n=4 refutes the axiom
    code, out = run(capsys, "correspond", "--axiom", axiom, "--converse", prop,
                    "--rule", "max", "--max-n", "4", "--json")
    report = json.loads(out)
    assert code == 1
    assert (report["status"], report["level"], report["frames_checked"]) == (
        "none_up_to_bound", "frame", frames)
    assert "witness" not in report


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
    # Stops inside the unrestricted five-world class build (about 7 s).
    "correspond --table --rule opt --max-n 5 --timeout 1 --json",
])
def test_correspond_honours_timeout(argv, capsys, monkeypatch):
    # a table runs in two processes, both stop, and the child is reaped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = time.monotonic()
    code, out = run(capsys, *argv.split())
    assert time.monotonic() - started < 15
    assert code == 1
    report = json.loads(out)
    assert report == {"command": "correspond", "status": "timeout",
                      "max_n": report["max_n"], "elapsed_ms": None}
    with pytest.raises(ChildProcessError):  # no child process is left
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_search_process_is_an_error_line_with_exit_3(capsys, monkeypatch):
    def dead(*args, **kwargs):
        raise ChildProcessError("fork_map worker 12345 ended with exit code -9")

    monkeypatch.setattr(cli, "table_sweep", dead)
    code = main(["correspond", "--table", "--max-n", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: fork_map worker 12345 ended with exit code -9\n"


@pytest.mark.parametrize("argv, code, limit_s", [
    ("collapse --max-n 5 --timeout 0.000001 --json", 1, 15),
    # Unbounded, this builds the five-world classes of all seven lattice
    # properties (about 8 s).
    ("lattice --max-n 5 --timeout 1 --json", 1, 15),
    # The bound is checked before any work: a usage error, no report.
    ("lattice --max-n 6 --json", 2, 1),
])
def test_collapse_and_lattice_honour_timeout_and_bound(argv, code, limit_s, capsys):
    started = time.monotonic()
    got, out = run(capsys, *argv.split())
    assert time.monotonic() - started < limit_s
    assert got == code
    if code == 2:
        assert out == ""
    else:
        assert json.loads(out) == {"command": argv.split()[0], "status": "timeout",
                                   "max_n": 5, "elapsed_ms": None}


@pytest.mark.parametrize("argv", [
    "collapse --max-n 0",
    "correspond --axiom Id --max-n 0",
    "correspond --axiom Id --converse transitive --max-n 0",
    "correspond --table --max-n 0",
    "correspond --table --max-n 6",
    "find-model p --max-n 0",
    # unsat at every n, so without the check every n <= 5 frame is scanned
    "find-model p&~p --max-n 6",
    "paradox --max-n 0",
    "lattice --max-n 0",
    "collapse --timeout -1",
    "correspond --table --timeout -0.5",
    "find-model p --timeout nan",
    "paradox --timeout -1",
    "lattice --timeout -1",
])
def test_bounds_fail_loudly_before_any_work(argv, capsys):
    started = time.monotonic()
    code = main(argv.split())
    captured = capsys.readouterr()
    assert time.monotonic() - started < 1
    assert code == 2
    assert captured.out == ""
    assert "1.." in captured.err or ">= 0" in captured.err


@pytest.mark.parametrize("argv", [
    "correspond --table --axiom CM",
    "correspond --table --props transitive",
    "correspond --table --converse transitive",
    "correspond --table --model-level",
    "correspond --axiom CM --converse max_smooth --props transitive",
    "correspond --axiom CM --props total --model-level",
])
def test_correspond_options_of_another_mode_are_usage_errors(argv, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("searched before the options were checked")

    for name in ("table_sweep", "forward_check", "converse_search"):
        monkeypatch.setattr(cli, name, search)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: correspond --")


def test_strict_atoms_flag(model_file, capsys):
    code, _ = run(capsys, "eval", "--model", model_file, "--rule", "max", "zz | ~zz")
    assert code == 0
    for command in ("eval", "check-model"):
        code = main([command, "--model", model_file, "--rule", "max", "--strict-atoms", "zz | ~zz"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: atom 'zz' has no valuation entry\n"
        assert captured.out == ""


_OUTPUT = {"json", "timing"}
_SEARCH = {"max_n", "timeout", "workers"} | _OUTPUT


def test_each_command_takes_only_the_options_it_reads():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    dests = {
        name: {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        for name, sub in subparsers.items()
    }
    assert dests == {
        "eval": {"rule", "strict_atoms", "model"} | _OUTPUT,
        "check-model": {"rule", "strict_atoms", "model", "props"} | _OUTPUT,
        "find-model": {"rule", "iso_reject", "props", "atoms", "mode"} | _SEARCH,
        "correspond": {"rule", "iso_reject", "table", "axiom", "props", "converse",
                       "model_level"} | _SEARCH,
        "collapse": {"iso_reject"} | _SEARCH,
        "paradox": {"iso_reject", "rules"} | _SEARCH,
        "lattice": _SEARCH,
        "props": {"model"} | _OUTPUT,
    }
    assert sum(map(len, dests.values())) == 54


@pytest.mark.parametrize("argv, option", [
    ("eval --model MODEL p", "--workers 2"),
    ("eval --model MODEL p", "--timeout 5"),
    ("eval --model MODEL p", "--no-iso-reject"),
    ("check-model --model MODEL", "--workers 2"),
    ("check-model --model MODEL", "--timeout 5"),
    ("check-model --model MODEL", "--no-iso-reject"),
    ("find-model p --max-n 1", "--strict-atoms"),
    ("correspond --axiom Id --max-n 1", "--strict-atoms"),
    ("collapse --max-n 1", "--rule lewis"),
    ("collapse --max-n 1", "--strict-atoms"),
    ("paradox --max-n 1", "--strict-atoms"),
    ("lattice --max-n 1", "--rule lewis"),
    ("lattice --max-n 1", "--no-iso-reject"),
    ("lattice --max-n 1", "--strict-atoms"),
    ("props --model MODEL", "--rule lewis"),
    ("props --model MODEL", "--workers 2"),
    ("props --model MODEL", "--timeout 5"),
    ("props --model MODEL", "--no-iso-reject"),
    ("props --model MODEL", "--strict-atoms"),
])
def test_options_a_command_does_not_read_are_usage_errors(argv, option, model_file, capsys):
    started = time.monotonic()
    code = main(argv.replace("MODEL", model_file).split() + option.split())
    captured = capsys.readouterr()
    assert time.monotonic() - started < 1
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: " + option.split()[0] in captured.err


def test_paradox_rule_is_an_abbreviation_of_rules(capsys):
    # argparse reads --rule as the unique prefix of --rules, so a single
    # rule's column comes out, not the three-rule grid
    by_prefix = run(capsys, "paradox", "--max-n", "3", "--rule", "lewis", "--json")
    assert by_prefix == run(capsys, "paradox", "--max-n", "3", "--rules", "lewis", "--json")
    assert json.loads(by_prefix[1])["rules"] == ["lewis"]


@pytest.mark.parametrize("argv, code, status", [
    ("collapse --max-n 2 --timing --json", 0, "confirmed"),
    ("lattice --max-n 5 --timeout 0.2 --timing --json", 1, "timeout"),
])
def test_timing_fills_in_elapsed_ms(argv, code, status, capsys):
    got, out = run(capsys, *argv.split())
    report = json.loads(out)
    assert (got, report["status"]) == (code, status)
    assert type(report["elapsed_ms"]) is int and report["elapsed_ms"] >= 0
