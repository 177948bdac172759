"""Byte-identical reports: CLI stdout against committed golden JSON.

The bench goldens are read, never written, here.  The goldens under
tests/golden/ were captured with ``python -m ddlmc <argv>``: the three
table and collapse reports before the bit-sliced evaluator replaced the
compiled one, the four witness reports (a forward counterexample, frame-
and model-level converse witnesses, a find-model witness) before the scan
loops and witness serializers were merged into one each, and the n=4 opt
table and the lattice report before the limit assumptions were checked by
their order equivalents and the lattice walked isomorphism classes instead
of every relation, and the two labelled-frame tables (``--no-iso-reject``,
where many frames share what a rule's conditional reads) before each
search memoised its probe on that part of the frame.  ``lattice5.json``
(``lattice --max-n 5 --timeout 0 --json``) was captured before
``lattice_report`` asked ``property_implication`` once per pair in place
of its own pass over every class; it is too slow for this file, so CI
compares it.  So does CI with ``table_lewis5.json`` (``correspond --table
--rule lewis --max-n 5 --timeout 0 --json``), captured when the table's
bound was lifted to 5, and with ``table_max5.json`` and
``table_opt5.json``, captured before a property-free search walked its
rule's key classes in place of the frames; this file checks the Lewis
table's figures against facts found without running it.  The ``*_text.txt`` goldens pin each command's text form
(no ``--json``); they were captured before the commands stopped printing
for themselves and returned their reports to ``main``.  ``FORKED`` runs
the three commands whose searches ``forks.fork_map`` spreads over one
process per CPU as if on one CPU and on three.  Any change in a status,
witness, frames_checked or exit code shows up as a mismatch.  check-model and props print the model
path they were given, so every argv runs from the repository root.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from ddlmc.cli import main
from ddlmc.model import canonical_relations
from ddlmc.relprops import RelationProperty, has_all
from ddlmc.schemas import SCHEMAS

from oracle import truth_worlds

ROOT = Path(__file__).resolve().parent.parent

# (golden report, argv, expected exit code)
GOLDEN = [
    ("bench/golden/grid.json", "paradox --max-n 4 --timeout 0 --json", 0),
    ("bench/golden/table_lewis_w2.json",
     "correspond --table --rule lewis --max-n 4 --workers 2 --timeout 0 --json", 0),
    ("bench/golden/n5_transitive.json",
     "find-model O(p/T) O(~p/T) <>T --props transitive --max-n 5 --timeout 0 --json", 1),
    ("tests/golden/table_max.json", "correspond --table --rule max --max-n 4 --json", 0),
    ("tests/golden/table_opt.json", "correspond --table --rule opt --max-n 3 --json", 0),
    ("tests/golden/table_opt4.json", "correspond --table --rule opt --max-n 4 --json", 0),
    ("tests/golden/collapse.json", "collapse --max-n 4 --json", 0),
    ("tests/golden/forward_dstar_reflexive.json",
     "correspond --axiom Dstar --props reflexive --rule max --max-n 3 --json", 1),
    ("tests/golden/converse_id_transitive.json",
     "correspond --axiom Id --converse transitive --max-n 3 --json", 0),
    ("tests/golden/converse_cm_model.json",
     "correspond --axiom CM --converse max_smooth --rule max --max-n 3 --model-level --json", 0),
    ("tests/golden/find_model_opt.json", "find-model O(p/T) <>~p --rule max --max-n 4 --json", 0),
    ("tests/golden/lattice.json", "lattice --max-n 4 --json", 0),
    ("tests/golden/table_lewis_labelled.json",
     "correspond --table --rule lewis --max-n 3 --no-iso-reject --json", 0),
    ("tests/golden/table_max_labelled.json",
     "correspond --table --rule max --max-n 3 --no-iso-reject --json", 0),
    ("tests/golden/eval_text.txt", "eval --model tests/fixtures/two_chain.pm --rule max O(p/T)", 0),
    ("tests/golden/check_model_text.txt",
     "check-model --model tests/fixtures/two_chain.pm --props acyclic,transitive", 0),
    ("tests/golden/props_text.txt", "props --model tests/fixtures/two_chain.pm", 0),
    ("tests/golden/find_model_text.txt", "find-model O(p/T) <>~p --max-n 3", 0),
    ("tests/golden/find_model_unsat_text.txt", "find-model p&~p --max-n 2", 1),
    ("tests/golden/forward_dstar_text.txt",
     "correspond --axiom Dstar --props reflexive --rule max --max-n 3", 1),
    ("tests/golden/converse_id_text.txt", "correspond --axiom Id --converse transitive --max-n 3", 0),
    ("tests/golden/table_lewis_text.txt", "correspond --table --rule lewis --max-n 3", 0),
    ("tests/golden/collapse_text.txt", "collapse --max-n 3", 0),
    # quasi-transitivity is still UNSAT at n <= 3 under opt and lewis (cells marked !)
    ("tests/golden/paradox_text.txt", "paradox --max-n 3", 1),
    ("tests/golden/lattice_text.txt", "lattice --max-n 3", 0),
]


@pytest.mark.parametrize("path, argv, code", GOLDEN, ids=[Path(p).stem for p, _, _ in GOLDEN])
def test_report_matches_golden(path, argv, code, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv.split()) == code
    assert capsys.readouterr().out == (ROOT / path).read_text(encoding="utf-8")


# Reports whose independent searches fork_map spreads over one process per
# CPU; each must give its golden's bytes on one CPU (the serial loop) and on
# three, whatever the host has.
FORKED = [g for g in GOLDEN if Path(g[0]).stem in {
    "table_max", "table_opt4", "table_lewis_text", "grid", "paradox_text", "lattice", "lattice_text"}]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("path, argv, code", FORKED, ids=[Path(p).stem for p, _, _ in FORKED])
def test_report_matches_golden_on_any_number_of_cpus(path, argv, code, cpus, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    test_report_matches_golden(path, argv, code, capsys, monkeypatch)


def test_lewis_table_at_five_worlds_agrees_with_what_is_known():
    # Each dropped check finds its least counterexample at n <= 4, so it
    # must equal the n=4 table's entry but for max_n.  Each confirmed check
    # scans every class with its properties at n <= 5: the unrestricted
    # counts are OEIS A000595, the transitive ones 291 at n <= 4 plus 1 895
    # at n=5, and the total preorders of n worlds are the 2^(n-1)
    # compositions of n.
    five = json.loads((ROOT / "tests/golden/table_lewis5.json").read_text(encoding="utf-8"))
    four = json.loads((ROOT / "bench/golden/table_lewis_w2.json").read_text(encoding="utf-8"))
    assert (five["max_n"], five["all_match"]) == (5, True)
    total = has_all(frozenset({RelationProperty.TOTAL}))
    classes = {
        (): 2 + 10 + 104 + 3044 + 291_968,
        ("total",): sum(len(canonical_relations(n, total)) for n in range(1, 6)),
        ("transitive",): 291 + 1895,
        ("transitive", "total"): 1 + 2 + 4 + 8 + 16,
    }
    counterexamples = 0
    for row, row4 in zip(five["rows"], four["rows"], strict=True):
        assert row["label"] == row4["label"]
        for axiom, entry in row["axioms"].items():
            for kind in ("forward", "dropped"):
                check = entry.get(kind)
                if check is None or check["status"] == "confirmed":
                    assert check is None or check["frames_checked"] == classes[tuple(check["properties"])]
                    continue
                assert {**check, "max_n": 4} == row4["axioms"][axiom][kind]
                frame = check["counterexample"]
                assignment = {v: frozenset(ws) for v, ws in frame["assignment"].items()}
                pairs = {tuple(p) for p in frame["rel"]}
                worlds = truth_worlds(SCHEMAS[axiom], range(frame["n"]), pairs, {}, "lewis", assignment)
                assert worlds != frozenset(range(frame["n"]))
                counterexamples += 1
    assert counterexamples == 4
