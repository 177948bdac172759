"""Byte-identical reports: CLI stdout against committed golden JSON.

The bench goldens are read, never written, here.  The goldens under
tests/golden/ were captured with ``python -m ddlmc <argv>``: the three
table and collapse reports before the bit-sliced evaluator replaced the
compiled one, the four witness reports (a forward counterexample, frame-
and model-level converse witnesses, a find-model witness) before the scan
loops and witness serializers were merged into one each.  Any change in a
status, witness, frames_checked or exit code shows up as a mismatch.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ddlmc.cli import main

ROOT = Path(__file__).resolve().parent.parent

# (golden report, argv, expected exit code)
GOLDEN = [
    ("bench/golden/grid.json", "paradox --max-n 4 --timeout 0 --json", 0),
    ("bench/golden/table_lewis_w2.json",
     "correspond --table --rule lewis --max-n 4 --workers 2 --timeout 0 --json", 0),
    ("tests/golden/table_max.json", "correspond --table --rule max --max-n 4 --json", 0),
    ("tests/golden/table_opt.json", "correspond --table --rule opt --max-n 3 --json", 0),
    ("tests/golden/collapse.json", "collapse --max-n 4 --json", 0),
    ("tests/golden/forward_dstar_reflexive.json",
     "correspond --axiom Dstar --props reflexive --rule max --max-n 3 --json", 1),
    ("tests/golden/converse_id_transitive.json",
     "correspond --axiom Id --converse transitive --max-n 3 --json", 0),
    ("tests/golden/converse_cm_model.json",
     "correspond --axiom CM --converse max_smooth --rule max --max-n 3 --model-level --json", 0),
    ("tests/golden/find_model_opt.json", "find-model O(p/T) <>~p --rule max --max-n 4 --json", 0),
]


@pytest.mark.parametrize("path, argv, code", GOLDEN, ids=[Path(p).stem for p, _, _ in GOLDEN])
def test_report_matches_golden(path, argv, code, capsys):
    assert main(argv.split()) == code
    assert capsys.readouterr().out == (ROOT / path).read_text(encoding="utf-8")
