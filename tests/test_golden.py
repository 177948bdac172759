"""Byte-identical reports: CLI stdout against committed golden JSON.

The bench goldens are read, never written, here.  The goldens under
tests/golden/ were captured with ``python -m ddlmc <argv>`` before the
bit-sliced evaluator replaced the compiled one; any change in a status,
witness or frames_checked shows up as a mismatch.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ddlmc.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    ("bench/golden/grid.json", "paradox --max-n 4 --timeout 0 --json"),
    ("bench/golden/table_lewis_w2.json",
     "correspond --table --rule lewis --max-n 4 --workers 2 --timeout 0 --json"),
    ("tests/golden/table_max.json", "correspond --table --rule max --max-n 4 --json"),
    ("tests/golden/table_opt.json", "correspond --table --rule opt --max-n 3 --json"),
    ("tests/golden/collapse.json", "collapse --max-n 4 --json"),
]


@pytest.mark.parametrize("path, argv", GOLDEN, ids=[Path(p).stem for p, _ in GOLDEN])
def test_report_matches_golden(path, argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == (ROOT / path).read_text(encoding="utf-8")
