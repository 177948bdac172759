"""Standing mutation check: each recorded mutant must fail its tests.

Run from the repository root::

    PYTHONPATH=src python tests/mutants.py

Each record names a file under ``src/``, an exact old text, the new text
that breaks the code and a pytest selection that must catch the break.
Before any test runs, every record's old text must occur exactly once in
its file, so a record the code has moved away from fails the script
instead of passing unseen.  The script then copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, checks that the selections
pass there unmutated, and for each record applies the replacement to a
fresh copy of ``src/`` and runs its selection against it.  A mutant is
caught only when pytest exits 1 (tests failed); exit 0 means it survived,
and any other exit (an interrupted run, a collection or usage error) is a
broken record, not a catch.  The exit status is 0 when every mutant is
caught, 1 otherwise.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/ddlmc
    old: str
    new: str
    select: tuple[str, ...]


_QUOTIENT = ("tests/test_semantics.py::test_a_conditional_reads_only_what_its_rule_sees",)
_OPT_KEY = "    return lambda rel: tuple(r if r >> a & 1 else 0 for a, r in enumerate(rel))\n"
_LEWIS_KEY = "        return lambda rel: tuple(map(or_, rel, _DIAGONAL))\n"
_CORES = ("tests/test_casestudy.py::test_cores_of_every_grid_cell",)

MUTANTS = (
    Mutant(
        "max keyed on the reflexive closure", "semantics.py",
        "        return strict_part\n",
        "        return lambda rel: tuple(map(or_, rel, _DIAGONAL))\n",
        _QUOTIENT,
    ),
    Mutant(
        "max keyed on the reflexive closure at n=4 only", "semantics.py",
        "        return strict_part\n",
        "        return lambda rel: tuple(map(or_, rel, _DIAGONAL)) if len(rel) == 4 else strict_part(rel)\n",
        _QUOTIENT,
    ),
    Mutant(
        "lewis keyed on the world count", "semantics.py",
        _LEWIS_KEY,
        "        return lambda rel: (0,) * len(rel)\n",
        _QUOTIENT,
    ),
    Mutant(
        "opt key empties the looped rows", "semantics.py",
        _OPT_KEY,
        "    return lambda rel: tuple(0 if r >> a & 1 else r for a, r in enumerate(rel))\n",
        ("tests/test_semantics.py::test_one_probe_serves_every_size_and_slice[opt-refute]",),
    ),
    Mutant(
        "opt key empties the looped rows at n=4 only", "semantics.py",
        _OPT_KEY,
        "    return lambda rel: tuple(r if r >> a & 1 ^ (len(rel) == 4) else 0 for a, r in enumerate(rel))\n",
        _QUOTIENT,
    ),
    Mutant(
        "no memo", "semantics.py",
        "                memo[seen] = result\n",
        "                pass\n",
        ("tests/test_semantics.py::test_a_search_builds_one_slice_per_key",),
    ),
    Mutant(
        "scan_frames without its world-bound check", "finder.py",
        "    check_world_bound(max_n)\n    keep = has_all(frozenset(properties))\n",
        "    keep = has_all(frozenset(properties))\n",
        ("tests/test_finder.py::test_library_searches_check_bound_and_deadline",),
    ),
    Mutant(
        "labelled scan checks the deadline only on frames that pass the filter", "finder.py",
        "            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:\n"
        "                raise SearchTimeout()\n"
        "            if test is not None and not test(rel) or frame_filter is not None and not frame_filter(rel):\n"
        "                continue\n",
        "            if test is not None and not test(rel) or frame_filter is not None and not frame_filter(rel):\n"
        "                continue\n"
        "            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:\n"
        "                raise SearchTimeout()\n",
        ("tests/test_finder.py::test_timeout_holds_while_the_frame_filter_rejects_every_relation",),
    ),
    Mutant(
        "SearchSpec accepts any rule", "finder.py",
        "        if not isinstance(rule, EvalRule):\n",
        "        if False:\n",
        ("tests/test_finder.py::test_search_rejects_a_rule_that_is_not_an_eval_rule",),
    ),
    Mutant(
        "fork_map returns results in arrival order", "forks.py",
        "    done.sort(key=lambda entry: entry[0])\n",
        "",
        ("tests/test_finder.py::test_fork_map_keeps_the_order_of_the_items",
         "tests/test_finder.py::test_table_sweep_is_the_same_in_forked_processes",
         "tests/test_finder.py::test_grid_and_lattice_are_the_same_in_forked_processes"),
    ),
    Mutant(
        "_revalidate without the frame-filter re-check", "finder.py",
        "    if spec.frame_filter is not None and not spec.frame_filter(model.rel):\n",
        "    if False:\n",
        ("tests/test_finder.py::test_frame_filter_is_revalidated",),
    ),
    Mutant(
        "rule_collapse without its reference re-check", "finder.py",
        "    if len(set(verdicts.values())) == 1:\n",
        "    if False:\n",
        ("tests/test_finder.py::test_collapse_divergence_is_revalidated",),
    ),
    Mutant(
        "valid-mode probe accepts every frame, re-check skipped", "finder.py",
        "        spec.max_n, spec.properties, lambda rel: scan(rel, spec.deadline),\n"
        "        iso_reject=spec.iso_reject, deadline=spec.deadline, frame_filter=spec.frame_filter,\n"
        "    )\n"
        "    checked = sum(per_n.values())\n"
        "    found, exhausted = _STATUS[spec.mode]\n"
        "    if hit is None:\n"
        "        return SearchResult(exhausted, spec, frames_checked=checked)\n"
        "    n, rel, env = hit\n"
        "    model = PreferenceModel(n, rel, dict(zip(spec.atoms, env)))\n"
        "    _revalidate(model, spec)\n",
        "        spec.max_n, spec.properties,\n"
        "        lambda rel: () if spec.mode == \"valid\" else scan(rel, spec.deadline),\n"
        "        iso_reject=spec.iso_reject, deadline=spec.deadline, frame_filter=spec.frame_filter,\n"
        "    )\n"
        "    checked = sum(per_n.values())\n"
        "    found, exhausted = _STATUS[spec.mode]\n"
        "    if hit is None:\n"
        "        return SearchResult(exhausted, spec, frames_checked=checked)\n"
        "    n, rel, env = hit\n"
        "    model = PreferenceModel(n, rel, dict(zip(spec.atoms, env)))\n"
        "    spec.mode == \"valid\" or _revalidate(model, spec)\n",
        ("tests/test_schemas.py::test_converse_frame_witness_is_valid_by_the_oracle",),
    ),
    Mutant(
        "cores searches supersets of an unsatisfiable set", "finder.py",
        "            if any(core <= subset for core in unsat):\n",
        "            if False:\n",
        _CORES,
    ),
    Mutant(
        "every satisfiable set counts as maximal", "finder.py",
        "            if sat.keys().isdisjoint(s | {i} for i in everything if i not in s)\n",
        "            if True\n",
        _CORES,
    ),
    Mutant(
        "implication probe counts each class once", "finder.py",
        "        checked += orbit_size(rel)\n",
        "        checked += 1\n",
        ("tests/test_relprops.py::test_implication_counts_every_relation_of_its_classes",),
    ),
    Mutant(
        "implication probe never reports a witness", "finder.py",
        "        if conclusion is not None and not conclusion(rel):\n            return rel\n",
        "        if conclusion is not None and not conclusion(rel):\n            return None\n",
        ("tests/test_relprops.py::test_implication_confirmed_and_witness",),
    ),
    Mutant(
        "node equality ignores the class", "formula.py",
        "        if other.__class__ is self.__class__:\n",
        "        if isinstance(other, Record):\n",
        ("tests/test_formula.py::test_nodes_are_equal_only_within_their_class",),
    ),
    Mutant(
        "orbit lane recurrence reads the previous row value", "model.py",
        "            per_row[rowval] = per_row[rowval ^ low] | single[low.bit_length() - 1]\n",
        "            per_row[rowval] = per_row[rowval - 1] | single[low.bit_length() - 1]\n",
        ("tests/test_model.py::test_orbit_lanes_equal_the_per_permutation_loop",),
    ),
    Mutant(
        "seen table never marks an orbit", "model.py",
        "                        seen[image] = 1\n",
        "                        pass\n",
        ("tests/test_model.py::test_canonical_counts",),
    ),
    Mutant(
        "strict-layer peel keeps peeled worlds", "relprops.py",
        "        bottom &= left  # worlds peeled in an earlier round drop out\n",
        "",
        ("tests/test_relprops.py",),
    ),
    Mutant(
        "strict-layer peel drops world 4's bit", "relprops.py",
        "    left = (1 << len(strict)) - 1\n",
        "    left = (1 << len(strict)) - 1 & ~(1 << 4)\n",
        ("tests/test_relprops.py",),
    ),
)


def stale(mutants) -> list[str]:
    """Records whose old text does not occur exactly once in their file."""
    bad = []
    for m in mutants:
        count = (ROOT / "src" / "ddlmc" / m.file).read_text().count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text occurs {count} times in {m.file}")
    return bad


def pytest(work: Path, select) -> tuple[int, str, float]:
    """Exit code, output tail and seconds of pytest on select in work."""
    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *select]
    started = time.monotonic()
    try:
        done = subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, text=True, timeout=RUN_LIMIT_S
        )
    except subprocess.TimeoutExpired:
        return -1, f"no result within {RUN_LIMIT_S} s", time.monotonic() - started
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-5:])
    return done.returncode, tail, time.monotonic() - started


def main() -> int:
    bad = stale(MUTANTS)
    for line in bad:
        print(f"STALE     {line}")
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="ddlmc-mutants-") as tmp:
        work = Path(tmp)
        no_cache = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "tests", work / "tests", ignore=no_cache)
        shutil.copytree(ROOT / "src", work / "src", ignore=no_cache)
        shutil.copy(ROOT / "pyproject.toml", work)
        selections = sorted({s for m in MUTANTS for s in m.select})
        code, tail, took = pytest(work, selections)
        if code != 0:
            print(f"the selections fail unmutated (exit {code}, {took:.1f} s):\n{tail}")
            return 1
        print(f"unmutated selections pass ({took:.1f} s)")
        missed = 0
        for m in MUTANTS:
            shutil.rmtree(work / "src")
            shutil.copytree(ROOT / "src", work / "src", ignore=no_cache)
            target = work / "src" / "ddlmc" / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
            code, tail, took = pytest(work, m.select)
            if code == 1:
                print(f"caught    {m.name} ({took:.1f} s)")
                continue
            missed += 1
            verdict = "SURVIVED" if code == 0 else f"ERROR {code}"
            print(f"{verdict:<9} {m.name} ({took:.1f} s)\n{tail}")
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
