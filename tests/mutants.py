"""Standing mutation check: each recorded mutant must fail its tests.

Run from the repository root::

    PYTHONPATH=src python tests/mutants.py

Each record names a file under ``src/``, an exact old text, the new text
that breaks the code and a pytest selection that must catch the break.
Before any test runs, every record's old text must occur exactly once in
its file, so a record the code has moved away from fails the script
instead of passing unseen.  The script then copies ``src/``, ``tests/``,
``bench/golden/`` (which ``tests/test_golden.py`` reads) and
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
_OPT_KEY = "    return tuple(r if r >> a & 1 else 0 for a, r in enumerate(rel))\n"
_LEWIS_KEY = "    return tuple(map(or_, rel, _DIAGONAL))\n"
_MAX_KEY = "EvalRule.MAX: strict_part,"
_CORES = ("tests/test_casestudy.py::test_cores_of_every_grid_cell",)
_KEY_CLASSES = ("tests/test_finder.py::test_key_classes_stand_in_for_the_frames",)
_KEY_IMAGE = ("tests/test_semantics.py::test_key_image_accepts_exactly_the_keys",)
_PREFILTER = ("tests/test_model.py::test_prefilter_admits_exactly_the_rows_whose_deletions_pass",)
_CLOSURE_FACTS = (
    "tests/test_relprops.py::test_a_relation_has_a_closure_property_iff_its_closure_has_it_with_the_needed_loops",
)
_CLOSURE_COUNT = ("tests/test_finder.py::test_closure_walk_counts_the_frames_above_its_classes",)
_CLOSURE_FRAMES = ("tests/test_finder.py::test_closure_frames_are_the_built_classes",)
_LOADED = ("tests/test_layout.py::test_a_cli_call_loads_only_the_modules_its_command_runs",)
_LABELLED = ("tests/test_finder.py::test_labelled_search_is_the_brute_force_search[lewis]",)
_ONE_COMMAND = ("tests/test_cli.py::test_a_one_command_parser_equals_that_command_in_the_full_parser",)
_MIXED = ("tests/test_semantics.py::test_probe_settles_mixed_formulas_as_the_oracle",)

MUTANTS = (
    Mutant(
        "cli imports schemas at module level again", "cli.py",
        "from .finder import SearchSpec, SearchTimeout, find_satisfying_model, rule_collapse\n",
        "from . import schemas\n"
        "from .finder import SearchSpec, SearchTimeout, find_satisfying_model, rule_collapse\n",
        _LOADED,
    ),
    Mutant(
        "paradox without its local casestudy import", "cli.py",
        "def _cmd_paradox(args):\n    from . import casestudy\n\n",
        "def _cmd_paradox(args):\n",
        _LOADED,
    ),
    Mutant(
        "a one-command parser without --max-n", "cli.py",
        "        if max_n is not None:\n",
        "        if max_n is not None and every is None:\n",
        _ONE_COMMAND,
    ),
    Mutant(
        "max keyed on the reflexive closure", "semantics.py",
        _MAX_KEY,
        "EvalRule.MAX: _reflexive_closure,",
        _QUOTIENT,
    ),
    Mutant(
        "max keyed on the reflexive closure at n=4 only", "semantics.py",
        _MAX_KEY,
        "EvalRule.MAX: lambda rel: _reflexive_closure(rel) if len(rel) == 4 else strict_part(rel),",
        _QUOTIENT,
    ),
    Mutant(
        "lewis keyed on the world count", "semantics.py",
        _LEWIS_KEY,
        "    return (0,) * len(rel)\n",
        _QUOTIENT,
    ),
    Mutant(
        "opt key empties the looped rows", "semantics.py",
        _OPT_KEY,
        "    return tuple(0 if r >> a & 1 else r for a, r in enumerate(rel))\n",
        ("tests/test_semantics.py::test_one_probe_serves_every_size_and_slice[opt-refute]",),
    ),
    Mutant(
        "opt key empties the looped rows at n=4 only", "semantics.py",
        _OPT_KEY,
        "    return tuple(r if r >> a & 1 ^ (len(rel) == 4) else 0 for a, r in enumerate(rel))\n",
        _QUOTIENT,
    ),
    Mutant(
        "no memo", "semantics.py",
        "                memo[seen] = result\n",
        "                pass\n",
        ("tests/test_semantics.py::test_a_search_builds_one_slice_per_key",),
    ),
    Mutant(
        "compiler entry without its depth check", "semantics.py",
        "    fm.check_depth(f)\n    return _closure(f)\n",
        "    return _closure(f)\n",
        ("tests/test_semantics.py::test_compiled_evaluation_rejects_a_schema_nested_past_max_depth",
         "tests/test_finder.py::test_search_on_a_too_deep_target_raises_before_any_frame_is_built"),
    ),
    Mutant(
        "key classes taken from the relations at or above their key", "semantics.py",
        "    return lambda rel: key_map(rel) == rel\n",
        "    return lambda rel: key_map(rel) <= rel\n",
        _KEY_CLASSES + _KEY_IMAGE,
    ),
    Mutant(
        "lewis key toggles the loops: the same slices, but not idempotent", "semantics.py",
        _LEWIS_KEY,
        "    return tuple(r ^ d for r, d in zip(rel, _DIAGONAL))\n",
        _KEY_CLASSES + _KEY_IMAGE,
    ),
    Mutant(
        "Burnside count off by one cycle", "model.py",
        "        total += 1 << sum(gcd(a, b) for a in lengths for b in lengths)\n",
        "        total += 1 << sum(gcd(a, b) for a in lengths for b in lengths) - 1\n",
        _KEY_CLASSES + ("tests/test_model.py::test_class_count_is_the_number_of_classes_built",),
    ),
    Mutant(
        "witness taken from the key class hit, the frame scan skipped", "finder.py",
        "        if base <= CLOSURE_LOOPS.keys():\n            relations = closure_frames(n, base, deadline)\n",
        "        if walk is not None:\n            relations = classes\n"
        "        elif base <= CLOSURE_LOOPS.keys():\n            relations = closure_frames(n, base, deadline)\n",
        _KEY_CLASSES,
    ),
    Mutant(
        "labelled count at the hit leaves out the hit itself", "model.py",
        "    return len({image for image in _orbit_images(rel) if image <= bound})\n",
        "    return len({image for image in _orbit_images(rel) if image < bound})\n",
        _LABELLED,
    ),
    Mutant(
        "labelled count at the hit counts whole orbits", "finder.py",
        "if last is None else images_up_to(rel, last)\n",
        "if last is None else orbit_size(rel)\n",
        _LABELLED,
    ),
    Mutant(
        "opt's key admitted to the closure walk", "semantics.py",
        "CLOSURE_KEYS = frozenset({_world_count, _reflexive_closure, strict_part})\n",
        "CLOSURE_KEYS = frozenset({_world_count, _reflexive_closure, strict_part, _looped_rows})\n",
        ("tests/test_semantics.py::test_closure_keys_read_no_loop",),
    ),
    Mutant(
        "closure count takes the cycles over every world, not only the free ones", "model.py",
        "    return sum(1 << sum(1 for cycle in cycles if cycle & free) for cycles in autos) // len(autos)\n",
        "    return sum(1 << len(cycles) for cycles in autos) // len(autos)\n",
        _CLOSURE_COUNT,
    ),
    Mutant(
        "scan_frames without its world-bound check", "finder.py",
        "    check_world_bound(max_n)\n    base = base_properties(properties)\n",
        "    base = base_properties(properties)\n",
        ("tests/test_finder.py::test_library_searches_check_bound_and_deadline",),
    ),
    Mutant(
        "frame loop checks the deadline only on frames that lack the lacked properties", "finder.py",
        "            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:\n"
        "                raise SearchTimeout()\n"
        "            if lacked is None or not lacked(rel):\n"
        "                yield rel\n",
        "            if lacked is None or not lacked(rel):\n"
        "                if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:\n"
        "                    raise SearchTimeout()\n"
        "                yield rel\n",
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
        "_revalidate without the lacks re-check", "finder.py",
        "    if spec.lacks and all(check_property(prop, model) for prop in spec.lacks):\n",
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
        "        iso_reject=spec.iso_reject, deadline=spec.deadline, lacks=spec.lacks,\n"
        "        key=key(spec.targets, spec.rule),\n"
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
        "        iso_reject=spec.iso_reject, deadline=spec.deadline, lacks=spec.lacks,\n"
        "        key=key(spec.targets, spec.rule),\n"
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
        "_revalidate without the refutation re-check", "finder.py",
        "    if spec.mode == \"refute\" and not failed:\n"
        "        raise AssertionError(\"refutation witness validates all targets\")\n",
        "",
        ("tests/test_finder.py::test_refutation_witness_is_revalidated",),
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
        "implication counts each class once", "lattice.py",
        "(fm.TOP,), p1, mode=\"refute\", iso_reject=False, deadline=deadline)\n",
        "(fm.TOP,), p1, mode=\"refute\", iso_reject=True, deadline=deadline)\n",
        ("tests/test_relprops.py::test_implication_counts_every_relation_of_its_classes",),
    ),
    Mutant(
        "implication never reports a witness", "lattice.py",
        "    if found.model is not None and found.spec.lacks:\n        return Witness(",
        "    if False:\n        return Witness(",
        ("tests/test_relprops.py::test_implication_confirmed_and_witness",),
    ),
    Mutant(
        "the walk is taken for lacks=TRANSITIVE", "relprops.py",
        "CLOSURE_DECIDES = frozenset(prop for prop, loops in CLOSURE_LOOPS.items() if loops is _no_loops)\n",
        "CLOSURE_DECIDES = frozenset(CLOSURE_LOOPS)\n",
        _KEY_CLASSES,
    ),
    Mutant(
        "the closure count runs over the closures that have the lacked properties too", "finder.py",
        "                    for closure in frames(classes)\n",
        "                    for closure in classes\n",
        _KEY_CLASSES,
    ),
    Mutant(
        "lattice report without its implied-pair check", "lattice.py",
        "    for p, q in implied:\n        if isinstance(results[p, q], Witness):\n",
        "    for p, q in implied:\n        if False:\n",
        ("tests/test_finder.py::test_lattice_rejects_a_witness_against_an_implied_pair",),
    ),
    Mutant(
        "definitional arrows only between equal definitions", "lattice.py",
        "        if base_properties({b}) <= base_properties({a}):\n",
        "        if base_properties({b}) == base_properties({a}):\n",
        ("tests/test_relprops.py",),
    ),
    Mutant(
        "node equality ignores the class", "formula.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, Record):\n",
        ("tests/test_formula.py::test_nodes_are_equal_only_within_their_class",),
    ),
    Mutant(
        "orbit lane recurrence reads the previous row value", "model.py",
        "            per_row[rowval] = per_row[rowval ^ low] | single[low.bit_length() - 1]\n",
        "            per_row[rowval] = per_row[rowval - 1] | single[low.bit_length() - 1]\n",
        ("tests/test_model.py::test_orbit_lanes_equal_the_per_permutation_loop",),
    ),
    Mutant(
        "orbit lane buffer writes permutation k into lane k+1", "model.py",
        "                buffer[k] = 1 << ",
        "                buffer[(k + 1) % len(perms)] = 1 << ",
        ("tests/test_model.py::test_orbit_lanes_equal_the_per_permutation_loop",),
    ),
    Mutant(
        "prefilter words hold each parent class's minimum only", "model.py",
        "        for image in _orbit_images(parent):\n            words[",
        "        for image in (min(_orbit_images(parent)),):\n            words[",
        _PREFILTER,
    ),
    Mutant(
        "prefilter skips the deletion of world 0", "model.py",
        "            admitted[column] &= rows\n",
        "            admitted[column] &= rows if k else -1\n",
        _PREFILTER,
    ),
    Mutant(
        "prefilter byte tables all read the first byte of a words entry", "model.py",
        "            for entry in rows[offset:offset + 8]:\n",
        "            for entry in rows[:8]:\n",
        _PREFILTER + ("tests/test_model.py::test_transitive_build_tests_only_the_admitted_candidates",),
    ),
    Mutant(
        "seen table never marks an orbit", "model.py",
        "                        seen[image] = 1\n",
        "                        pass\n",
        ("tests/test_model.py::test_canonical_counts",),
    ),
    Mutant(
        "opt-smooth defined without totality", "relprops.py",
        "    RelationProperty.OPT_SMOOTH: frozenset({RelationProperty.TOTAL, RelationProperty.QUASI_TRANSITIVE}),\n",
        "    RelationProperty.OPT_SMOOTH: frozenset({RelationProperty.QUASI_TRANSITIVE}),\n",
        ("tests/test_relprops.py",),
    ),
    Mutant(
        "transitivity needs no loops above its closure", "relprops.py",
        "    RelationProperty.TRANSITIVE: _tied_worlds,\n",
        "    RelationProperty.TRANSITIVE: _no_loops,\n",
        _CLOSURE_FACTS + _CLOSURE_COUNT,
    ),
    Mutant(
        "Ferrers joins the closure table with no needed loops", "relprops.py",
        "    RelationProperty.SUZUMURA_CONSISTENT: _no_loops,\n}\n",
        "    RelationProperty.SUZUMURA_CONSISTENT: _no_loops,\n    RelationProperty.FERRERS: _no_loops,\n}\n",
        _CLOSURE_FACTS,
    ),
    Mutant(
        "closure frames skip the empty drop set", "model.py",
        "            if not drop:\n                break\n            drop = drop - 1 & worlds\n",
        "            drop = drop - 1 & worlds\n            if not drop:\n                break\n",
        _CLOSURE_FRAMES,
    ),
    Mutant(
        "closure frames drop needed loops", "finder.py",
        "    return full_mask(len(closure)) & ~needed\n",
        "    return full_mask(len(closure))\n",
        _CLOSURE_FRAMES,
    ),
    Mutant(
        "opt reads the loopless worlds instead of the looped ones", "semantics.py",
        "for a, row in enumerate(seen) if row >> a & 1]",
        "for a, row in enumerate(seen) if not row >> a & 1]",
        _QUOTIENT,
    ),
    Mutant(
        "lewis consulted lists built without the world itself", "semantics.py",
        "                for a in worlds[row]:\n",
        "                for a in worlds[row & ~(1 << c)]:\n",
        _QUOTIENT,
    ),
    Mutant(
        "a mixed binary connective returns its world-constant side as world-constant", "semantics.py",
        "    if lc != rc:  # the world-constant side is lifted to every world\n"
        "        left, right = _lists(left, lc), _lists(right, rc)\n",
        "    if lc != rc:\n        return (left if lc else right), True\n",
        _MIXED,
    ),
    Mutant(
        "opt and max clear the beaten valuations with x ^ y, not x ^ (x & y)", "semantics.py",
        "            violated |= x ^ (x & beaten)\n",
        "            violated |= x ^ beaten\n",
        _QUOTIENT,
    ),
    Mutant(
        "one probe per targets, rule and names, whatever the mode", "semantics.py",
        "    args = (formulas, rule, names, mode)\n",
        "    args = (formulas, rule, names)\n",
        ("tests/test_semantics.py::test_one_probe_per_targets_rule_names_and_mode",),
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
    Mutant(
        "run_grid returns its rows in dispatch order", "casestudy.py",
        "    cells = [cell for row in GRID_ROWS for cell in found[row]]\n",
        "    cells = [cell for row in _DISPATCH for cell in found[row]]\n",
        ("tests/test_golden.py::test_report_matches_golden_on_any_number_of_cpus[grid-3]",),
    ),
    Mutant(
        "lattice_report rebuilds every result as Confirmed", "lattice.py",
        "        (p, q): (Witness if is_witness else Confirmed)(*fields)\n",
        "        (p, q): Confirmed(*fields)\n",
        ("tests/test_golden.py::test_report_matches_golden_on_any_number_of_cpus[lattice-3]",
         "tests/test_golden.py::test_report_matches_golden_on_any_number_of_cpus[lattice_text-3]"),
    ),
    Mutant(
        "a failed child's entries go through marshal", "forks.py",
        "    if done and not done[-1][1]:\n",
        "    if False:\n",
        ("tests/test_finder.py::test_fork_map_raises_what_an_item_raised_in_a_child",),
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
        shutil.copytree(ROOT / "bench" / "golden", work / "bench" / "golden")
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
