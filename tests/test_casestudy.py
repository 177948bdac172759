"""Scenario encoding, the grid and the cores of EQ0..EQ4 (fast bounds; the
acceptance suite reads the n <= 4 cores)."""

from __future__ import annotations

import os
import random
import time
from itertools import combinations

import pytest

from ddlmc import casestudy, finder
from ddlmc import formula as fm
from ddlmc.casestudy import (
    ATOMS,
    EQ,
    GRID_EXPECTED,
    GRID_ROWS,
    GRID_RULES,
    PP0,
    PP0_SUGAR,
    PP1,
    PP1_SUGAR,
    PP2,
    PP2_SUGAR,
    SCENARIO,
    grid_text,
    run_grid,
)
from ddlmc.finder import SearchResult, SearchSpec, cores
from ddlmc.model import PreferenceModel
from ddlmc.relprops import RelationProperty as P
from ddlmc.semantics import EvalRule, truth_set

from oracle import naive_properties, random_model_data, truth_worlds

RULES = (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS)


def test_scenario_formulas():
    assert [fm.render(f) for f in EQ] == [
        "P(A / A | B)",
        "P(Ap / A | Ap)",
        "O(~Ap / Ap | B)",
        "O(~B / A | B)",
        "P(B / Ap | B)",
    ]
    assert set(PP0) | set(PP1) | set(PP2) == set(SCENARIO)


def test_sugar_forms_equivalent_to_groups():
    rng = random.Random(555)
    groups = ((PP0, PP0_SUGAR), (PP1, PP1_SUGAR), (PP2, PP2_SUGAR))
    for _ in range(200):
        n, pairs, valuation = random_model_data(rng, 3, ATOMS)
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        for rule in RULES:
            for group, sugar in groups:
                grouped = all(truth_set(f, m, rule) == m.full_mask for f in group)
                sugared = truth_set(sugar, m, rule) == m.full_mask
                assert grouped == sugared


def test_grid_expected_pattern_is_complete():
    assert len(GRID_EXPECTED) == 18
    sats = sum(1 for v in GRID_EXPECTED.values() if v == "sat")
    assert sats == 8  # three full rows plus quasi-transitivity under opt/lewis


def test_grid_small_bound_consistent():
    report = run_grid(3)
    # at n <= 3 every cell except the quasi-transitive witnesses already
    # matches; those two witnesses need four worlds
    bad = [(c["row"], c["rule"]) for c in report["cells"] if not c["match"]]
    assert set(bad) == {("quasi-transitivity", "opt"), ("quasi-transitivity", "lewis")}
    text = grid_text(report)
    assert "UNSAT!" in text and "property" in text


def test_grid_rejects_a_repeated_rule(monkeypatch):
    # A repeated rule used to run each of its cells twice; it is rejected
    # before any search.
    def search(spec):
        raise AssertionError("searched with a repeated rule")

    monkeypatch.setattr(casestudy, "find_satisfying_model", search)
    with pytest.raises(ValueError, match=r"\['max'\] are listed more than once"):
        run_grid(2, rules=(EvalRule.MAX, EvalRule.OPT, EvalRule.MAX))


def test_grid_witnesses_revalidate():
    report = run_grid(3, rules=(EvalRule.MAX,))
    for cell in report["cells"]:
        if cell["witness"] is None:
            continue
        from ddlmc.model import parse_model

        m = parse_model(cell["witness"]["model_text"])
        for f in SCENARIO:
            assert truth_set(f, m, EvalRule.MAX) == m.full_mask


def _musets(report):
    return [c["targets"] for c in report["minimal_unsatisfiable"]]


def _maximal(report):
    return {tuple(s["targets"]): s["witness"] for s in report["maximal_satisfiable"]}


def test_ascending_chain_small():
    # EQ1..EQ3 under max: the one core of the transitive and the
    # quasi-transitive cells at n <= 3 as well; without a property the
    # three are satisfiable, and their least witness is acyclic
    for props in ((P.QUASI_TRANSITIVE,), (P.TRANSITIVE,)):
        assert _musets(cores(SearchSpec(3, EvalRule.MAX, EQ, props, ATOMS))) == [[1, 2, 3]]
    free = cores(SearchSpec(3, EvalRule.MAX, EQ[1:4], (), ATOMS))
    assert free["minimal_unsatisfiable"] == []
    (witness,) = _maximal(free).values()
    assert naive_properties(witness["n"], {tuple(p) for p in witness["rel"]})["acyclic"]


def test_interval_order_analysis_small():
    # on interval orders under max the pairwise-comparison clash needs EQ2:
    # the triple {EQ1, EQ3, EQ4} and {EQ1, EQ3} are satisfiable, and
    # {EQ1..EQ4} holds the one core
    report = cores(SearchSpec(3, EvalRule.MAX, EQ, P.INTERVAL_ORDER, ATOMS))
    assert _musets(report) == [[1, 2, 3]]
    assert (0, 1, 3, 4) in _maximal(report)


def test_fmp_small():
    # EQ1 & EQ2 & EQ3 is the one max core of all three frame classes
    for prop in (P.QUASI_TRANSITIVE, P.TRANSITIVE, P.INTERVAL_ORDER):
        assert _musets(cores(SearchSpec(3, EvalRule.MAX, EQ, prop, ATOMS))) == [[1, 2, 3]]


# The minimal unsatisfiable subsets of EQ0..EQ4 per grid cell at n <= 4;
# every other cell is satisfiable.
_CORES = {
    **{("transitivity+totality", rule): [[0, 1, 2], [1, 2, 3], [1, 3, 4]] for rule in GRID_RULES},
    ("transitivity", EvalRule.OPT): [[0, 1, 2], [1, 3, 4]],
    ("transitivity", EvalRule.LEWIS): [[0, 1, 2], [1, 3, 4]],
    ("transitivity", EvalRule.MAX): [[1, 2, 3]],
    **{("interval order", rule): [[1, 2, 3]] for rule in GRID_RULES},
    ("quasi-transitivity", EvalRule.MAX): [[1, 2, 3]],
}


def _free_of(musets):
    """Maximal subsets of 0..4 holding no set of musets, in size then
    combinations order, by brute force over all 32 subsets."""
    subsets = [set(c) for k in range(6) for c in combinations(range(5), k)]
    free = [s for s in subsets if not any(set(m) <= s for m in musets)]
    return [sorted(s) for s in free if not any(s < t for t in free)]


def test_cores_of_every_grid_cell():
    searches = {}
    for label, props in GRID_ROWS:
        for rule in GRID_RULES:
            report = cores(SearchSpec(4, rule, EQ, props, ATOMS))
            musets = _CORES.get((label, rule), [])
            assert (GRID_EXPECTED[label, rule] == "sat") == (musets == [])
            assert _musets(report) == musets
            assert [s["targets"] for s in report["maximal_satisfiable"]] == _free_of(musets)
            searches[label, rule] = report["searches"]
            for chosen, w in _maximal(report).items():
                pairs = {tuple(p) for p in w["rel"]}
                valuation = {a: frozenset(ws) for a, ws in w["valuation"].items()}
                assert all(naive_properties(w["n"], pairs)[p.value] for p in props)
                for i in chosen:
                    assert truth_worlds(EQ[i], range(w["n"]), pairs, valuation, rule.value) == frozenset(range(w["n"]))
    # supersets of a core are skipped: 31 - 3 searches for the one core
    # {EQ1, EQ2, EQ3}, all 31 nonempty subsets in a satisfiable cell
    assert searches["transitivity", EvalRule.MAX] == 28
    assert searches["none", EvalRule.MAX] == 31
    assert sum(searches.values()) == 518


def test_cores_needs_a_satisfy_search():
    with pytest.raises(ValueError, match="satisfy-mode"):
        cores(SearchSpec(2, EvalRule.MAX, EQ, atoms=ATOMS, mode="refute"))


def paradox_cores(max_n, deadline):
    return cores(SearchSpec(max_n, EvalRule.MAX, EQ, atoms=ATOMS, deadline=deadline))


# The searches that carry the facts of the three former case-study
# analyses, each under the one deadline.

def ascending_chain_evidence(max_n, deadline):
    """The cores of EQ1..EQ3 under max on transitive frames, and their
    least model on a frame with a strict cycle."""
    chain = EQ[1:4]
    return (
        cores(SearchSpec(max_n, EvalRule.MAX, chain, P.TRANSITIVE, ATOMS, deadline=deadline)),
        finder.find_satisfying_model(SearchSpec(
            max_n, EvalRule.MAX, chain, (), ATOMS, deadline=deadline, lacks=P.ACYCLIC,
        )),
    )


def interval_order_analysis(max_n, deadline):
    """The cores of EQ1..EQ4 under max on interval orders."""
    return cores(SearchSpec(max_n, EvalRule.MAX, EQ[1:5], P.INTERVAL_ORDER, ATOMS, deadline=deadline))


def fmp_evidence(max_n, deadline):
    """The cores of EQ1..EQ3 under max on quasi-transitive frames."""
    return cores(SearchSpec(max_n, EvalRule.MAX, EQ[1:4], P.QUASI_TRANSITIVE, ATOMS, deadline=deadline))


@pytest.mark.parametrize("analysis, searches", [
    (ascending_chain_evidence, 4),
    (interval_order_analysis, 4),
    (fmp_evidence, 3),
    (paradox_cores, 5),
    (run_grid, 18),
])
def test_case_study_searches_share_one_budget(analysis, searches, monkeypatch):
    # Every search gets the caller's deadline itself, so one deadline
    # covers the whole call.  Every set is unsatisfiable here, so the
    # cores stop at the singletons, one search per target.
    deadline = time.monotonic() + 100
    seen = []

    def search(spec):
        seen.append(spec.deadline)
        return SearchResult("unsat_up_to_bound", spec)

    monkeypatch.setattr(casestudy, "find_satisfying_model", search)
    monkeypatch.setattr(finder, "find_satisfying_model", search)
    # seen records the searches of this process only: run_grid's rows run
    # in one process per CPU (forks.fork_map), so give it one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    analysis(3, deadline=deadline)
    assert seen == [deadline] * searches


def test_near_miss_models_already_start_a_strict_chain():
    # every quasi-transitive model of {EQ1, EQ2} alone contains a strict
    # step: EQ1 pins a best Ap-world that EQ2 forces to be bettered
    from ddlmc.relprops import RelationProperty as P
    from ddlmc.relprops import has_all, longest_strict_chain
    from ddlmc.model import canonical_relations, iter_bits
    from ddlmc.semantics import slicer

    names = ("A", "Ap", "B")
    found = 0
    for rel in canonical_relations(3, has_all(frozenset({P.QUASI_TRANSITIVE}))):
        models = -1  # valuations where EQ1 and EQ2 hold at every world
        for f in (EQ[1], EQ[2]):
            for x in slicer(f, EvalRule.MAX, names)(rel):
                models &= x
        for _ in iter_bits(models):
            found += 1
            chain = longest_strict_chain(rel)
            assert chain is not None and (not isinstance(chain, int) or chain >= 2)
    assert found > 0
