"""Scenario encoding and the evidence reports (fast bounds; the acceptance
suite runs the full n <= 4 versions)."""

from __future__ import annotations

import random
import time

import pytest

from ddlmc import casestudy
from ddlmc import formula as fm
from ddlmc.casestudy import (
    ATOMS,
    EQ,
    GRID_EXPECTED,
    PP0,
    PP0_SUGAR,
    PP1,
    PP1_SUGAR,
    PP2,
    PP2_SUGAR,
    SCENARIO,
    fmp_evidence,
    grid_text,
    interval_order_analysis,
    ascending_chain_evidence,
    run_grid,
)
from ddlmc.finder import SearchResult
from ddlmc.model import PreferenceModel
from ddlmc.semantics import EvalRule, truth_set

from oracle import random_model_data

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


def test_ascending_chain_small():
    report = ascending_chain_evidence(3)
    assert report["with_property"][0]["status"] == "unsat_up_to_bound"
    assert report["with_property"][1]["status"] == "unsat_up_to_bound"
    assert report["without_property"]["status"] == "sat"
    # the least unrestricted witness happens to be acyclic; the cyclic
    # search must still produce a strict-cycle witness at some bound
    assert report["without_property"]["witness_acyclic"] is True


def test_interval_order_analysis_small():
    report = interval_order_analysis(3)
    # the triple {EQ1, EQ3, EQ4} is satisfiable on an interval order: the
    # pairwise-comparison clash needs EQ2 as well
    assert report["triple"]["status"] == "sat"
    assert report["without_eq4"]["status"] == "sat"
    assert report["triple_no_properties"]["status"] == "sat"
    assert report["with_eq2"]["status"] == "unsat_up_to_bound"


def test_fmp_small():
    report = fmp_evidence(3)
    assert [c["status"] for c in report["classes"]] == ["unsat_up_to_bound"] * 3
    assert "out of scope" in report["note"]


@pytest.mark.parametrize("analysis, searches", [
    (ascending_chain_evidence, 4),
    (interval_order_analysis, 4),
    (fmp_evidence, 3),
    (run_grid, 18),
])
def test_case_study_searches_share_one_budget(analysis, searches, monkeypatch):
    # Every search gets the caller's deadline itself, so one deadline
    # covers the whole call.
    deadline = time.monotonic() + 100
    seen = []

    def search(spec):
        seen.append(spec.deadline)
        return SearchResult("unsat_up_to_bound", spec)

    monkeypatch.setattr(casestudy, "find_satisfying_model", search)
    analysis(3, deadline=deadline)
    assert seen == [deadline] * searches


def test_near_miss_models_already_start_a_strict_chain():
    # every quasi-transitive model of {EQ1, EQ2} alone contains a strict
    # step: EQ1 pins a best Ap-world that EQ2 forces to be bettered
    from ddlmc.finder import enumerate_frames
    from ddlmc.relprops import RelationProperty as P
    from ddlmc.relprops import longest_strict_chain
    from ddlmc.model import iter_bits
    from ddlmc.semantics import slicer

    names = ("A", "Ap", "B")
    found = 0
    for rel in enumerate_frames(3, [P.QUASI_TRANSITIVE], iso_reject=True):
        models = -1  # valuations where EQ1 and EQ2 hold at every world
        for f in (EQ[1], EQ[2]):
            for x in slicer(f, EvalRule.MAX, names)(rel):
                models &= x
        for _ in iter_bits(models):
            found += 1
            chain = longest_strict_chain(rel)
            assert chain is not None and (not isinstance(chain, int) or chain >= 2)
    assert found > 0
