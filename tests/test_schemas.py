"""Schema registry, forward/converse checks, and the table sweeps."""

from __future__ import annotations

import re
import time

import pytest

from ddlmc import schemas
from ddlmc.formula import metavars, render
from ddlmc.model import PreferenceModel
from ddlmc.relprops import RelationProperty as P
from ddlmc.relprops import check_property
from ddlmc.schemas import (
    SCHEMAS,
    converse_search,
    forward_check,
    table_sweep,
)
from ddlmc.semantics import EvalRule, frame_counterexample, truth_set, valid_on_frame


def _model(witness: dict) -> PreferenceModel:
    """The model a report's witness or counterexample describes; a
    counterexample's metavariable assignment becomes its valuation."""
    valuation = witness["valuation"] if "valuation" in witness else witness["assignment"]
    return PreferenceModel.from_pairs(witness["n"], witness["rel"], valuation)


def test_registry_contents():
    assert set(SCHEMAS) == {
        "K", "T", "Five", "COK", "Abs", "Nec", "Ext", "Id", "Sh",
        "Dstar", "CM", "DR", "Sp", "RM", "DEX",
    }
    for name, body in SCHEMAS.items():
        assert metavars(body) <= {"f", "g", "h"}, name


def test_forward_examples():
    assert forward_check([P.MAX_LIMITED], "Dstar", EvalRule.MAX, 3)["status"] == "confirmed"
    assert forward_check([P.MAX_SMOOTH], "CM", EvalRule.MAX, 3)["status"] == "confirmed"
    result = forward_check([P.TRANSITIVE], "Sp", EvalRule.MAX, 3)
    assert result["status"] == "counterexample"
    frame = _model(result["counterexample"]).rel
    assert check_property(P.TRANSITIVE, frame)
    assert not valid_on_frame(SCHEMAS["Sp"], frame, EvalRule.MAX)


def test_forward_counterexample_assignment_refutes():
    result = forward_check([], "Dstar", EvalRule.OPT, 2)
    assert result["status"] == "counterexample"
    model = _model(result["counterexample"])
    # re-evaluate the schema under the reported assignment
    assert truth_set(SCHEMAS["Dstar"], model, EvalRule.OPT, model.valuation) != model.full_mask


def test_forward_counterexample_frame_is_revalidated(monkeypatch):
    # A scan that hands back a frame without the requested property must
    # not get it past check_property: the irreflexive one-world frame
    # falsifies D* under opt but is not reflexive.
    env = frame_counterexample(SCHEMAS["Dstar"], (0,), EvalRule.OPT)
    hit = (1, (0,), tuple(env.values()))
    monkeypatch.setattr("ddlmc.finder.scan_frames", lambda *args, **kwargs: (hit, {1: 1}))
    with pytest.raises(AssertionError, match="lacks reflexive"):
        forward_check([P.REFLEXIVE], "Dstar", EvalRule.OPT, 1)


def test_dex_valid_under_max_refuted_under_lewis():
    assert forward_check([], "DEX", EvalRule.MAX, 3)["status"] == "confirmed"
    result = forward_check([], "DEX", EvalRule.LEWIS, 3)
    assert result["status"] == "counterexample"
    assert result["counterexample"]["n"] <= 2
    # the instance built from the falsifying assignment refutes deontic
    # explosion under lewis in a concrete model
    model = _model(result["counterexample"])
    assert truth_set(SCHEMAS["DEX"], model, EvalRule.LEWIS, model.valuation) != model.full_mask


def test_dex_fails_under_lewis_even_on_a_non_limited_model():
    # the least countermodels are max-limited (the rule tolerates a
    # conflict between unrelated witnesses); a non-limited one needs a
    # strict cycle plus an isolated world, first possible at n=4
    from ddlmc.finder import SearchSpec, find_satisfying_model
    from ddlmc.formula import parse

    targets = tuple(parse(s) for s in ("<>f", "O(g / f)", "O(~g / f)", "~O(h / f)"))
    blocked = SearchSpec(
        max_n=3, rule=EvalRule.LEWIS, targets=targets,
        frame_filter=lambda rel: not check_property(P.MAX_LIMITED, rel),
    )
    assert find_satisfying_model(blocked).status == "unsat_up_to_bound"
    found = SearchSpec(
        max_n=4, rule=EvalRule.LEWIS, targets=targets,
        frame_filter=lambda rel: not check_property(P.MAX_LIMITED, rel),
    )
    result = find_satisfying_model(found)
    assert result.status == "sat"
    assert result.model.n == 4
    assert not check_property(P.MAX_LIMITED, result.model)


def test_converse_trivial_witness():
    # Id is valid on every frame, so any non-transitive frame witnesses
    result = converse_search("Id", P.TRANSITIVE, EvalRule.MAX, 3)
    assert result["status"] == "witness"
    frame = _model(result["witness"]).rel
    assert not check_property(P.TRANSITIVE, frame)
    assert valid_on_frame(SCHEMAS["Id"], frame, EvalRule.MAX)


def test_converse_dstar_limitedness_none():
    # D* frame-validity pins down limitedness exactly, so no frame can
    # validate D* while failing it
    result = converse_search("Dstar", P.MAX_LIMITED, EvalRule.MAX, 4)
    assert result["status"] == "none_up_to_bound"


def test_converse_frame_witness_is_revalidated(monkeypatch):
    # A scan that wrongly calls every frame valid must not get a witness
    # past the reference evaluator: the least frame lacking opt-limitedness
    # falsifies D* under opt.
    monkeypatch.setattr("ddlmc.finder.scanner", lambda *args, **kwargs: lambda rel, deadline=None: ())
    target = re.escape(render(SCHEMAS["Dstar"]))
    with pytest.raises(AssertionError, match=f"witness fails target {target}$"):
        converse_search("Dstar", P.OPT_LIMITED, EvalRule.OPT, 2)


# (axiom, property, rule): cells whose least frame-level converse witness
# has three worlds or is not the first frame lacking the property
_CONVERSE_WITNESS_CELLS = [
    ("Dstar", P.TRANSITIVE, EvalRule.OPT),
    ("Dstar", P.INTERVAL_ORDER, EvalRule.OPT),
    ("Sp", P.MAX_SMOOTH, EvalRule.MAX),
    ("COK", P.MAX_SMOOTH, EvalRule.MAX),
    ("Dstar", P.MAX_SMOOTH, EvalRule.LEWIS),
    ("DR", P.MAX_LIMITED, EvalRule.LEWIS),
]


@pytest.mark.parametrize("axiom, prop, rule", _CONVERSE_WITNESS_CELLS)
def test_converse_frame_witness_is_valid_by_the_oracle(axiom, prop, rule):
    result = converse_search(axiom, prop, rule, 3)
    assert result["status"] == "witness"
    assert result["witness"]["valuation"] == {}
    frame = _model(result["witness"]).rel
    assert not check_property(prop, frame)
    assert _oracle_frame_valid(SCHEMAS[axiom], frame, rule.value)


def test_converse_cm_smoothness():
    # frame-level: no small frame validates CM while failing smoothness
    frame = converse_search("CM", P.MAX_SMOOTH, EvalRule.MAX, 3)
    assert frame["status"] == "none_up_to_bound"
    # model-level: a fixed-instance reading does have a finite witness
    model = converse_search("CM", P.MAX_SMOOTH, EvalRule.MAX, 3, model_level=True)
    assert model["status"] == "witness"
    witness = _model(model["witness"])
    assert not check_property(P.MAX_SMOOTH, witness.rel)
    assert truth_set(SCHEMAS["CM"], witness, EvalRule.MAX, witness.valuation) == witness.full_mask


def test_sweep_max_rows():
    report = table_sweep(EvalRule.MAX, 3)
    assert report["all_match"]
    rows = {r["label"]: r for r in report["rows"]}
    assert rows["limitedness"]["axioms"]["Dstar"]["forward"]["status"] == "confirmed"
    assert rows["limitedness"]["axioms"]["Dstar"]["dropped"]["status"] == "counterexample"
    assert rows["smoothness"]["axioms"]["CM"]["match"]
    assert rows["transitivity+totality"]["axioms"]["Sp"]["match"]
    assert rows["interval order"]["axioms"]["DR"]["match"]
    assert rows["transitivity"]["match"] is None  # bounded evidence only


def test_sweep_opt_transitivity_row():
    report = table_sweep(EvalRule.OPT, 3)
    assert report["all_match"]
    rows = {r["label"]: r for r in report["rows"]}
    assert rows["transitivity"]["axioms"]["Sp"]["forward"]["status"] == "confirmed"
    assert rows["transitivity+totality"]["match"] is None


def test_sweep_lewis_rows():
    report = table_sweep(EvalRule.LEWIS, 3)
    assert report["all_match"]
    rows = {r["label"]: r for r in report["rows"]}
    assert set(rows["transitivity+totality"]["axioms"]) == {"COK", "CM"}
    assert rows["totality"]["axioms"]["Dstar"]["match"]
    # COK needs both properties: dropping them yields a counterexample
    assert rows["transitivity+totality"]["axioms"]["COK"]["dropped"]["status"] == "counterexample"


def test_sweep_hands_every_check_the_callers_deadline(monkeypatch):
    # One deadline covers the table: the 8 unconditional checks and a
    # forward and a dropped-property check per correspondence axiom (4).
    deadline = time.monotonic() + 100
    seen = []

    def check(props, axiom, rule, max_n, **kwargs):
        seen.append(kwargs["deadline"])
        return {"status": "confirmed"}

    monkeypatch.setattr(schemas, "forward_check", check)
    table_sweep(EvalRule.LEWIS, 3, deadline=deadline)
    assert seen == [deadline] * 16


def _oracle_frame_valid(body, rel, rule_name):
    """Frame validity via the naive evaluator: loop over all assignments."""
    from itertools import product

    from ddlmc.model import relation_pairs
    from oracle import truth_worlds

    n = len(rel)
    worlds = frozenset(range(n))
    pairs = set(relation_pairs(rel))
    names = sorted(metavars(body))
    subsets = [frozenset(ws) for ws in _powerset(range(n))]
    for combo in product(subsets, repeat=len(names)):
        assignment = dict(zip(names, combo))
        if truth_worlds(body, worlds, pairs, {}, rule_name, assignment) != worlds:
            return False
    return True


def _powerset(items):
    from itertools import chain, combinations

    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def test_frame_validity_agrees_with_oracle():
    from ddlmc.model import all_relations

    picks = ("Dstar", "CM", "Sh", "DEX", "COK")
    for rel in all_relations(2):
        for name in picks:
            for rule in (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS):
                fast = valid_on_frame(SCHEMAS[name], rel, rule)
                slow = _oracle_frame_valid(SCHEMAS[name], rel, rule.value)
                assert fast == slow, (name, rel, rule)


def test_counterexample_identical_with_and_without_iso_rejection():
    # the least counterexample frame is an orbit minimum, so isomorph
    # rejection must report the very same frame
    for axiom, rule in (("Sp", EvalRule.MAX), ("DR", EvalRule.OPT), ("COK", EvalRule.LEWIS)):
        with_iso = forward_check([], axiom, rule, 3, iso_reject=True)
        without = forward_check([], axiom, rule, 3, iso_reject=False)
        assert with_iso["counterexample"] == without["counterexample"]


def test_formula_level_preference_is_transitive():
    # transitivity of the worlds relation lifts to the >= operator on
    # formulas under opt; under max it needs totality as well
    from ddlmc.formula import parse

    schema = parse("(?f >= ?g) & (?g >= ?h) -> (?f >= ?h)")
    assert forward_check([P.TRANSITIVE], schema, EvalRule.OPT, 3)["status"] == "confirmed"
    assert forward_check([P.TRANSITIVE, P.TOTAL], schema, EvalRule.MAX, 3)["status"] == "confirmed"
    assert forward_check([P.TRANSITIVE], schema, EvalRule.MAX, 3)["status"] == "counterexample"
    assert forward_check([], schema, EvalRule.OPT, 3)["status"] == "counterexample"


def test_sweep_bounds():
    with pytest.raises(ValueError):
        table_sweep(EvalRule.MAX, 5)
    with pytest.raises(ValueError):
        forward_check([], "Id", EvalRule.MAX, 6)
