"""Truth conditions, frame validity, and the bit-sliced fast path."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlmc import formula as fm
from ddlmc.finder import rule_collapse
from ddlmc.formula import expand, parse
from ddlmc.model import PreferenceModel, all_relations, mask_from_worlds
from ddlmc.schemas import forward_check
from ddlmc.semantics import (
    EvalRule,
    best_set,
    cond_holds,
    frame_counterexample,
    scanner,
    slicer,
    truth_set,
    valid_in_model,
    valid_on_frame,
)

from oracle import random_formula, random_model_data, truth_worlds

RULES = (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS)


def _model(n, pairs, valuation=None):
    return PreferenceModel.from_pairs(n, pairs, valuation)


def test_best_set_examples():
    m = _model(2, [(0, 0), (1, 1), (1, 0)])
    assert best_set(EvalRule.OPT, 0b11, m) == 0b10
    assert best_set(EvalRule.MAX, 0b11, m) == 0b10
    assert best_set(EvalRule.OPT, 0, m) == 0
    assert best_set(EvalRule.MAX, 0, m) == 0
    empty = _model(2, [])
    assert best_set(EvalRule.OPT, 0b11, empty) == 0
    assert best_set(EvalRule.MAX, 0b11, empty) == 0b11
    with pytest.raises(ValueError):
        best_set(EvalRule.LEWIS, 0b11, m)


def test_cond_holds_examples():
    m = _model(2, [(0, 0), (1, 1), (1, 0)])
    for rule in RULES:
        assert cond_holds(rule, 0b11, 0, m)  # empty antecedent
        assert cond_holds(rule, 0b10, 0b11, m)
    empty = _model(2, [])
    # fixture verified against the naive evaluator: max falsifies (world 0
    # is maximal), opt holds vacuously, lewis holds via an unrelated witness
    assert not cond_holds(EvalRule.MAX, 0b10, 0b11, empty)
    assert cond_holds(EvalRule.OPT, 0b10, 0b11, empty)
    assert cond_holds(EvalRule.LEWIS, 0b10, 0b11, empty)


def test_truth_set_examples():
    m = _model(2, [(0, 0), (1, 1), (1, 0)], {"p": [1]})
    assert truth_set(parse("p"), m, EvalRule.OPT) == 0b10
    assert truth_set(parse("[](p | ~p)"), m, EvalRule.OPT) == 0b11
    assert truth_set(parse("O(p / T)"), m, EvalRule.OPT) == 0b11


def test_unbound_atoms_default_empty_or_raise():
    m = _model(2, [(0, 0)], {})
    assert truth_set(parse("q"), m, EvalRule.MAX) == 0
    with pytest.raises(ValueError, match="no valuation entry"):
        truth_set(parse("q"), m, EvalRule.MAX, strict_atoms=True)


def test_valid_in_model_rejects_metavariables():
    m = _model(1, [(0, 0)])
    with pytest.raises(ValueError):
        valid_in_model(parse("?x"), m, EvalRule.MAX)


def test_identity_axiom_instance_valid_everywhere():
    instance = parse("O(p / p)")
    for n in (1, 2, 3):
        for rel in all_relations(n):
            for mask in range(1 << n):
                m = PreferenceModel(n, rel, {"p": mask})
                assert valid_in_model(instance, m, EvalRule.OPT)
                assert valid_in_model(instance, m, EvalRule.MAX)


def test_unconditional_obligation_fails_without_consequent():
    m = _model(2, [(0, 0), (1, 1), (1, 0)], {"p": []})
    assert not valid_in_model(parse("O(p / T)"), m, EvalRule.MAX)


def test_oracle_agreement_fuzz():
    rng = random.Random(987654)
    for _ in range(400):
        n, pairs, valuation = random_model_data(rng, 3, ("p", "q"))
        f = random_formula(rng, depth=4, atom_names=("p", "q"))
        rule = rng.choice(RULES)
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        expected = truth_worlds(f, range(n), pairs, valuation, rule.value)
        assert truth_set(f, m, rule) == mask_from_worlds(expected)


def test_expansion_preserves_truth():
    rng = random.Random(13579)
    for _ in range(250):
        n, pairs, valuation = random_model_data(rng, 3, ("p", "q"))
        f = random_formula(rng, depth=4, atom_names=("p", "q"))
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        for rule in RULES:
            assert truth_set(f, m, rule) == truth_set(expand(f), m, rule)


def test_prefgt_matches_geq_conjunction():
    # l > r agrees with (l >= r) & ~(r >= l) on every small model
    rng = random.Random(2468)
    gt = parse("p > q")
    alt = parse("(p >= q) & ~(q >= p)")
    for _ in range(250):
        n, pairs, valuation = random_model_data(rng, 3, ("p", "q"))
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        for rule in RULES:
            assert truth_set(gt, m, rule) == truth_set(alt, m, rule)


def test_absoluteness_of_modal_and_deontic_formulas():
    rng = random.Random(11223)
    shapes = ("O(%s / %s)", "P(%s / %s)", "[]%s", "<>%s")
    for _ in range(200):
        n, pairs, valuation = random_model_data(rng, 3, ("p", "q"))
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        inner = random_formula(rng, depth=2, atom_names=("p", "q"))
        other = random_formula(rng, depth=2, atom_names=("p", "q"))
        candidates = [
            fm.Oblig(inner, other), fm.Perm(inner, other),
            fm.Box(inner), fm.Diamond(inner),
            fm.PrefGeq(inner, other), fm.PrefGt(inner, other),
        ]
        for rule in RULES:
            for f in candidates:
                assert truth_set(f, m, rule) in (0, m.full_mask)


def test_opt_subset_of_max_with_strictness_witness():
    strict_somewhere = False
    for rel in all_relations(3):
        m = PreferenceModel(3, rel)
        for xs in range(8):
            opt = best_set(EvalRule.OPT, xs, m)
            mx = best_set(EvalRule.MAX, xs, m)
            assert opt & ~mx == 0
            if opt != mx:
                strict_somewhere = True
    assert strict_somewhere


def test_compiled_evaluator_agrees_with_reference():
    rng = random.Random(31415)
    names = ("p", "q")
    for _ in range(300):
        n, pairs, valuation = random_model_data(rng, 3, names)
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        f = random_formula(rng, depth=4, atom_names=names)
        v = m.valuation["p"] << n | m.valuation["q"]  # the valuation's index
        for rule in RULES:
            values = slicer(f, rule, names)(m.rel)
            assert sum((values[a] >> v & 1) << a for a in range(n)) == truth_set(f, m, rule)


def test_frame_validity_basics():
    sh = parse("O(?h / ?f & ?g) -> O(?g -> ?h / ?f)")
    for rel in all_relations(2):
        assert valid_on_frame(sh, rel, EvalRule.MAX)
    dstar = parse("<>?f -> (O(?g / ?f) -> P(?g / ?f))")
    assert not valid_on_frame(dstar, (0,), EvalRule.OPT)
    counter = frame_counterexample(dstar, (0, 0, 0), EvalRule.OPT)
    assert counter is not None
    # the reported assignment is the least falsifying one
    assert list(counter) == ["f", "g"]


def test_dstar_on_empty_relation_frames():
    # with no betterness pairs there is no strict betterness, so every set
    # is its own max set: the frame is max-limited and D* holds under max,
    # while opt leaves every non-singleton best set empty and D* fails
    dstar = parse("<>?f -> (O(?g / ?f) -> P(?g / ?f))")
    for n in (1, 2, 3):
        empty = tuple([0] * n)
        assert valid_on_frame(dstar, empty, EvalRule.MAX)
        assert not valid_on_frame(dstar, empty, EvalRule.OPT)


def test_cok_fails_on_a_two_world_nontotal_frame_under_lewis():
    cok = parse("O(?g -> ?h / ?f) -> (O(?g / ?f) -> O(?h / ?f))")
    assert not valid_on_frame(cok, (0, 0), EvalRule.LEWIS)


def test_frame_validity_rejects_atoms():
    with pytest.raises(ValueError):
        valid_on_frame(parse("O(p / ?f)"), (0,), EvalRule.MAX)


# Five names make 2**20 valuations at n=4 and 2**25 at n=5, past one
# 2**16-bit slice.  <>?c & O(~?c / T) fails under every rule exactly when
# every world is at least as good as every other, as on _FULL: there each
# least valuation needs a nonempty ?a, so it lies past the first slice.  On
# the other frames the least valuations come early, which keeps the plain
# reference loop short.
_SCAN_NAMES = ("a", "b", "c", "d", "e")
_SCAN_TARGETS = {
    "satisfy": (
        "[](?b -> ?a)", "<>(?d & ~?c)", "[](?e -> ?d)",
        "<>?a | (<>?c & O(~?c / T))", "P(?e / ?d) | O(?e / ?d)",
    ),
    "refute": ("(<>?c & O(~?c / T)) -> <>?a", "?a -> (?b | [](?d -> ?e))"),
}
_FULL = (15, 15, 15, 15)


@pytest.mark.parametrize("mode", sorted(_SCAN_TARGETS))
@pytest.mark.parametrize("rule", RULES)
def test_one_probe_serves_every_size_and_slice(rule, mode):
    # One probe runs on every frame, from one world to five and back.
    targets = [parse(t) for t in _SCAN_TARGETS[mode]]
    probe = scanner(targets, rule, _SCAN_NAMES, mode)
    frames = [(0,), (1,), (0, 3), (2, 1), (0, 1, 7), (6, 5, 3), (0, 1, 2, 15), _FULL,
              (0, 1, 18, 4, 8), (0, 1, 0, 0, 0), (1,)]
    for rel in frames:
        frame = PreferenceModel(len(rel), rel)
        expected = None
        for env in product(range(1 << frame.n), repeat=len(_SCAN_NAMES)):
            assignment = dict(zip(_SCAN_NAMES, env))
            holds = all(truth_set(f, frame, rule, assignment) == frame.full_mask for f in targets)
            if holds == (mode == "satisfy"):
                expected = env
                break
        if rel == _FULL:
            assert expected[0] != 0
        assert probe(rel) == expected, rel


def test_a_search_reads_the_schema_names_once(monkeypatch):
    # The schema is compiled once per search, so its atoms and
    # metavariables are read a fixed number of times, not once per frame:
    # a search over 3 frames reads them as often as one over thousands.
    calls = []
    for name in ("atoms", "metavars"):
        original = getattr(fm, name)
        monkeypatch.setattr(fm, name, lambda f, original=original: calls.append(f) or original(f))
    counts = []
    for max_n in (1, 4):
        calls.clear()
        counts.append((forward_check((), "Abs", EvalRule.LEWIS, max_n)["frames_checked"], len(calls)))
    (small, small_calls), (large, large_calls) = counts
    assert small < 4 and large > 3000
    assert small_calls == large_calls


def test_frame_validity_cap(monkeypatch):
    # The one cap is the world bound 1..5, checked before any work.
    cok = parse("O(?g -> ?h / ?f) -> (O(?g / ?f) -> O(?h / ?f))")
    assert valid_on_frame(cok, (0,) * 4, EvalRule.MAX)  # three metavars, n=4

    def no_work(*args, **kwargs):
        raise AssertionError("scanned a frame outside the bound")

    monkeypatch.setattr("ddlmc.semantics.scanner", no_work)
    for rel in ((0,) * 6, ()):
        with pytest.raises(ValueError, match="1..5"):
            frame_counterexample(cok, rel, EvalRule.MAX)
        with pytest.raises(ValueError, match="1..5"):
            valid_on_frame(cok, rel, EvalRule.MAX)


def test_box_is_global_modality():
    m = _model(3, [], {"p": [0, 1, 2], "q": [1]})
    assert truth_set(parse("[]p"), m, EvalRule.MAX) == m.full_mask
    assert truth_set(parse("[]q"), m, EvalRule.MAX) == 0
    assert truth_set(parse("<>q"), m, EvalRule.MAX) == m.full_mask


def test_rule_collapse_small():
    report = rule_collapse(3)
    assert report["status"] == "confirmed"
    # weak orders up to isomorphism are compositions of n: 1 + 2 + 4
    assert report["frames_checked"] == 7


def test_rules_genuinely_differ_without_the_properties():
    m = _model(2, [])
    seen = {
        rule: cond_holds(rule, 0b10, 0b11, m) for rule in RULES
    }
    assert len(set(seen.values())) > 1


def _formulas(depth, leaf):
    if depth == 0:
        return leaf
    sub = _formulas(depth - 1, leaf)
    return st.one_of(
        leaf,
        sub.map(fm.Not), sub.map(fm.Box), sub.map(fm.Diamond),
        *(st.builds(node, sub, sub) for node in (
            fm.Or, fm.And, fm.Implies, fm.Iff, fm.Oblig, fm.Perm, fm.PrefGeq, fm.PrefGt,
        )),
    )


_FRAMES = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.integers(0, (1 << n) - 1)] * n)
)
_NAMES = ("p", "q")
_LEAVES = st.sampled_from(
    [fm.Atom(a) for a in _NAMES] + [fm.MetaVar(a) for a in _NAMES] + [fm.TOP, fm.BOT]
)


@settings(max_examples=300, deadline=None)
@given(rel=_FRAMES, f=_formulas(4, _LEAVES))
def test_sliced_values_match_oracle_at_every_valuation(rel, f):
    n = len(rel)
    pairs = {(a, b) for a in range(n) for b in range(n) if rel[a] >> b & 1}
    for rule in RULES:
        values = slicer(f, rule, _NAMES)(rel)
        for v in range(1 << 2 * n):
            masks = {"p": v >> n, "q": v & (1 << n) - 1}
            env = {a: frozenset(w for w in range(n) if m >> w & 1) for a, m in masks.items()}
            expected = truth_worlds(f, range(n), pairs, env, rule.value, assignment=env)
            assert {a for a in range(n) if values[a] >> v & 1} == expected
