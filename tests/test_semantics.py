"""Truth conditions, frame validity, and the bit-sliced fast path."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlmc import formula as fm
from ddlmc import semantics
from ddlmc.finder import rule_collapse
from ddlmc.formula import expand, parse
from ddlmc.model import PreferenceModel, mask_from_worlds, relation_from_pairs, relation_pairs
from ddlmc.relprops import RelationProperty as P
from ddlmc.schemas import SCHEMAS, forward_check
from ddlmc.semantics import (
    EvalRule,
    best_set,
    cond_holds,
    frame_counterexample,
    scanner,
    schema_names,
    slicer,
    truth_set,
    valid_in_model,
    valid_on_frame,
)

import oracle
from oracle import all_relations, delete_world, orbit, random_formula, random_model_data, truth_worlds

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
    # the slicer reads one slice, so it rejects what the probe splits
    with pytest.raises(ValueError, match="5 names over 4 worlds exceed one slice"):
        slicer(targets[0], rule, _SCAN_NAMES)(_FULL)


def _visible(rel, rule):
    """The relation as rule's conditional sees it: under lewis its
    reflexive closure, under max the total relation with the same strict
    part (a >= b unless b > a), under opt the relation with the rows of
    the worlds without a loop emptied (such a world is never optimal)."""
    r = range(len(rel))
    if rule is EvalRule.LEWIS:
        return tuple(row | 1 << a for a, row in zip(r, rel))
    if rule is EvalRule.MAX:
        return tuple(
            sum(1 << b for b in r if not (rel[b] >> a & 1 and not rel[a] >> b & 1)) for a in r
        )
    return tuple(row if row >> a & 1 else 0 for a, row in zip(r, rel))


def _oracle_values(rule, rel):
    """O(?g / ?f) on rel by the oracle, as one slice over (f, g)."""
    n = len(rel)
    sets = [frozenset(w for w in range(n) if m >> w & 1) for m in range(1 << n)]
    pairs = {(a, b) for a in range(n) for b in range(n) if rel[a] >> b & 1}
    return sum(
        1 << (f << n | g)
        for f, xs in enumerate(sets) for g, ys in enumerate(sets)
        if oracle.cond(rule.value, ys, xs, range(n), pairs)
    )


def test_a_conditional_reads_only_what_its_rule_sees():
    # The quotient behind each search's memo.  Up to n=3 the oracle gives
    # O(?g / ?f) the same values on every relation as on the relation its
    # rule sees, and the keyed slice gives the oracle's values.  At n=4,
    # under opt the keyed slice agrees on every relation with a slice of
    # the raw relation (which only opt's _Slice accepts), and under max
    # and lewis with truth_set on a stride sample of relations.  Formulas
    # without a conditional read only the world count.
    cond = parse("O(?g / ?f)")
    for rule in RULES:
        values = slicer(cond, rule, ("f", "g"))
        for n in range(1, 4):
            expected = {rel: _oracle_values(rule, rel) for rel in all_relations(n)}
            for rel, value in expected.items():
                assert expected[_visible(rel, rule)] == value, (rule, rel)
                assert values(rel) == [value] * n, (rule, rel)
    cols, ones = semantics._columns(4, 2)
    cols = dict(zip(("f", "g"), cols))
    program = semantics._compile(cond)
    values = slicer(cond, EvalRule.OPT, ("f", "g"))
    for rel in all_relations(4):
        assert values(rel) == program(semantics._Slice(rel, EvalRule.OPT, cols, ones)), rel
    sample = list(all_relations(4))[::257]
    for rule in (EvalRule.MAX, EvalRule.LEWIS):
        values = slicer(cond, rule, ("f", "g"))
        for rel in sample:
            m = PreferenceModel(4, rel)
            expected = sum(
                1 << (f << 4 | g)
                for f in range(16) for g in range(16)
                if truth_set(cond, m, rule, {"f": f, "g": g})
            )
            assert values(rel) == [expected] * 4, (rule, rel)
    for name in ("K", "T", "Five"):
        schema = SCHEMAS[name]
        for rule in RULES:
            values = slicer(schema, rule, schema_names(schema))
            for n in range(1, 4):
                first = values((0,) * n)
                assert all(values(rel) == first for rel in all_relations(n)), (name, rule, n)


# Valid mode asks for targets true under every valuation: these hold on a
# frame exactly when its rule leaves no world outside the best.
_MEMO_TARGETS = {
    **_SCAN_TARGETS,
    "valid": ("(<>?c & O(~?c / T)) -> <>?a", "O(?b / ?d) -> O(?b | ?e / ?d)"),
}


@pytest.mark.parametrize("mode", sorted(_MEMO_TARGETS))
@pytest.mark.parametrize("rule", RULES)
def test_a_memoised_probe_answers_as_a_fresh_one(rule, mode, monkeypatch):
    # One probe serves a whole search and remembers each key it settled;
    # on every frame it answers what a probe built for that frame alone
    # does, across world counts and past one slice (five names at n=4, 5),
    # also once its memo is full.
    targets = [parse(t) for t in _MEMO_TARGETS[mode]]
    frames = [rel for n in (1, 2, 3) for rel in all_relations(n)]
    frames += [(0, 1, 2, 15), _FULL, (0, 1, 18, 4, 8), (0, 1, 0, 0, 0)]
    fresh = []
    for rel in frames:
        semantics._probes.clear()
        fresh.append(scanner(targets, rule, _SCAN_NAMES, mode)(rel))
    for keys in (semantics._MEMO_KEYS, 3):
        monkeypatch.setattr(semantics, "_MEMO_KEYS", keys)
        semantics._probes.clear()
        probe = scanner(targets, rule, _SCAN_NAMES, mode)
        assert [probe(rel) for rel in frames] == fresh, keys


def test_one_probe_per_targets_rule_names_and_mode():
    # The process keeps one probe per (targets, rule, names, mode), so the
    # searches of a grid's rows or of a table's checks share its memo.  A
    # search in another mode needs another probe: on the frame where world
    # 1 is the one optimal world, O(?a / T) is satisfied first by a = {1}
    # and refuted first by a = {}.
    targets = [parse("O(?a / T)")]
    probe = scanner(targets, EvalRule.OPT, ("a",), "satisfy")
    assert scanner(tuple(targets), EvalRule.OPT, ["a"]) is probe
    refute = scanner(targets, EvalRule.OPT, ("a",), "refute")
    assert refute is not probe
    assert (probe((1, 3)), refute((1, 3))) == ((2,), (0,))
    assert scanner(targets, EvalRule.MAX, ("a",)) is not probe
    assert scanner(targets, EvalRule.OPT, ("a", "b")) is not probe


def test_closure_keys_read_no_loop():
    # A search with closure properties walks the reflexive closures in place
    # of its frames only under a key that gives every relation the key of
    # its closure.  Opt's does not: (2, 0) loops neither world, so its key
    # is (0, 0), while its closure (3, 2) is its own key.
    closure = semantics._reflexive_closure
    for key_map in semantics.CLOSURE_KEYS:
        for n in (1, 2, 3, 4):
            for rel in all_relations(n):
                assert key_map(closure(rel)) == key_map(rel), (key_map.__name__, rel)
    assert {semantics.key([parse("p")], rule) for rule in EvalRule} <= semantics.CLOSURE_KEYS
    opt = semantics.key([parse("O(p/T)")], EvalRule.OPT)
    assert opt((2, 0)) != opt(closure((2, 0)))
    assert opt not in semantics.CLOSURE_KEYS


@pytest.mark.parametrize("rule", list(EvalRule), ids=str)
@pytest.mark.parametrize("axiom", ["Abs", "K"])
def test_key_image_accepts_exactly_the_keys(rule, axiom):
    # A property-free search walks the classes of the key's fixed points in
    # place of the frames, which is complete only if they are exactly the
    # keys (the set equality holds only for an idempotent key), and their
    # class build only if they are invariant and hereditary.
    formulas = (SCHEMAS[axiom],)
    key = semantics.key(formulas, rule)
    image = semantics.fixed_points(key)
    for n in (1, 2, 3):
        relations = list(all_relations(n))
        assert {rel for rel in relations if image(rel)} == {key(rel) for rel in relations}, n
        for rel in relations:
            relabelled = {relation_from_pairs(n, pairs) for pairs in orbit(n, relation_pairs(rel))}
            assert {image(other) for other in relabelled} == {image(rel)}, rel
            if image(rel):
                assert all(image(delete_world(rel, w)) for w in range(n)), rel


def test_a_search_builds_one_slice_per_key(monkeypatch):
    # A property-free search walks its rule's key classes: 218 of the 3 044
    # four-world classes are lewis's (the reflexive ones) and 351 opt's (the
    # relations whose loopless rows are empty), and K reads no relation.  It
    # builds one slice per class while it counts every frame.  max's D*
    # also scans the three-world frames, past the key class that hits: the
    # memo answers the frames whose key it has met.  A transitive search
    # under lewis walks the preorders, the reflexive closures of the
    # transitive frames, one slice per class (33 of the 58 keys its frame
    # scan met at n=4).  Each row starts without the process's probes,
    # which would answer the keys an earlier search settled.
    built = []
    original = semantics._Slice

    def counted(seen, *args):
        built.append(len(seen))
        return original(seen, *args)

    monkeypatch.setattr(semantics, "_Slice", counted)
    for rule, axiom, properties, checked, per_n in (
        (EvalRule.LEWIS, "Abs", (), 3160, [1, 3, 16, 218]),
        (EvalRule.LEWIS, "K", (), 3160, [1, 1, 1, 1]),
        (EvalRule.OPT, "Abs", (), 3160, [2, 6, 30, 351]),
        (EvalRule.MAX, "Dstar", (), 83, [1, 2, 9, 0]),
        (EvalRule.LEWIS, "Abs", (P.TRANSITIVE,), 291, [1, 3, 9, 33]),
    ):
        built.clear()
        semantics._probes.clear()
        assert forward_check(properties, axiom, rule, 4)["frames_checked"] == checked
        assert [built.count(n) for n in range(1, 5)] == per_n, (rule, axiom)


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


def _negations(depth):
    f = fm.MetaVar("x")
    for _ in range(depth):
        f = fm.Not(f)
    return f


_COMPILED_ENTRIES = {
    "valid_on_frame": lambda f: valid_on_frame(f, (1, 2), EvalRule.MAX),
    "frame_counterexample": lambda f: frame_counterexample(f, (1, 2), EvalRule.MAX),
    "slicer": lambda f: slicer(f, EvalRule.MAX, ("x",))((1, 2)),
    "scanner": lambda f: scanner((f,), EvalRule.MAX, ("x",), "refute")((1, 2)),
}


@pytest.mark.parametrize("entry", sorted(_COMPILED_ENTRIES))
def test_compiled_evaluation_rejects_a_schema_nested_past_max_depth(entry):
    # 1 000 nested negations built from the constructors never went through
    # parse's limit, and used to end frame validity in a RecursionError
    evaluate = _COMPILED_ENTRIES[entry]
    assert evaluate(_negations(fm.MAX_DEPTH - 1)) == evaluate(fm.Not(fm.MetaVar("x")))
    for depth in (fm.MAX_DEPTH, 1000):
        with pytest.raises(ValueError, match=f"^formula nested more than {fm.MAX_DEPTH} levels deep$"):
            evaluate(_negations(depth))


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


# World-constant nodes (the conditionals, [] and <>, T and F, and Boolean
# combinations of them) are evaluated once for all worlds; these formulas
# join them with per-world ones, as in []?p -> O(?q / ?p) or O(?p / ?q) & ?r.
_PROBE_NAMES = ("p", "q", "r")
_PROBE_LEAVES = st.sampled_from([fm.MetaVar(a) for a in _PROBE_NAMES] + [fm.TOP, fm.BOT])
_PER_WORLD = _formulas(2, _PROBE_LEAVES)
_CONSTANT = st.one_of(
    _PER_WORLD.map(fm.Box), _PER_WORLD.map(fm.Diamond),
    *(st.builds(node, _PER_WORLD, _PER_WORLD) for node in (fm.Oblig, fm.Perm, fm.PrefGeq, fm.PrefGt)),
)
_SIDE = st.one_of(_CONSTANT, _PER_WORLD, _CONSTANT.map(fm.Not))
_MIXED = st.one_of(
    *(st.builds(node, _SIDE, _SIDE) for node in (fm.Or, fm.And, fm.Implies, fm.Iff)),
    st.builds(fm.Box, st.builds(fm.And, _CONSTANT, _SIDE)),
)


@settings(max_examples=120, deadline=None)
@given(rel=st.integers(1, 3).flatmap(lambda n: st.tuples(*[st.integers(0, (1 << n) - 1)] * n)),
       targets=st.lists(_MIXED, min_size=1, max_size=2))
def test_probe_settles_mixed_formulas_as_the_oracle(rel, targets):
    # Through scanner, each mode's probe returns the brute-force least
    # valuation (satisfy, refute) or () / None (valid) of every rule.
    n, k = len(rel), len(_PROBE_NAMES)
    pairs = {(a, b) for a in range(n) for b in range(n) if rel[a] >> b & 1}
    envs = list(product(range(1 << n), repeat=k))
    for rule in RULES:
        holds = []
        for env in envs:
            sets = {a: frozenset(w for w in range(n) if m >> w & 1) for a, m in zip(_PROBE_NAMES, env)}
            holds.append(all(
                truth_worlds(f, range(n), pairs, sets, rule.value, assignment=sets) == set(range(n))
                for f in targets
            ))
        expected = {
            "satisfy": next((env for env, h in zip(envs, holds) if h), None),
            "refute": next((env for env, h in zip(envs, holds) if not h), None),
            "valid": () if all(holds) else None,
        }
        for mode, value in expected.items():
            assert scanner(targets, rule, _PROBE_NAMES, mode)(rel) == value, (rule, mode)


def test_a_one_name_slice_at_the_largest_world_count():
    # One name over 16 worlds fills one 2**16-bit slice, the largest world
    # count slicer accepts; 17 worlds would not fit.
    n = semantics._SLICE_LOG2
    rng = random.Random(1616)
    rel = tuple(rng.getrandbits(n) for _ in range(n))
    pairs = {(a, b) for a in range(n) for b in range(n) if rel[a] >> b & 1}
    masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
    for text in ("[]?p -> O(?p / ~?p)", "O(?p / T) & ?p", "P(~?p / ?p) | (?p >= ~?p)", "<>?p <-> ?p > ~?p"):
        f = parse(text)
        for rule in RULES:
            values = slicer(f, rule, ("p",))(rel)
            for mask in masks:
                env = {"p": frozenset(w for w in range(n) if mask >> w & 1)}
                expected = truth_worlds(f, range(n), pairs, env, rule.value, assignment=env)
                assert {a for a in range(n) if values[a] >> mask & 1} == expected, (text, rule, mask)
    with pytest.raises(ValueError, match="1 names over 17 worlds exceed one slice"):
        slicer(parse("?p"), EvalRule.MAX, ("p",))((0,) * 17)
