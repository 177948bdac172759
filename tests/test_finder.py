"""Frame enumeration and model search."""

from __future__ import annotations

import time
from itertools import product

import pytest

from ddlmc import model
from ddlmc.finder import (
    SearchSpec,
    SearchTimeout,
    enumerate_frames,
    find_satisfying_model,
    rule_collapse,
)
from ddlmc.formula import parse
from ddlmc.model import PreferenceModel, relation_from_pairs, relation_pairs
from ddlmc.relprops import CYCLIC, check_property, is_acyclic, longest_strict_chain
from ddlmc.schemas import converse_search, forward_check
from ddlmc.relprops import RelationProperty as P
from ddlmc.semantics import EvalRule, scanner, truth_set

from oracle import orbit


def test_enumerate_counts():
    assert len(list(enumerate_frames(1))) == 2
    assert len(list(enumerate_frames(2, [P.REFLEXIVE]))) == 4
    # total relations on 3 worlds: forced diagonal, 3 free unordered pairs
    # with 3 states each
    assert len(list(enumerate_frames(3, [P.TOTAL]))) == 27


def test_enumerate_is_sorted_and_filters():
    frames = list(enumerate_frames(2, [P.TRANSITIVE]))
    assert frames == sorted(frames)
    assert all(check_property(P.TRANSITIVE, rel) for rel in frames)


def test_enumerate_iso_yields_canonical_representatives():
    frames = list(enumerate_frames(3, [P.TOTAL], iso_reject=True))
    # every total relation must be isomorphic to exactly one representative
    seen = set()
    for rep in frames:
        images = {relation_from_pairs(3, pairs) for pairs in orbit(3, relation_pairs(rep))}
        assert rep == min(images)
        seen |= images
    assert len(seen) == 27


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(max_n=3, rule=EvalRule.MAX, targets=())
    # metavariables are read from the valuation like atoms, so one name
    # cannot be both
    with pytest.raises(ValueError, match=r"\['p'\] are used as atoms and as metavariables"):
        SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("p & ?p"),))
    with pytest.raises(ValueError):
        SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("p"),), atoms=("q",))
    # Six names over three worlds span two slices: the first p would be
    # fixed per slice while the second p is scanned within it.
    with pytest.raises(ValueError, match=r"\['p'\] are listed more than once"):
        SearchSpec(
            max_n=3, rule=EvalRule.MAX, targets=(parse("<>p"),),
            atoms=("p", "q", "r", "s", "t", "p"),
        )
    spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("O(p/q)"),))
    assert spec.atoms == ("p", "q")


def test_search_finds_least_model():
    spec = SearchSpec(
        max_n=3, rule=EvalRule.MAX, targets=(parse("O(p / T)"), parse("<>~p")),
        iso_reject=True,
    )
    result = find_satisfying_model(spec)
    assert result.status == "sat"
    m = result.model
    assert m.n == 2  # needs a p-world and a non-p-world
    assert truth_set(parse("O(p / T)"), m, EvalRule.MAX) == m.full_mask


def test_search_unsat_dex_conflict_set():
    # conflicting obligations with a possible antecedent force an empty max
    # set, which then validates everything: the fourth target cannot hold
    targets = tuple(parse(s) for s in ("O(p / T)", "O(~p / T)", "<>T", "~O(q / T)"))
    spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=targets)
    result = find_satisfying_model(spec)
    assert result.status == "unsat_up_to_bound"
    assert result.model is None


def test_search_respects_properties():
    targets = (parse("O(p / T)"), parse("<>~p"))
    spec = SearchSpec(
        max_n=3, rule=EvalRule.MAX, targets=targets,
        properties=(P.REFLEXIVE, P.TOTAL, P.TRANSITIVE),
    )
    result = find_satisfying_model(spec)
    assert result.status == "sat"
    for prop in spec.properties:
        assert check_property(prop, result.model)


def test_search_iso_and_noniso_find_same_least_witness():
    targets = (parse("O(p / T)"), parse("<>~p"))
    outcomes = []
    for iso in (True, False):
        spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=targets, iso_reject=iso)
        result = find_satisfying_model(spec)
        outcomes.append((result.model.rel, result.model.valuation))
    assert outcomes[0] == outcomes[1]


def test_refute_mode():
    spec = SearchSpec(
        max_n=2, rule=EvalRule.MAX, targets=(parse("O(p / T)"),), mode="refute",
    )
    result = find_satisfying_model(spec)
    assert result.status == "refuted"
    m = result.model
    assert truth_set(parse("O(p / T)"), m, EvalRule.MAX) != m.full_mask


def test_valid_mode_quantifies_the_atoms_too():
    # valid mode asks for every valuation of spec.atoms, atoms included:
    # excluded middle holds on the least frame, a lone atom on none
    spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("p | ~p"),), mode="valid")
    result = find_satisfying_model(spec)
    assert result.status == "valid"
    assert result.model == PreferenceModel(1, (0,))
    spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("p"),), mode="valid")
    result = find_satisfying_model(spec)
    assert result.status == "no_valid_frame_up_to_bound"
    assert result.model is None
    assert result.frames_checked == sum(len(list(enumerate_frames(n, iso_reject=True))) for n in (1, 2, 3))


def test_frame_filter():
    spec = SearchSpec(
        max_n=3, rule=EvalRule.MAX, targets=(parse("<>T"),),
        frame_filter=lambda rel: not is_acyclic(rel),
    )
    result = find_satisfying_model(spec)
    assert result.status == "sat"
    assert longest_strict_chain(result.model) is CYCLIC


def test_frame_filter_is_revalidated(monkeypatch):
    # A scan that hands back a frame the filter rejects must not get it
    # past the search: the reflexive one-world frame has no strict cycle.
    monkeypatch.setattr("ddlmc.finder.scan_frames", lambda *args, **kwargs: ((1, (1,), ()), {1: 1}))
    spec = SearchSpec(
        max_n=3, rule=EvalRule.MAX, targets=(parse("<>T"),),
        frame_filter=lambda rel: not is_acyclic(rel),
    )
    with pytest.raises(AssertionError, match="frame filter"):
        find_satisfying_model(spec)


def test_collapse_divergence_is_revalidated(monkeypatch):
    # A slicer that makes opt disagree with max and lewis on every frame
    # must not get a divergence past the reference cond_holds: on the
    # first frame, the reflexive one-world frame, the three rules agree.
    def slicer(cond, rule, names):
        return lambda rel: [1 if rule is EvalRule.OPT else 0] * len(rel)

    monkeypatch.setattr("ddlmc.finder.slicer", slicer)
    with pytest.raises(AssertionError, match="does not diverge"):
        rule_collapse(3)


_SEARCHES = {
    "forward_check": lambda max_n, deadline: forward_check(
        [P.REFLEXIVE], "Dstar", EvalRule.OPT, max_n, deadline=deadline),
    "converse_frame": lambda max_n, deadline: converse_search(
        "Id", P.REFLEXIVE, EvalRule.MAX, max_n, deadline=deadline),
    "converse_model": lambda max_n, deadline: converse_search(
        "Id", P.REFLEXIVE, EvalRule.MAX, max_n, deadline=deadline, model_level=True),
    "rule_collapse": lambda max_n, deadline: rule_collapse(max_n, deadline=deadline),
}


@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_library_searches_check_bound_and_deadline(search, monkeypatch):
    run = _SEARCHES[search]
    assert run(2, None)  # runs to completion within the bound
    with pytest.raises(SearchTimeout):
        run(3, time.monotonic() - 1)

    def no_work(*args, **kwargs):
        raise AssertionError("scanned a frame outside the bound")

    monkeypatch.setattr("ddlmc.finder.enumerate_frames", no_work)
    for max_n in (0, 6):
        with pytest.raises(ValueError, match="1..5"):
            run(max_n, None)


_FIVE_ATOMS = ("a", "b", "c", "d", "e")
_BEYOND_FIRST_SLICE = {
    "satisfy": ("<>a", "O(b / a)", "[](c -> d)", "<>(d & ~c)", "P(e / d)"),
    "refute": ("a -> (b | [](c -> e))",),
}


@pytest.mark.parametrize("mode", sorted(_BEYOND_FIRST_SLICE))
@pytest.mark.parametrize("rule", list(EvalRule))
def test_least_witness_beyond_the_first_slice(rule, mode):
    # five atoms at n=4 make 2**20 valuations, more than one 2**16-bit
    # slice, so the scan binds atom a one mask at a time; every witness
    # needs a nonempty a, so none lies in the first slice
    frame = (0, 1, 2, 8)
    targets = tuple(parse(s) for s in _BEYOND_FIRST_SLICE[mode])
    spec = SearchSpec(
        max_n=4, rule=rule, targets=targets, atoms=_FIVE_ATOMS, mode=mode,
        frame_filter=lambda rel: rel == frame,
    )
    expected = None
    for env in product(range(16), repeat=len(_FIVE_ATOMS)):
        m = PreferenceModel(4, frame, dict(zip(_FIVE_ATOMS, env)))
        holds = all(truth_set(f, m, rule) == m.full_mask for f in targets)
        if holds == (mode == "satisfy"):
            expected = m
            break
    assert expected.valuation["a"] != 0
    assert find_satisfying_model(spec).model == expected


def test_deadline_stops_a_sliced_scan():
    # a and ~a cannot both hold, so no slice has a hit; the lapsed
    # deadline must stop the scan instead
    targets = (parse("[]~a"), parse("<>a"))
    with pytest.raises(SearchTimeout):
        scanner(targets, EvalRule.MAX, _FIVE_ATOMS)((0, 1, 2, 8), time.monotonic() - 1)


def test_timeout_holds_while_unrestricted_classes_are_built():
    # p & ~p holds at no world, so the search exhausts n <= 4 at once and
    # then builds the 292k unrestricted five-world classes; the deadline
    # must stop that build, so the classes are left unbuilt, whatever the
    # speed of the host
    model._canonical_cache.pop((5, None), None)
    spec = SearchSpec(
        max_n=5, rule=EvalRule.MAX, targets=[parse("p & ~p")], deadline=time.monotonic() + 1,
    )
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        find_satisfying_model(spec)
    assert time.monotonic() - start < 10
    assert (5, None) not in model._canonical_cache


def test_timeout_holds_while_every_relation_is_filtered():
    # without isomorph rejection the walk over all 2^25 five-world
    # relations yields few frames, so the walk itself checks the deadline
    frames = enumerate_frames(5, (P.TRANSITIVE,), iso_reject=False, deadline=time.monotonic() - 1)
    with pytest.raises(SearchTimeout):
        next(frames)


def test_timed_out_class_build_is_not_cached():
    # transitivity implies quasi-transitivity, so the pair has exactly the
    # transitive classes; no other test builds this key
    props = (P.TRANSITIVE, P.QUASI_TRANSITIVE)
    with pytest.raises(SearchTimeout):
        next(enumerate_frames(5, props, iso_reject=True, deadline=time.monotonic() - 1))
    classes = list(enumerate_frames(5, props, iso_reject=True))
    assert len(classes) == 1895
    assert classes == list(enumerate_frames(5, (P.TRANSITIVE,), iso_reject=True))
