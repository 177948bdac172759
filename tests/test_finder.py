"""Frame enumeration and model search."""

from __future__ import annotations

import os
import time
from itertools import product

import pytest

from ddlmc import model
from ddlmc import formula as fm
from ddlmc.finder import (
    SearchSpec,
    SearchTimeout,
    find_satisfying_model,
    lattice_report,
    rule_collapse,
    scan_frames,
)
from ddlmc.formula import parse
from ddlmc.forks import fork_map
from ddlmc.model import PreferenceModel, canonical_relations, relation_from_pairs, relation_pairs
from ddlmc.relprops import CYCLIC, check_property, has_all, is_acyclic, longest_strict_chain
from ddlmc.schemas import converse_search, forward_check, table_sweep
from ddlmc.casestudy import run_grid
from ddlmc.relprops import RelationProperty as P
from ddlmc.semantics import EvalRule, scanner, truth_set

from oracle import orbit


def _labelled_frames(n, props=()):
    # every frame a labelled scan passes to its probe, by world count; the
    # probe returns None, so the scan runs to its bound
    frames = {}

    def probe(rel):
        frames.setdefault(len(rel), []).append(rel)

    _, per_n = scan_frames(n, props, probe, iso_reject=False)
    assert per_n == {k: len(frames.get(k, ())) for k in range(1, n + 1)}
    return frames.get(n, [])


def test_enumerate_counts():
    assert len(_labelled_frames(1)) == 2
    assert len(_labelled_frames(2, [P.REFLEXIVE])) == 4
    # total relations on 3 worlds: forced diagonal, 3 free unordered pairs
    # with 3 states each
    assert len(_labelled_frames(3, [P.TOTAL])) == 27


@pytest.mark.parametrize("iso_reject", [True, False])
def test_search_rejects_a_property_that_is_not_a_relation_property(iso_reject, monkeypatch):
    def no_frames(*args):
        raise AssertionError("built a frame for a bad property set")

    monkeypatch.setattr(model, "_classes", no_frames)
    monkeypatch.setattr("ddlmc.finder.all_relations", no_frames)
    spec = SearchSpec(3, EvalRule.MAX, [parse("p")], properties="total", iso_reject=iso_reject)
    # a bare str is one property name, not a sequence of letters
    with pytest.raises(ValueError, match="^'total': not a relation property$"):
        find_satisfying_model(spec)


_BAD_RULE_SEARCHES = {
    "SearchSpec": lambda: find_satisfying_model(SearchSpec(3, "max", [parse("O(p/T)"), parse("<>~p")])),
    "forward_check": lambda: forward_check((), "Id", "lewis", 3),
    "converse_search": lambda: converse_search("Id", P.REFLEXIVE, "opt", 3),
    "table_sweep": lambda: table_sweep("max", 2),
    "run_grid": lambda: run_grid(3, rules=("lewis",)),
}


@pytest.mark.parametrize("search", sorted(_BAD_RULE_SEARCHES))
def test_search_rejects_a_rule_that_is_not_an_eval_rule(search, monkeypatch):
    # a rule name in place of an EvalRule used to scan under a mix of two
    # rules, or to fail after its search with an unrelated error
    def no_frames(*args):
        raise AssertionError("built a frame for a bad rule")

    monkeypatch.setattr(model, "_classes", no_frames)
    monkeypatch.setattr("ddlmc.finder.all_relations", no_frames)
    with pytest.raises(ValueError, match="^'(max|lewis|opt)': not an evaluation rule$"):
        _BAD_RULE_SEARCHES[search]()


def test_enumerate_is_sorted_and_filters():
    frames = _labelled_frames(2, [P.TRANSITIVE])
    assert frames == sorted(frames)
    assert all(check_property(P.TRANSITIVE, rel) for rel in frames)


def test_enumerate_iso_yields_canonical_representatives():
    frames = canonical_relations(3, has_all(frozenset({P.TOTAL})))
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


def test_spec_rejects_a_string_as_its_atoms():
    # a str is a sequence of letters, but "pq" does not name the atoms p, q
    with pytest.raises(ValueError, match="atoms must be a sequence of names, not the one string 'pq'"):
        SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("p & q"),), atoms="pq")


def test_spec_rejects_one_formula_as_its_targets():
    with pytest.raises(ValueError, match="targets must be a sequence of formulas, not one Atom"):
        SearchSpec(max_n=3, rule=EvalRule.MAX, targets=parse("p"))


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
    assert result.frames_checked == sum(len(canonical_relations(n)) for n in (1, 2, 3))


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

    monkeypatch.setattr("ddlmc.finder.canonical_relations", no_work)
    monkeypatch.setattr("ddlmc.finder.all_relations", no_work)
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
    with pytest.raises(SearchTimeout):
        scan_frames(5, (P.TRANSITIVE,), lambda rel: None, iso_reject=False, deadline=time.monotonic() - 1)


def test_timeout_holds_while_the_frame_filter_rejects_every_relation():
    # no relation reaches the probe, so the deadline is checked on the
    # relations examined, not on the frames that pass: otherwise the scan
    # would walk all 2^25 five-world relations
    started = time.monotonic()
    with pytest.raises(SearchTimeout):
        scan_frames(
            5, (), lambda rel: rel, iso_reject=False, deadline=started + 0.2,
            frame_filter=lambda rel: False,
        )
    assert time.monotonic() - started < 2


def test_timed_out_class_build_is_not_cached():
    # transitivity implies quasi-transitivity, so the pair has exactly the
    # transitive classes; no other test builds this key
    keep = has_all(frozenset({P.TRANSITIVE, P.QUASI_TRANSITIVE}))
    with pytest.raises(SearchTimeout):
        canonical_relations(5, keep, time.monotonic() - 1)
    classes = canonical_relations(5, keep)
    assert len(classes) == 1895
    assert classes == canonical_relations(5, has_all(frozenset({P.TRANSITIVE})))


def test_spec_rejects_a_target_nested_past_max_depth():
    # a tree built from the constructors never went through parse's limit;
    # the evaluators recurse over it, so 1 000 nested negations used to end
    # the search in a RecursionError
    deepest = fm.Atom("p")
    for _ in range(fm.MAX_DEPTH - 1):
        deepest = fm.Not(deepest)
    assert find_satisfying_model(SearchSpec(1, EvalRule.MAX, [deepest], atoms=("p",))).status == "sat"
    for depth in (fm.MAX_DEPTH, 1000):
        f = fm.Atom("p")
        for _ in range(depth):
            f = fm.Not(f)
        with pytest.raises(ValueError, match=f"MAX_DEPTH = {fm.MAX_DEPTH}"):
            SearchSpec(1, EvalRule.MAX, [f], atoms=("p",))
    # a node shared by both children is walked once per level, not 2^depth times
    shared = fm.Atom("p")
    for _ in range(fm.MAX_DEPTH):
        shared = fm.Or(shared, shared)
    assert fm.too_deep(shared)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_cpus(monkeypatch, count):
    # fork_map runs one process per CPU it may use: `count` on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _wait_for(*paths):
    # the processes of one fork_map meet through marker files; a meeting
    # that never comes gives up after 10 s, and the test fails on its result
    stop = time.monotonic() + 10
    while not any(path.exists() for path in paths) and time.monotonic() < stop:
        time.sleep(0.001)


def test_fork_map_keeps_the_order_of_the_items(monkeypatch, tmp_path):
    for cpus in (1, 3, 8):
        _on_cpus(monkeypatch, cpus)
        assert fork_map(lambda x: x * x, range(12)) == [x * x for x in range(12)]
        _no_child_left()
    assert fork_map(abs, []) == [] and fork_map(abs, [-3]) == [3]
    with pytest.raises(ValueError, match="at most 1024 items"):
        fork_map(abs, range(1025))
    # The parent starts no item before the child has taken one, and the
    # child's first item waits until the parent has finished a later one.
    # So the results arrive out of order, whoever takes item 0, and only
    # the index sort puts them back.
    _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def meet(x):
        child = tmp_path / "child"
        if os.getpid() == parent:
            _wait_for(child)
            (tmp_path / f"done{x}").touch()
        elif not child.exists():
            child.touch()
            _wait_for(*(tmp_path / f"done{y}" for y in range(x + 1, 4)))
        return x * x

    assert fork_map(meet, range(4)) == [0, 1, 4, 9]
    _no_child_left()


def test_fork_map_raises_what_an_item_raised_in_a_child(monkeypatch, tmp_path):
    _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fail_in_child(failure):
        # the parent's items wait until the child has taken one, which fails
        def item(x):
            if os.getpid() == parent:
                _wait_for(tmp_path / failure)
                return x
            (tmp_path / failure).touch()
            if failure == "dies":
                os._exit(3)
            raise ArithmeticError(f"item {x} in a child")
        return item

    with pytest.raises(ArithmeticError, match="in a child"):
        fork_map(fail_in_child("raises"), range(8))
    _no_child_left()
    with pytest.raises(ChildProcessError, match="exit code 3"):
        fork_map(fail_in_child("dies"), range(8))
    _no_child_left()

    def from_three_on(x):
        if x >= 3:
            raise SearchTimeout(x)
        return x

    # the serial loop's exception: that of the lowest failing item, which
    # starts before any later item since the indices are taken in order
    with pytest.raises(SearchTimeout) as raised:
        fork_map(from_three_on, range(8))
    assert raised.value.args == (3,)
    _no_child_left()


def test_fork_map_kills_its_children_when_the_parent_is_interrupted(monkeypatch, tmp_path):
    _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def stuck_child(x):
        if os.getpid() == parent:
            _wait_for(tmp_path / "child")
            raise KeyboardInterrupt
        (tmp_path / "child").touch()
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(stuck_child, range(4))
    assert time.monotonic() - started < 10
    _no_child_left()


@pytest.mark.parametrize("rule", list(EvalRule), ids=lambda r: r.value)
def test_table_sweep_is_the_same_in_forked_processes(rule, monkeypatch):
    _on_cpus(monkeypatch, 1)
    serial = table_sweep(rule, 3)
    _on_cpus(monkeypatch, 2)
    assert table_sweep(rule, 3) == serial
    _no_child_left()


def test_grid_and_lattice_are_the_same_in_forked_processes(monkeypatch):
    _on_cpus(monkeypatch, 1)
    serial = run_grid(3), lattice_report(3)
    _on_cpus(monkeypatch, 3)
    assert (run_grid(3), lattice_report(3)) == serial
    _no_child_left()
