"""Frame enumeration and model search."""

from __future__ import annotations

import os
import time
from itertools import combinations, product

import pytest

from ddlmc import finder, lattice, model, semantics
from ddlmc import formula as fm
from ddlmc.finder import (
    _STATUS,
    SearchSpec,
    SearchTimeout,
    find_satisfying_model,
    rule_collapse,
    scan_frames,
)
from ddlmc.formula import parse
from ddlmc.forks import fork_map
from ddlmc.lattice import Witness, lattice_report
from ddlmc.model import PreferenceModel, canonical_relations, relation_from_pairs, relation_pairs
from ddlmc.relprops import CYCLIC, check_property, has_all, is_reflexive, longest_strict_chain
from ddlmc.schemas import SCHEMAS, converse_search, forward_check, table_sweep
from ddlmc.casestudy import run_grid
from ddlmc.relprops import RelationProperty as P
from ddlmc.semantics import EvalRule, scanner, schema_names, truth_set

from oracle import all_relations, labelled_search, naive_properties, orbit


def _labelled_frames(n, props=()):
    # the frames a labelled scan probes, the classes of the relations with
    # props, and the relations it counts at its bound, which must be the
    # oracle's count; the probe returns None, so the scan runs to its bound
    frames = []

    def probe(rel):
        if len(rel) == n:
            frames.append(rel)

    _, per_n = scan_frames(n, props, probe, iso_reject=False)
    names = [p.value for p in props]
    labelled = sum(
        all(naive_properties(n, relation_pairs(rel))[name] for name in names) for rel in all_relations(n)
    )
    assert per_n[n] == labelled
    return frames, labelled


def test_enumerate_counts():
    assert _labelled_frames(1)[1] == 2
    assert _labelled_frames(2, [P.REFLEXIVE])[1] == 4
    # total relations on 3 worlds: forced diagonal, 3 free unordered pairs
    # with 3 states each
    assert _labelled_frames(3, [P.TOTAL])[1] == 27


@pytest.mark.parametrize("iso_reject", [True, False])
def test_search_rejects_a_property_that_is_not_a_relation_property(iso_reject, monkeypatch):
    def no_frames(*args):
        raise AssertionError("built a frame for a bad property set")

    monkeypatch.setattr(model, "_classes", no_frames)
    # a bare str is one property name, not a sequence of letters; lacked
    # properties are checked like the others
    for bad in ({"properties": "total"}, {"lacks": "total"}):
        spec = SearchSpec(3, EvalRule.MAX, [parse("p")], iso_reject=iso_reject, **bad)
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
    with pytest.raises(ValueError, match="^'(max|lewis|opt)': not an evaluation rule$"):
        _BAD_RULE_SEARCHES[search]()


def test_enumerate_is_sorted_and_filters():
    frames, _ = _labelled_frames(3, [P.TRANSITIVE])
    assert frames == sorted(frames) == list(canonical_relations(3, has_all({P.TRANSITIVE})))
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
    with pytest.raises(ValueError, match="unknown search mode 'bogus'"):
        SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("p"),), mode="bogus")
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
    # lacks filters the frames: the least frame that is not acyclic
    spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("<>T"),), lacks=P.ACYCLIC)
    result = find_satisfying_model(spec)
    assert result.status == "sat"
    assert longest_strict_chain(result.model) is CYCLIC


def test_frame_filter_is_revalidated(monkeypatch):
    # A scan that hands back a frame with the lacked property must not get
    # it past the search: the reflexive one-world frame is acyclic.
    monkeypatch.setattr("ddlmc.finder.scan_frames", lambda *args, **kwargs: ((1, (1,), ()), {1: 1}))
    spec = SearchSpec(max_n=3, rule=EvalRule.MAX, targets=(parse("<>T"),), lacks=P.ACYCLIC)
    with pytest.raises(AssertionError, match="witness has acyclic, which it must lack"):
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


def test_refutation_witness_is_revalidated(monkeypatch):
    # A refute probe that reports a valuation on every frame must not get
    # one past the search: nothing refutes excluded middle.
    monkeypatch.setattr("ddlmc.finder.scanner", lambda *args: lambda rel, deadline: (0,))
    spec = SearchSpec(max_n=2, rule=EvalRule.MAX, targets=(parse("p | ~p"),), mode="refute")
    with pytest.raises(AssertionError, match="refutation witness validates all targets"):
        find_satisfying_model(spec)


def test_lattice_rejects_a_witness_against_an_implied_pair(monkeypatch):
    # An implication search that witnesses "interval order, not total" must
    # not get the pair into the report: interval orders are total.
    real = lattice.property_implication

    def lying(p, q, n, deadline=None):
        if (p, q) == (P.INTERVAL_ORDER, P.TOTAL):
            return Witness(1, (0,))
        return real(p, q, n, deadline)

    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(lattice, "property_implication", lying)
    with pytest.raises(AssertionError, match="implication interval_order => total fails at size 1"):
        lattice_report(2)


def test_collapse_reports_a_divergence_the_reference_confirms(monkeypatch):
    # opt's O(g / f) made false at f = {0, 1}, g = {0} on two-world frames,
    # consistently in the sliced values and the reference conditional: the
    # first such frame with the collapse properties is reported, with the
    # three reference verdicts
    bad = 3 << 2 | 1  # valuation number of (f, g) = (0b11, 0b01) over two worlds

    def slicer(cond, rule, names):
        def values(rel):
            ones = (1 << (1 << 2 * len(rel))) - 1
            return [ones ^ (1 << bad) if rule is EvalRule.OPT and len(rel) == 2 else ones] * len(rel)
        return values

    def cond_holds(rule, consequent, antecedent, m):
        return not (rule is EvalRule.OPT and m.n == 2 and (antecedent, consequent) == (3, 1))

    monkeypatch.setattr("ddlmc.finder.slicer", slicer)
    monkeypatch.setattr("ddlmc.finder.cond_holds", cond_holds)
    assert rule_collapse(3) == {
        "status": "diverged",
        "max_n": 3,
        "frames_checked": 2,
        "frame": {"n": 2, "rel": [1, 3]},
        "antecedent": [0, 1],
        "consequent": [0],
        "opt": False,
        "max": True,
        "lewis": True,
    }


_SEARCHES = {
    "forward_check": lambda max_n, deadline: forward_check(
        [P.REFLEXIVE], "Dstar", EvalRule.OPT, max_n, deadline=deadline),
    "converse_frame": lambda max_n, deadline: converse_search(
        "Id", P.REFLEXIVE, EvalRule.MAX, max_n, deadline=deadline),
    "converse_model": lambda max_n, deadline: converse_search(
        "Id", P.REFLEXIVE, EvalRule.MAX, max_n, deadline=deadline, model_level=True),
    # lacking max-smoothness walks the reflexive closures (CLOSURE_DECIDES)
    "converse_walk": lambda max_n, deadline: converse_search(
        "CM", P.MAX_SMOOTH, EvalRule.MAX, max_n, deadline=deadline),
    "rule_collapse": lambda max_n, deadline: rule_collapse(max_n, deadline=deadline),
    # O(p/T) & ~O(p/T) holds at no world, so the search runs to its bound
    "labelled_acyclic": lambda max_n, deadline: find_satisfying_model(SearchSpec(
        max_n, EvalRule.OPT, [parse("O(p/T) & ~O(p/T)")], (P.ACYCLIC,), iso_reject=False, deadline=deadline)),
}


@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_library_searches_check_bound_and_deadline(search, monkeypatch):
    run = _SEARCHES[search]
    assert run(2, None)  # runs to completion within the bound
    with pytest.raises(SearchTimeout):
        run(3, time.monotonic() - 1)
    if search == "labelled_acyclic":
        # the n=5 frames and the orbits they stand for take seconds
        started = time.monotonic()
        with pytest.raises(SearchTimeout):
            run(5, started + 0.2)
        assert time.monotonic() - started < 2

    def no_work(*args, **kwargs):
        raise AssertionError("scanned a frame outside the bound")

    monkeypatch.setattr("ddlmc.finder.canonical_relations", no_work)
    monkeypatch.setattr(model, "_classes", no_work)
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
    # needs a nonempty a, so none lies in the first slice.  The probe a
    # search compiles is run on the one frame.
    frame = (0, 1, 2, 8)
    targets = tuple(parse(s) for s in _BEYOND_FIRST_SLICE[mode])
    got = scanner(targets, rule, _FIVE_ATOMS, mode)(frame, None)
    expected = None
    for env in product(range(16), repeat=len(_FIVE_ATOMS)):
        m = PreferenceModel(4, frame, dict(zip(_FIVE_ATOMS, env)))
        holds = all(truth_set(f, m, rule) == m.full_mask for f in targets)
        if holds == (mode == "satisfy"):
            expected = m
            break
    assert expected.valuation["a"] != 0
    assert got is not None
    assert PreferenceModel(4, frame, dict(zip(_FIVE_ATOMS, got))) == expected


_CLOSURE_PROPS = (P.TRANSITIVE, P.QUASI_TRANSITIVE, P.ACYCLIC, P.SUZUMURA_CONSISTENT)


# What a converse search lacks, alone or with properties: the three
# properties the reflexive closure decides, transitivity (which it does
# not: the walk must not be taken), and definitions over them.
_CONVERSE_LACKS = [((), (p,)) for p in _CLOSURE_PROPS + (P.MAX_SMOOTH, P.MAX_LIMITED, P.OPT_LIMITED)] + [
    ((), (P.QUASI_TRANSITIVE, P.SUZUMURA_CONSISTENT)),
    ((P.ACYCLIC,), (P.QUASI_TRANSITIVE,)),
    ((P.QUASI_TRANSITIVE,), (P.SUZUMURA_CONSISTENT,)),
]


@pytest.mark.parametrize("mode", sorted(_STATUS))
@pytest.mark.parametrize("rule", list(EvalRule), ids=str)
def test_key_classes_stand_in_for_the_frames(rule, mode):
    # A property-free search walks its rule's key classes, and a search
    # with closure properties under lewis or max their reflexive closures;
    # each counts the frames of a world count none of its classes hits.
    # Status, witness and frames_checked must be those of the frame scan
    # without that walk, which visits every frame, with isomorph rejection
    # and without.  Opt keeps the frame scan.  Each schema's negation is
    # searched too: in satisfy and valid mode most schemas hit at once, and
    # most negations late or never.  Under lewis and max, so is each
    # schema's frame-level and model-level converse (lacking properties),
    # which walks the closures that lack them when the closure decides them.
    property_sets = [()] + [(p,) for p in _CLOSURE_PROPS]
    property_sets += [(P.MAX_SMOOTH, P.MAX_LIMITED), (P.TRANSITIVE, P.ACYCLIC)]
    for name, schema in SCHEMAS.items():
        names = schema_names(schema)
        cases = [(target, props, ()) for target, props in product((schema, fm.Not(schema)), property_sets)]
        if rule is not EvalRule.OPT and mode != "refute":
            cases += [(schema, props, lacks) for props, lacks in _CONVERSE_LACKS]
        for target, props, lacks in cases:
            for max_n, iso_reject in ((4, True), (3, False)):
                found = find_satisfying_model(SearchSpec(
                    max_n, rule, [target], props, atoms=names, mode=mode, iso_reject=iso_reject, lacks=lacks,
                ))
                probe = scanner((target,), rule, names, mode)
                hit, per_n = scan_frames(max_n, props, probe, iso_reject=iso_reject, lacks=lacks)
                witness = found.model and (found.model.n, found.model.rel, tuple(found.model.valuation.values()))
                assert (found.status, found.frames_checked, witness) == (
                    _STATUS[mode][hit is None], sum(per_n.values()), hit,
                ), (fm.render(target), props, lacks, max_n, iso_reject)


@pytest.mark.parametrize("rule", list(EvalRule), ids=str)
def test_labelled_search_is_the_brute_force_search(rule):
    # Without isomorph rejection a search probes the same classes and
    # counts the labelled relations they stand for.  Status, witness and
    # frames_checked must be those of the oracle's search over every
    # labelled relation and valuation, for each schema and its negation,
    # and for each schema's frame-level converse (valid mode, lacking
    # properties), which walks the closures under lewis and max.
    memo = {}
    for name, schema in SCHEMAS.items():
        names = schema_names(schema)
        cases = [
            (target, props, (), mode)
            for target, props, mode in product(
                (schema, fm.Not(schema)), ((), (P.TRANSITIVE,), (P.ACYCLIC,)), sorted(_STATUS),
            )
        ] + [(schema, props, lacks, "valid") for props, lacks in _CONVERSE_LACKS]
        for target, props, lacks, mode in cases:
            hit, checked = labelled_search(
                target, rule.value, names, mode, [p.value for p in props], 3, memo, [p.value for p in lacks],
            )
            found = find_satisfying_model(SearchSpec(
                3, rule, [target], props, atoms=names, mode=mode, iso_reject=False, lacks=lacks,
            ))
            witness = found.model and (found.model.n, found.model.rel, found.model.valuation)
            assert (found.status, found.frames_checked, witness) == (
                _STATUS[mode][hit is None], checked, hit and (hit[0], hit[1], dict(zip(names, hit[2]))),
            ), (name, fm.render(target), props, lacks, mode)


# Labelled relations with the properties on n <= 5 worlds: the sums of
# OEIS A006905 (2, 13, 171, 3 994, 154 303), A000670 (1, 3, 13, 75, 541),
# the labelled interval orders (1, 3, 19, 207, 3 451), 2^(n*n-n) and
# 2^(n*n).
_LABELLED_AT_FIVE = {
    (P.TRANSITIVE,): 158_483,
    (P.TRANSITIVE, P.TOTAL): 633,
    (P.INTERVAL_ORDER,): 3_681,
    (P.REFLEXIVE,): 1_052_741,
    (): 33_620_498,
}


@pytest.mark.parametrize("rule", list(EvalRule), ids=str)
def test_labelled_counts_at_five_worlds(rule):
    # O(p/T) & ~O(p/T) holds at no world, so every search exhausts its
    # bound and counts each labelled relation with its properties: under
    # opt by the frame scan, under lewis and max by the walks where the
    # properties allow one
    target = [parse("O(p/T) & ~O(p/T)")]
    for props, count in _LABELLED_AT_FIVE.items():
        found = find_satisfying_model(SearchSpec(5, rule, target, props, iso_reject=False))
        assert (found.status, found.frames_checked) == ("unsat_up_to_bound", count), props


def test_the_reflexive_classes_are_built_once(monkeypatch):
    # The property-free lewis walk and the frames of a search without a
    # property both need the reflexive classes, and ask for them with one
    # predicate: no two predicates in the class cache give the same
    # classes at every world count.  (Single world counts may agree: at
    # n=1 the reflexive relations are the total ones.)
    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(model, "_canonical_cache", {})
    monkeypatch.setattr(finder, "_closure_frames", {})
    table_sweep(EvalRule.LEWIS, 4)
    finder.closure_frames(4, frozenset())
    per_keep = {}
    for (n, keep), classes in model._canonical_cache.items():
        per_keep.setdefault(keep, {})[n] = classes
    built = [tuple(sorted(classes.items())) for classes in per_keep.values()]
    assert len(set(built)) == len(built)


def test_closure_walk_counts_the_frames_above_its_classes():
    # For every nonempty set of the four closure properties, the walk under
    # lewis's or max's key probes the reflexive closures with the properties
    # and no other relation, and counts the frames above them: the built
    # classes with the properties at n <= 4, and every relation with them at
    # n <= 3.
    def subsets():
        for size in range(1, len(_CLOSURE_PROPS) + 1):
            yield from combinations(_CLOSURE_PROPS, size)

    def closure_walk(props, max_n, iso_reject, key):
        probed = {}

        def probe(rel):
            probed[len(rel)] = probed.get(len(rel), 0) + 1
            assert is_reflexive(rel), rel

        _, per_n = scan_frames(max_n, props, probe, iso_reject=iso_reject, key=key)
        closures = has_all({*props, P.REFLEXIVE})
        assert probed == {n: len(canonical_relations(n, closures)) for n in range(1, max_n + 1)}
        return per_n

    for props in subsets():
        keep = has_all(props)
        built = {n: len(canonical_relations(n, keep)) for n in range(1, 5)}
        assert closure_walk(props, 4, True, semantics._reflexive_closure) == built, props
        labelled = {n: sum(map(keep, all_relations(n))) for n in range(1, 4)}
        assert closure_walk(props, 3, False, semantics.strict_part) == labelled, props


def test_deadline_stops_a_sliced_scan():
    # a and ~a cannot both hold, so no slice has a hit; the lapsed
    # deadline must stop the scan instead
    targets = (parse("[]~a"), parse("<>a"))
    with pytest.raises(SearchTimeout):
        scanner(targets, EvalRule.MAX, _FIVE_ATOMS)((0, 1, 2, 8), time.monotonic() - 1)


def test_timeout_holds_while_dense_classes_are_built():
    # O(p/T) & ~O(p/T) holds at no world, so the search exhausts n <= 4 and
    # then derives the 215k acyclic five-world classes from their 7 117
    # reflexive closures (a search under lewis or max would count the
    # frames above the closures instead, but opt reads the loops).  With
    # the smaller world counts and the closures built, and the probe's memo
    # filled, the derivation is what runs past the deadline; it must stop
    # there and leave the classes uncached, whatever the speed of the host
    acyclic = frozenset({P.ACYCLIC})
    targets = [parse("O(p/T) & ~O(p/T)")]
    find_satisfying_model(SearchSpec(4, EvalRule.OPT, targets, properties=(P.ACYCLIC,)))
    canonical_relations(5, has_all(acyclic | {P.REFLEXIVE}))
    finder._closure_frames.pop((5, acyclic), None)
    spec = SearchSpec(5, EvalRule.OPT, targets, properties=(P.ACYCLIC,), deadline=time.monotonic() + 0.05)
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        find_satisfying_model(spec)
    assert time.monotonic() - start < 10
    assert (5, acyclic) not in finder._closure_frames


def test_closure_frames_are_the_built_classes():
    # Searches whose base properties all lie in CLOSURE_LOOPS, none at all
    # included, take their frames from the reflexive closures; the order
    # matters, since the scan reports the first frame that hits
    for size in range(len(_CLOSURE_PROPS) + 1):
        for props in combinations(_CLOSURE_PROPS, size):
            base = frozenset(props)
            for n in range(1, 5):
                assert finder.closure_frames(n, base) == canonical_relations(n, has_all(base)), (props, n)


def test_grid_and_lattice_build_no_dense_classes(monkeypatch):
    # Every class build the grid and the lattice ask for is sparse: the
    # closures, keeps with reflexivity or totality, the Ferrers family and
    # key fixed points.  A keep whose properties the closure keeps (no
    # property included) takes its frames from the closures instead.
    _on_cpus(monkeypatch, 1)
    dense = {
        has_all(frozenset(props))
        for size in range(len(_CLOSURE_PROPS) + 1)
        for props in combinations(_CLOSURE_PROPS, size)
    }
    keeps = []
    build = model._classes

    def recorded(n, keep, deadline):
        keeps.append(keep)
        return build(n, keep, deadline)

    monkeypatch.setattr(model, "_classes", recorded)
    finder._closure_frames.clear()
    run_grid(4)
    lattice_report(4)
    assert keeps
    assert dense.isdisjoint(keeps), sorted({getattr(k, "__name__", repr(k)) for k in dense & set(keeps)})


def test_timeout_holds_while_the_labelled_count_runs():
    # without isomorph rejection a world count without a hit counts the
    # relations its classes stand for after the scan, and the count checks
    # the deadline too: the probe of the last frame outlasts it
    props = (P.TRANSITIVE,)
    last = finder.closure_frames(3, frozenset(props))[-1]
    deadline = time.monotonic() + 0.05

    def probe(rel):
        if rel == last:
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)

    with pytest.raises(SearchTimeout):
        scan_frames(3, props, probe, iso_reject=False, deadline=deadline)


def test_timeout_holds_while_the_frame_filter_rejects_every_relation():
    # a transitive frame that lacks transitivity does not exist, so no frame
    # reaches the probe, and the deadline is checked on the frames
    # examined, not on those that pass: with the 1 895 transitive
    # five-world classes built, the lapsed deadline must stop the scan
    props = (P.TRANSITIVE,)
    for n in range(1, 6):
        finder.closure_frames(n, frozenset(props))
    for iso_reject in (True, False):
        with pytest.raises(SearchTimeout):
            scan_frames(
                5, props, lambda rel: rel, iso_reject=iso_reject, deadline=time.monotonic() - 1,
                lacks=props,
            )


def test_timed_out_class_build_is_not_cached():
    # transitivity implies quasi-transitivity, so the pair has exactly the
    # transitive classes; no other test builds this key
    keep = has_all(frozenset({P.TRANSITIVE, P.QUASI_TRANSITIVE}))
    with pytest.raises(SearchTimeout):
        canonical_relations(5, keep, time.monotonic() - 1)
    classes = canonical_relations(5, keep)
    assert len(classes) == 1895
    assert classes == canonical_relations(5, has_all(frozenset({P.TRANSITIVE})))


def test_search_on_a_too_deep_target_raises_before_any_frame_is_built(monkeypatch):
    # a tree built from the constructors never went through parse's limit;
    # the compiled probe recurses over it, so the search compiles (and
    # checks) its targets before it builds any frame
    deepest = fm.Atom("p")
    for _ in range(fm.MAX_DEPTH - 1):
        deepest = fm.Not(deepest)
    assert find_satisfying_model(SearchSpec(1, EvalRule.MAX, [deepest], atoms=("p",))).status == "sat"

    def no_frames(*args):
        raise AssertionError("built a frame for a too-deep target")

    monkeypatch.setattr(model, "_classes", no_frames)
    for depth, iso_reject in product((fm.MAX_DEPTH, 1000), (True, False)):
        f = fm.Atom("p")
        for _ in range(depth):
            f = fm.Not(f)
        spec = SearchSpec(2, EvalRule.MAX, [f], atoms=("p",), iso_reject=iso_reject)
        with pytest.raises(ValueError, match=f"^formula nested more than {fm.MAX_DEPTH} levels deep$"):
            find_satisfying_model(spec)
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


def test_fork_map_raises_a_type_error_for_a_result_that_is_not_plain_data(monkeypatch, tmp_path):
    # whichever process runs an item, its result must be marshal data; item
    # 0 is always taken first, so it is the lowest failed index
    _on_cpus(monkeypatch, 2)
    with pytest.raises(TypeError, match="^fork_map item 0 returned object, which is not plain data$"):
        fork_map(lambda x: object(), range(4))
    _no_child_left()
    parent = os.getpid()

    def in_child(x):
        # the parent's items wait until the child has taken one
        if os.getpid() == parent:
            _wait_for(tmp_path / "child")
            return x
        (tmp_path / "child").touch()
        return {x: object()}

    with pytest.raises(TypeError, match=r"^fork_map item \d returned dict, which is not plain data$"):
        fork_map(in_child, range(8))
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
