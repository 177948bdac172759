"""Property checks against the naive oracle, plus implication machinery."""

from __future__ import annotations

import copy
import pickle
import time
from itertools import chain, permutations

import pytest

from ddlmc import model
from ddlmc.model import (
    SearchTimeout,
    canonical_relations,
    relation_from_pairs,
    relation_pairs,
    unpack_relation,
)
from ddlmc.casestudy import GRID_ROWS
from ddlmc.lattice import (
    LATTICE_ARROWS,
    LATTICE_NODES,
    Confirmed,
    Witness,
    implied_pairs,
    lattice_report,
    property_implication,
)
from ddlmc.relprops import (
    CLOSURE_LOOPS,
    CYCLIC,
    RelationProperty,
    check_property,
    has_all,
    is_acyclic,
    is_ferrers,
    longest_strict_chain,
    property_from_name,
)
from ddlmc.semantics import _reflexive_closure

from oracle import all_relations, delete_world, naive_properties, strict_pairs

P = RelationProperty


def test_property_names_roundtrip():
    for prop in RelationProperty:
        assert property_from_name(prop.value) is prop
    assert property_from_name("Interval-Order") is P.INTERVAL_ORDER


def test_all_properties_match_oracle_exhaustively_n_le_3():
    for n in (1, 2, 3):
        for rel in all_relations(n):
            expected = naive_properties(n, set(relation_pairs(rel)))
            for prop in RelationProperty:
                assert check_property(prop, rel) == expected[prop.value], (
                    n, rel, prop,
                )


def test_longest_strict_chain_examples():
    assert longest_strict_chain(relation_from_pairs(3, [(1, 0), (2, 1)])) == 3
    assert longest_strict_chain(relation_from_pairs(2, [])) == 1
    # a weak 2-cycle has an empty strict part: no strict cycle
    assert longest_strict_chain(relation_from_pairs(2, [(0, 1), (1, 0)])) == 1
    # strict 3-cycle
    assert longest_strict_chain(relation_from_pairs(3, [(0, 1), (1, 2), (2, 0)])) is CYCLIC
    # every relation up to three worlds and a sample at four, against a
    # brute-force longest strict path and the oracle's acyclicity
    sample = (unpack_relation(packed, 4) for packed in range(0, 1 << 16, 131))
    for rel in chain(all_relations(1), all_relations(2), all_relations(3), sample):
        n = len(rel)
        pairs = set(relation_pairs(rel))
        strict = strict_pairs(pairs)
        if not naive_properties(n, pairs)["acyclic"]:
            assert longest_strict_chain(rel) is CYCLIC
            continue
        longest = max(
            k for k in range(1, n + 1) for path in permutations(range(n), k)
            if all((a, b) in strict for a, b in zip(path[1:], path))
        )
        assert longest_strict_chain(rel) == longest


def _classes_up_to_4():
    return [rel for n in (1, 2, 3, 4) for rel in canonical_relations(n)]


def test_has_all_is_check_all():
    # the class builder and the labelled walk call has_all's predicate; the
    # reference is the conjunction of check_property
    sets = {frozenset(props) for _, props in GRID_ROWS if props}
    sets |= {frozenset((p, q)) for p in RelationProperty for q in RelationProperty}
    rels = _classes_up_to_4()
    for props in sets:
        keep = has_all(props)
        assert keep is has_all(frozenset(props))  # one object per set
        for rel in rels:
            assert keep(rel) == all(check_property(p, rel) for p in props), (props, rel)
    assert has_all(frozenset()) is None
    # a set defined by one base property is that property's check, so the
    # two share their class build
    assert has_all(frozenset({P.MAX_LIMITED})) is has_all(frozenset({P.ACYCLIC})) is is_acyclic
    # the predicate is keyed on the base set, so sets with one definition
    # share it, and with it their class build
    assert has_all(frozenset({P.MAX_LIMITED, P.TOTAL, P.TRANSITIVE})) is has_all(
        frozenset({P.OPT_LIMITED, P.TRANSITIVE}))
    assert has_all(frozenset({P.QUASI_TRANSITIVE, P.REFLEXIVE})) is has_all(
        frozenset({P.MAX_SMOOTH, P.REFLEXIVE}))


def test_a_relation_has_a_closure_property_iff_its_closure_has_it_with_the_needed_loops():
    # A closure walk counts the frames above each reflexive closure from
    # CLOSURE_LOOPS: p(rel) iff p(closure) and rel loops every world that
    # the entry returns for the closure.  Transitivity needs the loops of
    # the tied worlds; a two-cycle without its loops is not transitive.
    for n in (1, 2, 3, 4):
        for rel in all_relations(n):
            closure = _reflexive_closure(rel)
            loops = sum(1 << i for i in range(n) if rel[i] >> i & 1)
            for prop, needed in CLOSURE_LOOPS.items():
                has = has_all(frozenset({prop}))
                assert has(rel) == (has(closure) and needed(closure) & ~loops == 0), (prop, rel)
    assert CLOSURE_LOOPS[P.TRANSITIVE](_reflexive_closure((2, 1))) == 0b11
    # the closure does not keep Ferrers: the empty two-world relation has it
    assert is_ferrers((0, 0)) and not is_ferrers(_reflexive_closure((0, 0)))


def test_limit_assumptions_match_subset_definitions():
    # the checks use the finite order equivalents (the limit assumptions)
    # and tight bit loops; the oracle quantifies over pairs, triples and
    # every non-empty world set.  n <= 3 is covered exhaustively above;
    # here all twelve properties on every n=4 class and evenly spaced n=5
    # relations.
    rels = list(canonical_relations(4))
    assert len(rels) == 3044
    rels += [unpack_relation(packed, 5) for packed in range(0, 1 << 25, (1 << 25) // 97)]
    for rel in rels:
        expected = naive_properties(len(rel), set(relation_pairs(rel)))
        for prop in RelationProperty:
            assert check_property(prop, rel) == expected[prop.value], (rel, prop)


def test_every_property_is_hereditary_n_le_3():
    # canonical_relations builds property classes by adding one world at a
    # time, which is complete only if deleting a world keeps each property
    for n in (2, 3):
        for rel in all_relations(n):
            for prop in RelationProperty:
                if not check_property(prop, rel):
                    continue
                for w in range(n):
                    assert check_property(prop, delete_world(rel, w)), (rel, prop, w)


def test_acyclicity_of_strict_cycle():
    # 0 > 1 > 2 > 0 encoded weakly with no reflexive pairs
    rel = relation_from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert not check_property(P.ACYCLIC, rel)


def test_quasi_transitive_but_not_transitive():
    rel = relation_from_pairs(
        3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 0), (1, 1), (2, 2)]
    )
    assert check_property(P.QUASI_TRANSITIVE, rel)  # strict part is empty
    assert not check_property(P.TRANSITIVE, rel)  # (0,2) missing


def test_reflexive_total_transitive_implies_max_limited():
    count = 0
    for n in (1, 2, 3, 4):
        for rel in all_relations(n):
            if check_property(P.REFLEXIVE, rel) and check_property(P.TOTAL, rel) and check_property(P.TRANSITIVE, rel):
                count += 1
                assert check_property(P.MAX_LIMITED, rel)
    # weak orders on 1..4 labeled elements: 1 + 3 + 13 + 75
    assert count == 92


def test_opt_limited_implies_max_limited():
    for n in (1, 2, 3):
        for rel in all_relations(n):
            if check_property(P.OPT_LIMITED, rel):
                assert check_property(P.MAX_LIMITED, rel)


def test_implication_confirmed_and_witness():
    assert isinstance(property_implication(P.TRANSITIVE, P.QUASI_TRANSITIVE, 3), Confirmed)
    w = property_implication(P.QUASI_TRANSITIVE, P.TRANSITIVE, 3)
    assert isinstance(w, Witness)
    assert check_property(P.QUASI_TRANSITIVE, w.rel)
    assert not check_property(P.TRANSITIVE, w.rel)


def test_implication_counts_every_relation_of_its_classes():
    # transitive relations on 1..n labelled worlds (OEIS A006905):
    # 2 + 13 + 171 + 3994, then + 154303 at n=5
    assert property_implication(P.TRANSITIVE, P.QUASI_TRANSITIVE, 4) == Confirmed(4, 4180)
    assert property_implication(P.TRANSITIVE, P.QUASI_TRANSITIVE, 5) == Confirmed(5, 158483)
    # an empty conclusion holds of every relation: the total ones, 1 + 3
    assert property_implication(P.TOTAL, (), 2) == Confirmed(2, 4)


def test_implication_results_are_records_of_their_class():
    assert Confirmed(4, 7) != Witness(4, 7)
    assert Confirmed(4, 7) == Confirmed(n=4, relations_checked=7)
    assert hash(Confirmed(4, 7)) == hash(Witness(4, 7)) == hash((4, 7))
    assert repr(Confirmed(4, 7)) == "Confirmed(n=4, relations_checked=7)"
    assert repr(Witness(2, (1, 3))) == "Witness(n=2, rel=(1, 3))"
    # lattice_report sends them through forks.fork_map as plain tuples; records still pickle and copy
    for result in (Confirmed(4, 7), Witness(2, (1, 3))):
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert copied == result and type(copied) is type(result) and copied is not result


@pytest.mark.parametrize("n, error", [
    pytest.param(0, ValueError, id="0"),
    pytest.param(6, ValueError, id="6"),
    # within the bound, the passed deadline stops the search
    pytest.param(5, SearchTimeout, id="5"),
])
def test_implication_and_lattice_reject_bounds_outside_1_to_5(n, error):
    deadline = time.monotonic() - 1  # the bound is checked first
    with pytest.raises(error):
        property_implication(P.ACYCLIC, P.TOTAL, n, deadline)
    with pytest.raises(error):
        lattice_report(n, deadline)


@pytest.mark.parametrize("p1, p2", [
    ("transitive", P.ACYCLIC),
    (P.TRANSITIVE, ["acyclic"]),
    ((P.TRANSITIVE, "total"), P.ACYCLIC),
])
def test_implication_rejects_a_member_that_is_not_a_property(p1, p2, monkeypatch):
    def no_classes(*args):
        raise AssertionError("built classes for a bad property set")

    monkeypatch.setattr(model, "_classes", no_classes)
    with pytest.raises(ValueError, match="not a relation property"):
        property_implication(p1, p2, 3)


def test_check_property_rejects_a_name():
    # a bare name used to raise KeyError from the check table
    with pytest.raises(ValueError, match="'total': not a relation property"):
        check_property("total", (1,))
    with pytest.raises(ValueError, match=r"\['total'\]: not a relation property"):
        check_property(["total"], (1,))


def test_ferrers_plus_reflexive_implies_total():
    assert isinstance(
        property_implication((P.FERRERS, P.REFLEXIVE), P.TOTAL, 3), Confirmed
    )


def test_witness_is_least():
    w = property_implication(P.QUASI_TRANSITIVE, P.TRANSITIVE, 3)
    for n in range(1, w.n + 1):
        for rel in all_relations(n):
            if n == w.n and rel >= w.rel:
                break
            assert not (
                check_property(P.QUASI_TRANSITIVE, rel)
                and not check_property(P.TRANSITIVE, rel)
            )


def test_implied_pairs_close_the_arrows():
    implied = implied_pairs()
    assert len(implied) == 10
    for arrow in LATTICE_ARROWS:
        assert arrow in implied
    assert (P.TRANSITIVE, P.ACYCLIC) in implied
    assert (P.INTERVAL_ORDER, P.ACYCLIC) in implied
    assert (P.INTERVAL_ORDER, P.TOTAL) in implied
    assert (P.QUASI_TRANSITIVE, P.TRANSITIVE) not in implied


def test_lattice_report_small():
    report = lattice_report(3)
    assert all(a["status"] == "confirmed" for a in report["arrows"])
    assert len(report["arrows"]) == 6
    for item in report["independence"]:
        assert item["status"] == "witness", (item["from"], item["to"])
        # checked by the oracle, not by the predicates that found the witness
        holds = naive_properties(item["witness_n"], set(relation_pairs(item["witness_rel"])))
        assert holds[item["from"]] and not holds[item["to"]], (item["from"], item["to"])


def test_lattice_nodes_cover_expected_properties():
    assert set(LATTICE_NODES) == {
        P.TRANSITIVE, P.QUASI_TRANSITIVE, P.SUZUMURA_CONSISTENT,
        P.ACYCLIC, P.INTERVAL_ORDER, P.TOTAL, P.REFLEXIVE,
    }
