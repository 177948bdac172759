"""Relation algebra, the model type, and the model file format."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddlmc import model
from ddlmc.model import (
    ModelFormatError,
    PreferenceModel,
    _admitted,
    _orbit_images,
    _orbit_lanes,
    _words,
    canonical_relations,
    class_count,
    equal_goodness,
    mask_from_worlds,
    orbit_size,
    parse_model,
    relation_from_pairs,
    relation_pairs,
    serialize_model,
    strict_part,
    transitive_closure,
    transpose,
    unpack_relation,
    worlds_from_mask,
)

from ddlmc.casestudy import GRID_ROWS
from ddlmc.relprops import RelationProperty, check_property, has_all, is_transitive

from oracle import all_relations, delete_world, orbit, orbit_lanes, reachable_pairs

P = RelationProperty

FIXTURES = Path(__file__).parent / "fixtures"


def _pairs(rel):
    return set(relation_pairs(rel))


def _oracle_orbit(rel):
    """The oracle's relabellings of rel, as relations."""
    n = len(rel)
    return {relation_from_pairs(n, pairs) for pairs in orbit(n, relation_pairs(rel))}


def test_strict_part_examples():
    rel = relation_from_pairs(2, [(0, 0), (1, 1), (1, 0)])
    assert _pairs(strict_part(rel)) == {(1, 0)}
    rel = relation_from_pairs(2, [(0, 1), (1, 0)])
    assert _pairs(strict_part(rel)) == set()
    total = relation_from_pairs(3, [(i, j) for i in range(3) for j in range(3)])
    assert _pairs(strict_part(total)) == set()


def test_equal_goodness_examples():
    rel = relation_from_pairs(2, [(0, 1), (1, 0)])
    assert _pairs(equal_goodness(rel)) == {(0, 1), (1, 0)}
    rel = relation_from_pairs(2, [(1, 0)])
    assert _pairs(equal_goodness(rel)) == set()
    rel = relation_from_pairs(2, [(0, 0), (1, 1)])
    assert _pairs(equal_goodness(rel)) == {(0, 0), (1, 1)}


def test_equal_goodness_is_meet_with_transpose():
    for rel in all_relations(3):
        expected = tuple(r & c for r, c in zip(rel, transpose(rel)))
        assert equal_goodness(rel) == expected


def test_transitive_closure_examples():
    rel = relation_from_pairs(3, [(0, 1), (1, 2)])
    assert _pairs(transitive_closure(rel)) == {(0, 1), (1, 2), (0, 2)}
    assert transitive_closure((0, 0)) == (0, 0)
    rel = relation_from_pairs(2, [(0, 1), (1, 0)])
    assert _pairs(transitive_closure(rel)) == {(0, 1), (1, 0), (0, 0), (1, 1)}


def test_transitive_closure_against_reachability_oracle():
    for n in (1, 2, 3):
        for rel in all_relations(n):
            closure = transitive_closure(rel)
            assert _pairs(closure) == reachable_pairs(n, _pairs(rel))


def test_transitive_closure_is_closure_operator():
    for rel in all_relations(3):
        closure = transitive_closure(rel)
        # extensive, idempotent, and monotone against a superset
        assert all(c & r == r for r, c in zip(rel, closure))
        assert transitive_closure(closure) == closure
        bigger = tuple(r | 1 for r in rel)
        bigger_closure = transitive_closure(bigger)
        assert all(b & c == c for c, b in zip(closure, bigger_closure))


def test_strict_part_irreflexive_asymmetric_exhaustive():
    for n in (1, 2, 3):
        for rel in all_relations(n):
            strict = strict_part(rel)
            for i in range(n):
                assert not strict[i] >> i & 1
            pairs = _pairs(strict)
            assert not any((j, i) in pairs for i, j in pairs)


def test_masks_roundtrip():
    assert mask_from_worlds([0, 2]) == 0b101
    assert worlds_from_mask(0b101) == (0, 2)


def test_model_validation():
    with pytest.raises(ValueError):
        PreferenceModel(0, ())
    with pytest.raises(ValueError):
        PreferenceModel(17, (0,) * 17)
    with pytest.raises(ValueError):
        PreferenceModel(2, (0b100, 0))  # row refers to world 2
    with pytest.raises(ValueError):
        PreferenceModel(2, (0, 0), {"p": 0b100})
    with pytest.raises(ValueError, match="relation has 1 rows for n=2"):
        PreferenceModel(2, (0,))
    with pytest.raises(ValueError, match=r"world pair \(0,2\) out of range for n=2"):
        relation_from_pairs(2, [(0, 2)])
    assert PreferenceModel(1, (0,)) != (0,)


def test_parse_model_example():
    m = parse_model("worlds 2\nrel 0>=0 1>=1 1>=0\nval p = {1}\n")
    assert m.n == 2
    assert _pairs(m.rel) == {(0, 0), (1, 1), (1, 0)}
    assert m.valuation == {"p": 0b10}
    assert repr(m) == "PreferenceModel(n=2, rel=((0, 0), (1, 0), (1, 1)), valuation={p: (1,)})"


def test_parse_model_minimal():
    m = parse_model("worlds 1\nrel\n")
    assert m.n == 1 and m.rel == (0,) and m.valuation == {}


def test_parse_model_comments_and_empty_set():
    m = parse_model("# a model\nworlds 2\nrel 1>=0  # chain\nval p = {}\n")
    assert _pairs(m.rel) == {(1, 0)}
    assert m.valuation == {"p": 0}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("worlds x\nrel\n", "worlds"),
        ("worlds 17\nrel\n", "world count 17 out of range 1..16"),
        ("worlds 2\nrel\nvar p = {0}\n", "line 3: expected 'val <atom> = {...}'"),
        ("worlds 2\nrel\nval 1x = {0}\n", "line 3: bad atom name '1x'"),
        ("worlds 2\n", "rel"),
        ("worlds 2\nrel 0>=5\n", "out of range"),
        ("worlds 2\nrel 0>5\n", "bad relation pair"),
        ("worlds 2\nrel\nval p = {0}\nval p = {1}\n", "duplicate"),
        ("worlds 2\nrel\nval p = 0\n", "braces"),
        ("worlds 2\nrel\nval p = {9}\n", "out of range"),
        # str.isdigit accepts these, and int() then failed or read '٣' as 3
        ("worlds \u00b2\nrel\n", "line 1"),
        ("worlds \u0663\nrel\n", "line 1"),
        ("worlds 2\nrel 0>=\u00b9\n", "line 2"),
        ("worlds 2\nrel\nval p = {\u00b9}\n", "line 3"),
    ],
)
def test_parse_model_errors(text, fragment):
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert fragment in str(err.value)


def test_serialize_roundtrip_on_fixture_corpus():
    for path in sorted(FIXTURES.glob("*.pm")):
        text = path.read_text(encoding="utf-8")
        model = parse_model(text)
        assert serialize_model(model) == text
        assert parse_model(serialize_model(model)) == model


def test_canonical_counts():
    # binary relations on n unlabeled points: 2, 10, 104, 3044
    assert len(canonical_relations(1)) == 2
    assert len(canonical_relations(2)) == 10
    assert len(canonical_relations(3)) == 104
    assert len(canonical_relations(4)) == 3044


def test_a_keep_that_accepts_nothing_has_no_classes():
    # a world count with no classes extends to none: the build of the next
    # one returns no classes instead of failing on the empty parent level
    def nothing(rel):
        return False

    assert [canonical_relations(n, nothing) for n in (1, 2, 3)] == [(), (), ()]


def test_class_count_is_the_number_of_classes_built():
    # Burnside's count stands in for the classes a property-free search
    # does not build; CI compares n=5 (291 968) with the dense build
    assert [class_count(n) for n in range(1, 5)] == [len(canonical_relations(n)) for n in range(1, 5)]


def test_canonical_orbits_partition_space():
    for n in (1, 2, 3, 4):
        reps = canonical_relations(n)
        orbits = [_oracle_orbit(rep) for rep in reps]
        assert sum(map(len, orbits)) == 2 ** (n * n)
        for rep, images in zip(reps, orbits):
            assert min(images) == rep
            assert orbit_size(rep) == len(images)


def _sampled_relations(n):
    """Every relation for n <= 3, every 97th packed value above."""
    if n <= 3:
        return all_relations(n)
    step = (1 << (n * n)) // 97
    return (unpack_relation(packed, n) for packed in range(0, 1 << (n * n), step))


def _canonical_form(rel):
    """The class builder's representative of rel: its least relabelling."""
    return unpack_relation(min(_orbit_images(rel)), len(rel))


def test_orbit_images_are_the_oracle_orbit():
    # the class builder reads every relabelling from packed lanes; the
    # oracle relabels a pair set world by world
    for n in (1, 2, 3, 4, 5):
        for rel in _sampled_relations(n):
            packed = _orbit_images(rel)
            images = _oracle_orbit(rel)
            assert {unpack_relation(image, n) for image in packed} == images, rel
            assert orbit_size(rel) == len(images), rel


def test_orbit_lanes_equal_the_per_permutation_loop():
    # the builder ORs per-world entries into each row value's entry; the
    # oracle relabels every row value under every permutation bit by bit
    for n in (1, 2, 3, 4, 5):
        lanes, size = _orbit_lanes(n)
        assert lanes == orbit_lanes(n), n
        assert size == 8 * math.factorial(n)
    # 9 * 9 pair bits do not fit one 64-bit lane
    with pytest.raises(ValueError, match="supported for n <= 8"):
        orbit_size((0,) * 9)


def test_canonical_form_is_the_orbit_minimum():
    for n in (1, 2, 3, 4, 5):
        for rel in _sampled_relations(n):
            assert _canonical_form(rel) == min(_oracle_orbit(rel)), rel


def test_canonical_form_is_orbit_invariant():
    for rel in itertools.islice(all_relations(3), 0, 512, 7):
        forms = {_canonical_form(image) for image in _oracle_orbit(rel)}
        assert len(forms) == 1, rel


def test_property_classes_equal_the_filtered_walk():
    cases = [(p,) for p in RelationProperty]
    cases += [props for _, props in GRID_ROWS]
    cases.append((P.REFLEXIVE, P.TOTAL, P.TRANSITIVE))  # rule_collapse's frames
    for n in (1, 2, 3, 4):
        everything = canonical_relations(n)
        for props in cases:
            expected = tuple(r for r in everything if all(check_property(p, r) for p in props))
            classes = canonical_relations(n, has_all(frozenset(props)))
            assert classes == expected, (n, props)


def test_prefilter_admits_exactly_the_rows_whose_deletions_pass():
    # the class builder tests a candidate with keep only if every one-world
    # deletion of it is in the orbit of an accepted parent; by brute force,
    # those are the candidates whose every deletion has the properties
    cases = [(p,) for p in RelationProperty]
    cases += [props for _, props in GRID_ROWS if props]
    cases.append((P.REFLEXIVE, P.TOTAL, P.TRANSITIVE))
    for n in (2, 3, 4):
        labelled = tuple(all_relations(n - 1))
        for props in cases:
            accepted = {r for r in labelled if all(check_property(p, r) for p in props)}
            parents = canonical_relations(n - 1, has_all(frozenset(props)))
            words = _words(parents)
            for parent in parents:
                admitted = _admitted(parent, words)
                assert len(admitted) == 1 << (n - 1)
                for column, rows in enumerate(admitted):
                    old = tuple(row | (column >> i & 1) << (n - 1) for i, row in enumerate(parent))
                    expected = [
                        new_row for new_row in range(1 << n)
                        if all(delete_world(old + (new_row,), w) in accepted for w in range(n))
                    ]
                    assert rows == expected, (n, props, parent, column)


def test_transitive_build_tests_only_the_admitted_candidates():
    # testing every candidate not yet marked would call keep 121 101 times;
    # the deletion test leaves one call per class at n=5.  A fresh keep
    # object gets a build of its own
    calls = 0

    def keep(rel):
        nonlocal calls
        calls += 1
        return is_transitive(rel)

    try:
        assert len(canonical_relations(5, keep)) == 1895
    finally:
        for n in range(1, 6):
            model._canonical_cache.pop((n, keep), None)
    assert calls == 2259


def test_property_class_counts_at_five_worlds():
    # unlabeled transitive relations (OEIS A091073), interval orders
    # (A079144) and total preorders (ordered partitions up to relabelling)
    def count(props):
        return len(canonical_relations(5, has_all(frozenset(props))))

    assert count((P.TRANSITIVE,)) == 1895
    assert count((P.INTERVAL_ORDER,)) == 53
    assert count((P.REFLEXIVE, P.TOTAL, P.TRANSITIVE)) == 16


_TRANSITIVE_BUILD = """
import re
from pathlib import Path
from ddlmc.model import canonical_relations
from ddlmc.relprops import RelationProperty, has_all

def peak_kib():
    return int(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1])

before = peak_kib()
classes = canonical_relations(5, has_all(frozenset({RelationProperty.TRANSITIVE})))
print(len(classes), peak_kib() - before)
"""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


@pytest.mark.skipif(
    "VmHWM" not in _read("/proc/self/status"),
    reason="needs the peak resident set in /proc/self/status (Linux)",
)
@pytest.mark.skipif(
    "[always]" in _read("/sys/kernel/mm/transparent_hugepage/enabled"),
    reason="huge pages make whole 2 MiB runs of the table resident",
)
def test_transitive_five_world_build_touches_a_fraction_of_the_table():
    # the 2^25-byte seen table is mapped lazily: the 1 895 transitive
    # classes touch about 10 MiB of its 32 MiB (nearly all of it by marking
    # their orbits; the deletion test reads few pages), so the peak resident set
    # grows by less than half the table (a table zeroed up front makes all
    # 32 MiB resident).  The child reads VmHWM, not ru_maxrss: a process
    # keeps the ru_maxrss of the process that started it across exec.
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _TRANSITIVE_BUILD],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    classes, grown_kib = map(int, done.stdout.split())
    assert classes == 1895
    assert grown_kib < 16 * 1024, grown_kib
