"""Exhaustive frame and model search with property filters.

Enumeration is by universe size, then by the relation's row-tuple order,
then by the valuation read as a tuple of atom masks in the declared atom
order.  A satisfiability search therefore reports the least witness in that
order.  The frames scanned are orbit minima: truth is invariant under world
relabelling, so the least witness over all relations is one of them, and
isomorph rejection changes only what frames_checked counts (the classes,
or without it the labelled relations they stand for).

Each frame's valuations are scanned at once by the bit-sliced evaluator
(``semantics.scanner``): valuations are numbered like the tuple of atom
masks in the declared atom order, the first atom the most significant
base-2^n digit, so the lowest valuation bit that settles the targets is the
least valuation.  Each search compiles its formulas once and runs the
compiled probe on every frame; the probe settles each part of a frame the
rule can tell apart once and answers repeats from its memo.  Searches
count frames, not valuations or memo entries: frames_checked and the
witness are the same as without the memo.  A search may first walk a
quotient of its frames (``scan_frames``): the classes of its
``semantics.key`` when it has no property and lacks none, or, under
lewis, max and targets without a conditional, the reflexive closures with
its properties when the closure keeps them (``relprops.CLOSURE_LOOPS``)
and decides what it lacks (``relprops.CLOSURE_DECIDES``).  It scans
frames only at the first world count where a class of the quotient hits,
and counts the others.  Opt and the other properties keep the frame scan.
The frames of properties from ``relprops.CLOSURE_LOOPS``, or of none, are
derived from the same closures (``closure_frames``), so no search builds
their dense classes.

``scan_frames`` is the one search skeleton and frame loop: it checks the
world bound, enumerates the frames with the given properties that lack
the lacked ones, and returns the first probe hit, smallest universe first.
A search for a least witness is a ``SearchSpec`` run by
``find_satisfying_model``: a (frame, valuation) in satisfy and refute mode
(the model search, forward checks, model-level converses), a frame in
valid mode (frame-level converses).  Every such witness is re-validated in
one place, ``_revalidate``.  ``cores`` runs one satisfy search per subset
of a spec's targets, skipping the supersets of unsatisfiable ones, and
reports the minimal unsatisfiable and maximal satisfiable subsets.  The
rule collapse (``rule_collapse``) hands ``scan_frames`` a probe of its own.
Every search stops at a deadline, a ``time.monotonic()`` value (None: no
limit), raising ``SearchTimeout``.  Each scan is serial.  ``forks.fork_map``
runs the independent searches of a table (``schemas.table_sweep``,
``casestudy.run_grid``, ``lattice.lattice_report``) in one forked process
per CPU; the work is pure Python, so threads would not run it faster.
"""

from __future__ import annotations

import time
from itertools import combinations, product
from typing import Callable, Sequence

from . import formula as fm
from .model import (
    PreferenceModel,
    Relation,
    SearchTimeout,
    canonical_relations,
    check_world_bound,
    class_count,
    full_mask,
    images_up_to,
    loop_variant_classes,
    loop_variants,
    model_json,
    orbit_size,
    worlds_from_mask,
)
from .relprops import CLOSURE_DECIDES, CLOSURE_LOOPS, RelationProperty, base_properties, check_property, has_all
from .semantics import (
    CLOSURE_KEYS,
    EvalRule,
    _reflexive_closure,
    cond_holds,
    fixed_points,
    key,
    least_valuation,
    scanner,
    slicer,
    truth_set,
)


# Per mode, the status of a search that found a witness and of one that
# exhausted its bound.
_STATUS = {
    "satisfy": ("sat", "unsat_up_to_bound"),
    "refute": ("refuted", "no_refutation_up_to_bound"),
    "valid": ("valid", "no_valid_frame_up_to_bound"),
}


def _as_props(p) -> tuple[RelationProperty, ...]:
    if isinstance(p, (RelationProperty, str)):  # a str is one (bad) member
        return (p,)
    return tuple(p)


class SearchSpec:
    """What to search for: targets plus the model class to range over.

    rule is an EvalRule; targets a sequence of formulas; properties one
    property or a sequence of them.  atoms orders the valuation's names
    (default: the targets' names, sorted); metavariables are read from it
    like atoms, and one name may not be both.  mode is "satisfy" (every
    target true at every world), "refute" (some target false at some world)
    or "valid" (every target true at every world under every valuation of
    atoms: a frame witness, reported with an empty valuation).  lacks, one
    property or a nonempty sequence of them, excludes every frame that has
    all of them (none: no frame is excluded); it is checked like
    properties and re-checked on the witness.  The search stops at
    deadline, a ``time.monotonic()`` value (None: no limit).  It compiles
    the targets before it builds any frame, and so rejects one nested past
    the ``formula`` depth limit with ValueError.
    """

    def __init__(
        self,
        max_n: int,
        rule: EvalRule,
        targets: Sequence[fm.Formula],
        properties: Sequence[RelationProperty] | RelationProperty = (),
        atoms: Sequence[str] | None = None,
        mode: str = "satisfy",  # or "refute" or "valid"
        iso_reject: bool = True,
        deadline: float | None = None,
        lacks: Sequence[RelationProperty] | RelationProperty = (),
    ):
        if isinstance(targets, (fm.Formula, str)):
            raise ValueError(f"targets must be a sequence of formulas, not one {type(targets).__name__}")
        if isinstance(atoms, str):
            raise ValueError(f"atoms must be a sequence of names, not the one string {atoms!r}")
        self.max_n = max_n
        self.rule = rule
        self.targets = tuple(targets)
        self.properties = _as_props(properties)
        self.mode = mode
        self.iso_reject = iso_reject
        self.deadline = deadline
        self.lacks = _as_props(lacks)
        if not self.targets:
            raise ValueError("search needs at least one target formula")
        if not isinstance(rule, EvalRule):
            raise ValueError(f"{rule!r}: not an evaluation rule")
        if mode not in _STATUS:
            raise ValueError(f"unknown search mode {mode!r}")
        names = set().union(*(fm.atoms(t) for t in self.targets))
        metavars = set().union(*(fm.metavars(t) for t in self.targets))
        if names & metavars:
            raise ValueError(f"names {sorted(names & metavars)} are used as atoms and as metavariables")
        mentioned = sorted(names | metavars)
        if atoms is None:
            self.atoms = tuple(mentioned)
        else:
            self.atoms = tuple(atoms)
            repeated = sorted({a for a in self.atoms if self.atoms.count(a) > 1})
            if repeated:
                raise ValueError(f"atoms {repeated} are listed more than once")
            missing = set(mentioned) - set(self.atoms)
            if missing:
                raise ValueError(f"atoms {sorted(missing)} appear in targets but not in spec.atoms")


class SearchResult:
    """A search's outcome: status is one of the spec mode's two _STATUS
    entries, model the witness (None when the bound is exhausted)."""

    def __init__(
        self,
        status: str,
        spec: SearchSpec,
        model: PreferenceModel | None = None,
        frames_checked: int = 0,
    ):
        self.status = status
        self.spec = spec
        self.model = model
        self.frames_checked = frames_checked

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "mode": self.spec.mode,
            "rule": self.spec.rule.value,
            "properties": [p.value for p in self.spec.properties],
            "targets": [fm.render(t) for t in self.spec.targets],
            "max_n": self.spec.max_n,
            "iso_reject": self.spec.iso_reject,
            "n_checked": self.frames_checked,
            "witness": None if self.model is None else model_json(self.model),
        }


def find_satisfying_model(spec: SearchSpec) -> SearchResult:
    """Least model settling the spec, or the exhausted-bound outcome.

    Satisfying means every target true at every world (absolute formulas
    make the two readings coincide); refuting means some target false at
    some world; valid means every target true at every world under every
    valuation.  Found models are re-validated by ``_revalidate`` before
    being returned.

    frames_checked counts frames up to and including the witness frame, or
    all filtered frames when the bound is exhausted; a search that walks a
    quotient counts some of them without visiting them (``scan_frames``).
    """
    scan = scanner(spec.targets, spec.rule, spec.atoms, spec.mode)
    hit, per_n = scan_frames(
        spec.max_n, spec.properties, lambda rel: scan(rel, spec.deadline),
        iso_reject=spec.iso_reject, deadline=spec.deadline, lacks=spec.lacks,
        key=key(spec.targets, spec.rule),
    )
    checked = sum(per_n.values())
    found, exhausted = _STATUS[spec.mode]
    if hit is None:
        return SearchResult(exhausted, spec, frames_checked=checked)
    n, rel, env = hit
    model = PreferenceModel(n, rel, dict(zip(spec.atoms, env)))
    _revalidate(model, spec)
    return SearchResult(found, spec, model, frames_checked=checked)


def scan_frames(
    max_n: int,
    properties: Sequence[RelationProperty],
    probe: Callable[[Relation], object],
    *,
    iso_reject: bool = True,
    deadline: float | None = None,
    lacks: Sequence[RelationProperty] = (),
    key: Callable[[Relation], Relation] | None = None,
):
    """First (n, rel, probe(rel)) whose probe result is not None, plus the
    frames scanned per world count.

    The frames of n worlds are the cached orbit minima of the relations
    with the given properties (``canonical_relations``, or
    ``closure_frames`` when every base property is in
    ``relprops.CLOSURE_LOOPS``) that lack the lacked ones (do not have all
    of them), ascending.  Universes are scanned smallest first, so the hit
    is the least one; if probe is invariant under relabelling worlds, it
    is also the least relation that hits.  per_n[n] counts the frames
    scanned up to and including the hit; without iso_reject, the labelled
    relations they stand for: every relation of their orbits, and at the
    hit only those up to it (``model.images_up_to``).  The deadline is
    checked every 256 classes examined, passing or not, in the scan and in
    that count.  A max_n outside the world bound, then a member of
    properties or lacks that is not a property, is rejected first.

    key, a ``semantics.key`` map, says that probe reads a frame only
    through key(frame).  The scan may then walk a quotient of the frames
    first, probing each of its classes once: an n where none of them hits
    has no hit among its frames either, and per_n counts those frames
    instead of visiting them.  With no properties and none lacked the walk
    goes over the classes of the key's fixed points and counts
    ``class_count(n)`` frames (2^(n*n) without iso_reject).  With
    properties from ``relprops.CLOSURE_LOOPS``, lacked ones from
    ``relprops.CLOSURE_DECIDES`` and a key that reads no loop
    (``semantics.CLOSURE_KEYS``) it goes over the reflexive closures with
    the properties that lack the lacked ones, and counts for each the
    frames above it: the closure with any loop set that holds the loops
    the table requires (``model.loop_variants``).  The frames of the first
    n with a hit are scanned as above, so the hit and per_n are the same
    as without key.
    """
    check_world_bound(max_n)
    base = base_properties(properties)
    keep = has_all(base)
    lacked = has_all(lacks)
    per_n: dict[int, int] = {}

    def frames(relations):
        for idx, rel in enumerate(relations):
            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:
                raise SearchTimeout()
            if lacked is None or not lacked(rel):
                yield rel

    def labelled(classes, last):
        # the labelled relations the classes stand for, up to last if given
        total = 0
        for rel in frames(classes):
            if last is not None and rel > last:
                break
            total += orbit_size(rel) if last is None else images_up_to(rel, last)
        return total

    # The walk: the classes to probe first, and count(n, classes), the
    # frames of n worlds they stand for.
    walk = count = None
    if key is not None:
        if keep is None and lacked is None:
            walk = fixed_points(key)

            def count(n, classes):
                return class_count(n) if iso_reject else 1 << n * n
        elif key in CLOSURE_KEYS and base <= CLOSURE_LOOPS.keys() and base_properties(lacks) <= CLOSURE_DECIDES:
            walk = _closures(base)

            def count(n, classes):
                return sum(
                    loop_variants(closure, _free_loops(base, closure), iso_reject)
                    for closure in frames(classes)
                )

    for n in range(1, max_n + 1):
        if walk is not None:
            classes = canonical_relations(n, walk, deadline)
            if all(probe(seen) is None for seen in frames(classes)):
                per_n[n] = count(n, classes)
                continue
        if base <= CLOSURE_LOOPS.keys():
            relations = closure_frames(n, base, deadline)
        else:
            relations = canonical_relations(n, keep, deadline)
        per_n[n] = 0
        for rel in frames(relations):
            per_n[n] += 1
            result = probe(rel)
            if result is not None:
                if not iso_reject:
                    per_n[n] = labelled(relations, rel)
                return (n, rel, result), per_n
        if not iso_reject:
            per_n[n] = labelled(relations, None)
    return None, per_n


def _free_loops(base, closure: Relation) -> int:
    """The worlds of a reflexive closure whose loops the base properties,
    all from ``relprops.CLOSURE_LOOPS``, do not need."""
    needed = 0
    for prop in base:
        needed |= CLOSURE_LOOPS[prop](closure)
    return full_mask(len(closure)) & ~needed


def _closures(base: frozenset):
    # with no property, the lewis key's predicate: the class cache holds the reflexive classes once
    return has_all(base | {RelationProperty.REFLEXIVE}) if base else fixed_points(_reflexive_closure)


_closure_frames: dict[tuple[int, frozenset], tuple[Relation, ...]] = {}


def closure_frames(n: int, base: frozenset, deadline: float | None = None) -> tuple[Relation, ...]:
    """canonical_relations(n, has_all(base)) for base properties from
    ``relprops.CLOSURE_LOOPS`` (none at all included): the same classes in
    the same order, derived from the far fewer reflexive closures with the
    properties.  A relation has them iff its closure has them and it loops
    the worlds the closure needs, so the frames are each closure without
    the loops of some set of the other worlds
    (``model.loop_variant_classes``), canonicalised, each once, ascending.
    No class build then marks the dense orbits of the frames themselves.
    With no property the closures are the lewis walk's key classes, built
    under its predicate so that the class cache holds them once.

    Cached per (n, base).  The deadline (a ``time.monotonic()`` value) is
    checked between closures, and a timeout caches nothing.
    """
    if (n, base) not in _closure_frames:
        closures = canonical_relations(n, _closures(base), deadline)
        _closure_frames[n, base] = loop_variant_classes(
            closures, lambda closure: _free_loops(base, closure), deadline,
        )
    return _closure_frames[n, base]


def _revalidate(model: PreferenceModel, spec: SearchSpec) -> None:
    """Re-check a witness with check_property, on the properties it has and
    lacks, and the reference truth_set: under its valuation, or in valid
    mode under every valuation of spec.atoms."""
    for prop in spec.properties:
        if not check_property(prop, model):
            raise AssertionError(f"witness lacks {prop.value}")
    if spec.lacks and all(check_property(prop, model) for prop in spec.lacks):
        raise AssertionError(f"witness has {' and '.join(p.value for p in spec.lacks)}, which it must lack")
    instances = [model]
    if spec.mode == "valid":
        instances = (
            PreferenceModel(model.n, model.rel, dict(zip(spec.atoms, masks)))
            for masks in product(range(1 << model.n), repeat=len(spec.atoms))
        )
    w = model.full_mask
    for instance in instances:
        failed = [t for t in spec.targets if truth_set(t, instance, spec.rule, instance.valuation) != w]
        if spec.mode != "refute" and failed:
            raise AssertionError(f"witness fails target {fm.render(failed[0])}")
    if spec.mode == "refute" and not failed:
        raise AssertionError("refutation witness validates all targets")


def cores(spec: SearchSpec) -> dict:
    """Minimal unsatisfiable and maximal satisfiable subsets of spec.targets.

    Every nonempty subset is searched like spec itself (same atoms,
    properties, lacks, rule, bound and deadline), by size, then in
    ``itertools.combinations`` order, except the supersets of a set already
    found unsatisfiable: those are unsatisfiable too.  So each set found
    unsatisfiable is minimal.  Sets are sorted lists of indices into
    spec.targets.  The report lists each minimal unsatisfiable set with its
    frames_checked, each maximal satisfiable set with its least witness
    (re-validated by the search) and the number of searches.  A spec whose
    mode is not satisfy raises ValueError.
    """
    if spec.mode != "satisfy":
        raise ValueError(f"cores needs a satisfy-mode search, not {spec.mode!r}")
    everything = range(len(spec.targets))
    unsat: dict[frozenset, int] = {}
    sat: dict[frozenset, PreferenceModel] = {}
    for size in range(1, len(spec.targets) + 1):
        for chosen in combinations(everything, size):
            subset = frozenset(chosen)
            if any(core <= subset for core in unsat):
                continue
            result = find_satisfying_model(SearchSpec(
                spec.max_n, spec.rule, [spec.targets[i] for i in chosen], spec.properties,
                spec.atoms, iso_reject=spec.iso_reject, deadline=spec.deadline, lacks=spec.lacks,
            ))
            if result.model is None:
                unsat[subset] = result.frames_checked
            else:
                sat[subset] = result.model
    return {
        "minimal_unsatisfiable": [
            {"targets": sorted(core), "frames_checked": checked} for core, checked in unsat.items()
        ],
        "maximal_satisfiable": [
            {"targets": sorted(s), "witness": model_json(model)}
            for s, model in sat.items()
            if sat.keys().isdisjoint(s | {i} for i in everything if i not in s)
        ],
        "searches": len(unsat) + len(sat),
    }


# ---------------------------------------------------------------------------
# Collapse of the three rules on well-behaved frames


def rule_collapse(max_n: int, *, iso_reject: bool = True, deadline: float | None = None) -> dict:
    """On reflexive total transitive frames the three conditionals agree.

    Compares the extensional conditional for every antecedent/consequent
    pair on every such frame up to max_n, returning a report with either
    status "confirmed" or the first disagreeing frame, whose verdicts are
    those of the reference ``cond_holds``.  Raises SearchTimeout at the
    deadline.
    """
    props = (
        RelationProperty.REFLEXIVE,
        RelationProperty.TOTAL,
        RelationProperty.TRANSITIVE,
    )
    rules = (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS)
    cond = fm.Oblig(fm.MetaVar("g"), fm.MetaVar("f"))
    tables = [slicer(cond, rule, ("f", "g")) for rule in rules]

    def probe(rel):
        opt, mx, lewis = (values(rel)[0] for values in tables)
        return (opt ^ mx) | (mx ^ lewis) or None

    hit, per_n = scan_frames(max_n, props, probe, iso_reject=iso_reject, deadline=deadline)
    frames_checked = sum(per_n.values())
    if hit is None:
        return {
            "status": "confirmed",
            "max_n": max_n,
            "frames_checked": frames_checked,
            "properties": [p.value for p in props],
        }
    n, rel, diverged = hit
    antecedent, consequent = least_valuation(diverged, n, 2)
    frame = PreferenceModel(n, rel)
    verdicts = {rule.value: cond_holds(rule, consequent, antecedent, frame) for rule in rules}
    if len(set(verdicts.values())) == 1:
        raise AssertionError("the reference conditional does not diverge on the reported frame")
    return {
        "status": "diverged",
        "max_n": max_n,
        "frames_checked": frames_checked,
        "frame": {"n": n, "rel": list(rel)},
        "antecedent": list(worlds_from_mask(antecedent)),
        "consequent": list(worlds_from_mask(consequent)),
        **verdicts,
    }
