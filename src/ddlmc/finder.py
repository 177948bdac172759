"""Exhaustive frame and model search with property filters.

Enumeration is by universe size, then by the relation's row-tuple order,
then by the valuation read as a tuple of atom masks in the declared atom
order.  A satisfiability search therefore reports the least witness in that
order; with isomorph rejection the frames are orbit minima, and since truth
is invariant under world relabeling the reported witness is the same with
or without rejection.

Each frame's valuations are scanned at once by the bit-sliced evaluator
(``semantics.scanner``): valuations are numbered like the tuple of atom
masks in the declared atom order, the first atom the most significant
base-2^n digit, so the lowest valuation bit that settles the targets is the
least valuation.  Each search compiles its formulas once and runs the
compiled probe on every frame.  Searches count frames, not valuations.

``scan_frames`` is the one search skeleton: it checks the world bound,
enumerates the frames with the given properties, narrowed by an optional
frame filter, and returns the first probe hit, smallest universe first.
A search for a least witness is a ``SearchSpec`` run by
``find_satisfying_model``: a (frame, valuation) in satisfy and refute mode
(the model search, forward checks, model-level converses), a frame in
valid mode (frame-level converses).  Every such witness is re-validated in
one place, ``_revalidate``; only the rule collapse hands ``scan_frames`` a
probe of its own.
Every search stops at a deadline, a ``time.monotonic()`` value (None: no
limit), raising ``SearchTimeout``.  Scans are serial; the work is pure
Python, so threads would not run it faster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from . import formula as fm
from .model import (
    PreferenceModel,
    Relation,
    SearchTimeout,
    all_relations,
    canonical_relations,
    check_world_bound,
    model_json,
    worlds_from_mask,
)
from .relprops import RelationProperty, check_all, check_property, has_all
from .semantics import EvalRule, cond_holds, least_valuation, scanner, slicer, truth_set


def enumerate_frames(
    n: int,
    properties: Iterable[RelationProperty] = (),
    iso_reject: bool = False,
    deadline: float | None = None,
) -> Iterator[Relation]:
    """All n-world relations with the given properties, ascending.

    With iso_reject, one representative (the orbit minimum) per
    world-permutation orbit: the cached ``canonical_relations`` for these
    properties, built by one-world extension with the deadline checked as
    it goes.  Without it, every one of the 2^(n*n) relations is filtered,
    with the deadline checked every 4096 relations: few may pass the filter.
    """
    check_world_bound(n)
    if iso_reject:
        yield from canonical_relations(n, has_all(frozenset(properties)), deadline)
        return
    props = tuple(properties)
    for idx, rel in enumerate(all_relations(n)):
        if deadline is not None and idx % 4096 == 0 and time.monotonic() > deadline:
            raise SearchTimeout()
        if check_all(props, rel):
            yield rel


# Per mode, the status of a search that found a witness and of one that
# exhausted its bound.
_STATUS = {
    "satisfy": ("sat", "unsat_up_to_bound"),
    "refute": ("refuted", "no_refutation_up_to_bound"),
    "valid": ("valid", "no_valid_frame_up_to_bound"),
}


@dataclass
class SearchSpec:
    """What to search for: targets plus the model class to range over.

    atoms orders the valuation's names (default: the targets' names,
    sorted); metavariables are read from it like atoms, and one name may
    not be both.  mode is "satisfy" (every target true at every world),
    "refute" (some target false at some world) or "valid" (every target
    true at every world under every valuation of atoms: a frame witness,
    reported with an empty valuation).  frame_filter, a pure predicate on
    the relation rows,
    narrows the frames scanned and is re-checked on the witness.  The
    search stops at deadline, a ``time.monotonic()`` value (None: no limit).
    """

    max_n: int
    rule: EvalRule
    targets: Sequence[fm.Formula]
    properties: Sequence[RelationProperty] = ()
    atoms: Sequence[str] | None = None
    mode: str = "satisfy"  # or "refute" or "valid"
    iso_reject: bool = True
    deadline: float | None = None
    frame_filter: Callable[[Relation], bool] | None = None

    def __post_init__(self):
        self.targets = tuple(self.targets)
        self.properties = tuple(self.properties)
        if not self.targets:
            raise ValueError("search needs at least one target formula")
        if self.mode not in _STATUS:
            raise ValueError(f"unknown search mode {self.mode!r}")
        atoms = set().union(*(fm.atoms(t) for t in self.targets))
        metavars = set().union(*(fm.metavars(t) for t in self.targets))
        if atoms & metavars:
            raise ValueError(f"names {sorted(atoms & metavars)} are used as atoms and as metavariables")
        mentioned = sorted(atoms | metavars)
        if self.atoms is None:
            self.atoms = tuple(mentioned)
        else:
            self.atoms = tuple(self.atoms)
            repeated = sorted({a for a in self.atoms if self.atoms.count(a) > 1})
            if repeated:
                raise ValueError(f"atoms {repeated} are listed more than once")
            missing = set(mentioned) - set(self.atoms)
            if missing:
                raise ValueError(f"atoms {sorted(missing)} appear in targets but not in spec.atoms")


@dataclass
class SearchResult:
    status: str  # one of the spec mode's two _STATUS entries
    spec: SearchSpec
    model: PreferenceModel | None = None
    frames_checked: int = 0
    per_n_frames: dict[int, int] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.model is not None

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
    all filtered frames when the bound is exhausted.
    """
    scan = scanner(spec.targets, spec.rule, spec.atoms, spec.mode)
    hit, per_n = scan_frames(
        spec.max_n, spec.properties, lambda rel: scan(rel, spec.deadline),
        iso_reject=spec.iso_reject, deadline=spec.deadline, frame_filter=spec.frame_filter,
    )
    checked = sum(per_n.values())
    found, exhausted = _STATUS[spec.mode]
    if hit is None:
        return SearchResult(exhausted, spec, frames_checked=checked, per_n_frames=per_n)
    n, rel, env = hit
    model = PreferenceModel(n, rel, dict(zip(spec.atoms, env)))
    _revalidate(model, spec)
    return SearchResult(found, spec, model, frames_checked=checked, per_n_frames=per_n)


def scan_frames(
    max_n: int,
    properties: Sequence[RelationProperty],
    probe: Callable[[Relation], object],
    *,
    iso_reject: bool = True,
    deadline: float | None = None,
    frame_filter: Callable[[Relation], bool] | None = None,
):
    """First (n, rel, probe(rel)) whose probe result is not None, plus the
    frames scanned per world count.

    The frames of n worlds are ``enumerate_frames(n, properties,
    iso_reject)`` that pass frame_filter, in ascending order; universes are
    scanned smallest first, so the hit is the least one.  per_n[n] counts
    the frames scanned up to and including the hit; the deadline is checked
    every 256 frames.  A max_n outside the world bound is rejected first.
    """
    check_world_bound(max_n)
    per_n: dict[int, int] = {}
    for n in range(1, max_n + 1):
        frames = enumerate_frames(n, properties, iso_reject, deadline)
        if frame_filter is not None:
            frames = filter(frame_filter, frames)
        idx = -1
        for idx, rel in enumerate(frames):
            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:
                raise SearchTimeout()
            result = probe(rel)
            if result is not None:
                per_n[n] = idx + 1
                return (n, rel, result), per_n
        per_n[n] = idx + 1
    return None, per_n


def _revalidate(model: PreferenceModel, spec: SearchSpec) -> None:
    """Re-check a witness with check_property, the frame filter and the
    reference truth_set: under its valuation, or in valid mode under every
    valuation of spec.atoms."""
    for prop in spec.properties:
        if not check_property(prop, model):
            raise AssertionError(f"witness lacks {prop.value}")
    if spec.frame_filter is not None and not spec.frame_filter(model.rel):
        raise AssertionError("witness frame fails the frame filter")
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
