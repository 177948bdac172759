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
compiled probe on every frame; the probe settles each part of a frame the
rule can tell apart once and answers repeats from its memo.  Searches
count frames, not valuations or memo entries: frames_checked and the
witness are the same as without the memo.

``scan_frames`` is the one search skeleton and frame loop: it checks the
world bound, enumerates the frames with the given properties, narrowed by
an optional frame filter, and returns the first probe hit, smallest
universe first.
A search for a least witness is a ``SearchSpec`` run by
``find_satisfying_model``: a (frame, valuation) in satisfy and refute mode
(the model search, forward checks, model-level converses), a frame in
valid mode (frame-level converses).  Every such witness is re-validated in
one place, ``_revalidate``.  ``cores`` runs one satisfy search per subset
of a spec's targets, skipping the supersets of unsatisfiable ones, and
reports the minimal unsatisfiable and maximal satisfiable subsets.  The
rule collapse and ``property_implication`` hand ``scan_frames`` probes of
their own: the latter checks "every relation with P1 has P2" on the
classes with P1, weighting each by its orbit size.
The properties are invariant under relabelling worlds, so the least witness
is the least such representative.  ``lattice_report`` asks it once per
ordered pair of the implication diagram of the transitivity weakenings.
Every search stops at a deadline, a ``time.monotonic()`` value (None: no
limit), raising ``SearchTimeout``.  Each scan is serial.  ``forks.fork_map``
runs the independent searches of a table (``table_sweep``, ``run_grid``,
``lattice_report``) in one forked process per CPU; the work is pure
Python, so threads would not run it faster.
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
    all_relations,
    canonical_relations,
    check_world_bound,
    model_json,
    orbit_size,
    transitive_closure,
    worlds_from_mask,
)
from .relprops import RelationProperty, check_property, has_all
from .semantics import EvalRule, cond_holds, least_valuation, scanner, slicer, truth_set


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
    atoms: a frame witness, reported with an empty valuation).
    frame_filter, a pure predicate on the relation rows, narrows the frames
    scanned and is re-checked on the witness.  The search stops at
    deadline, a ``time.monotonic()`` value (None: no limit).  A target
    nested deeper than ``formula.MAX_DEPTH`` is a ValueError, as it is for
    ``formula.parse``.
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
        frame_filter: Callable[[Relation], bool] | None = None,
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
        self.frame_filter = frame_filter
        if not self.targets:
            raise ValueError("search needs at least one target formula")
        if not isinstance(rule, EvalRule):
            raise ValueError(f"{rule!r}: not an evaluation rule")
        if mode not in _STATUS:
            raise ValueError(f"unknown search mode {mode!r}")
        if any(map(fm.too_deep, self.targets)):  # the evaluators recurse
            raise ValueError(f"a target is nested more than MAX_DEPTH = {fm.MAX_DEPTH} levels deep")
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
    frame_filter: Callable[[Relation], bool] | None = None,
):
    """First (n, rel, probe(rel)) whose probe result is not None, plus the
    frames scanned per world count.

    The frames of n worlds are the relations with the given properties that
    pass frame_filter, ascending: with iso_reject the cached orbit minima
    (``canonical_relations``), else all 2^(n*n) relations, tested here.
    Universes are scanned smallest first, so the hit is the least one.
    per_n[n] counts the frames scanned up to and including the hit.  The
    deadline is checked every 256 relations examined, passing or not.  A
    max_n outside the world bound is rejected first.
    """
    check_world_bound(max_n)
    keep = has_all(frozenset(properties))
    per_n: dict[int, int] = {}
    for n in range(1, max_n + 1):
        relations = canonical_relations(n, keep, deadline) if iso_reject else all_relations(n)
        test = None if iso_reject else keep
        per_n[n] = 0
        for idx, rel in enumerate(relations):
            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:
                raise SearchTimeout()
            if test is not None and not test(rel) or frame_filter is not None and not frame_filter(rel):
                continue
            per_n[n] += 1
            result = probe(rel)
            if result is not None:
                return (n, rel, result), per_n
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


def cores(spec: SearchSpec) -> dict:
    """Minimal unsatisfiable and maximal satisfiable subsets of spec.targets.

    Every nonempty subset is searched like spec itself (same atoms,
    properties, rule, bound, frame filter and deadline), by size, then in
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
                spec.atoms, iso_reject=spec.iso_reject, deadline=spec.deadline,
                frame_filter=spec.frame_filter,
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


# ---------------------------------------------------------------------------
# Implications between properties


class Confirmed(fm.Record):
    """p1 implies p2 on every relation of each checked size."""

    __slots__ = _fields = ("n", "relations_checked")


class Witness(fm.Record):
    """Least relation (by size, then row-lexicographic order) with p1 but not p2."""

    __slots__ = _fields = ("n", "rel")


def property_implication(p1, p2, n: int, deadline: float | None = None) -> Confirmed | Witness:
    """Check p1 => p2 over all relations on 1..n worlds, n <= 5.

    p1 and p2 may be single properties or iterables (read conjunctively).
    A scan of the classes with p1 whose probe hits a class without p2;
    relations_checked counts the relations in the classes it passes.
    Raises SearchTimeout at the deadline, a ``time.monotonic()`` value
    (None: no limit).
    """
    conclusion = has_all(frozenset(_as_props(p2)))
    checked = 0

    def probe(rel):
        nonlocal checked
        if conclusion is not None and not conclusion(rel):
            return rel
        checked += orbit_size(rel)
        return None

    hit, _ = scan_frames(n, _as_props(p1), probe, deadline=deadline)
    if hit is None:
        return Confirmed(n, checked)
    return Witness(hit[0], hit[1])


# The implication diagram over the order-theoretic properties: the five
# weakenings of transitivity, plus totality and reflexivity.  Base arrows are
# the known one-step implications; interval order is total + Ferrers by
# definition, which contributes two more.  Everything else is independent and
# the report must produce a witness for each non-implied ordered pair.

LATTICE_NODES = (
    RelationProperty.TRANSITIVE,
    RelationProperty.QUASI_TRANSITIVE,
    RelationProperty.SUZUMURA_CONSISTENT,
    RelationProperty.ACYCLIC,
    RelationProperty.INTERVAL_ORDER,
    RelationProperty.TOTAL,
    RelationProperty.REFLEXIVE,
)

LATTICE_ARROWS = (
    (RelationProperty.TRANSITIVE, RelationProperty.SUZUMURA_CONSISTENT),
    (RelationProperty.SUZUMURA_CONSISTENT, RelationProperty.ACYCLIC),
    (RelationProperty.TRANSITIVE, RelationProperty.QUASI_TRANSITIVE),
    (RelationProperty.QUASI_TRANSITIVE, RelationProperty.ACYCLIC),
    (RelationProperty.INTERVAL_ORDER, RelationProperty.QUASI_TRANSITIVE),
    (RelationProperty.TOTAL, RelationProperty.REFLEXIVE),
)

_DEFINITIONAL_ARROWS = (
    (RelationProperty.INTERVAL_ORDER, RelationProperty.TOTAL),
    (RelationProperty.INTERVAL_ORDER, RelationProperty.REFLEXIVE),
)


def implied_pairs() -> frozenset[tuple[RelationProperty, RelationProperty]]:
    """Transitive closure of the arrow diagram (with definitional arrows)."""
    index = {p: i for i, p in enumerate(LATTICE_NODES)}
    rows = [0] * len(LATTICE_NODES)
    for a, b in LATTICE_ARROWS + _DEFINITIONAL_ARROWS:
        rows[index[a]] |= 1 << index[b]
    reach = transitive_closure(tuple(rows))
    return frozenset(
        (p, q) for p in LATTICE_NODES for q in LATTICE_NODES
        if p is not q and reach[index[p]] >> index[q] & 1
    )


def lattice_report(max_n: int, deadline: float | None = None) -> dict:
    """Exhaustively confirm every implied pair and witness every other pair:
    one ``property_implication`` per ordered pair of LATTICE_NODES.  Raises
    AssertionError if an implied pair fails, and SearchTimeout at the
    deadline, a ``time.monotonic()`` value (None: no limit).  ``forks.fork_map``
    runs the premises in parallel, each premise's six implications in one
    process so that they share its class build."""
    from .forks import fork_map  # compiled only when a table runs

    implied = implied_pairs()
    found = fork_map(
        lambda p: {(p, q): property_implication(p, q, max_n, deadline) for q in LATTICE_NODES if q is not p},
        LATTICE_NODES,
    )
    results = {pair: result for premise in found for pair, result in premise.items()}
    for p, q in implied:
        if isinstance(results[p, q], Witness):
            raise AssertionError(f"implication {p} => {q} fails at size {results[p, q].n}")
    return {
        "max_n": max_n,
        "arrows": [
            {
                "from": a.value,
                "to": b.value,
                "status": "confirmed",
                "relations_checked": results[a, b].relations_checked,
            }
            for a, b in LATTICE_ARROWS
        ],
        "derived_arrows": sorted(
            f"{a.value} => {b.value}"
            for a, b in implied
            if (a, b) not in LATTICE_ARROWS
        ),
        "independence": [
            {
                "from": p.value,
                "to": q.value,
                "witness_n": result.n if isinstance(result, Witness) else None,
                "witness_rel": list(result.rel) if isinstance(result, Witness) else None,
                "status": "witness" if isinstance(result, Witness) else "no_witness_up_to_bound",
            }
            for (p, q), result in results.items()
            if (p, q) not in implied
        ],
    }
