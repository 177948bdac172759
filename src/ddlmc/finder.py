"""Exhaustive frame and model search with property filters.

Enumeration is by universe size, then by the relation's row-tuple order,
then by the valuation read as a tuple of atom masks in the declared atom
order.  A satisfiability search therefore reports the least witness in that
order; with isomorph rejection the frames are orbit minima, and since truth
is invariant under world relabeling the reported witness is the same with
or without rejection.

Each frame's valuations are scanned at once by the bit-sliced evaluator
(``semantics.first_valuation``): valuations are numbered like the tuple of
atom masks in the declared atom order, the first atom the most significant
base-2^n digit, so the lowest valuation bit that settles the targets is the
least valuation.  Searches count frames, not valuations.

``scan_frames`` is the one scan loop: the model search, forward checks,
converse searches and the rule collapse all hand it a frame source and a
probe, and it returns the first hit, smallest universe first.  Scans are
serial; the work is pure Python, so threads would not run it faster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from . import formula as fm
from .model import (
    MAX_EXHAUSTIVE_WORLDS,
    PreferenceModel,
    Relation,
    all_relations,
    canonical_relations,
    model_json,
    strict_part,
    transitive_closure,
)
from .relprops import RelationProperty, check_all, check_property
from .semantics import EvalRule, SearchTimeout, first_valuation, truth_set, valid_in_model


class _Cyclic:
    """Marker: the strict part contains a cycle, so chain length is undefined."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CYCLIC"


CYCLIC = _Cyclic()


@lru_cache(maxsize=None)
def _has_all(props: frozenset[RelationProperty]) -> Callable[[Relation], bool] | None:
    """The predicate "has every property in props", one object per set so
    that it keys the class cache of ``canonical_relations``; None when props
    is empty."""
    if not props:
        return None
    ordered = tuple(p for p in RelationProperty if p in props)
    return lambda rel: check_all(ordered, rel)


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
    it goes.  Without it, every one of the 2^(n*n) relations is filtered.
    """
    if not (1 <= n <= MAX_EXHAUSTIVE_WORLDS):
        raise ValueError(f"frame enumeration is supported for 1 <= n <= {MAX_EXHAUSTIVE_WORLDS}")
    if iso_reject:
        yield from canonical_relations(n, _has_all(frozenset(properties)), deadline)
        return
    props = tuple(properties)
    for rel in all_relations(n):
        if check_all(props, rel):
            yield rel


def longest_strict_chain(m: PreferenceModel | Relation):
    """Worlds on the longest strictly-increasing chain, or CYCLIC."""
    rel = m.rel if isinstance(m, PreferenceModel) else tuple(m)
    strict = strict_part(rel)
    n = len(rel)
    closure = transitive_closure(strict)
    if any(closure[i] >> i & 1 for i in range(n)):
        return CYCLIC
    # strict[i] holds the worlds i is strictly better than; the longest
    # chain ending downward from i is 1 + max over successors.
    memo: dict[int, int] = {}

    def depth(i: int) -> int:
        if i in memo:
            return memo[i]
        best = 0
        row = strict[i]
        j = 0
        while row:
            if row & 1:
                cand = depth(j)
                if cand > best:
                    best = cand
            row >>= 1
            j += 1
        memo[i] = best + 1
        return memo[i]

    return max(depth(i) for i in range(n))


@dataclass
class SearchSpec:
    """What to search for: targets plus the model class to range over.

    frame_filter, when set, further restricts the frames scanned (it sees
    the relation rows and must be a pure predicate).
    """

    max_n: int
    rule: EvalRule
    targets: Sequence[fm.Formula]
    properties: Sequence[RelationProperty] = ()
    atoms: Sequence[str] | None = None
    mode: str = "satisfy"  # or "refute"
    iso_reject: bool = True
    workers: int = 1  # ignored; scans are serial
    timeout: float | None = None
    frame_filter: object = None

    def __post_init__(self):
        self.targets = tuple(self.targets)
        self.properties = tuple(self.properties)
        if not self.targets:
            raise ValueError("search needs at least one target formula")
        if self.mode not in ("satisfy", "refute"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        for t in self.targets:
            if fm.metavars(t):
                raise ValueError(f"target contains metavariables: {fm.render(t)}")
        mentioned = sorted(set().union(*(fm.atoms(t) for t in self.targets)))
        if self.atoms is None:
            self.atoms = tuple(mentioned)
        else:
            self.atoms = tuple(self.atoms)
            missing = set(mentioned) - set(self.atoms)
            if missing:
                raise ValueError(f"atoms {sorted(missing)} appear in targets but not in spec.atoms")


@dataclass
class SearchResult:
    status: str  # sat | unsat_up_to_bound | refuted | no_refutation_up_to_bound
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
    some world.  Found models are re-validated with the reference evaluator
    and the property checker before being returned.

    frames_checked counts frames up to and including the witness frame, or
    all filtered frames when the bound is exhausted.
    """
    deadline = deadline_after(spec.timeout)

    def frames(n):
        rels = enumerate_frames(n, spec.properties, spec.iso_reject, deadline)
        if spec.frame_filter is None:
            return rels
        return (rel for rel in rels if spec.frame_filter(rel))

    def probe(rel):
        return first_valuation(spec.targets, rel, spec.rule, spec.atoms, spec.mode, deadline)

    hit, per_n = scan_frames(spec.max_n, frames, probe, deadline)
    checked = sum(per_n.values())
    if hit is None:
        status = "unsat_up_to_bound" if spec.mode == "satisfy" else "no_refutation_up_to_bound"
        return SearchResult(status, spec, frames_checked=checked, per_n_frames=per_n)
    n, rel, env = hit
    model = PreferenceModel(n, rel, dict(zip(spec.atoms, env)))
    _revalidate(model, spec)
    status = "sat" if spec.mode == "satisfy" else "refuted"
    return SearchResult(status, spec, model, frames_checked=checked, per_n_frames=per_n)


def deadline_after(timeout: float | None) -> float | None:
    """The monotonic deadline timeout seconds from now; None when timeout
    is None or 0 (no limit)."""
    return None if not timeout else time.monotonic() + timeout


def scan_frames(
    max_n: int,
    frames: Callable[[int], Iterable[Relation]],
    probe: Callable[[Relation], object],
    deadline: float | None = None,
):
    """First (n, rel, probe(rel)) whose probe result is not None, plus the
    frames scanned per world count.

    Universes are scanned smallest first and each frames(n) in its own
    (lazy) order, so the hit is the least one.  per_n[n] counts the frames
    scanned up to and including the hit; the deadline is checked every 256
    frames.
    """
    per_n: dict[int, int] = {}
    for n in range(1, max_n + 1):
        idx = -1
        for idx, rel in enumerate(frames(n)):
            if deadline is not None and idx % 256 == 0 and time.monotonic() > deadline:
                raise SearchTimeout()
            result = probe(rel)
            if result is not None:
                per_n[n] = idx + 1
                return (n, rel, result), per_n
        per_n[n] = idx + 1
    return None, per_n


def _revalidate(model: PreferenceModel, spec: SearchSpec) -> None:
    for prop in spec.properties:
        if not check_property(prop, model):
            raise AssertionError(f"witness fails property {prop}")
    for t in spec.targets:
        valid = truth_set(t, model, spec.rule) == model.full_mask
        if spec.mode == "satisfy" and not valid:
            raise AssertionError(f"witness fails target {fm.render(t)}")
    if spec.mode == "refute":
        if all(valid_in_model(t, model, spec.rule) for t in spec.targets):
            raise AssertionError("refutation witness validates all targets")
