"""Axiom-schema registry and the correspondence-checking harness.

The registry holds the S5 block for the global modality (K, T, Five), the
base axioms of system E (COK, Abs, Nec, Ext, Id, Sh), and the extension
axioms D* (Dstar), CM, DR, Sp, RM, plus the deontic-explosion schema DEX.
Schemata are written over the metavariables ?f, ?g, ?h.

``forward_check`` decides, by exhaustive enumeration up to a world bound,
whether every frame with a given set of betterness properties validates an
axiom schema, reporting the least counterexample frame otherwise.
``converse_search`` hunts for a frame (or, in model-level mode, a model)
validating the axiom while lacking the property.  ``table_sweep`` runs the
whole correspondence table for one evaluation rule, including the
documented background assumptions and, for each correspondence row, a
dropped-property counterexample search.

Rows whose property is known not to correspond to any axiom are reported
as bounded evidence only: at finite sizes some axioms can become valid as
an artifact of finiteness (e.g. every finite transitive frame is
max-limited, hence validates D* under the max rule), so these rows never
carry a pass/fail expectation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import formula as fm
from .finder import deadline_after, enumerate_frames, scan_frames
from .model import PreferenceModel, Relation, model_json, worlds_from_mask
from .relprops import RelationProperty, check_property
from .semantics import EvalRule, first_valuation, frame_counterexample, truth_set

_SCHEMA_SOURCES = {
    "K": "[](?f -> ?g) -> ([]?f -> []?g)",
    "T": "[]?f -> ?f",
    "Five": "<>?f -> []<>?f",
    "COK": "O(?g -> ?h / ?f) -> (O(?g / ?f) -> O(?h / ?f))",
    "Abs": "O(?g / ?f) -> []O(?g / ?f)",
    "Nec": "[]?f -> O(?f / ?g)",
    "Ext": "[](?f <-> ?g) -> (O(?h / ?f) <-> O(?h / ?g))",
    "Id": "O(?f / ?f)",
    "Sh": "O(?h / ?f & ?g) -> O(?g -> ?h / ?f)",
    "Dstar": "<>?f -> (O(?g / ?f) -> P(?g / ?f))",
    "CM": "(O(?g / ?f) & O(?h / ?f)) -> O(?h / ?f & ?g)",
    "DR": "O(?h / ?f | ?g) -> (O(?h / ?f) | O(?h / ?g))",
    "Sp": "(P(?g / ?f) & O(?g -> ?h / ?f)) -> O(?h / ?f & ?g)",
    "RM": "(P(?g / ?f) & O(?h / ?f)) -> O(?h / ?f & ?g)",
    "DEX": "(<>?f & O(?g / ?f) & O(~?g / ?f)) -> O(?h / ?f)",
}

SCHEMAS: dict[str, fm.Formula] = {name: fm.parse(src) for name, src in _SCHEMA_SOURCES.items()}

E_AXIOMS = ("COK", "Abs", "Nec", "Ext", "Id", "Sh")
S5_AXIOMS = ("K", "T", "Five")
EXTENSION_AXIOMS = ("Dstar", "CM", "DR", "Sp", "RM")


def schema(name: str) -> fm.Formula:
    try:
        return SCHEMAS[name]
    except KeyError:
        raise ValueError(f"unknown axiom schema {name!r}") from None


@dataclass
class ForwardResult:
    """Outcome of 'every frame with these properties validates the axiom'."""

    axiom: str
    rule: EvalRule
    properties: tuple[RelationProperty, ...]
    max_n: int
    status: str  # confirmed | counterexample
    frames_checked: int
    counter_frame: Relation | None = None
    counter_assignment: dict[str, int] | None = None

    @property
    def confirmed(self) -> bool:
        return self.status == "confirmed"

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "rule": self.rule.value,
            "properties": [p.value for p in self.properties],
            "max_n": self.max_n,
            "status": self.status,
            "frames_checked": self.frames_checked,
        }
        if self.counter_frame is not None:
            # The frame alone: the metavariable assignment is reported
            # beside it, not as a valuation.
            counter = model_json(PreferenceModel(len(self.counter_frame), self.counter_frame))
            del counter["valuation"]
            counter["assignment"] = {
                name: list(worlds_from_mask(mask))
                for name, mask in sorted(self.counter_assignment.items())
            }
            out["counterexample"] = counter
        return out


def forward_check(
    properties,
    axiom: str | fm.Formula,
    rule: EvalRule,
    max_n: int,
    *,
    iso_reject: bool = True,
    timeout: float | None = None,
) -> ForwardResult:
    """Exhaustively check property => axiom on all frames up to max_n."""
    if max_n > 5:
        raise ValueError("forward_check is bounded at max_n <= 5")
    name, body = _resolve(axiom)
    props = tuple(properties)
    deadline = deadline_after(timeout)
    hit, per_n = scan_frames(
        max_n,
        lambda n: enumerate_frames(n, props, iso_reject, deadline),
        lambda rel: frame_counterexample(body, rel, rule, force=True),
        deadline,
    )
    result = ForwardResult(name, rule, props, max_n, "confirmed", sum(per_n.values()))
    if hit is not None:
        n, rel, assignment = hit
        frame = PreferenceModel(n, rel)
        if truth_set(body, frame, rule, assignment=assignment) == frame.full_mask:
            raise AssertionError(f"counterexample does not falsify {name}")
        result.status = "counterexample"
        result.counter_frame = rel
        result.counter_assignment = assignment
    return result


def _resolve(axiom: str | fm.Formula) -> tuple[str, fm.Formula]:
    if isinstance(axiom, str):
        return axiom, schema(axiom)
    return fm.render(axiom), axiom


@dataclass
class ConverseResult:
    """Outcome of the hunt for axiom-valid frames lacking the property."""

    axiom: str
    rule: EvalRule
    prop: RelationProperty
    max_n: int
    status: str  # witness | none_up_to_bound
    frames_checked: int
    model_level: bool = False
    witness: PreferenceModel | None = None

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "rule": self.rule.value,
            "property": self.prop.value,
            "max_n": self.max_n,
            "level": "model" if self.model_level else "frame",
            "status": self.status,
            "frames_checked": self.frames_checked,
        }
        if self.witness is not None:
            out["witness"] = model_json(self.witness)
        return out


def converse_search(
    axiom: str | fm.Formula,
    prop: RelationProperty,
    rule: EvalRule,
    max_n: int,
    *,
    iso_reject: bool = True,
    timeout: float | None = None,
    model_level: bool = False,
) -> ConverseResult:
    """Search for a frame that validates the axiom yet lacks the property.

    Frame-level (default): the axiom must hold under every assignment to
    its metavariables.  Model-level reproduces a fixed-valuation reading:
    metavariables are read as atoms and the search ranges over valuations too,
    so a witness is a model in which that single instance holds.
    """
    if max_n > 5:
        raise ValueError("converse_search is bounded at max_n <= 5")
    name, body = _resolve(axiom)
    names = tuple(sorted(fm.metavars(body)))
    deadline = deadline_after(timeout)

    def frames(n):
        return (
            rel
            for rel in enumerate_frames(n, (), iso_reject, deadline)
            if not check_property(prop, rel)
        )

    def probe(rel):
        if model_level:
            return first_valuation((body,), rel, rule, names, deadline=deadline)
        return True if frame_counterexample(body, rel, rule, force=True) is None else None

    hit, per_n = scan_frames(max_n, frames, probe, deadline)
    result = ConverseResult(
        axiom=name, rule=rule, prop=prop, max_n=max_n, status="none_up_to_bound",
        frames_checked=sum(per_n.values()), model_level=model_level,
    )
    if hit is not None:
        n, rel, env = hit
        if model_level:
            witness = PreferenceModel(n, rel, dict(zip(names, env)))
            valid = truth_set(body, witness, rule, assignment=witness.valuation)
            if valid != witness.full_mask:
                raise AssertionError(f"witness does not validate {name}")
        else:
            witness = PreferenceModel(n, rel)
        result.status = "witness"
        result.witness = witness
    return result


# ---------------------------------------------------------------------------
# Correspondence-table sweeps

_LIMITED = {EvalRule.OPT: RelationProperty.OPT_LIMITED, EvalRule.MAX: RelationProperty.MAX_LIMITED}
_SMOOTH = {EvalRule.OPT: RelationProperty.OPT_SMOOTH, EvalRule.MAX: RelationProperty.MAX_SMOOTH}

_R = RelationProperty


def _sweep_rows(rule: EvalRule) -> list[dict]:
    """Row configuration for the correspondence table of one rule.

    Background properties record the documented shortcuts: smoothness,
    transitivity (opt), transitivity+totality (max) and interval order are
    checked with limitedness assumed, which also pins the D* axiom on the
    frame class.
    """
    if rule is EvalRule.LEWIS:
        return [
            {"label": "unconditional", "kind": "unconditional",
             "properties": [], "background": [],
             "axioms": ["Abs", "Nec", "Ext", "Id", "Sh", "K", "T", "Five"]},
            {"label": "totality", "kind": "correspondence",
             "properties": [_R.TOTAL], "background": [], "axioms": ["Dstar"]},
            {"label": "transitivity", "kind": "correspondence",
             "properties": [_R.TRANSITIVE], "background": [], "axioms": ["Sp"]},
            {"label": "transitivity+totality", "kind": "correspondence",
             "properties": [_R.TRANSITIVE, _R.TOTAL], "background": [],
             "axioms": ["COK", "CM"]},
        ]

    limited = _LIMITED[rule]
    smooth = _SMOOTH[rule]
    rows = [
        {"label": "unconditional", "kind": "unconditional",
         "properties": [], "background": [],
         "axioms": list(E_AXIOMS + S5_AXIOMS)},
        {"label": "reflexivity", "kind": "no_correspondence",
         "properties": [_R.REFLEXIVE], "background": [],
         "axioms": list(EXTENSION_AXIOMS)},
        {"label": "totality", "kind": "no_correspondence",
         "properties": [_R.TOTAL], "background": [],
         "axioms": list(EXTENSION_AXIOMS)},
        {"label": "limitedness", "kind": "correspondence",
         "properties": [limited], "background": [], "axioms": ["Dstar"]},
        {"label": "smoothness", "kind": "correspondence",
         "properties": [smooth], "background": [limited], "axioms": ["CM"]},
    ]
    if rule is EvalRule.MAX:
        rows += [
            {"label": "transitivity", "kind": "no_correspondence",
             "properties": [_R.TRANSITIVE], "background": [],
             "axioms": list(EXTENSION_AXIOMS)},
            {"label": "transitivity+totality", "kind": "correspondence",
             "properties": [_R.TRANSITIVE, _R.TOTAL], "background": [limited],
             "axioms": ["Sp"]},
        ]
    else:
        rows += [
            {"label": "transitivity", "kind": "correspondence",
             "properties": [_R.TRANSITIVE], "background": [limited],
             "axioms": ["Sp"]},
            {"label": "transitivity+totality", "kind": "no_correspondence",
             "properties": [_R.TRANSITIVE, _R.TOTAL], "background": [],
             "axioms": list(EXTENSION_AXIOMS)},
        ]
    rows.append(
        {"label": "interval order", "kind": "correspondence",
         "properties": [_R.INTERVAL_ORDER], "background": [limited],
         "axioms": ["DR"]}
    )
    return rows


def table_sweep(
    rule: EvalRule,
    max_n: int = 3,
    *,
    iso_reject: bool = True,
    workers: int = 1,
    timeout: float | None = None,
) -> dict:
    """Run every row of the correspondence table for one evaluation rule.

    Correspondence rows get a forward check (with background) plus a
    dropped-property counterexample search over unconstrained frames; rows
    with no corresponding axiom are probed and reported as bounded evidence
    only (finiteness can validate axioms spuriously), so they carry no
    expectation.  One timeout covers the whole table; workers is ignored
    (scans are serial).
    """
    if max_n > 4:
        raise ValueError("table_sweep is bounded at max_n <= 4")
    deadline = deadline_after(timeout)

    def check(props, axiom):
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.01)
        return forward_check(props, axiom, rule, max_n, iso_reject=iso_reject, timeout=remaining)

    rows_out = []
    for row in _sweep_rows(rule):
        props = list(row["properties"]) + list(row["background"])
        axioms_out = {}
        row_match: bool | None = True
        for axiom in row["axioms"]:
            forward = check(props, axiom)
            entry = {"forward": forward.to_json()}
            if row["kind"] == "correspondence":
                dropped = check((), axiom)
                entry["dropped"] = dropped.to_json()
                entry["match"] = forward.confirmed and not dropped.confirmed
            elif row["kind"] == "unconditional":
                entry["match"] = forward.confirmed
            else:
                entry["match"] = None
            axioms_out[axiom] = entry
            if entry["match"] is not None and row_match is not None:
                row_match = row_match and entry["match"]
        if row["kind"] == "no_correspondence":
            row_match = None
        rows_out.append(
            {
                "label": row["label"],
                "kind": row["kind"],
                "properties": [p.value for p in row["properties"]],
                "background": [p.value for p in row["background"]],
                "axioms": axioms_out,
                "match": row_match,
                "note": (
                    "bounded evidence only: at finite sizes extra validities can "
                    "be artifacts of finiteness"
                    if row["kind"] == "no_correspondence"
                    else None
                ),
            }
        )
    return {
        "rule": rule.value,
        "max_n": max_n,
        "iso_reject": iso_reject,
        "rows": rows_out,
        "all_match": all(r["match"] for r in rows_out if r["match"] is not None),
    }