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

from dataclasses import dataclass

from . import formula as fm
from .finder import enumerate_frames, first_hit
from .model import PreferenceModel, Relation, relation_pairs, serialize_model, worlds_from_mask
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


def _frame_json(rel: Relation) -> dict:
    n = len(rel)
    return {
        "n": n,
        "rel": [list(p) for p in relation_pairs(rel)],
        "model_text": serialize_model(PreferenceModel(n, rel)),
    }


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
            out["counterexample"] = _frame_json(self.counter_frame)
            out["counterexample"]["assignment"] = {
                name: list(worlds_from_mask(mask))
                for name, mask in sorted(self.counter_assignment.items())
            }
        return out


def _scan_sized(frames_iter, probe, n: int, workers: int):
    """First (index, frame, probe-result) plus the scan count on a miss.

    Frame lists are materialized (enabling workers) up to n=4; n=5 scans
    lazily on one worker since the unfiltered space has 2^25 relations.
    """
    if n <= 4:
        frames = list(frames_iter)
        hit = first_hit(frames, probe, workers=workers)
        if hit is None:
            return None, len(frames)
        idx, result = hit
        return (idx, frames[idx], result), idx + 1
    idx = -1
    for idx, rel in enumerate(frames_iter):
        result = probe(rel)
        if result is not None:
            return (idx, rel, result), idx + 1
    return None, idx + 1


def forward_check(
    properties,
    axiom: str | fm.Formula,
    rule: EvalRule,
    max_n: int,
    *,
    iso_reject: bool = True,
    workers: int = 1,
) -> ForwardResult:
    """Exhaustively check property => axiom on all frames up to max_n."""
    if max_n > 5:
        raise ValueError("forward_check is bounded at max_n <= 5")
    name, body = _resolve(axiom)
    props = tuple(properties)
    frames_before = 0
    for n in range(1, max_n + 1):

        def probe(rel):
            return frame_counterexample(body, rel, rule, force=True)

        hit, scanned = _scan_sized(
            enumerate_frames(n, props, iso_reject), probe, n, workers
        )
        if hit is not None:
            idx, rel, assignment = hit
            frame = PreferenceModel(n, rel)
            if truth_set(body, frame, rule, assignment=assignment) == frame.full_mask:
                raise AssertionError(f"counterexample does not falsify {name}")
            return ForwardResult(
                axiom=name,
                rule=rule,
                properties=props,
                max_n=max_n,
                status="counterexample",
                frames_checked=frames_before + idx + 1,
                counter_frame=rel,
                counter_assignment=assignment,
            )
        frames_before += scanned
    return ForwardResult(
        axiom=name,
        rule=rule,
        properties=props,
        max_n=max_n,
        status="confirmed",
        frames_checked=frames_before,
    )


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
            out["witness"] = {
                "n": self.witness.n,
                "rel": [list(p) for p in relation_pairs(self.witness.rel)],
                "valuation": {
                    a: list(worlds_from_mask(m))
                    for a, m in sorted(self.witness.valuation.items())
                },
                "model_text": serialize_model(self.witness),
            }
        return out


def converse_search(
    axiom: str | fm.Formula,
    prop: RelationProperty,
    rule: EvalRule,
    max_n: int,
    *,
    iso_reject: bool = True,
    workers: int = 1,
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
    frames_before = 0

    if model_level:
        names = tuple(sorted(fm.metavars(body)))
        for n in range(1, max_n + 1):
            frames_iter = (
                rel
                for rel in enumerate_frames(n, (), iso_reject)
                if not check_property(prop, rel)
            )

            def probe(rel):
                return first_valuation((body,), rel, rule, names)

            hit, scanned = _scan_sized(frames_iter, probe, n, workers)
            if hit is not None:
                idx, rel, env = hit
                witness = PreferenceModel(n, rel, dict(zip(names, env)))
                valid = truth_set(body, witness, rule, assignment=witness.valuation)
                if valid != witness.full_mask:
                    raise AssertionError(f"witness does not validate {name}")
                return ConverseResult(
                    axiom=name, rule=rule, prop=prop, max_n=max_n,
                    status="witness", frames_checked=frames_before + idx + 1,
                    model_level=True, witness=witness,
                )
            frames_before += scanned
        return ConverseResult(
            axiom=name, rule=rule, prop=prop, max_n=max_n,
            status="none_up_to_bound", frames_checked=frames_before, model_level=True,
        )

    for n in range(1, max_n + 1):
        frames_iter = (
            rel
            for rel in enumerate_frames(n, (), iso_reject)
            if not check_property(prop, rel)
        )

        def probe(rel):
            ok = frame_counterexample(body, rel, rule, force=True) is None
            return True if ok else None

        hit, scanned = _scan_sized(frames_iter, probe, n, workers)
        if hit is not None:
            idx, rel, _ = hit
            return ConverseResult(
                axiom=name, rule=rule, prop=prop, max_n=max_n,
                status="witness", frames_checked=frames_before + idx + 1,
                witness=PreferenceModel(n, rel),
            )
        frames_before += scanned
    return ConverseResult(
        axiom=name, rule=rule, prop=prop, max_n=max_n,
        status="none_up_to_bound", frames_checked=frames_before,
    )


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
) -> dict:
    """Run every row of the correspondence table for one evaluation rule.

    Correspondence rows get a forward check (with background) plus a
    dropped-property counterexample search over unconstrained frames; rows
    with no corresponding axiom are probed and reported as bounded evidence
    only (finiteness can validate axioms spuriously), so they carry no
    expectation.
    """
    if max_n > 4:
        raise ValueError("table_sweep is bounded at max_n <= 4")
    rows_out = []
    for row in _sweep_rows(rule):
        props = list(row["properties"]) + list(row["background"])
        axioms_out = {}
        row_match: bool | None = True
        for axiom in row["axioms"]:
            forward = forward_check(
                props, axiom, rule, max_n, iso_reject=iso_reject, workers=workers
            )
            entry = {"forward": forward.to_json()}
            if row["kind"] == "correspondence":
                dropped = forward_check(
                    (), axiom, rule, max_n, iso_reject=iso_reject, workers=workers
                )
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