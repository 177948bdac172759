"""Axiom-schema registry and the correspondence-checking harness.

The registry holds the S5 block for the global modality (K, T, Five), the
base axioms of system E (COK, Abs, Nec, Ext, Id, Sh), and the extension
axioms D* (Dstar), CM, DR, Sp, RM, plus the deontic-explosion schema DEX.
Schemata are written over the metavariables ?f, ?g, ?h.

``forward_check`` decides, by exhaustive enumeration up to a world bound,
whether every frame with a given set of betterness properties validates an
axiom schema, reporting the least counterexample frame otherwise.
``converse_search`` hunts for a frame (or, in model-level mode, a model)
validating the axiom while lacking the property.  Each is one
``SearchSpec`` search over the schema's metavariables: a forward check in
refute mode, a frame-level converse in valid mode and a model-level one in
satisfy mode; the search re-validates the witness.  Both return their JSON
report dict.  ``table_sweep`` runs the whole correspondence table for one
evaluation rule, including the documented background assumptions and, for
each correspondence row, a dropped-property counterexample search, n <= 5.

Rows whose property is known not to correspond to any axiom are reported
as bounded evidence only: at finite sizes some axioms can become valid as
an artifact of finiteness (e.g. every finite transitive frame is
max-limited, hence validates D* under the max rule), so these rows never
carry a pass/fail expectation.
"""

from __future__ import annotations

from . import formula as fm
from .finder import SearchSpec, find_satisfying_model
from .model import PreferenceModel, model_json, worlds_from_mask
from .relprops import RelationProperty
from .semantics import EvalRule, schema_names

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


def forward_check(
    properties,
    axiom: str | fm.Formula,
    rule: EvalRule,
    max_n: int,
    *,
    iso_reject: bool = True,
    deadline: float | None = None,
) -> dict:
    """Exhaustively check property => axiom on all frames up to max_n.

    Returns the report: status "confirmed", or "counterexample" with the
    least falsifying frame and metavariable assignment, which the search
    re-validates before it is reported.
    """
    name, body = _resolve(axiom)
    spec = SearchSpec(
        max_n=max_n, rule=rule, targets=(body,), properties=properties, atoms=schema_names(body),
        mode="refute", iso_reject=iso_reject, deadline=deadline,
    )
    found = find_satisfying_model(spec)
    report = {
        "axiom": name,
        "rule": rule.value,
        "properties": [p.value for p in spec.properties],
        "max_n": max_n,
        "status": "confirmed" if found.model is None else "counterexample",
        "frames_checked": found.frames_checked,
    }
    if found.model is not None:
        # The frame alone: the metavariable assignment is reported beside
        # it, not as a valuation.
        counter = model_json(PreferenceModel(found.model.n, found.model.rel))
        del counter["valuation"]
        counter["assignment"] = {
            var: list(worlds_from_mask(mask)) for var, mask in sorted(found.model.valuation.items())
        }
        report["counterexample"] = counter
    return report


def _resolve(axiom: str | fm.Formula) -> tuple[str, fm.Formula]:
    if isinstance(axiom, str):
        return axiom, schema(axiom)
    return fm.render(axiom), axiom


def converse_search(
    axiom: str | fm.Formula,
    prop: RelationProperty,
    rule: EvalRule,
    max_n: int,
    *,
    iso_reject: bool = True,
    deadline: float | None = None,
    model_level: bool = False,
) -> dict:
    """Search for a frame that validates the axiom yet lacks the property.

    Frame-level (default): a valid-mode search, so the axiom must hold under
    every assignment to its metavariables.  Model-level reproduces a
    fixed-valuation reading: a satisfy-mode search over the metavariables'
    valuations too, so a witness is a model in which that single instance
    holds.  Either way the search lacks the property (``SearchSpec.lacks``,
    which under lewis and max walks closures) and re-validates a witness
    before the report ("witness" or "none_up_to_bound") carries it.
    """
    name, body = _resolve(axiom)
    found = find_satisfying_model(SearchSpec(
        max_n=max_n, rule=rule, targets=(body,), atoms=schema_names(body),
        mode="satisfy" if model_level else "valid",
        iso_reject=iso_reject, deadline=deadline, lacks=prop,
    ))
    report = {
        "axiom": name,
        "rule": rule.value,
        "property": prop.value,
        "max_n": max_n,
        "level": "model" if model_level else "frame",
        "status": "none_up_to_bound" if found.model is None else "witness",
        "frames_checked": found.frames_checked,
    }
    if found.model is not None:
        report["witness"] = model_json(found.model)
    return report


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
    deadline: float | None = None,
) -> dict:
    """Run every row of the correspondence table for one evaluation rule.

    Correspondence rows get a forward check (with background) plus a
    dropped-property counterexample search over unconstrained frames; rows
    with no corresponding axiom are probed and reported as bounded evidence
    only (finiteness can validate axioms spuriously), so they carry no
    expectation.  Every check runs to the one deadline; rule is an EvalRule.
    The checks are independent: ``forks.fork_map`` runs them in parallel.
    """
    from .forks import fork_map  # compiled only when a table runs

    if not isinstance(rule, EvalRule):
        raise ValueError(f"{rule!r}: not an evaluation rule")
    rows = _sweep_rows(rule)
    checks = []  # (properties, axiom) per forward check, then its dropped-property check
    for row in rows:
        for axiom in row["axioms"]:
            checks.append((row["properties"] + row["background"], axiom))
            if row["kind"] == "correspondence":
                checks.append(((), axiom))
    reports = iter(fork_map(
        lambda check: forward_check(*check, rule, max_n, iso_reject=iso_reject, deadline=deadline),
        checks,
    ))

    rows_out = []
    for row in rows:
        axioms_out = {}
        for axiom in row["axioms"]:
            forward = next(reports)
            entry = {"forward": forward}
            if row["kind"] == "correspondence":
                dropped = next(reports)
                entry["dropped"] = dropped
                entry["match"] = forward["status"] == "confirmed" and dropped["status"] == "counterexample"
            elif row["kind"] == "unconditional":
                entry["match"] = forward["status"] == "confirmed"
            else:
                entry["match"] = None
            axioms_out[axiom] = entry
        rows_out.append(
            {
                "label": row["label"],
                "kind": row["kind"],
                "properties": [p.value for p in row["properties"]],
                "background": [p.value for p in row["background"]],
                "axioms": axioms_out,
                "match": (
                    None if row["kind"] == "no_correspondence"
                    else all(entry["match"] for entry in axioms_out.values())
                ),
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