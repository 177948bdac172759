"""Command-line front end: every check as a reproducible batch recipe.

Commands
--------
eval         evaluate a formula in a model file, printing its truth set
check-model  re-validate a model file against formulas and properties
find-model   search for a satisfying (or refuting) model
correspond   forward/converse correspondence checks and full table sweeps
collapse     confirm the three rules agree on reflexive total transitive frames
paradox      the mere-addition grid (satisfiability per property and rule)
lattice      implications and independence witnesses between relation properties
props        report which properties a model's relation has

Exit codes: 0 the requested confirmation/witness was obtained, 1 it was
refuted or nothing was found up to the bound, 2 usage error.

Reports are deterministic: identical argv produces byte-identical JSON.
Timing is therefore reported only with --timing (the elapsed_ms field is
null otherwise).  find-model, correspond and paradox stop at --timeout and
report "status": "timeout" (exit 1).  --workers is accepted and ignored:
scans are serial.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import casestudy
from .finder import SearchSpec, SearchTimeout, find_satisfying_model, longest_strict_chain
from .formula import ParseError, parse, render
from .model import ModelFormatError, parse_model, serialize_model, worlds_from_mask
from .relprops import (
    RelationProperty,
    check_property,
    lattice_report,
    property_from_name,
)
from .schemas import SCHEMAS, converse_search, forward_check, table_sweep
from .semantics import rule_collapse, rule_from_name, truth_set, valid_in_model

DEFAULT_TIMEOUT = 60.0


class UsageError(ValueError):
    pass


def _parse_props(text: str | None) -> tuple[RelationProperty, ...]:
    if not text:
        return ()
    try:
        return tuple(property_from_name(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_model(handle.read())
    except FileNotFoundError:
        raise UsageError(f"model file not found: {path}") from None
    except ModelFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"bad formula {text!r}: {exc}") from None


def _print_report(report: dict, args, started: float) -> None:
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000) if args.timing else None
    text = report.pop("_text", None)
    if args.json or text is None:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)


def _timeout(args) -> float | None:
    return None if args.timeout == 0 else args.timeout


# ---------------------------------------------------------------------------
# Command implementations (each returns the exit code)


def _cmd_eval(args) -> int:
    model = _read_model(args.model)
    rule = rule_from_name(args.rule)
    f = _parse_formula(args.formula)
    try:
        mask = truth_set(f, model, rule, strict_atoms=args.strict_atoms)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    valid = mask == model.full_mask
    report = {
        "command": "eval",
        "formula": render(f),
        "rule": rule.value,
        "true_at": list(worlds_from_mask(mask)),
        "n": model.n,
        "valid": valid,
        "_text": f"{render(f)}  [{rule}]\n"
        f"true at worlds: {sorted(worlds_from_mask(mask))} of 0..{model.n - 1}\n"
        f"valid in model: {'yes' if valid else 'no'}",
    }
    _print_report(report, args, args._started)
    return 0 if valid else 1


def _cmd_check_model(args) -> int:
    model = _read_model(args.model)
    rule = rule_from_name(args.rule)
    props = _parse_props(args.props)
    formulas = [_parse_formula(t) for t in args.formulas]
    prop_results = {p.value: check_property(p, model) for p in props}
    formula_results = {}
    for f in formulas:
        formula_results[render(f)] = valid_in_model(f, model, rule, strict_atoms=args.strict_atoms)
    ok = all(prop_results.values()) and all(formula_results.values())
    chain = longest_strict_chain(model)
    report = {
        "command": "check-model",
        "rule": rule.value,
        "n": model.n,
        "properties": prop_results,
        "formulas": formula_results,
        "longest_strict_chain": "cyclic" if chain is not None and not isinstance(chain, int) else chain,
        "ok": ok,
        "_text": "\n".join(
            [f"model: {args.model} (n={model.n}, rule={rule})"]
            + [f"  property {name}: {'ok' if v else 'FAIL'}" for name, v in prop_results.items()]
            + [f"  formula {name}: {'valid' if v else 'NOT VALID'}" for name, v in formula_results.items()]
            + [f"  => {'ok' if ok else 'FAIL'}"]
        ),
    }
    _print_report(report, args, args._started)
    return 0 if ok else 1


def _cmd_find_model(args) -> int:
    rule = rule_from_name(args.rule)
    props = _parse_props(args.props)
    targets = [_parse_formula(t) for t in args.targets]
    atoms = tuple(a.strip() for a in args.atoms.split(",") if a.strip()) if args.atoms else None
    try:
        spec = SearchSpec(
            max_n=args.max_n,
            rule=rule,
            targets=targets,
            properties=props,
            atoms=atoms,
            mode=args.mode,
            iso_reject=args.iso_reject,
            timeout=_timeout(args),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = find_satisfying_model(spec)
    report = {"command": "find-model", **result.to_json()}
    if result.model is not None:
        report["_text"] = (
            f"{result.status} (checked {result.frames_checked} frames)\n"
            + serialize_model(result.model).rstrip()
        )
    else:
        report["_text"] = f"{result.status} (checked {result.frames_checked} frames)"
    _print_report(report, args, args._started)
    requested_found = result.model is not None
    return 0 if requested_found else 1


def _cmd_correspond(args) -> int:
    rule = rule_from_name(args.rule)
    if args.table:
        report = table_sweep(rule, args.max_n, iso_reject=args.iso_reject, timeout=_timeout(args))
        report = {"command": "correspond", **report}
        lines = [f"correspondence table [{rule}] up to n={args.max_n}"]
        for row in report["rows"]:
            if row["kind"] == "no_correspondence":
                outcome = "no expectation (bounded evidence)"
            else:
                outcome = "ok" if row["match"] else "MISMATCH"
            axioms = ",".join(row["axioms"])
            props = "+".join(row["properties"]) or "(none)"
            lines.append(f"  {row['label']:<24} {props:<40} {axioms:<20} {outcome}")
        report["_text"] = "\n".join(lines)
        _print_report(report, args, args._started)
        return 0 if report["all_match"] else 1

    if not args.axiom:
        raise UsageError("correspond needs --table or --axiom")
    if args.axiom not in SCHEMAS:
        raise UsageError(f"unknown axiom {args.axiom!r}; known: {', '.join(sorted(SCHEMAS))}")

    if args.converse:
        prop = property_from_name(args.converse)
        result = converse_search(
            args.axiom, prop, rule, args.max_n,
            iso_reject=args.iso_reject, timeout=_timeout(args),
            model_level=args.model_level,
        )
        report = {"command": "correspond", **result.to_json()}
        report["_text"] = (
            f"converse {args.axiom} => {prop}: {result.status} "
            f"(checked {result.frames_checked} frames)"
        )
        if result.witness is not None:
            report["_text"] += "\n" + serialize_model(result.witness).rstrip()
        _print_report(report, args, args._started)
        return 0 if result.status == "witness" else 1

    props = _parse_props(args.props)
    result = forward_check(
        props, args.axiom, rule, args.max_n,
        iso_reject=args.iso_reject, timeout=_timeout(args),
    )
    report = {"command": "correspond", **result.to_json()}
    props_text = "+".join(p.value for p in props) or "(none)"
    report["_text"] = (
        f"forward {props_text} => {args.axiom} [{rule}]: {result.status} "
        f"(checked {result.frames_checked} frames)"
    )
    if result.counter_frame is not None:
        report["_text"] += "\n" + report["counterexample"]["model_text"].rstrip()
    _print_report(report, args, args._started)
    return 0 if result.confirmed else 1


def _cmd_collapse(args) -> int:
    report = rule_collapse(args.max_n, iso_reject=args.iso_reject)
    report = {"command": "collapse", **report}
    report["_text"] = (
        f"rule collapse on reflexive+total+transitive frames up to n={args.max_n}: "
        f"{report['status']} ({report['frames_checked']} frames)"
    )
    _print_report(report, args, args._started)
    return 0 if report["status"] == "confirmed" else 1


def _cmd_paradox(args) -> int:
    rules = tuple(rule_from_name(r) for r in args.rules.split(",")) if args.rules else casestudy.GRID_RULES
    report = casestudy.run_grid(
        args.max_n, rules=rules, iso_reject=args.iso_reject, timeout=_timeout(args)
    )
    report = {"command": "paradox", **report}
    report["_text"] = casestudy.grid_text(report)
    _print_report(report, args, args._started)
    return 0 if report["all_match"] else 1


def _cmd_lattice(args) -> int:
    report = {"command": "lattice", **lattice_report(args.max_n)}
    ok = all(a["status"] == "confirmed" for a in report["arrows"]) and all(
        i["status"] == "witness" for i in report["independence"]
    )
    lines = [f"property lattice up to n={args.max_n}"]
    for a in report["arrows"]:
        lines.append(f"  {a['from']} => {a['to']}: {a['status']} ({a['relations_checked']} relations)")
    misses = [i for i in report["independence"] if i["status"] != "witness"]
    lines.append(
        f"  independence witnesses: {len(report['independence']) - len(misses)}/{len(report['independence'])} found"
    )
    report["_text"] = "\n".join(lines)
    _print_report(report, args, args._started)
    return 0 if ok else 1


def _cmd_props(args) -> int:
    model = _read_model(args.model)
    results = {p.value: check_property(p, model) for p in RelationProperty}
    chain = longest_strict_chain(model)
    report = {
        "command": "props",
        "n": model.n,
        "properties": results,
        "longest_strict_chain": chain if isinstance(chain, int) else "cyclic",
        "_text": "\n".join(
            [f"model: {args.model} (n={model.n})"]
            + [f"  {name}: {'yes' if v else 'no'}" for name, v in results.items()]
            + [f"  longest strict chain: {chain if isinstance(chain, int) else 'cyclic'}"]
        ),
    }
    _print_report(report, args, args._started)
    return 0


# ---------------------------------------------------------------------------


def _add_common(sub, *, max_n_default: int | None = None) -> None:
    sub.add_argument("--rule", default="max", help="evaluation rule: opt, max or lewis")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--timing", action="store_true", help="fill in elapsed_ms (non-deterministic)")
    sub.add_argument("--workers", type=int, default=1, help="ignored; scans are serial")
    sub.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                     help="wall-clock budget in seconds for searches; 0 disables (default 60)")
    sub.add_argument("--iso-reject", dest="iso_reject", action="store_true", default=True,
                     help="enumerate one frame per isomorphism class (default)")
    sub.add_argument("--no-iso-reject", dest="iso_reject", action="store_false")
    sub.add_argument("--strict-atoms", action="store_true",
                     help="error on atoms missing from the valuation instead of reading them as empty")
    if max_n_default is not None:
        sub.add_argument("--max-n", type=int, default=max_n_default, help="world-count bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlmc",
        description="Finite-model checks for preference-based dyadic deontic logic.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("formula", help="formula text")
    _add_common(p)
    p.set_defaults(fn=_cmd_eval)

    p = commands.add_parser("check-model", help="re-validate a model against formulas/properties")
    p.add_argument("--model", required=True)
    p.add_argument("--props", default="", help="comma-separated properties to require")
    p.add_argument("formulas", nargs="*", help="formulas that must be valid in the model")
    _add_common(p)
    p.set_defaults(fn=_cmd_check_model)

    p = commands.add_parser("find-model", help="search for a satisfying or refuting model")
    p.add_argument("targets", nargs="+", help="target formulas")
    p.add_argument("--props", default="", help="comma-separated relation properties")
    p.add_argument("--atoms", default="", help="atom order for the valuation search")
    p.add_argument("--mode", choices=("satisfy", "refute"), default="satisfy")
    _add_common(p, max_n_default=5)
    p.set_defaults(fn=_cmd_find_model)

    p = commands.add_parser("correspond", help="property/axiom correspondence checks")
    p.add_argument("--table", action="store_true", help="run the full table for the rule")
    p.add_argument("--axiom", default="", help="axiom schema name")
    p.add_argument("--props", default="", help="properties for a forward check")
    p.add_argument("--converse", default="", help="property for a converse search")
    p.add_argument("--model-level", action="store_true",
                   help="converse search over models (fixed atoms) instead of frames")
    _add_common(p, max_n_default=3)
    p.set_defaults(fn=_cmd_correspond)

    p = commands.add_parser("collapse", help="check the three rules collapse on well-behaved frames")
    _add_common(p, max_n_default=4)
    p.set_defaults(fn=_cmd_collapse)

    p = commands.add_parser("paradox", help="mere-addition satisfiability grid")
    p.add_argument("--rules", default="", help="comma-separated rule subset (default all three)")
    _add_common(p, max_n_default=4)
    p.set_defaults(fn=_cmd_paradox)

    p = commands.add_parser("lattice", help="implications between relation properties")
    _add_common(p, max_n_default=4)
    p.set_defaults(fn=_cmd_lattice)

    p = commands.add_parser("props", help="report a model's relation properties")
    p.add_argument("--model", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_props)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    args._started = time.monotonic()
    try:
        return args.fn(args)
    except SearchTimeout:
        report = {"command": args.command, "status": "timeout", "max_n": args.max_n}
        _print_report(report, args, args._started)
        return 1
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
