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

Each command accepts only the options it reads.  Every command takes
--json and --timing.  eval, check-model, find-model and correspond take
--rule; eval and check-model also take --strict-atoms.  The five search
commands (find-model, correspond, collapse, paradox, lattice) take
--max-n and --timeout, and all of them but lattice take
--iso-reject/--no-iso-reject.  paradox picks its rules with --rules, and
correspond alone accepts --workers (and ignores it).  Anything else is a
usage error.  --props, --atoms and --rules take comma-separated lists; an
empty option means none (the default rules for --rules), and an empty
entry is a usage error.

correspond runs one mode: --table alone, --axiom with --props (a
forward check), or --axiom with --converse and optionally --model-level
(a converse search); options of another mode are usage errors.

Each command is a function from the parsed args to (report, text, ok):
the JSON report, its text form (None: print the JSON) and whether the
requested confirmation or witness was obtained.  None of them prints.
main alone adds "command" and "elapsed_ms" to the report, prints the JSON
under --json (or when text is None) and the text otherwise, and turns ok
into the exit code.  A search timeout becomes the report {"status":
"timeout", "max_n": ...} with no text, and goes out the same way.

Exit codes: 0 the requested confirmation/witness was obtained, 1 it was
refuted or nothing was found up to the bound, 2 usage error, 3 a forked
search process died.  A --max-n outside 1..5, a negative --timeout and a
formula nested too deeply (formula.MAX_DEPTH) are usage errors, reported
before any work.

Reports are deterministic: identical argv produces byte-identical JSON.
Timing is therefore reported only with --timing (the elapsed_ms field is
null otherwise).  --timeout (0: no limit) is turned into one deadline when
the command starts, and every search of the command stops at it and
reports "status": "timeout" (exit 1).  correspond --table, paradox and
lattice run their independent searches in one process per CPU this
process may run on (forks.fork_map), with the same report on any number
of CPUs; find-model, a forward or converse correspondence check and
collapse run one search each, so they have nothing to split.  A forked
process that dies (say, killed for memory) is reported as one "error:"
line with exit 3.

A call compiles only the modules its command runs: correspond imports
``schemas``, paradox ``casestudy`` and lattice ``lattice`` when it runs,
and the three tables import ``forks``.  It also builds only its command's
parser (COMMANDS); no command, -h or an unknown one builds all of them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .finder import SearchSpec, SearchTimeout, find_satisfying_model, rule_collapse
from .formula import ParseError, metavars, parse, render
from .model import ModelFormatError, parse_model, serialize_model, worlds_from_mask
from .relprops import RelationProperty, check_property, longest_strict_chain, property_from_name
from .semantics import rule_from_name, truth_set, valid_in_model

DEFAULT_TIMEOUT = 60.0


def _entries(text: str | None, option: str) -> list[str]:
    """The stripped entries of a comma-separated option: none when the
    option is empty, and an empty entry ("max," or "p,,q") is a usage
    error."""
    if not text:
        return []
    entries = [entry.strip() for entry in text.split(",")]
    if "" in entries:
        raise ValueError(f"{option} {text!r} has an empty entry")
    return entries


def _parse_props(text: str | None) -> tuple[RelationProperty, ...]:
    props = tuple(property_from_name(p) for p in _entries(text, "--props"))
    repeated = sorted({p.value for p in props if props.count(p) > 1})
    if repeated:
        raise ValueError(f"properties {repeated} are listed more than once")
    return props


def _read_model(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
            return parse_model(handle.read())
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
        raise ValueError(f"cannot read model file {path}: {getattr(exc, 'strerror', None) or exc}") from None
    except ModelFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise ValueError(f"bad formula {text!r}: {exc}") from None


def _parse_ground(texts: list[str], what: str) -> list:
    """Formulas read under a model's valuation, so with no metavariables."""
    formulas = [_parse_formula(t) for t in texts]
    for f in formulas:
        if metavars(f):
            raise ValueError(f"{what} contains metavariables: {render(f)}")
    return formulas


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}") from None
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a number of seconds >= 0, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# Command implementations: each maps the parsed args to (report, text, ok).


def _cmd_eval(args):
    model = _read_model(args.model)
    rule = rule_from_name(args.rule)
    f = _parse_formula(args.formula)
    mask = truth_set(f, model, rule, strict_atoms=args.strict_atoms)
    valid = mask == model.full_mask
    report = {
        "formula": render(f),
        "rule": rule.value,
        "true_at": list(worlds_from_mask(mask)),
        "n": model.n,
        "valid": valid,
    }
    text = (
        f"{render(f)}  [{rule}]\n"
        f"true at worlds: {sorted(worlds_from_mask(mask))} of 0..{model.n - 1}\n"
        f"valid in model: {'yes' if valid else 'no'}"
    )
    return report, text, valid


def _cmd_check_model(args):
    model = _read_model(args.model)
    rule = rule_from_name(args.rule)
    props = _parse_props(args.props)
    formulas = _parse_ground(args.formulas, "formula")
    prop_results = {p.value: check_property(p, model) for p in props}
    formula_results = {}
    for f in formulas:
        formula_results[render(f)] = valid_in_model(f, model, rule, strict_atoms=args.strict_atoms)
    ok = all(prop_results.values()) and all(formula_results.values())
    report = {
        "rule": rule.value,
        "n": model.n,
        "properties": prop_results,
        "formulas": formula_results,
        "longest_strict_chain": longest_strict_chain(model),
        "ok": ok,
    }
    text = "\n".join(
        [f"model: {args.model} (n={model.n}, rule={rule})"]
        + [f"  property {name}: {'ok' if v else 'FAIL'}" for name, v in prop_results.items()]
        + [f"  formula {name}: {'valid' if v else 'NOT VALID'}" for name, v in formula_results.items()]
        + [f"  => {'ok' if ok else 'FAIL'}"]
    )
    return report, text, ok


def _cmd_find_model(args):
    rule = rule_from_name(args.rule)
    props = _parse_props(args.props)
    targets = _parse_ground(args.targets, "target")
    atoms = tuple(_entries(args.atoms, "--atoms")) or None
    spec = SearchSpec(
        max_n=args.max_n,
        rule=rule,
        targets=targets,
        properties=props,
        atoms=atoms,
        mode=args.mode,
        iso_reject=args.iso_reject,
        deadline=args.deadline,
    )
    result = find_satisfying_model(spec)
    text = f"{result.status} (checked {result.frames_checked} frames)"
    if result.model is not None:
        text += "\n" + serialize_model(result.model).rstrip()
    return result.to_json(), text, result.model is not None


def _cmd_correspond(args):
    from . import schemas

    rule = rule_from_name(args.rule)
    forward_or_converse = [
        flag for flag, value in (("--axiom", args.axiom), ("--props", args.props),
                                 ("--converse", args.converse), ("--model-level", args.model_level))
        if value
    ]
    if args.table and forward_or_converse:
        raise ValueError(f"correspond --table does not read {', '.join(forward_or_converse)}")
    if args.converse and args.props:
        raise ValueError("correspond --converse does not read --props")
    if args.model_level and not args.converse:
        raise ValueError("correspond --model-level needs --converse")
    if args.table:
        report = schemas.table_sweep(rule, args.max_n, iso_reject=args.iso_reject, deadline=args.deadline)
        lines = [f"correspondence table [{rule}] up to n={args.max_n}"]
        for row in report["rows"]:
            if row["kind"] == "no_correspondence":
                outcome = "no expectation (bounded evidence)"
            else:
                outcome = "ok" if row["match"] else "MISMATCH"
            axioms = ",".join(row["axioms"])
            props = "+".join(row["properties"]) or "(none)"
            lines.append(f"  {row['label']:<24} {props:<40} {axioms:<20} {outcome}")
        return report, "\n".join(lines), report["all_match"]

    if not args.axiom:
        raise ValueError("correspond needs --table or --axiom")
    if args.axiom not in schemas.SCHEMAS:
        raise ValueError(f"unknown axiom {args.axiom!r}; known: {', '.join(sorted(schemas.SCHEMAS))}")

    if args.converse:
        prop = property_from_name(args.converse)
        report = schemas.converse_search(
            args.axiom, prop, rule, args.max_n,
            iso_reject=args.iso_reject, deadline=args.deadline,
            model_level=args.model_level,
        )
        witness = report.get("witness")
        heading = f"converse {args.axiom} => {prop}"
        ok = witness is not None
    else:
        props = _parse_props(args.props)
        report = schemas.forward_check(
            props, args.axiom, rule, args.max_n,
            iso_reject=args.iso_reject, deadline=args.deadline,
        )
        witness = report.get("counterexample")
        heading = f"forward {'+'.join(p.value for p in props) or '(none)'} => {args.axiom} [{rule}]"
        ok = witness is None
    text = f"{heading}: {report['status']} (checked {report['frames_checked']} frames)"
    if witness is not None:
        text += "\n" + witness["model_text"].rstrip()
    return report, text, ok


def _cmd_collapse(args):
    report = rule_collapse(args.max_n, iso_reject=args.iso_reject, deadline=args.deadline)
    text = (
        f"rule collapse on reflexive+total+transitive frames up to n={args.max_n}: "
        f"{report['status']} ({report['frames_checked']} frames)"
    )
    return report, text, report["status"] == "confirmed"


def _cmd_paradox(args):
    from . import casestudy

    rules = tuple(rule_from_name(r) for r in _entries(args.rules, "--rules")) or casestudy.GRID_RULES
    report = casestudy.run_grid(
        args.max_n, rules=rules, iso_reject=args.iso_reject, deadline=args.deadline
    )
    return report, casestudy.grid_text(report), report["all_match"]


def _cmd_lattice(args):
    from .lattice import lattice_report

    report = lattice_report(args.max_n, deadline=args.deadline)
    ok = all(i["status"] == "witness" for i in report["independence"])  # a failed arrow raises
    lines = [f"property lattice up to n={args.max_n}"]
    for a in report["arrows"]:
        lines.append(f"  {a['from']} => {a['to']}: {a['status']} ({a['relations_checked']} relations)")
    misses = [i for i in report["independence"] if i["status"] != "witness"]
    lines.append(
        f"  independence witnesses: {len(report['independence']) - len(misses)}/{len(report['independence'])} found"
    )
    return report, "\n".join(lines), ok


def _cmd_props(args):
    model = _read_model(args.model)
    results = {p.value: check_property(p, model) for p in RelationProperty}
    chain = longest_strict_chain(model)
    report = {"n": model.n, "properties": results, "longest_strict_chain": chain}
    text = "\n".join(
        [f"model: {args.model} (n={model.n})"]
        + [f"  {name}: {'yes' if v else 'no'}" for name, v in results.items()]
        + [f"  longest strict chain: {chain}"]
    )
    return report, text, True


# ---------------------------------------------------------------------------


# Option groups of (flag, add_argument keywords), shared by the commands that read them
_OUTPUT = (("--json", dict(action="store_true", help="emit a JSON report")),
           ("--timing", dict(action="store_true", help="fill in elapsed_ms (non-deterministic)")))
_RULE = (("--rule", dict(default="max", help="evaluation rule: opt, max or lewis")),)
_STRICT_ATOMS = (("--strict-atoms", dict(
    action="store_true", help="error on atoms missing from the valuation instead of reading them as empty")),)
_SEARCH = (("--timeout", dict(type=_seconds, default=DEFAULT_TIMEOUT,
                              help="wall-clock budget in seconds; 0 disables (default 60)")),)
_ISO_REJECT = (("--iso-reject", dict(action=argparse.BooleanOptionalAction, default=True,
                                     help="enumerate one frame per isomorphism class (default)")),)

# name: (fn, summary, default --max-n or None, option groups, own options);
# a command's parser takes its groups, then --max-n, then its own options
COMMANDS = {
    "eval": (_cmd_eval, "evaluate a formula in a model", None, (_RULE, _STRICT_ATOMS, _OUTPUT), (
        ("--model", dict(required=True, help="model file")),
        ("formula", dict(help="formula text")))),
    "check-model": (_cmd_check_model, "re-validate a model against formulas/properties", None,
                    (_RULE, _STRICT_ATOMS, _OUTPUT), (
        ("--model", dict(required=True)),
        ("--props", dict(default="", help="comma-separated properties to require")),
        ("formulas", dict(nargs="*", help="formulas that must be valid in the model")))),
    "find-model": (_cmd_find_model, "search for a satisfying or refuting model", 5,
                   (_RULE, _SEARCH, _ISO_REJECT, _OUTPUT), (
        ("targets", dict(nargs="+", help="target formulas")),
        ("--props", dict(default="", help="comma-separated relation properties")),
        ("--atoms", dict(default="", help="atom order for the valuation search")),
        ("--mode", dict(choices=("satisfy", "refute"), default="satisfy")))),
    "correspond": (_cmd_correspond, "property/axiom correspondence checks", 3,
                   (_RULE, _SEARCH, _ISO_REJECT, _OUTPUT), (
        ("--table", dict(action="store_true", help="run the full table for the rule")),
        ("--axiom", dict(default="", help="axiom schema name")),
        ("--props", dict(default="", help="properties for a forward check")),
        ("--converse", dict(default="", help="property for a converse search")),
        ("--model-level", dict(action="store_true",
                               help="converse search over models (fixed atoms) instead of frames")),
        ("--workers", dict(type=int, default=1,
                           help="accepted and ignored: --table runs its checks in one process per CPU")))),
    "collapse": (_cmd_collapse, "check the three rules collapse on well-behaved frames", 4,
                 (_SEARCH, _ISO_REJECT, _OUTPUT), ()),
    "paradox": (_cmd_paradox, "mere-addition satisfiability grid", 4, (_SEARCH, _ISO_REJECT, _OUTPUT), (
        ("--rules", dict(default="", help="comma-separated rule subset (default all three)")),)),
    "lattice": (_cmd_lattice, "implications between relation properties", 4, (_SEARCH, _OUTPUT), ()),
    "props": (_cmd_props, "report a model's relation properties", None, (_OUTPUT,), (
        ("--model", dict(required=True)),)),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with the subcommands in names, by default all of them."""
    parser = argparse.ArgumentParser(
        prog="ddlmc", description="Finite-model checks for preference-based dyadic deontic logic.")
    # a top-level usage line names every command, however many are built
    every = None if list(names) == list(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        fn, summary, max_n, groups, own = COMMANDS[name]
        sub = commands.add_parser(name, help=summary)
        options = [option for group in groups for option in group]
        if max_n is not None:
            options.append(("--max-n", dict(type=int, default=max_n, help=f"world-count bound (default {max_n})")))
        for flag, keywords in options + list(own):
            sub.add_argument(flag, **keywords)
        sub.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the command's parser; no command, -h or an unknown one gets them all
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    started = time.monotonic()
    timeout = getattr(args, "timeout", 0)  # 0: no limit
    args.deadline = started + timeout if timeout else None
    try:
        report, text, ok = args.fn(args)
    except SearchTimeout:
        report, text, ok = {"status": "timeout", "max_n": args.max_n}, None, False
    except ValueError as exc:  # a usage error, raised by any layer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChildProcessError as exc:  # from forks.fork_map
        print(f"error: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.monotonic() - started) * 1000) if args.timing else None
    report = {"command": args.command, **report, "elapsed_ms": elapsed_ms}
    print(json.dumps(report, indent=2, sort_keys=True) if args.json or text is None else text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
