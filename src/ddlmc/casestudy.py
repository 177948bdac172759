"""The mere-addition paradox, encoded and analyzed at finite scale.

Three populations are compared: A (high welfare), Ap ("A-plus", A together
with extra lives worth living) and B (same size as Ap, slightly higher
average welfare than Ap but below A).  The three pairwise judgments

* A is strictly better than B,
* Ap is at least as good as A,
* B is strictly better than Ap,

unfold, via the preference-on-formulas definitions, into the five
obligation/permission formulas EQ0..EQ4 below.  Jointly they are
satisfiable over an unconstrained betterness relation but clash with
transitivity; the analysis here charts exactly which weakenings of
transitivity keep them satisfiable, under each of the three evaluation
rules, by exhaustive search over finite models.

All UNSAT outcomes are reported as "unsat up to bound n=K", never as
unconditional inconsistency: a formula set can be unsatisfiable at every
finite size yet satisfiable in an infinite model, and infinite models are
out of scope for this tool.
"""

from __future__ import annotations

import time

from . import formula as fm
from .finder import (
    CYCLIC,
    SearchResult,
    SearchSpec,
    deadline_after,
    find_satisfying_model,
    longest_strict_chain,
)
from .model import model_json
from .relprops import RelationProperty, is_acyclic
from .semantics import EvalRule

ATOMS = ("A", "Ap", "B")

_EQ_SOURCES = (
    "P(A / A | B)",
    "P(Ap / A | Ap)",
    "O(~Ap / Ap | B)",
    "O(~B / A | B)",
    "P(B / Ap | B)",
)

EQ = tuple(fm.parse(src) for src in _EQ_SOURCES)

# The judgments, grouped: PP0 is "A > B", PP1 is "Ap >= A", PP2 is "B > Ap".
PP0 = (EQ[0], EQ[3])
PP1 = (EQ[1],)
PP2 = (EQ[2], EQ[4])
SCENARIO = EQ

# Sugar forms of the same judgments via the preference operators; these are
# semantically equivalent to the groups above (antecedent disjunctions
# commute extensionally).
PP0_SUGAR = fm.parse("A > B")
PP1_SUGAR = fm.parse("Ap >= A")
PP2_SUGAR = fm.parse("B > Ap")

_R = RelationProperty

GRID_ROWS = (
    ("none", ()),
    ("transitivity+totality", (_R.TRANSITIVE, _R.TOTAL)),
    ("transitivity", (_R.TRANSITIVE,)),
    ("interval order", (_R.INTERVAL_ORDER,)),
    ("quasi-transitivity", (_R.QUASI_TRANSITIVE,)),
    ("acyclicity", (_R.ACYCLIC,)),
)

GRID_RULES = (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS)

# Expected satisfiability pattern, keyed (row label, rule).  Cells marked
# finite_caveat are unsatisfiable at every finite size while satisfiable in
# an infinite model, so the finite outcome carries a caveat.
GRID_EXPECTED = {
    ("none", EvalRule.OPT): "sat",
    ("none", EvalRule.MAX): "sat",
    ("none", EvalRule.LEWIS): "sat",
    ("transitivity+totality", EvalRule.OPT): "unsat",
    ("transitivity+totality", EvalRule.MAX): "unsat",
    ("transitivity+totality", EvalRule.LEWIS): "unsat",
    ("transitivity", EvalRule.OPT): "unsat",
    ("transitivity", EvalRule.MAX): "unsat",
    ("transitivity", EvalRule.LEWIS): "unsat",
    ("interval order", EvalRule.OPT): "unsat",
    ("interval order", EvalRule.MAX): "unsat",
    ("interval order", EvalRule.LEWIS): "unsat",
    ("quasi-transitivity", EvalRule.OPT): "sat",
    ("quasi-transitivity", EvalRule.MAX): "unsat",
    ("quasi-transitivity", EvalRule.LEWIS): "sat",
    ("acyclicity", EvalRule.OPT): "sat",
    ("acyclicity", EvalRule.MAX): "sat",
    ("acyclicity", EvalRule.LEWIS): "sat",
}

_FINITE_CAVEAT = {
    ("transitivity", EvalRule.MAX),
    ("quasi-transitivity", EvalRule.MAX),
}


def _search(
    targets,
    properties,
    rule,
    max_n,
    *,
    iso_reject=True,
    timeout=None,
    frame_filter=None,
) -> SearchResult:
    spec = SearchSpec(
        max_n=max_n,
        rule=rule,
        targets=tuple(targets),
        properties=tuple(properties),
        atoms=ATOMS,
        iso_reject=iso_reject,
        timeout=timeout,
        frame_filter=frame_filter,
    )
    return find_satisfying_model(spec)


def _observed(result: SearchResult) -> str:
    return "sat" if result.status == "sat" else "unsat"


def _witness(result: SearchResult) -> dict | None:
    return None if result.model is None else model_json(result.model)


def run_grid(
    max_n: int = 4,
    *,
    rules=GRID_RULES,
    iso_reject: bool = True,
    workers: int = 1,
    timeout: float | None = None,
) -> dict:
    """Satisfiability of EQ0..EQ4 per property row and evaluation rule.

    One timeout covers the whole grid; workers is ignored (scans are serial).
    """
    if max_n > 5:
        raise ValueError("run_grid is bounded at max_n <= 5")
    deadline = deadline_after(timeout)
    cells = []
    for label, props in GRID_ROWS:
        for rule in rules:
            remaining = None if deadline is None else max(deadline - time.monotonic(), 0.01)
            result = _search(
                SCENARIO, props, rule, max_n,
                iso_reject=iso_reject, timeout=remaining,
            )
            expected = GRID_EXPECTED[(label, rule)]
            cell = {
                "row": label,
                "properties": [p.value for p in props],
                "rule": rule.value,
                "expected": expected,
                "observed": _observed(result),
                "status": result.status,
                "frames_checked": result.frames_checked,
                "match": _observed(result) == expected,
                "witness": _witness(result),
            }
            if (label, rule) in _FINITE_CAVEAT:
                cell["note"] = "unsatisfiable at finite sizes only; infinite models are out of scope"
            cells.append(cell)
    return {
        "formulas": [fm.render(f) for f in SCENARIO],
        "max_n": max_n,
        "iso_reject": iso_reject,
        "rules": [r.value for r in rules],
        "rows": [label for label, _ in GRID_ROWS],
        "cells": cells,
        "all_match": all(c["match"] for c in cells),
    }


def grid_text(report: dict) -> str:
    """Plain-text rendering of the grid, one row per property."""
    rules = report["rules"]
    width = max(len(r) for r in report["rows"]) + 2
    header = "property".ljust(width) + " | " + " | ".join(r.center(7) for r in rules)
    lines = [header, "-" * len(header)]
    by_key = {(c["row"], c["rule"]): c for c in report["cells"]}
    for row in report["rows"]:
        marks = []
        for rule in rules:
            cell = by_key[(row, rule)]
            mark = "SAT" if cell["observed"] == "sat" else "UNSAT"
            if not cell["match"]:
                mark += "!"
            marks.append(mark.center(7))
        lines.append(row.ljust(width) + " | " + " | ".join(marks))
    lines.append(
        f"bound n <= {report['max_n']}; UNSAT means no model up to the bound"
    )
    return "\n".join(lines)


def ascending_chain_evidence(
    max_n: int = 4,
    *,
    iso_reject: bool = True,
    timeout: float | None = None,
) -> dict:
    """EQ1..EQ3 under the max rule: unsatisfiable at every finite size once
    the strict part must be transitive, satisfiable without that.

    The unrestricted search reports the least witness; a second search
    restricted to frames with a strict cycle exhibits a cyclic witness
    (its longest strict chain is the CYCLIC marker), matching the chain
    argument that forces ever-better worlds under quasi-transitivity.
    """
    targets = (EQ[1], EQ[2], EQ[3])
    checks = []
    for props in ((_R.QUASI_TRANSITIVE,), (_R.TRANSITIVE,)):
        result = _search(
            targets, props, EvalRule.MAX, max_n,
            iso_reject=iso_reject, timeout=timeout,
        )
        checks.append(
            {
                "properties": [p.value for p in props],
                "status": result.status,
                "frames_checked": result.frames_checked,
                "per_n_frames": {str(k): v for k, v in result.per_n_frames.items()},
                "witness": _witness(result),
            }
        )

    free = _search(
        targets, (), EvalRule.MAX, max_n,
        iso_reject=iso_reject, timeout=timeout,
    )
    cyclic = _search(
        targets, (), EvalRule.MAX, max_n,
        iso_reject=iso_reject, timeout=timeout,
        frame_filter=lambda rel: not is_acyclic(rel),
    )
    cyclic_witness = _witness(cyclic)
    if cyclic.model is not None:
        if longest_strict_chain(cyclic.model) is not CYCLIC:
            raise AssertionError("the cyclic witness has no strict cycle")
        cyclic_witness["longest_strict_chain"] = "cyclic"

    return {
        "formulas": [fm.render(t) for t in targets],
        "rule": "max",
        "max_n": max_n,
        "with_property": checks,
        "without_property": {
            "status": free.status,
            "witness": _witness(free),
            "witness_acyclic": None if free.model is None else is_acyclic(free.model.rel),
        },
        "cyclic_witness": {
            "status": cyclic.status,
            "witness": cyclic_witness,
        },
        "note": (
            "smallest unrestricted witnesses need not contain a strict cycle; "
            "the cyclic witness is the least one among frames with a strict cycle"
        ),
    }


def interval_order_analysis(
    max_n: int = 4,
    *,
    iso_reject: bool = True,
    timeout: float | None = None,
) -> dict:
    """Satisfiability of EQ1, EQ3, EQ4 on interval orders under the max rule.

    Also reports two sanity checks ({EQ1, EQ3} alone on interval orders,
    and the triple with no property at all) and the four-formula variant
    {EQ1, EQ2, EQ3, EQ4}, whose interval-order unsatisfiability is what the
    pairwise-comparison argument actually yields.
    """
    io = (_R.INTERVAL_ORDER,)
    triple = (EQ[1], EQ[3], EQ[4])

    main = _search(triple, io, EvalRule.MAX, max_n,
                   iso_reject=iso_reject, timeout=timeout)
    without_eq4 = _search((EQ[1], EQ[3]), io, EvalRule.MAX, max_n,
                          iso_reject=iso_reject, timeout=timeout)
    no_props = _search(triple, (), EvalRule.MAX, max_n,
                       iso_reject=iso_reject, timeout=timeout)
    full = _search((EQ[1], EQ[2], EQ[3], EQ[4]), io, EvalRule.MAX, max_n,
                   iso_reject=iso_reject, timeout=timeout)

    return {
        "rule": "max",
        "max_n": max_n,
        "triple": {
            "formulas": [fm.render(t) for t in triple],
            "properties": ["interval_order"],
            "status": main.status,
            "frames_checked": main.frames_checked,
            "witness": _witness(main),
        },
        "without_eq4": {
            "formulas": [fm.render(EQ[1]), fm.render(EQ[3])],
            "properties": ["interval_order"],
            "status": without_eq4.status,
            "witness": _witness(without_eq4),
        },
        "triple_no_properties": {
            "status": no_props.status,
            "witness": _witness(no_props),
        },
        "with_eq2": {
            "formulas": [fm.render(f) for f in (EQ[1], EQ[2], EQ[3], EQ[4])],
            "properties": ["interval_order"],
            "status": full.status,
            "witness": _witness(full),
        },
    }


def fmp_evidence(
    max_n: int = 4,
    *,
    iso_reject: bool = True,
    timeout: float | None = None,
) -> dict:
    """EQ1 & EQ2 & EQ3 under the max rule has no finite model in the
    quasi-transitive, transitive, or interval-order classes up to the bound.

    Evidence for the failure of the finite model property: the conjunction
    is satisfiable in these classes only by infinite models, which this
    tool does not construct.
    """
    targets = (EQ[1], EQ[2], EQ[3])
    classes = (
        ("quasi_transitive", (_R.QUASI_TRANSITIVE,)),
        ("transitive", (_R.TRANSITIVE,)),
        ("interval_order", (_R.INTERVAL_ORDER,)),
    )
    checks = []
    for label, props in classes:
        result = _search(
            targets, props, EvalRule.MAX, max_n,
            iso_reject=iso_reject, timeout=timeout,
        )
        checks.append(
            {
                "class": label,
                "status": result.status,
                "frames_checked": result.frames_checked,
                "per_n_frames": {str(k): v for k, v in result.per_n_frames.items()},
            }
        )
    return {
        "formula": fm.render(fm.And(fm.And(EQ[1], EQ[2]), EQ[3])),
        "rule": "max",
        "max_n": max_n,
        "classes": checks,
        "note": (
            "bounded evidence only: the conjunction is satisfiable in infinite "
            "models of these classes, which are out of scope for this tool"
        ),
    }
