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
transitivity; the grid here charts exactly which weakenings of
transitivity keep them satisfiable, under each of the three evaluation
rules, by exhaustive search over finite models.  Which judgments clash in
a cell is ``finder.cores`` on ``SearchSpec(max_n, rule, EQ, properties,
ATOMS)``: the minimal unsatisfiable subsets of EQ0..EQ4 and the maximal
satisfiable ones, each with its least witness.

All UNSAT outcomes are reported as "unsat up to bound n=K", never as
unconditional inconsistency: a formula set can be unsatisfiable at every
finite size yet satisfiable in an infinite model, and infinite models are
out of scope for this tool.

The grid hands every search the caller's deadline, a ``time.monotonic()``
value (None: no limit), so one deadline covers the whole grid.
"""

from __future__ import annotations

from . import formula as fm
from .finder import SearchSpec, find_satisfying_model
from .model import model_json
from .relprops import RelationProperty
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


def run_grid(
    max_n: int = 4,
    *,
    rules=GRID_RULES,
    iso_reject: bool = True,
    deadline: float | None = None,
) -> dict:
    """Satisfiability of EQ0..EQ4 per property row and evaluation rule.

    One deadline covers the whole grid; a repeated rule is rejected.  The
    rows are independent: ``forks.fork_map`` runs them in parallel, a row's
    searches in one process so that they share its class builds.
    """
    from .forks import fork_map  # compiled only when a table runs

    rules = tuple(rules)
    repeated = sorted({r.value for r in rules if rules.count(r) > 1})
    if repeated:
        raise ValueError(f"rules {repeated} are listed more than once")

    def row_cells(row):
        label, props = row
        cells = []
        for rule in rules:
            result = find_satisfying_model(SearchSpec(
                max_n, rule, SCENARIO, props, ATOMS, iso_reject=iso_reject, deadline=deadline,
            ))
            expected = GRID_EXPECTED[(label, rule)]
            observed = "sat" if result.status == "sat" else "unsat"
            cell = {
                "row": label,
                "properties": [p.value for p in props],
                "rule": rule.value,
                "expected": expected,
                "observed": observed,
                "status": result.status,
                "frames_checked": result.frames_checked,
                "match": observed == expected,
                "witness": None if result.model is None else model_json(result.model),
            }
            if (label, rule) in _FINITE_CAVEAT:
                cell["note"] = "unsatisfiable at finite sizes only; infinite models are out of scope"
            cells.append(cell)
        return cells

    cells = [cell for row in fork_map(row_cells, GRID_ROWS) for cell in row]
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
