"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Bounds and tolerances are pinned here; every check is
exact (exhaustive enumeration), timing targets are informational.

Criterion 10 is split.  An upstream claim holds the {EQ1, EQ3, EQ4} triple
unsatisfiable on interval orders under the max rule; it is false.  The
three-world interval order in which world 2 is strictly better than world 0
and every other pair is tied, with A={2}, Ap={1}, B={0}, satisfies the
triple: max{A,Ap}={1,2} holds an Ap-world (EQ1), max{A,B}={2} is ~B (EQ3),
max{Ap,B}={0,1} holds a B-world (EQ4).  The clash needs EQ2 as well, which
that model violates (1 is a maximal Ap-world of {Ap,B}).  So 10a pins the
refutation, re-validated against the naive oracle, and the exhaustion of
{EQ1..EQ4}; 10b checks that {EQ1, EQ3} alone is satisfiable.  Criteria 09
to 11 read the minimal unsatisfiable and maximal satisfiable subsets of
EQ0..EQ4 that ``finder.cores`` reports.
"""

from __future__ import annotations

import json
import random
import time

from ddlmc.casestudy import ATOMS, EQ, run_grid
from ddlmc.finder import SearchSpec, cores, find_satisfying_model, rule_collapse
from ddlmc.lattice import Confirmed, lattice_report, property_implication
from ddlmc.model import PreferenceModel, model_json, parse_model
from ddlmc.relprops import (
    CYCLIC,
    RelationProperty as P,
    check_property,
    longest_strict_chain,
)
from ddlmc.schemas import forward_check, table_sweep
from ddlmc.semantics import EvalRule, truth_set

from oracle import naive_properties, random_formula, random_model_data, truth_worlds

E_BLOCK = ("COK", "Abs", "Nec", "Ext", "Id", "Sh", "K", "T", "Five")
FEW_VARS = ("Abs", "Nec", "Id", "K", "T", "Five")  # at most two metavariables


def _line(num: str, ok: bool, text: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.monotonic() - started:.1f}s) {text}")


def test_criterion_01_e_axiom_validity():
    t0 = time.monotonic()
    ok = True
    for rule in (EvalRule.OPT, EvalRule.MAX):
        for name in E_BLOCK:
            ok = ok and forward_check([], name, rule, 3, iso_reject=False)["status"] == "confirmed"
        for name in FEW_VARS:
            ok = ok and forward_check([], name, rule, 4, iso_reject=True)["status"] == "confirmed"
    _line("01", ok, "E axioms + S5 block frame-valid (opt, max), n<=3 all frames, "
          "n<=4 for <=2-metavariable schemata; target <10s", t0)
    assert ok


def _sweep_assertions(report: dict, expected_rows: dict[str, list[str]]) -> bool:
    rows = {r["label"]: r for r in report["rows"]}
    ok = report["all_match"]
    for label, axioms in expected_rows.items():
        for axiom in axioms:
            entry = rows[label]["axioms"][axiom]
            ok = ok and entry["forward"]["status"] == "confirmed"
            if "dropped" in entry:
                ok = ok and entry["dropped"]["status"] == "counterexample"
    return ok


def test_criterion_02_table1_sweep():
    t0 = time.monotonic()
    max_report = table_sweep(EvalRule.MAX, 3)
    opt_report = table_sweep(EvalRule.OPT, 3)
    ok = _sweep_assertions(
        max_report,
        {"limitedness": ["Dstar"], "smoothness": ["CM"],
         "transitivity+totality": ["Sp"], "interval order": ["DR"]},
    )
    ok = ok and _sweep_assertions(
        opt_report,
        {"limitedness": ["Dstar"], "smoothness": ["CM"],
         "transitivity": ["Sp"], "interval order": ["DR"]},
    )
    _line("02", ok, "correspondence table (max, opt) at n<=3: forward rows confirmed, "
          "dropped-property counterexamples found; target <2min", t0)
    assert ok


def test_criterion_03_table2_lewis_sweep():
    t0 = time.monotonic()
    report = table_sweep(EvalRule.LEWIS, 3)
    rows = {r["label"]: r for r in report["rows"]}
    ok = _sweep_assertions(
        report,
        {"totality": ["Dstar"], "transitivity": ["Sp"],
         "transitivity+totality": ["COK", "CM"],
         "unconditional": ["Abs", "Nec", "Ext", "Id", "Sh"]},
    )
    ok = ok and rows["transitivity+totality"]["axioms"]["COK"]["dropped"]["status"] == "counterexample"
    _line("03", ok, "Lewis correspondence table at n<=3: totality->D*, transitivity->Sp, "
          "both->COK+CM, unconditional axioms, COK counterexample; target <2min", t0)
    assert ok


def test_criterion_04_deontic_explosion():
    t0 = time.monotonic()
    valid_max = forward_check([], "DEX", EvalRule.MAX, 3, iso_reject=False)["status"] == "confirmed"
    lewis = forward_check([], "DEX", EvalRule.LEWIS, 3)
    ok = valid_max and lewis["status"] == "counterexample" and lewis["counterexample"]["n"] <= 3
    _line("04", ok, "DEX frame-valid under max at n<=3; Lewis countermodel frame found", t0)
    assert ok


def test_criterion_05_rule_collapse():
    t0 = time.monotonic()
    report = rule_collapse(4, iso_reject=False)
    ok = report["status"] == "confirmed" and report["frames_checked"] == 1 + 3 + 13 + 75
    _line("05", ok, "opt/max/lewis conditionals coincide on every reflexive total "
          "transitive frame n<=4, all antecedent/consequent pairs", t0)
    assert ok


def test_criterion_06_lattice():
    t0 = time.monotonic()
    report = lattice_report(4)
    arrows_ok = (
        len(report["arrows"]) == 6
        and all(a["status"] == "confirmed" for a in report["arrows"])
    )
    witnesses_ok = all(i["status"] == "witness" for i in report["independence"])
    for item in report["independence"]:
        rel = tuple(item["witness_rel"] or ())
        witnesses_ok = witnesses_ok and check_property(
            next(p for p in P if p.value == item["from"]), rel
        ) and not check_property(next(p for p in P if p.value == item["to"]), rel)
    ok = arrows_ok and witnesses_ok
    _line("06", ok, "transitivity-weakening lattice: six arrows confirmed exhaustively "
          f"at n<=4, {len(report['independence'])} independence witnesses verified", t0)
    assert ok


def test_criterion_07_interval_order_characterization():
    t0 = time.monotonic()
    r1 = property_implication(P.INTERVAL_ORDER, (P.REFLEXIVE, P.FERRERS), 4)
    r2 = property_implication((P.REFLEXIVE, P.FERRERS), P.INTERVAL_ORDER, 4)
    r3 = property_implication((P.REFLEXIVE, P.FERRERS), P.TOTAL, 4)
    ok = all(isinstance(r, Confirmed) for r in (r1, r2, r3))
    _line("07", ok, "interval order = reflexive + Ferrers, and reflexive+Ferrers => "
          "total, confirmed exhaustively at n<=4", t0)
    assert ok


def _revalidate_grid(report: dict) -> bool:
    ok = True
    for cell in report["cells"]:
        if cell["witness"] is None:
            continue
        m = parse_model(cell["witness"]["model_text"])
        rule = EvalRule(cell["rule"])
        for f in EQ:
            ok = ok and truth_set(f, m, rule) == m.full_mask
        for prop_name in cell["properties"]:
            prop = next(p for p in P if p.value == prop_name)
            ok = ok and check_property(prop, m)
    return ok


def test_criterion_08_mere_addition_grid():
    t0 = time.monotonic()
    report = run_grid(4, iso_reject=True)
    ok = report["all_match"] and _revalidate_grid(report)
    sat_cells = sum(1 for c in report["cells"] if c["observed"] == "sat")
    _line("08", ok, f"mere-addition grid at n<=4 matches the expected pattern "
          f"({sat_cells}/18 SAT cells, witnesses re-validated); target <15min", t0)
    assert ok


def _max_cores(prop) -> dict:
    return cores(SearchSpec(4, EvalRule.MAX, EQ, prop, ATOMS))


def _holds(f, w, rule="max") -> bool:
    """f true at every world of the witness w, by the naive oracle."""
    pairs = {tuple(p) for p in w["rel"]}
    valuation = {a: frozenset(ws) for a, ws in w["valuation"].items()}
    return truth_worlds(f, range(w["n"]), pairs, valuation, rule) == frozenset(range(w["n"]))


def test_criterion_09_ascending_chain_evidence():
    t0 = time.monotonic()
    ok = all(
        [c["targets"] for c in _max_cores(prop)["minimal_unsatisfiable"]] == [[1, 2, 3]]
        for prop in (P.QUASI_TRANSITIVE, P.TRANSITIVE)
    )
    cyclic = find_satisfying_model(SearchSpec(
        4, EvalRule.MAX, (EQ[1], EQ[2], EQ[3]), atoms=ATOMS, lacks=P.ACYCLIC,
    ))
    ok = ok and cyclic.status == "sat"
    if ok:
        w = model_json(cyclic.model)
        ok = longest_strict_chain(cyclic.model) is CYCLIC
        ok = ok and not naive_properties(w["n"], {tuple(p) for p in w["rel"]})["acyclic"]
        ok = ok and all(_holds(f, w) for f in (EQ[1], EQ[2], EQ[3]))
    _line("09", ok, "{EQ1,EQ2,EQ3} is the one core under max + (quasi-)transitivity "
          "at n<=4; sat without the property, incl. a verified strict-cycle witness", t0)
    assert ok


def test_criterion_10a_interval_order_analysis_unsat_claim():
    t0 = time.monotonic()
    report = _max_cores(P.INTERVAL_ORDER)
    # {EQ1..EQ4} holds the one core; the triple {EQ1, EQ3, EQ4} lies in the
    # maximal satisfiable {EQ0, EQ1, EQ3, EQ4}, whose least witness is the
    # three-world interval order of the module docstring
    ok = [c["targets"] for c in report["minimal_unsatisfiable"]] == [[1, 2, 3]]
    (w,) = [s["witness"] for s in report["maximal_satisfiable"] if {1, 3, 4} <= set(s["targets"])]
    ok = ok and w["model_text"] == (
        "worlds 3\nrel 0>=0 0>=1 1>=0 1>=1 1>=2 2>=0 2>=1 2>=2\n"
        "val A = {2}\nval Ap = {1}\nval B = {0}\n"
    )
    if ok:
        pairs = {tuple(p) for p in w["rel"]}
        valuation = {a: frozenset(ws) for a, ws in w["valuation"].items()}
        ok = naive_properties(3, pairs)["interval_order"]
        ok = ok and all(_holds(f, w) for f in (EQ[1], EQ[3], EQ[4]))
        ok = ok and truth_worlds(EQ[2], range(3), pairs, valuation, "max") == frozenset()
    _line("10a", ok, "{EQ1,EQ3,EQ4} unsat claim refuted: 3-world interval-order "
          "witness under max (oracle-checked, EQ2 false on it); {EQ1..EQ4} unsat "
          "at n<=4", t0)
    assert ok


def test_criterion_10b_interval_order_analysis_sat_without_eq4():
    t0 = time.monotonic()
    # {EQ1, EQ3} holds no core, so a maximal satisfiable set contains it
    report = _max_cores(P.INTERVAL_ORDER)
    ok = [c["targets"] for c in report["minimal_unsatisfiable"]] == [[1, 2, 3]]
    ok = ok and any(
        {1, 3} <= set(s["targets"]) and _holds(EQ[1], s["witness"]) and _holds(EQ[3], s["witness"])
        for s in report["maximal_satisfiable"]
    )
    _line("10b", ok, "{EQ1,EQ3} sat under max + interval order (EQ4 dropped)", t0)
    assert ok


def test_criterion_11_fmp_evidence():
    t0 = time.monotonic()
    ok = all(
        [c["targets"] for c in _max_cores(prop)["minimal_unsatisfiable"]] == [[1, 2, 3]]
        for prop in (P.QUASI_TRANSITIVE, P.TRANSITIVE, P.INTERVAL_ORDER)
    )
    _line("11", ok, "EQ1&EQ2&EQ3 is the one core under max for quasi-transitive, "
          "transitive and interval-order classes at every n<=4", t0)
    assert ok


def test_criterion_12_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(424242)
    rules = (EvalRule.OPT, EvalRule.MAX, EvalRule.LEWIS)
    ok = True
    for _ in range(1000):
        n, pairs, valuation = random_model_data(rng, 3, ("p", "q", "r"))
        f = random_formula(rng, depth=4, atom_names=("p", "q", "r"))
        rule = rng.choice(rules)
        m = PreferenceModel.from_pairs(n, pairs, valuation)
        expected = truth_worlds(f, range(n), pairs, valuation, rule.value)
        got = truth_set(f, m, rule)
        ok = ok and got == sum(1 << w for w in expected)
    _line("12", ok, "truth sets agree with the independent naive evaluator on "
          "1000 fuzzed (formula<=depth4, model n<=3, rule) triples", t0)
    assert ok


def test_criterion_13_determinism():
    t0 = time.monotonic()

    def dump(report: dict) -> bytes:
        return json.dumps(report, indent=2, sort_keys=True).encode()

    ok = True
    sweeps = set()
    for _ in range(3):
        blob = b""
        for rule in (EvalRule.MAX, EvalRule.OPT, EvalRule.LEWIS):
            blob += dump(table_sweep(rule, 3))
        sweeps.add(blob)
    ok = ok and len(sweeps) == 1

    grids = {dump(run_grid(4)) for _ in range(2)}
    ok = ok and len(grids) == 1
    _line("13", ok, "criteria 2/3/8 reports byte-identical across repeat runs", t0)
    assert ok
