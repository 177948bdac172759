"""ddlmc benchmark: fixed CLI recipes, each run in a fresh interpreter.

    python3 bench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client.  Recipe runs go one at a time,
each in a fresh ``bench/child.py`` process started after the previous one
exits, because users pay per-invocation costs (``canonical_relations(5)``,
imports) on every CLI call.  A new run starts only while it is expected to
end within ``--seconds``; there is always at least one.  Every child is
killed and reaped past a wall-clock cap and counted as failed.

Every run's report is compared byte for byte with ``bench/golden/<name>.json``
and its known verdicts are checked; witnesses and counterexamples are
re-validated with the naive evaluator in ``tests/oracle.py``.  With
``--trace 1`` the runs alternate untraced and traced children and the
per-layer metrics of the traced ones are reported.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``wall_s`` and ``setup_s`` are scaled to a nominal host: the speed of the
shared host swings by up to 1.9x, so each child also times a fixed
pure-Python probe (``child.host_probe``) all through the import and the
call, and a time t during which the probe took p (harmonic mean) is
reported as t * NOMINAL_PROBE_S / p.  The raw times are in the ``record``
line.

The recipes are fixed, since the product is byte-identical reports; the seed
sets each child's ``PYTHONHASHSEED`` and, under ``--trace 1``, which child of
each pair goes first.  See bench/README.md for why each workload is here.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_PROBES = 15  # import-only children per run, for a steady setup_s
CHILD_CAP_S = 120.0  # a child past this is killed and its run fails
TOTAL_CAP_S = 170.0  # the whole benchmark ends within this
NOMINAL_PROBE_S = 0.0005  # times are reported as on a host where the probe takes this


# ---------------------------------------------------------------------------
# Known answers, written down independently of the package

GRID_ROWS = ("none", "transitivity+totality", "transitivity", "interval order",
             "quasi-transitivity", "acyclicity")
GRID_RULES = ("opt", "max", "lewis")
GRID_SAT = {
    ("none", "opt"), ("none", "max"), ("none", "lewis"),
    ("quasi-transitivity", "opt"), ("quasi-transitivity", "lewis"),
    ("acyclicity", "opt"), ("acyclicity", "max"), ("acyclicity", "lewis"),
}
GRID_FRAMES = 3565
TABLE_FRAMES = 25682
N5_FRAMES = 2186


class Oracle:
    """The naive evaluator of tests/oracle.py, loaded read-only."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        from ddlmc.formula import parse
        from ddlmc.schemas import SCHEMAS

        spec = importlib.util.spec_from_file_location("ddlmc_oracle", root / "tests" / "oracle.py")
        module = importlib.util.module_from_spec(spec)
        sys.dont_write_bytecode = True
        spec.loader.exec_module(module)
        self.parse = parse
        self.schemas = SCHEMAS
        self.truth_worlds = module.truth_worlds
        self.naive_properties = module.naive_properties

    def holds_everywhere(self, f, n, pairs, rule, valuation=None, assignment=None) -> bool:
        worlds = frozenset(range(n))
        return self.truth_worlds(f, worlds, pairs, valuation or {}, rule, assignment) == worlds


def _frame(witness: dict):
    return witness["n"], {tuple(p) for p in witness["rel"]}


def _missing_properties(oracle, n, pairs, props) -> list[str]:
    facts = oracle.naive_properties(n, pairs)
    return [p for p in props if not facts[p]]


def check_grid(report: dict, oracle: Oracle) -> list[str]:
    problems = []
    cells = {(c["row"], c["rule"]): c for c in report["cells"]}
    if set(cells) != set(product(GRID_ROWS, GRID_RULES)) or len(report["cells"]) != 18:
        problems.append("grid does not have the 18 expected cells")
    for key, cell in cells.items():
        if (cell["observed"] == "sat") != (key in GRID_SAT):
            problems.append(f"cell {key}: observed {cell['observed']}")
    if not report["all_match"]:
        problems.append("all_match is false")
    frames = sum(c["frames_checked"] for c in report["cells"])
    if frames != GRID_FRAMES:
        problems.append(f"{frames} frames checked, expected {GRID_FRAMES}")
    formulas = [oracle.parse(src) for src in report["formulas"]]
    for key, cell in cells.items():
        witness = cell["witness"]
        if (witness is not None) != (cell["observed"] == "sat"):
            problems.append(f"cell {key}: witness does not match the verdict")
        if witness is None:
            continue
        n, pairs = _frame(witness)
        valuation = {a: frozenset(ws) for a, ws in witness["valuation"].items()}
        for f, src in zip(formulas, report["formulas"]):
            if not oracle.holds_everywhere(f, n, pairs, cell["rule"], valuation=valuation):
                problems.append(f"cell {key}: oracle rejects {src} on the witness")
        for p in _missing_properties(oracle, n, pairs, cell["properties"]):
            problems.append(f"cell {key}: witness is not {p}")
    return problems


def check_table(report: dict, oracle: Oracle) -> list[str]:
    problems = []
    if not report["all_match"]:
        problems.append("all_match is false")
    frames = 0
    for row in report["rows"]:
        for axiom, entry in row["axioms"].items():
            for part, props in (("forward", row["properties"] + row["background"]), ("dropped", [])):
                result = entry.get(part)
                if result is None:
                    continue
                frames += result["frames_checked"]
                counter = result.get("counterexample")
                if (counter is not None) != (result["status"] == "counterexample"):
                    problems.append(f"{row['label']}/{axiom}/{part}: counterexample does not match status")
                if counter is None:
                    continue
                n, pairs = _frame(counter)
                assignment = {k: frozenset(ws) for k, ws in counter["assignment"].items()}
                schema = oracle.schemas[axiom]
                if oracle.holds_everywhere(schema, n, pairs, report["rule"], assignment=assignment):
                    problems.append(f"{row['label']}/{axiom}/{part}: oracle finds the schema true")
                for p in _missing_properties(oracle, n, pairs, props):
                    problems.append(f"{row['label']}/{axiom}/{part}: counterexample is not {p}")
    if frames != TABLE_FRAMES:
        problems.append(f"{frames} frames checked, expected {TABLE_FRAMES}")
    return problems


def check_n5(report: dict, oracle: Oracle) -> list[str]:
    problems = []
    if report["status"] != "unsat_up_to_bound":
        problems.append(f"status {report['status']}")
    if report["n_checked"] != N5_FRAMES:
        problems.append(f"{report['n_checked']} frames checked, expected {N5_FRAMES}")
    if report["witness"] is not None:
        problems.append("unexpected witness")
    return problems


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict, Oracle], list[str]]


WORKLOADS = {
    "grid": Workload(
        ("paradox", "--max-n", "4", "--timeout", "0", "--json"), 0, check_grid),
    "table_lewis_w2": Workload(
        ("correspond", "--table", "--rule", "lewis", "--max-n", "4", "--workers", "2",
         "--timeout", "0", "--json"), 0, check_table),
    # Exit 1 is the correct outcome: nothing is found up to the bound.
    "n5_transitive": Workload(
        ("find-model", "O(p/T)", "O(~p/T)", "<>T", "--props", "transitive",
         "--max-n", "5", "--timeout", "0", "--json"), 1, check_n5),
}

# ---------------------------------------------------------------------------
# Host record


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Children


class Clock:
    """Remaining time before the whole benchmark must end."""

    def __init__(self):
        self.start = perf_counter()

    def child_cap(self) -> float:
        return max(1.0, min(CHILD_CAP_S, TOTAL_CAP_S - (perf_counter() - self.start)))


def run_child(mode: str, argv, hash_seed: int, cap_s: float) -> tuple[dict | None, str | None]:
    """(child result, None) or (None, why it failed).  Never leaves it running."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), mode, *argv]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=cap_s)
    except subprocess.TimeoutExpired:
        return None, f"killed at the {cap_s:.0f} s cap"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(out.decode("utf-8").splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "child printed no result"


def recipe_run(workload: Workload, golden: bytes, oracle: Oracle, mode: str,
               hash_seed: int, clock: Clock) -> dict:
    run = {"mode": mode, "hash_seed": hash_seed}
    result, problem = run_child(mode, workload.argv, hash_seed, clock.child_cap())
    problems = [problem] if problem else []
    if result is not None:
        report = result.pop("report")
        run.update(result)
        if result["exit_code"] != workload.exit_code:
            problems.append(f"exit code {result['exit_code']}, expected {workload.exit_code}")
        if report.encode("utf-8") != golden:
            problems.append("report differs from the golden copy")
        try:
            problems += workload.check(json.loads(report), oracle)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"report unreadable: {exc!r}")
    run["problems"] = problems
    return run


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Recipe runs for about `seconds`, plus the import times of every child."""
    clock = Clock()
    workload = WORKLOADS[name]
    golden = (BENCH / "golden" / f"{name}.json").read_bytes()
    oracle = Oracle(ROOT)
    rng = random.Random(seed)

    setup = []
    for _ in range(SETUP_PROBES):
        result, problem = run_child("import", (), rng.randrange(2**32), clock.child_cap())
        if result is None:
            raise SystemExit(f"cannot import ddlmc.cli: {problem}")
        setup.append(adjusted(result["setup_s"], result["setup_probe_s"]))

    runs: list[dict] = []
    batches: list[float] = []
    deadline = perf_counter() + seconds
    while True:
        modes = ["run", "trace"] if trace else ["run"]
        rng.shuffle(modes)
        started = perf_counter()
        for mode in modes:
            runs.append(recipe_run(workload, golden, oracle, mode, rng.randrange(2**32), clock))
        batches.append(perf_counter() - started)
        expected_end = perf_counter() + statistics.median(batches)
        if expected_end > deadline or expected_end - clock.start > TOTAL_CAP_S:
            break
    setup += [adjusted(r["setup_s"], r["setup_probe_s"]) for r in runs if "setup_s" in r]
    return runs, setup


def adjusted(seconds: float, probe_s: float) -> float:
    """`seconds` as on a host where the probe takes NOMINAL_PROBE_S."""
    return seconds * NOMINAL_PROBE_S / probe_s


def _value_line(name: str, values, unit: str) -> str:
    med = statistics.median(values)
    return f"{name:32} {med:12.6g} {unit:6} n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "ddlmc" / "cli.py", ROOT / "tests" / "oracle.py",
              BENCH / "golden" / f"{args.workload}.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: missing {', '.join(absent)}; run from a ddlmc checkout", file=sys.stderr)
        return 2

    runs, setup = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = [r for r in runs if r["problems"]]
    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if r["mode"] == "run"]
    traced = [r for r in timed if r["mode"] == "trace"]
    if not plain or (args.trace and not traced):
        print("error: no run completed; " + "; ".join(failed[0]["problems"]), file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs, {len(failed)} failed, "
          f"fail_frac {len(failed) / len(runs):.6g} ratio (n={len(runs)})")
    for r in failed:
        print(f"FAILED {r['mode']} run: {'; '.join(r['problems'])}")

    samples: dict[str, tuple[list[float], str]] = {}
    if not args.trace:
        samples["wall_s"] = ([adjusted(r["wall_s"], r["probe_s"]) for r in plain], "s")
        samples["setup_s"] = (setup, "s")
        samples["peak_rss_mb"] = ([r["peak_rss_mb"] for r in plain], "MB")
    else:
        import spans

        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        for metric, unit in spans.PER_LAYER:
            if metric == "trace.overhead_s":
                samples[metric] = ([overhead], unit)
            else:
                samples[metric] = ([r["layers"][metric] for r in traced], unit)
        missing = sorted({m for r in traced for m in r["missing_spans"]})
        if missing:
            print(f"spans absent from this revision (zero calls): {', '.join(missing)}")
    for metric, (values, unit) in samples.items():
        print(_value_line(metric, values, unit))

    probes = [r["setup_probe_s"] for r in runs if "setup_probe_s" in r]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": ["ddlmc", *WORKLOADS[args.workload].argv],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "host_probe_s": {"min": min(probes), "median": statistics.median(probes), "max": max(probes)},
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {m: {"value": statistics.median(v), "unit": u} for m, (v, u) in samples.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
