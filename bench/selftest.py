"""Self-test of the benchmark; takes about four minutes.

    python3 bench/selftest.py

Checks that
- two traced runs of the same code give identical deterministic counts on
  every workload (counts that depend on thread timing are printed with
  their spread instead);
- every per-layer metric listed in BENCHMARK.json is reported on every
  workload, and the end-to-end run reports every end-to-end metric;
- span self times add up to the traced cli.main total;
- a boundary whose function no longer exists reports zero calls;
- a child past its cap is killed, reaped and counted as failed.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ddlmc.cli  # noqa: E402
import ddlmc.finder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

DETERMINISTIC = (
    "model.classes",
    "relprops.frames_tested",
    "semantics.tables_calls",
    "finder.frames_scanned",
    "formula.names_calls",
    "cli.report_bytes",
)
# Counts on table_lewis_w2 that depend on how first_hit's two threads
# interleave: a block keeps probing until it sees another block's hit.
THREAD_TIMED = ("finder.probe_calls", "finder.useful_ratio", "semantics.validity_calls")


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if out.returncode != 0:
        fail(f"{workload} --trace {trace} exited {out.returncode}: {out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload} --trace {trace}: {out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_traced_runs(declared: dict) -> None:
    for workload in run.WORKLOADS:
        first, second = bench(workload, 1, 1), bench(workload, 2, 1)
        for metrics in (first, second):
            if set(metrics) != set(declared["per_layer"]):
                fail(f"{workload}: per-layer metrics {sorted(set(metrics) ^ set(declared['per_layer']))}")
        for name in DETERMINISTIC:
            if first[name] != second[name]:
                fail(f"{workload}: {name} differs between traced runs: {first[name]} vs {second[name]}")
        print(f"ok {workload}: deterministic counts agree: "
              + ", ".join(f"{n}={first[n]}" for n in DETERMINISTIC))
        if workload == "table_lewis_w2":
            for name in THREAD_TIMED:
                low, high = sorted((first[name], second[name]))
                print(f"   {name}: {low:.6g}..{high:.6g} (spread {high - low:.6g})")
    metrics = bench("grid", 1, 0)
    if set(metrics) != set(declared["end_to_end"]):
        fail(f"end-to-end metrics {sorted(metrics)}")
    print("ok end-to-end metrics present")


def check_self_time() -> None:
    tracer = spans.Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        ddlmc.cli.main(["paradox", "--max-n", "2", "--timeout", "0", "--json"])
    totals = tracer.totals()
    self_sum = sum(t["self_s"] for t in totals.values())
    whole = totals["cli.main"]["total_s"]
    if abs(self_sum - whole) > 1e-6 * max(whole, 1.0):
        fail(f"self times add up to {self_sum}, cli.main took {whole}")
    print(f"ok self times add up to the cli.main total ({whole:.6f} s)")


def check_missing_boundary() -> None:
    saved = ddlmc.finder.first_hit
    del ddlmc.finder.first_hit
    try:
        tracer = spans.Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            ddlmc.cli.main(["correspond", "--axiom", "Id", "--max-n", "3", "--json"])
    finally:
        ddlmc.finder.first_hit = saved
    metrics = spans.layer_metrics(tracer.totals(), 0)
    if tracer.missing != ["finder.first_hit"] or metrics["finder.probe_calls"] != 0:
        fail(f"missing boundary: {tracer.missing}, probes {metrics['finder.probe_calls']}")
    print("ok a missing boundary reports zero calls")


def check_cap() -> None:
    workload = run.WORKLOADS["grid"]
    golden = (BENCH / "golden" / "grid.json").read_bytes()
    saved = run.CHILD_CAP_S
    run.CHILD_CAP_S = 0.5
    try:
        result = run.recipe_run(workload, golden, run.Oracle(ROOT), "run", 0, run.Clock())
    finally:
        run.CHILD_CAP_S = saved
    if not any("cap" in p for p in result["problems"]):
        fail(f"capped run not failed: {result['problems']}")
    try:
        os.waitpid(-1, os.WNOHANG)
        fail("a child process was left unreaped")
    except ChildProcessError:
        pass
    print(f"ok a child past the cap is killed, reaped and failed: {result['problems'][0]}")


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: [m["name"] for m in declared[key]] for key in ("end_to_end", "per_layer")}
    if declared["per_layer"] != [name for name, _ in spans.PER_LAYER]:
        fail("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    check_cap()
    check_self_time()
    check_missing_boundary()
    check_traced_runs(declared)
    print("selftest passed")


if __name__ == "__main__":
    main()
