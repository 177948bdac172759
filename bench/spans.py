"""Per-layer spans recorded from outside the ddlmc package.

``Tracer.install`` wraps the public function at each ddlmc module boundary
listed in ``BOUNDARIES``.  The modules bind each other's functions by name
(``from .semantics import frame_tables``), so every ``ddlmc`` namespace that
holds the original function object is rebound to the wrapper.  A boundary
whose function no longer exists is skipped and reports zero calls.

Each thread keeps its own span stack and totals.  A span's self time is its
duration minus the spans it encloses on the same thread; layer seconds are
summed over threads, so with worker threads they can exceed wall time.
"""

from __future__ import annotations

import inspect
import sys
import threading
from time import perf_counter


def _plain(result):
    return False, 0, 0


def _truthy(result):
    return bool(result), 0, 0


def _not_none(result):
    return result is not None, 0, 0


def _classes(result):
    return False, len(result), 0


def _search(result):
    return result.model is not None, result.frames_checked, 0


# (span name, module, attribute, observer).  An observer maps the result to
# (hit, amount, probes), which the span adds to its totals.
BOUNDARIES = (
    ("model.canonical_relations", "ddlmc.model", "canonical_relations", _classes),
    ("relprops.check_all", "ddlmc.relprops", "check_all", _truthy),
    ("relprops.check_property", "ddlmc.relprops", "check_property", _truthy),
    ("semantics.frame_tables", "ddlmc.semantics", "frame_tables", _plain),
    ("semantics.frame_counterexample", "ddlmc.semantics", "frame_counterexample", _not_none),
    ("semantics.truth_set", "ddlmc.semantics", "truth_set", _plain),
    ("formula.atoms", "ddlmc.formula", "atoms", _plain),
    ("formula.metavars", "ddlmc.formula", "metavars", _plain),
    ("finder.find_satisfying_model", "ddlmc.finder", "find_satisfying_model", _search),
    ("finder.first_hit", "ddlmc.finder", "first_hit", None),
    ("schemas.forward_check", "ddlmc.schemas", "forward_check", _plain),
    ("schemas.table_sweep", "ddlmc.schemas", "table_sweep", _plain),
    ("casestudy.run_grid", "ddlmc.casestudy", "run_grid", _plain),
    ("cli.main", "ddlmc.cli", "main", _plain),
)

# Every per-layer metric, with its unit, in report order.  The child adds
# cli.report_bytes and the harness adds trace.overhead_s.
PER_LAYER = (
    ("model.enum_s", "s"),
    ("model.enum_calls", "count"),
    ("model.classes", "count"),
    ("relprops.filter_s", "s"),
    ("relprops.frames_tested", "count"),
    ("relprops.accept_ratio", "ratio"),
    ("semantics.tables_s", "s"),
    ("semantics.tables_calls", "count"),
    ("semantics.validity_s", "s"),
    ("semantics.validity_calls", "count"),
    ("semantics.counterexample_ratio", "ratio"),
    ("semantics.revalidate_s", "s"),
    ("formula.names_s", "s"),
    ("formula.names_calls", "count"),
    ("finder.scan_s", "s"),
    ("finder.searches", "count"),
    ("finder.frames_scanned", "count"),
    ("finder.hit_ratio", "ratio"),
    ("finder.probe_calls", "count"),
    ("finder.useful_ratio", "ratio"),
    ("schemas.self_s", "s"),
    ("schemas.checks", "count"),
    ("casestudy.self_s", "s"),
    ("cli.report_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

_FIELDS = ("calls", "total_s", "self_s", "hits", "amount", "probes")


def _first_hit_runner(first_hit):
    """Count the probes first_hit makes and the frames it reports as used.

    A hit at index i uses i + 1 frames, a miss uses them all; probes beyond
    that are speculative work done by later blocks and thrown away.
    """
    signature = inspect.signature(first_hit)

    def run(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        items, probe = bound.arguments["items"], bound.arguments["fn"]
        lock = threading.Lock()
        probes = [0]

        def counted(item):
            with lock:
                probes[0] += 1
            return probe(item)

        bound.arguments["fn"] = counted
        result = first_hit(*bound.args, **bound.kwargs)
        used = len(items) if result is None else result[0] + 1
        return result, (result is not None, used, probes[0])

    return run


def _plain_runner(fn, observe):
    def run(args, kwargs):
        result = fn(*args, **kwargs)
        return result, observe(result)

    return run


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    """Span totals per boundary, kept per thread and merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict[str, list]] = []
        self.missing: list[str] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._threads.append(state[1])
        return state

    def _wrap(self, name: str, run):
        def traced(*args, **kwargs):
            stack, totals = self._state()
            stack.append(0.0)
            start = perf_counter()
            try:
                result, (hit, amount, probes) = run(args, kwargs)
            finally:
                duration = perf_counter() - start
                enclosed = stack.pop()
                if stack:
                    stack[-1] += duration
                record = totals.get(name)
                if record is None:
                    record = totals[name] = [0, 0.0, 0.0, 0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - enclosed
            record[3] += hit
            record[4] += amount
            record[5] += probes
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary in every loaded ddlmc namespace that binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "ddlmc" or key.startswith("ddlmc."))
        ]
        for name, module_name, attr, observe in BOUNDARIES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(name)
                continue
            run = _first_hit_runner(original) if observe is None else _plain_runner(original, observe)
            wrapper = self._wrap(name, run)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-boundary totals summed over threads; absent boundaries are zero."""
        merged = {name: dict.fromkeys(_FIELDS, 0) for name, *_ in BOUNDARIES}
        with self._lock:
            threads = list(self._threads)
        for per_thread in threads:
            for name, record in per_thread.items():
                for field, value in zip(_FIELDS, record):
                    merged[name][field] += value
        return merged

    @property
    def thread_count(self) -> int:
        with self._lock:
            return len(self._threads)


def layer_metrics(t: dict[str, dict[str, float]], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics from span totals, all but trace.overhead_s."""
    checks = ("relprops.check_all", "relprops.check_property")
    names = ("formula.atoms", "formula.metavars")
    schema_checks = ("schemas.forward_check", "schemas.table_sweep")

    def total(span_names, field):
        return sum(t[n][field] for n in span_names)

    search = t["finder.find_satisfying_model"]
    probe = t["finder.first_hit"]
    validity = t["semantics.frame_counterexample"]
    return {
        "model.enum_s": t["model.canonical_relations"]["self_s"],
        "model.enum_calls": t["model.canonical_relations"]["calls"],
        "model.classes": t["model.canonical_relations"]["amount"],
        "relprops.filter_s": total(checks, "self_s"),
        "relprops.frames_tested": total(checks, "calls"),
        "relprops.accept_ratio": ratio(total(checks, "hits"), total(checks, "calls")),
        "semantics.tables_s": t["semantics.frame_tables"]["self_s"],
        "semantics.tables_calls": t["semantics.frame_tables"]["calls"],
        "semantics.validity_s": validity["self_s"],
        "semantics.validity_calls": validity["calls"],
        "semantics.counterexample_ratio": ratio(validity["hits"], validity["calls"]),
        "semantics.revalidate_s": t["semantics.truth_set"]["self_s"],
        "formula.names_s": total(names, "self_s"),
        "formula.names_calls": total(names, "calls"),
        "finder.scan_s": search["self_s"],
        "finder.searches": search["calls"],
        "finder.frames_scanned": search["amount"],
        "finder.hit_ratio": ratio(search["hits"], search["calls"]),
        "finder.probe_calls": probe["probes"],
        "finder.useful_ratio": ratio(probe["amount"], probe["probes"]),
        "schemas.self_s": total(schema_checks, "self_s"),
        "schemas.checks": total(schema_checks, "calls"),
        "casestudy.self_s": t["casestudy.run_grid"]["self_s"],
        "cli.report_s": t["cli.main"]["self_s"],
        "cli.report_bytes": report_bytes,
    }
