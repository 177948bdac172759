"""One ddlmc CLI invocation in a fresh interpreter, as a user pays for it.

    python3 bench/child.py ROOT MODE [ddlmc argv ...]

MODE is ``import`` (only time the import), ``run`` or ``trace`` (run with
per-layer spans).  Prints one JSON line: the time of ``import ddlmc.cli``
(interpreter start excluded), the time of ``ddlmc.cli.main(argv)`` from call
to return with stdout captured, its exit code, the captured report, the
process's peak RSS and, under ``trace``, the per-layer metrics.

The host's speed is read with ``host_probe``, a fixed piece of pure-Python
work that shares no code with ddlmc, run from a SIGALRM handler every
``IMPORT_PROBE_PERIOD_S`` of the import and, under ``run``, every
``RUN_PROBE_PERIOD_S`` of the call.  The handler's time is taken off the
import's and the call's time.  The harness scales both times by the probe
(see run.py).
"""

import signal
import sys
import time

RUN_PROBE_PERIOD_S = 0.1
IMPORT_PROBE_PERIOD_S = 0.01  # the import takes about 0.1 s

# The probe has the shape of ddlmc's hot loops (a recursive scan over
# bitmask assignments calling small lambdas on ints and list lookups), since
# a slow period of the shared host slows such code more than a tight
# arithmetic loop; it shares no code with ddlmc, so a change to ddlmc
# leaves it alone.
_CHECKS = (
    lambda w, table, env: (w ^ env[0]) | (table[env[0]] & env[1]),
    lambda w, table, env: (w ^ (env[1] & ~env[2])) | table[env[2] ^ env[0]],
)
_W = 15
_TABLE = [(x * 7 + 3) & _W for x in range(_W + 1)]


def _scan(n_vars: int) -> int:
    env = [0] * n_vars
    leaves = [0]

    def rec(depth):
        for check in _CHECKS[:depth]:
            if check(_W, _TABLE, env) != _W:
                return
        if depth == n_vars:
            leaves[0] += 1
            return
        for mask in range(_W + 1):
            env[depth] = mask
            rec(depth + 1)
        env[depth] = 0

    rec(0)
    return leaves[0]


def host_probe() -> float:
    """Thread CPU time of a fixed piece of pure-Python work, about 0.5 ms."""
    start = time.thread_time()
    for _ in range(8):
        _scan(3)
    return time.thread_time() - start


class HostSampler:
    """Probes the host every `period` seconds while the block runs."""

    def __init__(self, period: float):
        self.period = period
        self.samples = []
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(host_probe())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probed(fn, period: float):
    """fn(), the seconds it took less the probes' own time, and the probe time.

    The probe time is the harmonic mean of the samples, which matches the
    host's speed averaged over the call; a call shorter than one period is
    probed once after it.
    """
    sampler = HostSampler(period)
    with sampler:
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
    samples = sampler.samples or [host_probe()]
    return value, elapsed - sampler.spent_s, len(samples) / sum(1 / s for s in samples)


def main() -> None:
    root, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, root + "/src")
    host_probe()  # warm-up
    import importlib

    cli, setup_s, setup_probe_s = probed(lambda: importlib.import_module("ddlmc.cli"),
                                         IMPORT_PROBE_PERIOD_S)

    import contextlib
    import io
    import json
    import resource

    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
    if mode != "import":
        captured = io.StringIO()
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
            with contextlib.redirect_stdout(captured):
                start = time.perf_counter()
                code = cli.main(argv)
                result["wall_s"] = time.perf_counter() - start
        else:
            with contextlib.redirect_stdout(captured):
                code, result["wall_s"], result["probe_s"] = probed(lambda: cli.main(argv),
                                                                   RUN_PROBE_PERIOD_S)
        report = captured.getvalue()
        result.update(exit_code=code, report=report)
        if mode == "trace":
            report_bytes = len(report.encode("utf-8"))
            result["layers"] = spans.layer_metrics(tracer.totals(), report_bytes)
            result["missing_spans"] = tracer.missing
            result["span_threads"] = tracer.thread_count
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
