"""One timed repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
imports preyswitch from scratch and its module-level caches start cold, as
they do for a user of the command line.  It takes one argument, a JSON
request with the keys ``workload``, ``inputs``, ``trace``, ``spans_dir`` and
``spawned_ns`` (the ``time.monotonic_ns()`` reading just before the start),
and prints one JSON line with the timings, the probe's counters and the
outcome.  The timings include ``reference_s``, the median time of a fixed
computation run just before and just after the operation.  It exits with 3
when preyswitch cannot be imported from the checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TABLE1 = Path(__file__).with_name("table1.json")


# runs of the reference computation timed just before and just after the operation
REFERENCE_RUNS = 8


def _lorenz(t, y):
    return [10.0 * (y[1] - y[0]), y[0] * (28.0 - y[2]) - y[1], y[0] * y[1] - 8.0 / 3.0 * y[2]]


def _reference_runs(count: int) -> list[float]:
    """Seconds taken by each of ``count`` runs of a fixed computation.

    The computation integrates the Lorenz system with scipy's RK45.  It
    shares no code with preyswitch, but it runs the same solver machinery
    that takes most of the library's time, so other tenants of the host slow
    it about as much as they slow the operation.
    """
    from scipy.integrate import solve_ivp

    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        solve_ivp(_lorenz, (0.0, 3.6), [1.0, 1.0, 1.0], rtol=1e-8, atol=1e-10)
        times.append(time.perf_counter() - t0)
    return times


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    sys.path.insert(0, str(SRC))
    try:
        import preyswitch
        import preyswitch.cli
    except ImportError as err:
        print(f"cannot import preyswitch from {SRC}: {err}", file=sys.stderr)
        return 3
    origin = Path(preyswitch.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"preyswitch was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 3
    base = preyswitch.load_parameters(TABLE1)
    setup_s = (time.monotonic_ns() - request["spawned_ns"]) / 1e9

    import numpy
    import scipy

    import workloads
    from probe import Probe

    trace = bool(request["trace"])
    spans_dir = Path(request["spans_dir"]) if trace else None
    probe = Probe(trace, spans_dir)
    reference = _reference_runs(REFERENCE_RUNS)
    probe.install()
    try:
        cpu0, children0 = time.process_time(), _children_cpu()
        t0 = time.perf_counter()
        outcome = workloads.run(request["workload"], base, request["inputs"], probe)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        children_s = _children_cpu() - children0
    finally:
        probe.uninstall()
    reference += _reference_runs(REFERENCE_RUNS)
    counters, missing = probe.totals()
    if trace:
        probe.write_spans()

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s + children_s,
                "reference_s": statistics.median(reference),
                "children_cpu_s": children_s,
                "peak_rss_mib": rss_kib / 1024.0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "problems": outcome.problems,
                "digest": outcome.digest,
                "counters": counters,
                "missing_counts": missing,
                "versions": {
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
