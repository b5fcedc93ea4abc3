#!/usr/bin/env python3
"""Benchmark of the preyswitch library on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload connection --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --write-spec      # rewrite BENCHMARK.json

The seed generates the workload's inputs.  Each repetition runs in a fresh
interpreter (``op.py``), one after another (a closed loop with one client),
until ``--seconds`` have passed and at least three repetitions are done.
Every repetition's outputs are checked, and all repetitions of one run must
give bit-identical results and identical solver counts.

With ``--trace 0`` the run reports the end-to-end metrics, medians over the
repetitions, with the operation's times scaled to the host's reference speed
(see ``at_reference_speed``).  With ``--trace 1`` it spends half the time
untraced and half traced, and reports the per-layer metrics of the traced
repetitions and the tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.  A record of the run, with the machine and library
fingerprint and every repetition, goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Three gated workloads make 4 + 22 * 3 = 70 runs of about RUN_SECONDS + 3 s
# each, which must end within 3420 s; longer runs average out more of a
# shared host's drift in speed.
RUN_SECONDS = 38
MIN_REPS = 3
# a run must end within 180 s; stop starting repetitions well before that
RUN_LIMIT_S = 150.0
REP_TIMEOUT_S = 120.0

# the workloads in BENCHMARK.json
WORKLOADS = {
    "connection": "find_shilnikov on Table 1 over a seeded beta1 range: the headline search, dominated by fold launches",
    "sweep": "CLI sweep of D over 32 seeded beta1 values with 2 workers: the only workload using the process pool",
    "simulate": "Filippov trajectories to t = 400 from seeded states: many short arcs, no fold-return curve at all",
}
# runnable by hand with the same checks and metrics, but not gated: a fourth
# workload would shorten every gated run (see README.md)
EXTRA_WORKLOADS = {
    "return_map": "41-point fold return map at beta1*: sliding arcs dominate, and the connection search is bypassed",
}

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref_s", "s", "lower", 0.25),
    ("cpu_ref_s", "s", "lower", 0.25),
    ("rhs_evals", "count", "lower", 0.1),
    ("solver_steps", "count", "lower", 0.1),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

# name, unit, better; each is the median over the traced repetitions of one run
PER_LAYER = (
    ("connection.mu_point.calls", "count", "lower"),
    ("connection.mu_point.s", "s", "lower"),
    ("connection.mu_point.per_distance", "ratio", "lower"),
    ("connection.distance_to_connection.calls", "count", "lower"),
    ("connection.distance_to_connection.s", "s", "lower"),
    ("connection.verify_connection.s", "s", "lower"),
    ("connection.return_map_sample.s", "s", "lower"),
    ("flow.integrate_smooth.calls", "count", "lower"),
    ("flow.integrate_smooth.s", "s", "lower"),
    ("flow.integrate_smooth.steps", "count", "lower"),
    ("flow.integrate_sliding.calls", "count", "lower"),
    ("flow.integrate_sliding.s", "s", "lower"),
    ("flow.integrate_sliding.steps", "count", "lower"),
    ("flow.integrate_filippov.calls", "count", "lower"),
    ("flow.integrate_filippov.s", "s", "lower"),
    ("flow.integrate_filippov.arcs", "count", "lower"),
    ("flow.solver.calls", "count", "lower"),
    ("flow.solver.steps", "count", "lower"),
    ("flow.solver.rhs_evals", "count", "lower"),
    ("flow.solver.s", "s", "lower"),
    ("flow.rhs.s", "s", "lower"),
    ("flow.events.evals", "count", "lower"),
    ("flow.events.s", "s", "lower"),
    ("flow.overhead.s", "s", "lower"),
    ("sliding.classify_focus.calls", "count", "lower"),
    ("sliding.classify_focus.s", "s", "lower"),
    ("sliding.pseudo_equilibria.calls", "count", "lower"),
    ("model.classify_sigma_point.calls", "count", "lower"),
    ("model.classify_sigma_point.s", "s", "lower"),
    ("model.validate_parameters.calls", "count", "lower"),
    ("cli.sweep.s", "s", "lower"),
    ("cli.sweep.parallel_efficiency", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# op.py's reference computation takes about this long, per run, on the 2-vCPU
# host of README.md's baseline when other tenants leave it alone
REFERENCE_S = 0.015

# the fold point x0* of the connection at beta1*, from find_shilnikov on Table 1
REFERENCE_X0 = 0.2872297040


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "connection":
        # every range inside [0.994, 1.5] x [9, 10] brackets beta1* = 7.77
        return {"beta1_range": [rng.uniform(0.994, 1.5), rng.uniform(9.0, 10.0)]}
    if workload == "return_map":
        return {"centre": REFERENCE_X0 + rng.uniform(-0.01, 0.01), "width": 0.08, "n": 41}
    if workload == "sweep":
        return {"beta1_range": [rng.uniform(1.0, 1.5), rng.uniform(9.5, 10.0)], "n": 32, "jobs": 2}
    if workload == "simulate":
        states = []
        while len(states) < 2:
            x, y, z = rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2), rng.uniform(0.2, 1.5)
            if abs(x - y) > 0.05:  # start off the switching plane
                states.append([x, y, z])
        return {"states": states, "t_max": 400.0}
    raise ValueError(f"unknown workload {workload!r}")


def run_rep(workload: str, inputs: dict, trace: bool, spans_dir: Path, timeout: float) -> dict:
    """One repetition in a fresh interpreter; its process group is killed afterwards."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    request = {
        "workload": workload,
        "inputs": inputs,
        "trace": int(trace),
        "spans_dir": str(spans_dir),
        "spawned_ns": time.monotonic_ns(),
    }
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "op.py"), json.dumps(request)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"a {workload} repetition took longer than {timeout:.0f} s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if stderr:
        sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise BenchError(f"a {workload} repetition exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_phase(workload, inputs, trace, seconds, spans_dir, started) -> list[dict]:
    """At least MIN_REPS repetitions, then more while they end by about ``seconds``.

    A repetition is started only if, taking as long as the last one, it would
    end less than half a repetition after the deadline.
    """
    reps: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        now = time.monotonic()
        last = reps[-1]["setup_s"] + reps[-1]["wall_s"] if reps else 0.0
        if len(reps) >= MIN_REPS and now + last / 2.0 > deadline:
            break
        if reps and now - started + 2.0 * last > RUN_LIMIT_S:
            break
        if trace:
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
        timeout = min(REP_TIMEOUT_S, RUN_LIMIT_S - (now - started))
        reps.append(run_rep(workload, inputs, trace, spans_dir, timeout))
    return reps


def median(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def at_reference_speed(rep: dict, key: str) -> float:
    """A repetition's time, scaled by how fast the host ran its reference computation.

    Other tenants of a shared host slow every repetition by a different
    factor, up to 2x, for seconds to minutes at a time.  The reference
    computation, timed in the same process just before and after the
    operation, is slowed by about the same factor, so the scaled time is the
    operation's time when the reference computation takes REFERENCE_S.
    """
    return rep[key] * REFERENCE_S / rep["reference_s"]


def end_to_end(reps: list[dict]) -> dict:
    return {
        "setup_s": median(reps, lambda r: r["setup_s"]),
        "wall_ref_s": median(reps, lambda r: at_reference_speed(r, "wall_s")),
        "cpu_ref_s": median(reps, lambda r: at_reference_speed(r, "cpu_s")),
        "rhs_evals": median(reps, lambda r: r["counters"]["flow.solver.rhs_evals"]),
        "solver_steps": median(reps, lambda r: r["counters"]["flow.solver.steps"]),
        "peak_rss_mib": median(reps, lambda r: r["peak_rss_mib"]),
    }


def per_layer(untraced: list[dict], traced: list[dict], jobs: int) -> dict:
    c = {name: median(traced, lambda r: r["counters"][name]) for name in traced[0]["counters"]}
    wall = median(traced, lambda r: r["wall_s"])
    children_cpu = median(traced, lambda r: r["children_cpu_s"])
    derived = {
        "connection.mu_point.per_distance": (
            c["connection.mu_point.calls"] / c["connection.distance_to_connection.calls"]
            if c["connection.distance_to_connection.calls"]
            else 0.0
        ),
        "flow.overhead.s": c["flow.solver.s"] - c["flow.rhs.s"] - c["flow.events.s"],
        "cli.sweep.parallel_efficiency": (
            children_cpu / (c["cli.sweep.s"] * jobs) if c["cli.sweep.s"] else 0.0
        ),
        "trace.wall_s": wall,
        "trace.overhead_s": (
            median(traced, lambda r: at_reference_speed(r, "wall_s"))
            - median(untraced, lambda r: at_reference_speed(r, "wall_s"))
        ),
    }
    c.update(derived)
    return {name: c[name] for name, *_ in PER_LAYER}


def consistency_problems(reps: list[dict], traced: list[dict]) -> list[str]:
    """Checks across repetitions: cold caches make every repetition identical."""
    problems = []
    if len({r["digest"] for r in reps}) != 1:
        problems.append("repetitions returned different results")
    for name in ("flow.solver.rhs_evals", "flow.solver.steps"):
        values = sorted({r["counters"][name] for r in reps})
        if len(values) != 1:
            problems.append(f"{name} differs between repetitions: {values}")
    if any(r["missing_counts"] for r in reps):
        problems.append("a forked worker had no counter row; counts are missing")
    if any(r["counters"]["flow.rhs.evals"] != r["counters"]["flow.solver.rhs_evals"] for r in traced):
        problems.append("timed vector-field calls disagree with solve_ivp's nfev")
    return problems


def span_summary(spans_dir: Path) -> list[dict]:
    """Calls, total and self seconds per span name, from the last traced repetition.

    A span's self time is its duration minus the durations of its children.
    """
    spans = []
    for path in sorted(spans_dir.glob("*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    child_time: dict[tuple[int, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    summary: dict[str, dict] = {}
    for s in spans:
        row = summary.setdefault(s["name"], {"name": s["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get((s["pid"], s["id"]), 0.0)
    return sorted(summary.values(), key=lambda row: -row["self_s"])


def fingerprint(versions: dict) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "preyswitch").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def report(workload, untraced, traced, summary) -> None:
    """Human-readable lines, printed before the result."""
    n = len(untraced)
    walls = sorted(r["wall_s"] for r in untraced)
    reference = statistics.median(r["reference_s"] for r in untraced)
    print(
        f"{workload}: {n} untraced repetitions; unscaled wall_s min {walls[0]:.4f} s, "
        f"median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s; "
        f"reference computation median {reference:.4f} s against {REFERENCE_S} s"
    )
    print(
        f"  (no percentile above the median has ten samples beyond it at n = {n})"
    )
    if traced:
        wall = statistics.median(r["wall_s"] for r in traced)
        print(f"traced: {len(traced)} repetitions, wall_s median {wall:.4f} s; span self time:")
        for row in summary[:10]:
            print(
                f"  {row['name']:<36} calls {row['calls']:>6}  total {row['total_s']:8.4f} s "
                f"({row['total_s'] / wall:6.1%})  self {row['self_s']:8.4f} s"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + tuple(EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "preyswitch" / "__init__.py").is_file():
        print(f"no preyswitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    spans_dir = OUT / f"spans-{args.workload}-seed{args.seed}"
    inputs = make_inputs(args.workload, args.seed)
    trace = bool(args.trace)
    try:
        if trace:
            untraced = run_phase(args.workload, inputs, False, args.seconds / 2, spans_dir, started)
            traced = run_phase(args.workload, inputs, True, args.seconds / 2, spans_dir, started)
        else:
            untraced = run_phase(args.workload, inputs, False, args.seconds, spans_dir, started)
            traced = []
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    reps = untraced + traced
    inconsistent = consistency_problems(reps, traced)
    problems = sorted({p for r in reps for p in r["problems"]}) + inconsistent
    summary = span_summary(spans_dir) if trace else []
    metrics = per_layer(untraced, traced, inputs.get("jobs", 1)) if trace else end_to_end(untraced)
    units = dict((n, u) for n, u, *_ in END_TO_END + PER_LAYER)
    attempted = sum(r["attempted"] for r in reps)
    # each failed check across repetitions counts as one failure
    failed = min(attempted, sum(r["failed"] for r in reps) + len(inconsistent))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": inputs,
        "fingerprint": fingerprint(reps[0]["versions"]),
        "problems": problems,
        "span_summary": summary,
        "repetitions": reps,
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    report(args.workload, untraced, traced, summary)
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
