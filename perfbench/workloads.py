"""The benchmark's operations and the checks on their outputs.

Each operation takes the inputs ``run.make_inputs`` generated from the seed,
calls preyswitch through its public functions, looked up at call time so that
the probe's wrappers are used, and returns an ``Outcome``.  ``digest`` hashes
every number the library returned at full precision, so two runs agree on it
only if their results are bit-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import preyswitch
from preyswitch import cli

TABLE1 = Path(__file__).with_name("table1.json")
# beta1*, from find_shilnikov on Table 1 over (0.994, 10)
REFERENCE_BETA1 = 7.7768748097


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.results).encode()).hexdigest()


def attempts(workload: str, inputs: dict) -> int:
    """Attempts one operation makes: sweep rows, trajectories, or one."""
    if workload == "sweep":
        return inputs["n"]
    if workload == "simulate":
        return 2 * len(inputs["states"])
    return 1


def connection(base, inputs, probe) -> Outcome:
    out = Outcome(attempts("connection", inputs))
    lo, hi = inputs["beta1_range"]
    cert = preyswitch.find_shilnikov(base, (lo, hi), preyswitch.IntegratorConfig())
    out.results = sorted(cert.payload().items(), key=lambda kv: kv[0])
    if not abs(cert.beta1_star - REFERENCE_BETA1) <= 1e-5:
        out.fail(f"beta1* = {cert.beta1_star!r} is not within 1e-5 of {REFERENCE_BETA1}")
    if not cert.bracket_width <= 1e-6:
        out.fail(f"bracket width {cert.bracket_width!r} exceeds 1e-6")
    return out


def return_map(base, inputs, probe) -> Outcome:
    out = Outcome(attempts("return_map", inputs))
    params = base.replace(beta1=REFERENCE_BETA1)
    centre, width = inputs["centre"], inputs["width"]
    segment = (centre - width / 2.0, centre + width / 2.0)
    samples = preyswitch.return_map_sample(params, segment, inputs["n"], preyswitch.IntegratorConfig())
    out.results = samples
    if len(samples) != inputs["n"]:
        out.fail(f"{len(samples)} samples returned, {inputs['n']} asked for")
    if not preyswitch.fixed_point_brackets(samples):
        out.fail("pi(s) - s does not change sign on the segment")
    return out


def sweep(base, inputs, probe) -> Outcome:
    n = inputs["n"]
    out = Outcome(attempts("sweep", inputs))
    lo, hi = inputs["beta1_range"]
    argv = [
        "sweep",
        "--params", str(TABLE1),
        "--beta1-range", f"{lo!r}:{hi!r}",
        "--n", str(n),
        "--jobs", str(inputs["jobs"]),
    ]
    text = io.StringIO()
    with probe.span("cli.sweep"), contextlib.redirect_stdout(text):
        code = cli.main(argv)
    if code != 0:
        out.fail(f"preyswitch sweep exited with {code}", count=n)
        return out
    rows = [tuple(float(v) for v in line.split(",")) for line in text.getvalue().splitlines()[1:]]
    out.results = rows
    nan_rows = [b for b, d in rows if math.isnan(d)]
    if nan_rows:
        out.fail(f"D is NaN at beta1 = {nan_rows}", count=len(nan_rows))
    if len(rows) != n:
        out.fail(f"{len(rows)} rows written, {n} asked for")
    changes = [
        (b0, b1) for (b0, d0), (b1, d1) in zip(rows, rows[1:]) if (d0 < 0.0) != (d1 < 0.0)
    ]
    if len(changes) != 1 or not changes[0][0] < REFERENCE_BETA1 < changes[0][1]:
        out.fail(f"D changes sign across {changes}, expected once around {REFERENCE_BETA1}")
    return out


def _embedded(arc, i: int) -> list[float]:
    """State ``i`` of an arc as (x, y, z); sliding states lie on x = y."""
    state = [float(v) for v in arc.states[i]]
    if not arc.planar:
        return state
    y = state[0] if arc.kind is preyswitch.ArcKind.SLIDING else 0.0
    return [state[0], y, state[1]]


def simulate(base, inputs, probe) -> Outcome:
    states = inputs["states"]
    param_sets = (base, base.replace(beta1=REFERENCE_BETA1))
    out = Outcome(attempts("simulate", inputs))
    cfg = preyswitch.IntegratorConfig(t_max=inputs["t_max"])
    ends = (preyswitch.EventKind.HORIZON_REACHED, preyswitch.EventKind.FOCUS_CAPTURE)
    for params in param_sets:
        for s0 in states:
            where = f"beta1 = {params.beta1}, s0 = {s0}"
            try:
                traj = preyswitch.integrate_filippov(s0, cfg, params)
            except preyswitch.PreySwitchError as err:
                out.fail(f"{where}: {type(err).__name__}: {err}")
                continue
            out.results.append([(arc.kind.value, arc.t0, arc.t1, _embedded(arc, -1)) for arc in traj.arcs])
            last = traj.arcs[-1]
            if last.terminal_event.kind not in ends or (
                last.terminal_event.kind is preyswitch.EventKind.HORIZON_REACHED
                and abs(last.t1 - cfg.t_max) > 1e-9
            ):
                out.fail(f"{where}: ends with {last.terminal_event.kind.value} at t = {last.t1}")
                continue
            for a, b in zip(traj.arcs, traj.arcs[1:]):
                gap = max(abs(p - q) for p, q in zip(_embedded(a, -1), _embedded(b, 0)))
                if abs(a.t1 - b.t0) > 1e-9 or gap > 1e-8:
                    out.fail(f"{where}: arcs do not join at t = {a.t1} (gap {gap:.2e})")
                    break
    return out


OPERATIONS = {
    "connection": connection,
    "return_map": return_map,
    "sweep": sweep,
    "simulate": simulate,
}


def run(workload: str, base, inputs, probe) -> Outcome:
    """Run one operation; an exception it raises fails all its attempts."""
    try:
        return OPERATIONS[workload](base, inputs, probe)
    except Exception as err:  # the operation boundary: report and carry on
        if not isinstance(err, preyswitch.PreySwitchError):
            traceback.print_exc()
        out = Outcome(attempts(workload, inputs))
        out.fail(f"{type(err).__name__}: {err}", count=out.attempted)
        return out
