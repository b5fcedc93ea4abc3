"""Counters and spans recorded around preyswitch's public functions.

The probe measures the library from outside.  It replaces a public function
at every preyswitch module that holds a reference to it, because each module
imports by name and callers look the function up in their own module, and it
puts every original back on ``uninstall``.

Untraced, only ``preyswitch.flow.solve_ivp`` is wrapped, to count solver
calls, accepted steps and right-hand-side evaluations.  Traced, every
function in ``TRACED`` is wrapped too: each call becomes a span (name, start,
end, parent) kept in memory, and the callables handed to ``solve_ivp`` are
timed so that scipy's own per-step time can be separated from the vector
field and the event functions.

Counts accumulate per process.  Processes forked while the probe is installed
(the sweep's pool workers) each own one row of an anonymous shared memory map
made before the fork, so the parent can sum every row once the pool has
joined.  Workers write their spans to their own file in ``spans_dir``.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import struct
import time
from contextlib import contextmanager
from pathlib import Path

from preyswitch import cli, connection, flow, model, sliding
import preyswitch

MODULES = (preyswitch, model, sliding, flow, connection, cli)

# span label, module defining the function, attribute name
TRACED = (
    ("connection.find_shilnikov", connection, "find_shilnikov"),
    ("connection.distance_to_connection", connection, "distance_to_connection"),
    ("connection.mu_point", connection, "mu_point"),
    ("connection.verify_connection", connection, "verify_connection"),
    ("connection.return_map_sample", connection, "return_map_sample"),
    ("flow.integrate_filippov", flow, "integrate_filippov"),
    ("flow.integrate_smooth", flow, "integrate_smooth"),
    ("flow.integrate_sliding", flow, "integrate_sliding"),
    ("sliding.classify_focus", sliding, "classify_focus"),
    ("sliding.pseudo_equilibria", sliding, "pseudo_equilibria"),
    ("model.classify_sigma_point", model, "classify_sigma_point"),
    ("model.validate_parameters", model, "validate_parameters"),
)
# spans opened by the benchmark itself rather than by a wrapped function
OWN_SPANS = ("cli.sweep",)
# solver steps are also credited to the innermost enclosing span of these
STEP_OWNERS = ("flow.integrate_smooth", "flow.integrate_sliding")

COUNTERS = tuple(
    [f"{label}.{kind}" for label, _, _ in TRACED for kind in ("calls", "s")]
    + [f"{label}.{kind}" for label in OWN_SPANS for kind in ("calls", "s")]
    + [f"{label}.steps" for label in STEP_OWNERS]
    + [
        "flow.integrate_filippov.arcs",
        "flow.solver.calls",
        "flow.solver.steps",
        "flow.solver.rhs_evals",
        "flow.solver.s",
        "flow.rhs.evals",
        "flow.rhs.s",
        "flow.events.evals",
        "flow.events.s",
    ]
)
_INDEX = {name: i for i, name in enumerate(COUNTERS)}
_ROW = struct.Struct(f"{len(COUNTERS)}d")
_SLOTS = 32
_FLAG = _SLOTS * _ROW.size  # set by a process that found no free row


def _timed(fn, tally: list):
    """``fn`` with its calls and seconds added to ``tally``.

    ``functools.wraps`` copies the function's ``__dict__``, which carries the
    ``terminal`` and ``direction`` attributes solve_ivp reads from events.
    """

    @functools.wraps(fn)
    def timed(t, y):
        t0 = time.perf_counter()
        value = fn(t, y)
        tally[1] += time.perf_counter() - t0
        tally[0] += 1
        return value

    return timed


class Probe:
    """Process-wide counters and spans; ``install`` before the operation."""

    def __init__(self, trace: bool, spans_dir: Path | None = None):
        self.trace = trace
        self.spans_dir = spans_dir
        self.local = [0.0] * len(COUNTERS)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.written = 0
        self.slot = 0
        self.forks = 0
        self.shared = mmap.mmap(-1, _FLAG + 8)
        self.patched: list[tuple[object, str, object]] = []
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("probe already installed")
        self._patch(flow.solve_ivp, self._solver(flow.solve_ivp))
        if self.trace:
            for label, module, name in TRACED:
                original = getattr(module, name)
                self._patch(original, self._span_wrapper(label, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched.clear()

    def _patch(self, original, wrapper) -> None:
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self.patched.append((module, name, original))

    # -- fork handling ----------------------------------------------------

    def _before_fork(self) -> None:
        if self.patched:
            self.forks += 1

    def _after_fork(self) -> None:
        if not self.patched:
            return
        self.slot = self.forks
        self.local[:] = [0.0] * len(COUNTERS)
        self.spans.clear()
        self.stack.clear()
        self.written = 0

    # -- recording --------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.local[_INDEX[name]] += value

    def _enter(self, label: str) -> float:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        start = time.perf_counter()
        self.spans.append([label, start, start, parent])
        return start

    def _exit(self, label: str, start: float) -> None:
        end = time.perf_counter()
        self.spans[self.stack.pop()][2] = end
        self.local[_INDEX[label + ".calls"]] += 1
        self.local[_INDEX[label + ".s"]] += end - start
        if not self.stack:
            self.flush()

    @contextmanager
    def span(self, label: str):
        """A span opened by the benchmark around a call into the library."""
        if not self.trace:
            yield
            return
        start = self._enter(label)
        try:
            yield
        finally:
            self._exit(label, start)

    def _span_wrapper(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(label)
            try:
                result = fn(*args, **kwargs)
                if label == "flow.integrate_filippov":
                    self.add("flow.integrate_filippov.arcs", len(result.arcs))
            finally:
                self._exit(label, start)
            return result

        return wrapper

    def _solver(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def wrapper(fun, t_span, y0, events=None, **kwargs):
            if not self.trace:
                sol = solve_ivp(fun, t_span, y0, events=events, **kwargs)
                self.add("flow.solver.calls", 1)
                self._count(sol)
                if not self.stack:
                    self.flush()
                return sol
            rhs, ev = [0, 0.0], [0, 0.0]
            events = [_timed(g, ev) for g in events]  # flow always passes a list
            start = self._enter("flow.solver")
            try:
                sol = solve_ivp(_timed(fun, rhs), t_span, y0, events=events, **kwargs)
                self._count(sol)
            finally:
                self.add("flow.rhs.evals", rhs[0])
                self.add("flow.rhs.s", rhs[1])
                self.add("flow.events.evals", ev[0])
                self.add("flow.events.s", ev[1])
                self._exit("flow.solver", start)
            return sol

        return wrapper

    def _count(self, sol) -> None:
        steps = len(sol.t) - 1
        self.add("flow.solver.steps", steps)
        self.add("flow.solver.rhs_evals", sol.nfev)
        for i in reversed(self.stack):
            if self.spans[i][0] in STEP_OWNERS:
                self.add(self.spans[i][0] + ".steps", steps)
                break

    # -- output -----------------------------------------------------------

    def flush(self) -> None:
        """Publish this process's counters; workers also write their spans."""
        if self.slot < _SLOTS:
            _ROW.pack_into(self.shared, self.slot * _ROW.size, *self.local)
        else:
            struct.pack_into("d", self.shared, _FLAG, 1.0)
        if self.slot and self.trace:
            self.write_spans()

    def write_spans(self) -> None:
        """Append the spans recorded since the last write, one JSON line each."""
        if self.spans_dir is None or self.written == len(self.spans):
            return
        pid = os.getpid()
        lines = [
            json.dumps({"id": i, "name": n, "start": s, "end": e, "parent": p, "pid": pid})
            for i, (n, s, e, p) in enumerate(self.spans[self.written :], start=self.written)
        ]
        with open(self.spans_dir / f"{pid}.jsonl", "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.written = len(self.spans)

    def totals(self) -> tuple[dict[str, float], bool]:
        """Counters summed over this process and its forks, and whether any
        forked process had no row to record in (its counts are then missing)."""
        self.flush()
        rows = [_ROW.unpack_from(self.shared, slot * _ROW.size) for slot in range(_SLOTS)]
        sums = [sum(column) for column in zip(*rows)]
        missing = struct.unpack_from("d", self.shared, _FLAG)[0] != 0.0
        return dict(zip(COUNTERS, sums)), missing
