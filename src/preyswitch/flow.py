"""Event-detecting integration and Filippov concatenation.

Smooth arcs are integrated with an adaptive embedded Runge-Kutta pair
(scipy's solve_ivp, DOP853) whose dense output localizes event times.
Sliding arcs are integrated with a Taylor series of the closed-form sliding
field (:func:`~preyswitch.sliding.sliding_series`), on whose step
polynomials each event is either excluded or located.  Every arc ends at the
first event of one table: the arc's own events (the switching plane
h = x - y for a smooth arc; the fold exit and the focus capture for a
sliding arc), a DOMAIN_EXIT for each coordinate that starts above the event
tolerance (only x for a sliding arc, whose z meets the fold line first), and
the norm bound, which raises :class:`BlowUp`.  A start that is not finite,
or has a negative coordinate, raises :class:`DomainError`.  The Filippov
concatenator stitches smooth and sliding arcs per the convex-combination
convention: trajectories entering the sliding region follow the sliding
field until the visible fold hands them back to X.  The fold launches and
the period of the planar center call the solver directly, since their lanes
and section crossings are not arcs.

Every integration that starts on a tangency watches a desingularised
event function, stateless and valued at t = 0 by its limit, so the initial
contact is never mistaken for a return.  An X-arc from a fold point (the
fold launches of the fold-return curve, stacked as planar lanes in one
solver call by :func:`integrate_fold_launches`, and the X-arc leaving the
visible fold inside a Filippov trajectory) watches h/t**2, whose limit
X2h/2 is positive on the visible fold; a return before the lift-off
X2h*t**2/2 exceeds the event tolerance raises :class:`TangencyAmbiguity`.
A sliding arc starting on the fold line (z0 within the event tolerance of
phi) watches (z - z0)/t on its first step, the step polynomial with t
divided out exactly, whose value at t = 0 is its initial z-rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    BlowUp,
    ChatteringGuard,
    DomainError,
    NoReturn,
    PreySwitchError,
    StepFailure,
    TangencyAmbiguity,
)
from .model import (
    Parameters,
    Piece,
    RegionLabel,
    SigmaState,
    classify_sigma_point,
    lie_derivatives,
    smooth_rhs,
)
from .sliding import eval_sliding, pseudo_equilibria, sliding_rhs, sliding_series

# every step cap and oracle bound of the smooth arcs was measured with this method
_METHOD = "DOP853"
# sliding arcs: Taylor order, and local tolerance relative to abs_tol
# (1e-16 at the defaults; order 16 at 1e-12 drifted 5.5e-12 from DOP853 on
# the certificate's capture arc, close to the oracle bound 1e-11)
_TAYLOR_ORDER = 24
_TAYLOR_TOL = 1e-4
_MAX_ARCS = 10_000
_FOLD_LABELS = (RegionLabel.VISIBLE_FOLD, RegionLabel.CUSP)


class Direction(Enum):
    FORWARD = 1
    BACKWARD = -1


class ArcKind(Enum):
    SMOOTH_X = "SmoothX"
    SMOOTH_Y = "SmoothY"
    SLIDING = "Sliding"


class EventKind(Enum):
    SIGMA_CROSSING = "SigmaCrossing"
    SIGMA_ENTRY_SLIDING = "SigmaEntrySliding"
    FOLD_EXIT = "FoldExit"
    FOCUS_CAPTURE = "FocusCapture"
    DOMAIN_EXIT = "DomainExit"
    HORIZON_REACHED = "HorizonReached"


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and horizon for all integrations.

    ``rel_tol`` and ``abs_tol`` are DOP853's tolerances; ``abs_tol`` also
    sets the local tolerance 1e-4*abs_tol of the Taylor steps of sliding
    arcs (see :func:`integrate_sliding`), so :meth:`halved` tightens both
    methods.  ``max_step`` of None caps every DOP853 step at 0.01 of the
    characteristic time 2*pi/sqrt(m*r1) of the planar center and leaves
    Taylor steps uncapped; a number caps every step of every integration
    alike.  All fields must be finite and positive, and ``event_tol`` may
    not exceed 100 * ``abs_tol``.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    event_tol: float = 1e-12
    max_step: float | None = None
    t_max: float = 400.0
    norm_bound: float = 1e6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "event_tol", "max_step", "t_max", "norm_bound"):
            value = getattr(self, name)
            if name == "max_step" and value is None:
                continue
            if not 0.0 < value < math.inf:  # false for NaN too
                raise DomainError(f"IntegratorConfig.{name} must be finite and positive, got {value}")
        if self.event_tol > 100.0 * self.abs_tol:
            raise DomainError("event_tol must not exceed 100 * abs_tol")

    def halved(self) -> "IntegratorConfig":
        """A copy with both integration tolerances halved (for cross-checks)."""
        return replace(self, rel_tol=self.rel_tol / 2.0, abs_tol=self.abs_tol / 2.0)


@dataclass(frozen=True)
class EventRecord:
    kind: EventKind
    t: float
    state: np.ndarray


@dataclass(frozen=True)
class Arc:
    """One piece of a Filippov trajectory under a single vector field.

    ``states`` rows are (x, y, z) for smooth arcs and (x, z) for sliding
    arcs (embedded in Sigma as (x, x, z)); planar arcs of the restricted
    Lotka-Volterra field also store (x, z), living in the plane y = 0.
    ``ts`` is strictly increasing for forward arcs and strictly decreasing
    for backward arcs.  ``steps`` counts the accepted steps of the arc's
    integration: DOP853 steps for a smooth arc, Taylor steps for a sliding
    arc.
    """

    kind: ArcKind
    t0: float
    t1: float
    ts: np.ndarray
    states: np.ndarray
    terminal_event: EventRecord
    steps: int

    @property
    def samples(self) -> list[tuple[float, np.ndarray]]:
        return [(float(t), self.states[i]) for i, t in enumerate(self.ts)]

    @property
    def planar(self) -> bool:
        return self.states.shape[1] == 2


@dataclass(frozen=True)
class Trajectory:
    initial: np.ndarray
    arcs: tuple[Arc, ...]

    def events(self) -> list[EventRecord]:
        return [a.terminal_event for a in self.arcs]


def characteristic_time(params: Parameters) -> float:
    """Linearized period of the planar center, 2*pi/sqrt(m*r1)."""
    return 2.0 * math.pi / math.sqrt(params.m * params.r1)


def _resolve_max_step(cfg: IntegratorConfig, params: Parameters) -> float:
    if cfg.max_step is not None:
        return cfg.max_step
    return 0.01 * characteristic_time(params)


def _terminal(g, direction: float):
    g.terminal = True
    g.direction = direction
    return g


def _run(
    f,
    s0,
    cfg: IntegratorConfig,
    params: Parameters,
    events,
    horizon: float,
):
    step = _resolve_max_step(cfg, params)
    sol = solve_ivp(
        f,
        (0.0, horizon),
        s0,
        method=_METHOD,
        events=events,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=step,
        first_step=min(step / 4.0, horizon / 2.0),
    )
    if sol.status == -1:
        raise StepFailure(sol.message)
    return sol


def _arc(
    kind: ArcKind,
    f,
    s0: np.ndarray,
    watch: list,
    sgn: float,
    t_start: float,
    cfg: IntegratorConfig,
    params: Parameters,
) -> tuple[Arc, float]:
    """Integrate f from s0 until the first event of one table, or the horizon.

    ``watch`` lists the arc's own terminal events as (EventKind, g,
    direction).  The table adds a DOMAIN_EXIT for each coordinate above
    ``cfg.event_tol`` (one starting at numerical zero lies on an invariant
    plane and stays exactly zero, so watching it would fire spuriously every
    step) and the norm bound, which raises :class:`BlowUp`.  The arc's
    terminal record carries the kind of the event that fired, or
    HORIZON_REACHED, and the arc's last time and state; it is returned with
    the solver time of that end, counted from 0 along the integration.  A
    start that is not finite and nonnegative raises :class:`DomainError`.
    """
    if not np.all(np.isfinite(s0)):
        raise DomainError(f"initial state must be finite, got {s0}")
    if np.any(s0 < 0.0):
        raise DomainError(f"initial state must be nonnegative, got {s0}")
    table = list(watch)
    for i, v in enumerate(s0):
        if v > cfg.event_tol:
            table.append((EventKind.DOMAIN_EXIT, lambda t, s, i=i: s[i], -1.0))
    b2 = cfg.norm_bound * cfg.norm_bound
    # no kind: crossing the norm bound is an error, not an end
    table.append((None, lambda t, s: b2 - sum(v * v for v in s.tolist()), -1.0))
    events = [_terminal(g, direction) for _, g, direction in table]
    sol = _run(f, s0, cfg, params, events, cfg.t_max)
    ts = t_start + sgn * sol.t
    states = sol.y.T.copy()

    # every event is terminal: at most one fires, and the solution ends on it
    end = next((table[i][0] for i, te in enumerate(sol.t_events) if len(te)), EventKind.HORIZON_REACHED)
    if end is None:
        raise BlowUp(f"state norm exceeded {cfg.norm_bound} at t = {float(ts[-1])}")
    record = EventRecord(end, float(ts[-1]), states[-1].copy())
    return Arc(kind, t_start, float(ts[-1]), ts, states, record, len(sol.t) - 1), float(sol.t[-1])


def _snap_sigma(state: np.ndarray) -> np.ndarray:
    xm = 0.5 * (state[0] + state[1])
    return np.array([xm, xm, state[2]])


def _lift_off_ambiguity(x0: float, half_X2h: float, t1: float, cfg: IntegratorConfig):
    """The error of a launch from the fold point x0 that returns to Sigma at
    t1 before its lift-off X2h*t1**2/2 exceeds ``cfg.event_tol``, so that the
    return is below the resolution of the integration (at the cusp); else
    None."""
    lift = half_X2h * t1 * t1
    if lift > cfg.event_tol:
        return None
    return TangencyAmbiguity(
        f"launch at x0 = {x0} returns at t = {t1:.2e}, before it separates "
        f"from Sigma by more than event_tol (X2h*t**2/2 = {lift:.2e})"
    )


def integrate_smooth(
    piece: Piece,
    s0,
    direction: Direction,
    cfg: IntegratorConfig,
    params: Parameters,
    t_start: float = 0.0,
) -> Arc:
    """Integrate one smooth piece until the first event or the horizon.

    For the 3D pieces the event table adds the switching plane h = x - y
    (falling through zero for X, rising for Y) to the domain and norm-bound
    events every arc watches; a SIGMA_CROSSING state is snapped onto Sigma
    as (xm, xm, z).  An X-arc starting on the fold line (h within the event
    tolerance, labelled VISIBLE_FOLD or CUSP) is tangent to Sigma, and
    watches h/t**2 instead, valued X2h/2 at t = 0; a return whose lift-off
    X2h*t1**2/2 is not above the event tolerance raises
    :class:`TangencyAmbiguity`, as does a start with X2h <= 0.
    """
    s0 = np.asarray(s0, dtype=float)
    dim = 2 if piece is Piece.PLANAR_LV else 3
    if s0.shape != (dim,):
        raise DomainError(f"{piece.value} expects a state of dimension {dim}")
    sgn = 1.0 if direction is Direction.FORWARD else -1.0

    watch: list = []
    half_X2h = None
    if piece in (Piece.X, Piece.Y):
        h0 = s0[0] - s0[1]
        side = 1.0 if piece is Piece.X else -1.0
        if h0 * side < -cfg.event_tol:
            raise DomainError(
                f"initial state is on the wrong side of Sigma for {piece.value}: h = {h0}"
            )
        xm = 0.5 * (s0[0] + s0[1])
        if (
            piece is Piece.X
            and abs(h0) <= cfg.event_tol
            and classify_sigma_point((xm, s0[2]), params, tol=cfg.event_tol) in _FOLD_LABELS
        ):
            half_X2h = 0.5 * lie_derivatives((xm, s0[2]), params)[2]
            if half_X2h <= 0.0:  # no lift-off: the return is immediate
                raise _lift_off_ambiguity(xm, half_X2h, 0.0, cfg)

            def g(t, s):
                if t == 0.0:
                    return half_X2h
                return (s[0] - s[1]) / (t * t)

            watch.append((EventKind.SIGMA_CROSSING, g, -1.0))
        else:
            watch.append((EventKind.SIGMA_CROSSING, lambda t, s: s[0] - s[1], -side))

    kind = ArcKind.SMOOTH_Y if piece is Piece.Y else ArcKind.SMOOTH_X
    arc, te = _arc(kind, smooth_rhs(piece, params, sgn), s0, watch, sgn, t_start, cfg, params)
    ev = arc.terminal_event
    if ev.kind is not EventKind.SIGMA_CROSSING:
        return arc
    if half_X2h is not None:
        err = _lift_off_ambiguity(xm, half_X2h, te, cfg)
        if err is not None:
            raise err
    return replace(arc, terminal_event=replace(ev, state=_snap_sigma(ev.state)))


def _bernstein_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree-n maps on coefficient vectors: power basis on [0, 1] to
    Bernstein basis, and Bernstein basis to the Bernstein bases of the left
    and right halves (de Casteljau at 1/2)."""
    to_bernstein = np.zeros((n + 1, n + 1))
    left = np.zeros((n + 1, n + 1))
    right = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(j + 1):
            to_bernstein[j, k] = math.comb(j, k) / math.comb(n, k)
            left[j, k] = math.comb(j, k) / 2.0**j
            right[n - j, n - k] = math.comb(j, k) / 2.0**j
    return to_bernstein, left, right


_TO_BERNSTEIN, _LEFT_HALF, _RIGHT_HALF = _bernstein_matrices(_TAYLOR_ORDER)
_POWERS = np.arange(_TAYLOR_ORDER + 1)
_ROOT_TOL = 4.0 * np.finfo(float).eps


def _horner(coefficients: list[float], u: float) -> float:
    value = 0.0
    for c in reversed(coefficients):
        value = value * u + c
    return value


def _first_root(a: np.ndarray, b: np.ndarray) -> float | None:
    """The first u in (0, 1] where p(u) = sum a_k u**k falls to zero, or None.

    ``b`` holds p's Bernstein coefficients on [0, 1]; p(0) = b_0 must not be
    negative beyond roundoff.  p is their combination with weights positive
    on (0, 1), so an interval where b_0 >= 0 and every other b_j > 0 holds no
    root.  Any other interval is halved, left half first, until one sign
    change of its b brackets a single root, which brentq locates to 4 eps.
    """
    coefficients = a.tolist()
    stack = [(0.0, 1.0, b)]
    while stack:
        lo, hi, b = stack.pop()
        if b[0] >= 0.0 and b[1:].min() > 0.0:
            continue
        # every interval left of lo is root-free, so p(lo) < 0 is roundoff
        # of a root at lo
        if b[0] < 0.0:
            return lo
        if hi - lo <= _ROOT_TOL:
            return hi
        positive = b > 0.0
        if b[0] > 0.0 and b[-1] <= 0.0 and np.count_nonzero(positive[1:] != positive[:-1]) == 1:
            p_lo, p_hi = _horner(coefficients, lo), _horner(coefficients, hi)
            if p_lo <= 0.0:
                return lo
            if p_hi <= 0.0:
                return brentq(partial(_horner, coefficients), lo, hi, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, _RIGHT_HALF @ b))
        stack.append((lo, mid, _LEFT_HALF @ b))
    return None


def _taylor_sliding_arc(
    p0: np.ndarray,
    sgn: float,
    on_fold: bool,
    focus: SigmaState,
    capture_radius: float,
    t_start: float,
    cfg: IntegratorConfig,
    params: Parameters,
) -> Arc:
    """The sliding arc from p0 by Taylor steps, up to its first event or the horizon.

    Each step expands the solution to order _TAYLOR_ORDER and takes Jorba
    and Zou's step h = min over k = n-1, n of (tol/|c_k|)**(1/k), with
    tol = _TAYLOR_TOL*abs_tol, capped by ``cfg.max_step`` if set.  In
    u = s/h on [0, 1] the event functions are polynomials, all falling
    through zero: z - phi (on the first step from the fold line,
    (z - z0)/u, its constant clamped at 0 against the cusp's roundoff), the
    squared distance to the focus minus its square radius (when positive),
    x (when above ``cfg.event_tol``), and 1 - |state|**2/norm_bound**2.
    Each step proves that none has a root in (0, 1] or ends at the first
    root.  The norm polynomial is formed only when the step's enclosure
    sum |c_k| h**k of each coordinate reaches the bound, so no state is
    formed before the bound is checked.
    """
    n = _TAYLOR_ORDER
    series = sliding_series(params, sgn)
    tol = _TAYLOR_TOL * cfg.abs_tol
    cap = math.inf if cfg.max_step is None else cfg.max_step
    r2 = capture_radius * capture_radius
    watch_x = p0[0] > cfg.event_tol
    s, state, steps = 0.0, p0, 0
    ts, states = [t_start], [p0]
    end = EventKind.HORIZON_REACHED
    while s < cfg.t_max:
        c = np.array(series(state, n))
        if not np.isfinite(c).all():
            raise StepFailure(f"Taylor coefficients overflow at t = {t_start + sgn * s}, state {state}")
        h = cap
        for k in (n - 1, n):
            norm = float(np.abs(c[:, k]).max())
            if norm > 0.0:
                h = min(h, (tol / norm) ** (1.0 / k))
        # the step taken is the difference of representable times, no longer than the cap
        if h >= cfg.t_max - s:
            s_end = cfg.t_max
            h = cfg.t_max - s
        else:
            s_end = s + h
            if s_end - s > cap:
                s_end = math.nextafter(s_end, s)
            h = s_end - s
            if not h > 0.0:
                raise StepFailure(f"Taylor step underflow at t = {t_start + sgn * s}")
        a = c * h**_POWERS

        fold = a[1].copy()
        if s == 0.0 and on_fold:
            fold = np.append(fold[1:], 0.0)
            fold[0] = max(fold[0], 0.0)
        else:
            fold[0] -= params.phi
        rows = [(EventKind.FOLD_EXIT, fold)]
        if r2 > 0.0:
            dx, dz = a[0].copy(), a[1].copy()
            dx[0] -= focus.x
            dz[0] -= focus.z
            d2 = (np.convolve(dx, dx) + np.convolve(dz, dz))[: n + 1]
            d2[0] -= r2
            rows.append((EventKind.FOCUS_CAPTURE, d2))
        if watch_x:
            rows.append((EventKind.DOMAIN_EXIT, a[0]))
        if not math.hypot(*np.abs(a).sum(axis=1).tolist()) < cfg.norm_bound:
            w = a / cfg.norm_bound
            q = -(np.convolve(w[0], w[0]) + np.convolve(w[1], w[1]))[: n + 1]
            q[0] += 1.0
            rows.append((None, q))

        polys = np.array([p for _, p in rows])
        bs = polys @ _TO_BERNSTEIN.T
        hit = None
        if bs.min() <= 0.0:
            for (kind, _), poly, b in zip(rows, polys, bs):
                u = _first_root(poly, b)
                if u is not None and (hit is None or u < hit[1]):
                    hit = (kind, u)

        steps += 1
        if hit is None:
            s = s_end
            state = a.sum(axis=1)
        else:
            kind, u = hit
            s += u * h
            if kind is None:
                raise BlowUp(f"state norm exceeded {cfg.norm_bound} at t = {t_start + sgn * s}")
            state = np.array([_horner(a[0].tolist(), u), _horner(a[1].tolist(), u)])
            end = kind
        t = t_start + sgn * s
        if t == ts[-1]:  # a root at the very start of the step
            states[-1] = state
        else:
            ts.append(t)
            states.append(state)
        if hit is not None:
            break

    ts_arr = np.array(ts)
    states_arr = np.array(states)
    record = EventRecord(end, float(ts_arr[-1]), states_arr[-1].copy())
    return Arc(ArcKind.SLIDING, t_start, float(ts_arr[-1]), ts_arr, states_arr, record, steps)


def integrate_sliding(
    p0,
    direction: Direction,
    cfg: IntegratorConfig,
    params: Parameters,
    focus_capture_radius: float = 1e-4,
    t_start: float = 0.0,
) -> Arc:
    """Integrate the sliding field from a point of the closed sliding region.

    Terminal events: FOLD_EXIT when z falls through phi (the visible fold,
    where the flow hands off to X), FOCUS_CAPTURE when the distance to the
    interior pseudo-equilibrium drops below ``focus_capture_radius`` (a
    radius of zero disables capture), a DOMAIN_EXIT when x falls through
    zero if it starts above the event tolerance (z cannot leave before it
    passes the fold line phi > 0), the norm bound, which raises
    :class:`BlowUp`, and the horizon; a FOLD_EXIT state is snapped to
    z = phi.  Starting on the fold line is allowed: if the flow points out
    of the region the arc is an immediate fold exit, otherwise the first
    step watches (z - z0)/t, whose value at t = 0 is the initial z-rate.  A
    start that is not finite raises :class:`DomainError`.

    The arc is integrated by Taylor series of order 24
    (:func:`~preyswitch.sliding.sliding_series`), with the step rule of
    Jorba and Zou (2005) at the local tolerance 1e-4*abs_tol.  On each step
    every event function is a polynomial, which the step either proves
    root-free or stops at, on its first root to 4 eps in t; so no step cap
    keeps events from being stepped over, and only an explicit
    ``cfg.max_step`` caps the steps.  ``ts`` and ``states`` hold the step
    ends.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (2,):
        raise DomainError("sliding state must be (x, z)")
    if not np.all(np.isfinite(p0)):
        raise DomainError(f"initial state must be finite, got {p0}")
    if focus_capture_radius < 0.0:
        raise DomainError("focus_capture_radius must be nonnegative")
    phi = params.phi
    if p0[0] <= 0.0:
        raise DomainError(f"sliding requires x > 0, got x = {p0[0]}")
    if p0[1] < phi - cfg.event_tol:
        raise DomainError(f"sliding requires z >= phi = {phi}, got z = {p0[1]}")
    sgn = 1.0 if direction is Direction.FORWARD else -1.0
    _, focus = pseudo_equilibria(params)

    if math.hypot(p0[0] - focus.x, p0[1] - focus.z) <= focus_capture_radius:
        record = EventRecord(EventKind.FOCUS_CAPTURE, t_start, p0.copy())
        return Arc(ArcKind.SLIDING, t_start, t_start, np.array([t_start]), p0[None, :].copy(), record, 0)

    on_fold = p0[1] - phi <= cfg.event_tol
    rate0 = sliding_rhs(params, sgn)(0.0, p0)
    # at the cusp the z-rate is analytically zero; a roundoff-scale residue
    # must not be mistaken for an outgoing flow
    if on_fold and rate0[1] < -1e-10 * max(1.0, abs(rate0[0])):
        snapped = np.array([p0[0], phi])
        record = EventRecord(EventKind.FOLD_EXIT, t_start, snapped)
        return Arc(ArcKind.SLIDING, t_start, t_start, np.array([t_start]), snapped[None, :], record, 0)

    arc = _taylor_sliding_arc(p0, sgn, on_fold, focus, focus_capture_radius, t_start, cfg, params)
    ev = arc.terminal_event
    if ev.kind is EventKind.FOLD_EXIT:
        arc = replace(arc, terminal_event=replace(ev, state=np.array([ev.state[0], phi])))
    return arc


def integrate_fold_launches(
    x0s, cfg: IntegratorConfig, params: Parameters
) -> list[tuple[float, float] | PreySwitchError]:
    """First transversal returns (u, v) of X-launches from fold points.

    Along X, y = x0*exp(r2*t) exactly and (x, z) follows the planar
    Lotka-Volterra field, which does not depend on x0.  So the launches
    (x0, x0, phi) are integrated as planar lanes stacked in one solver call.
    Lane i returns to Sigma where h_i = x_i - x0_i*exp(r2*t) falls through
    zero.  Its event function is h_i/t**2, whose limit at t = 0 is X2h/2 > 0
    for x0 < tau, so the tangential start is never taken for a return and
    no event needs arming.  The call ends once every lane is below Sigma at
    the same time.  The lanes share one step-size control, so a lane's
    (u, v) depends, at about 1e-12, on the other lanes in its call.

    Returns one entry per launch, in order: (u, v), or the error that launch
    met, unraised.  DomainError when x0 is not positive (NaN included);
    TangencyAmbiguity when x0 >= tau, or when the lift-off excursion
    X2h*t1**2/2 before the return at t1 is not above ``cfg.event_tol``, so
    that the return is below the resolution of the integration (at the
    cusp); NoReturn when a lane does not return within ``cfg.t_max``.  Each
    return must satisfy u = x0*exp(r2*t1) to 1e-10 relative.
    """
    x0s = [float(x0) for x0 in x0s]
    tau, phi, r2 = params.tau, params.phi, params.r2
    out: list = [None] * len(x0s)
    lanes = []
    for i, x0 in enumerate(x0s):
        if not x0 > 0.0:
            out[i] = DomainError(f"fold launch requires x0 > 0, got {x0}")
        elif x0 >= tau:
            out[i] = TangencyAmbiguity(
                f"x0 = {x0} >= tau = {tau}: the fold contact is not visible there"
            )
        else:
            lanes.append(i)
    if not lanes:
        return out

    x0 = np.array([x0s[i] for i in lanes])
    k = len(x0)
    half_X2h = np.array([0.5 * lie_derivatives((x, phi), params)[2] for x in x0])

    def lane_event(j):
        def g(t, s):
            if t == 0.0:
                return half_X2h[j]
            return (s[j] - x0[j] * math.exp(r2 * t)) / (t * t)

        g.terminal = False
        g.direction = -1.0
        return g

    def all_below(t, s):
        if t == 0.0:
            return float(np.max(half_X2h))
        return float(np.max(s[:k] - x0 * math.exp(r2 * t))) / (t * t)

    events = [lane_event(j) for j in range(k)] + [_terminal(all_below, -1.0)]
    s0 = np.concatenate((x0, np.full(k, phi)))
    sol = _run(smooth_rhs(Piece.PLANAR_LV, params), s0, cfg, params, events, cfg.t_max)

    for j, i in enumerate(lanes):
        xi = x0s[i]
        if len(sol.t_events[j]):
            t1, state = float(sol.t_events[j][0]), sol.y_events[j][0]
        elif len(sol.t_events[k]):
            # the lane crossed at the very root that ended the call, and
            # solve_ivp dropped its own event as coming after the terminal one
            t1, state = float(sol.t_events[k][0]), sol.y_events[k][0]
        else:
            out[i] = NoReturn(f"no return to Sigma within t_max = {cfg.t_max} from x0 = {xi}")
            continue
        err = _lift_off_ambiguity(xi, float(half_X2h[j]), t1, cfg)
        if err is not None:
            out[i] = err
            continue
        u, v = float(state[j]), float(state[k + j])
        expected = xi * math.exp(r2 * t1)
        if abs(u - expected) > 1e-10 * abs(u):
            out[i] = PreySwitchError(
                f"return consistency u = x0*exp(r2*t1) violated at x0 = {xi}: "
                f"u = {u!r}, x0*exp(r2*t1) = {expected!r}"
            )
            continue
        out[i] = (u, v)
    return out


def integrate_filippov(s0, cfg: IntegratorConfig, params: Parameters) -> Trajectory:
    """Forward Filippov trajectory from s0 as a concatenation of arcs.

    In h > 0 the flow follows X, in h < 0 it follows Y.  A hit on Sigma is
    classified: crossing points hand over to the other piece, sliding
    points start a sliding arc that ends at a fold exit, after which X
    resumes from the fold point.  Terminates at the horizon, on domain
    exit, or on focus capture.  Raises :class:`ChatteringGuard` when
    switching events accumulate faster than the event tolerance resolves.
    A sliding arc is captured within 1e-4 of the pseudo-focus.
    """
    s = np.asarray(s0, dtype=float)
    if s.shape != (3,):
        raise DomainError("Filippov initial state must be (x, y, z)")
    initial = s.copy()
    arcs: list[Arc] = []
    t = 0.0
    sigma_times: list[float] = []

    def note_sigma_event(te: float):
        sigma_times.append(te)
        if len(sigma_times) >= 50 and te - sigma_times[-50] <= 10.0 * cfg.event_tol:
            raise ChatteringGuard(
                f"50 switching events within {10.0 * cfg.event_tol} time units near t = {te}"
            )

    while len(arcs) < _MAX_ARCS:
        remaining = cfg.t_max - t
        if remaining <= cfg.event_tol:
            break
        sub = replace(cfg, t_max=remaining)
        h = s[0] - s[1]

        if abs(h) <= cfg.event_tol:
            xm = 0.5 * (s[0] + s[1])
            label = classify_sigma_point((xm, s[2]), params, tol=cfg.event_tol)
            if label is RegionLabel.ORIGIN_LINE:
                raise DomainError("trajectory reached the origin line of Sigma")
            if label is RegionLabel.SLIDING or (
                label in _FOLD_LABELS and eval_sliding((xm, s[2]), params)[1] > 0.0
            ):
                arc = integrate_sliding((xm, s[2]), Direction.FORWARD, sub, params, t_start=t)
                arcs.append(arc)
                ev = arc.terminal_event
                if ev.kind is EventKind.FOLD_EXIT:
                    note_sigma_event(ev.t)
                    s = np.array([ev.state[0], ev.state[0], params.phi])
                    t = ev.t
                    continue
                break
            piece = Piece.X
        else:
            piece = Piece.X if h > 0 else Piece.Y

        arc = integrate_smooth(piece, s, Direction.FORWARD, sub, params, t_start=t)
        ev = arc.terminal_event
        if ev.kind is not EventKind.SIGMA_CROSSING:
            arcs.append(arc)
            break

        note_sigma_event(ev.t)
        xm = ev.state[0]
        label = classify_sigma_point((xm, ev.state[2]), params, tol=cfg.event_tol)
        if label is RegionLabel.CROSSING or (label is RegionLabel.BOUNDARY and ev.state[2] < params.phi):
            arcs.append(arc)
            s = ev.state.copy()
            t = ev.t
            continue
        if label is RegionLabel.ORIGIN_LINE:
            arcs.append(replace(arc, terminal_event=EventRecord(EventKind.DOMAIN_EXIT, ev.t, ev.state)))
            break
        relabeled = EventRecord(EventKind.SIGMA_ENTRY_SLIDING, ev.t, ev.state)
        arcs.append(replace(arc, terminal_event=relabeled))
        s = ev.state.copy()
        t = ev.t
    else:
        raise PreySwitchError(f"trajectory exceeded {_MAX_ARCS} arcs")

    return Trajectory(initial=initial, arcs=tuple(arcs))


def lv_period(x0: float, cfg: IntegratorConfig, params: Parameters) -> float:
    """Period of the planar Lotka-Volterra orbit through (x0, r1).

    The orbit leaves the section z = r1 downward, recrosses it upward on the
    far side of the center, and the next downward crossing closes the loop.
    Raises :class:`NoReturn` if either crossing is missing within the
    horizon.
    """
    x0 = float(x0)
    tau = params.tau
    if not 0.0 < x0 < tau:
        raise DomainError(f"lv_period requires 0 < x0 < tau = {tau}, got {x0}")
    r1 = params.r1
    f = smooth_rhs(Piece.PLANAR_LV, params)

    up = _terminal(lambda t, s: s[1] - r1, 1.0)
    sol1 = _run(f, np.array([x0, r1]), cfg, params, [up], cfg.t_max)
    if not len(sol1.t_events[0]):
        raise NoReturn(f"no upward recrossing of z = r1 within t_max = {cfg.t_max}")
    t_up = float(sol1.t_events[0][0])
    s_up = np.array(sol1.y_events[0][0])

    down = _terminal(lambda t, s: s[1] - r1, -1.0)
    sol2 = _run(f, s_up, cfg, params, [down], cfg.t_max - t_up)
    if not len(sol2.t_events[0]):
        raise NoReturn(f"no closing crossing of z = r1 within t_max = {cfg.t_max}")
    return t_up + float(sol2.t_events[0][0])


def trajectory_rows(traj: Trajectory) -> list[tuple[float, float, float, float, str, int]]:
    """Flatten a trajectory to (t, x, y, z, arc_kind, arc_index) rows.

    Sliding samples are embedded in Sigma as (x, x, z); planar samples live
    in the invariant plane y = 0.
    """
    rows = []
    for i, arc in enumerate(traj.arcs):
        for t, state in arc.samples:
            if arc.planar:
                y = state[0] if arc.kind is ArcKind.SLIDING else 0.0
                row = (t, float(state[0]), float(y), float(state[1]), arc.kind.value, i)
            else:
                row = (t, float(state[0]), float(state[1]), float(state[2]), arc.kind.value, i)
            rows.append(row)
    return rows


def events_payload(traj: Trajectory) -> list[dict]:
    """Event log of a trajectory as JSON-ready dictionaries."""
    return [
        {"kind": ev.kind.value, "t": ev.t, "state": [float(v) for v in ev.state]}
        for ev in traj.events()
    ]
