"""Event-detecting integration and Filippov concatenation.

Smooth arcs are integrated with an adaptive embedded Runge-Kutta pair
(scipy's solve_ivp) whose dense output localizes event times; terminal
events are the switching plane h = x - y, the domain boundary (a coordinate
reaching zero), and a norm bound.  Sliding arcs integrate the closed-form
sliding field with fold-exit and focus-capture events.  The Filippov
concatenator stitches smooth and sliding arcs per the convex-combination
convention: trajectories entering the sliding region follow the sliding
field until the visible fold hands them back to X.

Every integration that starts on a tangency watches a desingularised
event function, stateless and valued at t = 0 by its limit, so the initial
contact is never mistaken for a return.  An X-arc from a fold point (the
fold launches of the fold-return curve, stacked as planar lanes in one
solver call by :func:`integrate_fold_launches`, and the X-arc leaving the
visible fold inside a Filippov trajectory) watches h/t**2, whose limit
X2h/2 is positive on the visible fold; a return before the lift-off
X2h*t**2/2 exceeds the event tolerance raises :class:`TangencyAmbiguity`.
A sliding arc starting on the fold line watches (z - phi)/t, whose limit is
its initial z-rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BlowUp,
    ChatteringGuard,
    DomainError,
    NoReturn,
    PreySwitchError,
    StepFailure,
    TangencyAmbiguity,
)
from .model import Parameters, Piece, RegionLabel, classify_sigma_point, lie_derivatives, smooth_rhs
from .sliding import classify_focus, eval_sliding, pseudo_equilibria, sliding_rhs

# every step cap and oracle bound was measured with this method
_METHOD = "DOP853"
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

    ``max_step`` of None caps every step at 0.01 of the period of the field
    being integrated: for sliding arcs, 2*pi/|lambda| of the interior
    pseudo-focus (see :func:`integrate_sliding`); for everything else, the
    characteristic time 2*pi/sqrt(m*r1) of the planar center.  A number
    caps every integration alike.  All fields must be positive and
    ``event_tol`` may not exceed 100 * ``abs_tol``.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    event_tol: float = 1e-12
    max_step: float | None = None
    t_max: float = 400.0
    norm_bound: float = 1e6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "event_tol", "t_max", "norm_bound"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"IntegratorConfig.{name} must be positive")
        if self.max_step is not None and self.max_step <= 0.0:
            raise DomainError("IntegratorConfig.max_step must be positive")
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
    for backward arcs.
    """

    kind: ArcKind
    t0: float
    t1: float
    ts: np.ndarray
    states: np.ndarray
    terminal_event: EventRecord

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


def _sliding_max_step(cfg: IntegratorConfig, params: Parameters) -> float:
    """Step cap for sliding arcs: 0.01 of the pseudo-focus's own period.

    The sliding arcs circle the interior pseudo-equilibrium, so the cap is
    0.01*2*pi/|lambda| when it is a focus.  Where it is not, or cannot be
    classified, the planar center's cap applies.
    """
    if cfg.max_step is not None:
        return cfg.max_step
    try:
        pe = classify_focus(params)
    except PreySwitchError:
        return _resolve_max_step(cfg, params)
    if pe.beta_imag > 0.0:
        return 0.01 * 2.0 * math.pi / math.hypot(pe.alpha, pe.beta_imag)
    return _resolve_max_step(cfg, params)


def _terminal(g, direction: float):
    g.terminal = True
    g.direction = direction
    return g


def _domain_events(s0: np.ndarray, event_tol: float) -> list:
    """One terminal zero-crossing event per coordinate not starting at zero.

    Coordinates starting at (numerical) zero lie on an invariant plane and
    stay exactly zero, so watching them would fire spuriously every step.
    """
    events = []
    for i, v in enumerate(s0):
        if v > event_tol:

            def g(t, s, i=i):
                return s[i]

            events.append(_terminal(g, -1.0))
    return events


def _blowup_event(norm_bound: float):
    b2 = norm_bound * norm_bound

    def g(t, s):
        return b2 - sum(v * v for v in s.tolist())

    return _terminal(g, -1.0)


def _run(
    f,
    s0,
    cfg: IntegratorConfig,
    params: Parameters,
    events,
    horizon: float,
    max_step: float | None = None,
):
    step = max_step if max_step is not None else _resolve_max_step(cfg, params)
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


def _first_event(sol) -> tuple[int, float, np.ndarray] | None:
    """Index, time and state of the earliest fired event, if any."""
    best = None
    for i, te in enumerate(sol.t_events):
        if len(te):
            if best is None or te[0] < best[1]:
                best = (i, float(te[0]), np.array(sol.y_events[i][0]))
    return best


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

    For the 3D pieces the switching plane h = x - y is monitored (falling
    through zero for X, rising for Y); all pieces monitor the domain
    boundary and the norm bound.  An X-arc starting on the fold line (h
    within the event tolerance, labelled VISIBLE_FOLD or CUSP) is tangent to
    Sigma, and watches h/t**2 instead, valued X2h/2 at t = 0; a return
    whose lift-off X2h*t1**2/2 is not above the event tolerance raises
    :class:`TangencyAmbiguity`, as does a start with X2h <= 0.
    """
    s0 = np.asarray(s0, dtype=float)
    dim = 2 if piece is Piece.PLANAR_LV else 3
    if s0.shape != (dim,):
        raise DomainError(f"{piece.value} expects a state of dimension {dim}")
    sgn = 1.0 if direction is Direction.FORWARD else -1.0

    events: list = []
    sigma_index = None
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

            ev = _terminal(g, -1.0)
        else:
            ev = _terminal(lambda t, s: s[0] - s[1], -side)
        sigma_index = 0
        events.append(ev)
    events.extend(_domain_events(s0, cfg.event_tol))
    blow_index = len(events)
    events.append(_blowup_event(cfg.norm_bound))

    sol = _run(smooth_rhs(piece, params, sgn), s0, cfg, params, events, cfg.t_max)

    kind = {Piece.X: ArcKind.SMOOTH_X, Piece.Y: ArcKind.SMOOTH_Y, Piece.PLANAR_LV: ArcKind.SMOOTH_X}[piece]
    ts = t_start + sgn * sol.t
    states = sol.y.T.copy()

    hit = _first_event(sol)
    if hit is None:
        record = EventRecord(EventKind.HORIZON_REACHED, float(ts[-1]), states[-1].copy())
    else:
        idx, te, ye = hit
        t_ev = t_start + sgn * te
        if idx == blow_index:
            raise BlowUp(f"state norm exceeded {cfg.norm_bound} at t = {t_ev}")
        if idx == sigma_index:
            if half_X2h is not None:
                err = _lift_off_ambiguity(xm, half_X2h, te, cfg)
                if err is not None:
                    raise err
            record = EventRecord(EventKind.SIGMA_CROSSING, t_ev, _snap_sigma(ye))
        else:
            record = EventRecord(EventKind.DOMAIN_EXIT, t_ev, ye)
    return Arc(
        kind=kind,
        t0=t_start,
        t1=float(ts[-1]),
        ts=ts,
        states=states,
        terminal_event=record,
    )


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
    radius of zero disables capture), DOMAIN_EXIT and the horizon.
    Starting on the fold line is allowed: if the flow points out of the
    region the arc is an immediate fold exit, otherwise the fold event
    watches (z - phi)/t, valued at the initial z-rate at t = 0.  Unless
    ``cfg.max_step`` is set, steps are capped at 0.01*2*pi/|lambda|, with
    |lambda| = hypot(alpha, beta_imag) the eigenvalue modulus of the
    interior pseudo-focus, since the arcs circle that point; where it is
    not a focus, at 0.01*2*pi/sqrt(m*r1).
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (2,):
        raise DomainError("sliding state must be (x, z)")
    if focus_capture_radius < 0.0:
        raise DomainError("focus_capture_radius must be nonnegative")
    phi = params.phi
    if p0[0] <= 0.0:
        raise DomainError(f"sliding requires x > 0, got x = {p0[0]}")
    if p0[1] < phi - cfg.event_tol:
        raise DomainError(f"sliding requires z >= phi = {phi}, got z = {p0[1]}")
    sgn = 1.0 if direction is Direction.FORWARD else -1.0
    _, focus = pseudo_equilibria(params)
    fx, fz = focus.x, focus.z

    dist0 = math.hypot(p0[0] - fx, p0[1] - fz)
    if dist0 <= focus_capture_radius:
        record = EventRecord(EventKind.FOCUS_CAPTURE, t_start, p0.copy())
        return Arc(ArcKind.SLIDING, t_start, t_start, np.array([t_start]), p0[None, :].copy(), record)

    f = sliding_rhs(params, sgn)
    on_fold = p0[1] - phi <= cfg.event_tol
    rate0 = f(0.0, p0)
    # at the cusp the z-rate is analytically zero; a roundoff-scale residue
    # must not be mistaken for an outgoing flow
    if on_fold and rate0[1] < -1e-10 * max(1.0, abs(rate0[0])):
        snapped = np.array([p0[0], phi])
        record = EventRecord(EventKind.FOLD_EXIT, t_start, snapped)
        return Arc(ArcKind.SLIDING, t_start, t_start, np.array([t_start]), snapped[None, :], record)

    if on_fold:

        def g_fold(t, s):
            if t == 0.0:
                return rate0[1]
            return (s[1] - phi) / t

    else:

        def g_fold(t, s):
            return s[1] - phi

    events: list = [_terminal(g_fold, -1.0)]

    def g_capture(t, s):
        return math.hypot(s[0] - fx, s[1] - fz) - focus_capture_radius

    events.append(_terminal(g_capture, -1.0))
    events.extend(_domain_events(p0, cfg.event_tol))
    blow_index = len(events)
    events.append(_blowup_event(cfg.norm_bound))

    sol = _run(f, p0, cfg, params, events, cfg.t_max, max_step=_sliding_max_step(cfg, params))
    ts = t_start + sgn * sol.t
    states = sol.y.T.copy()

    hit = _first_event(sol)
    if hit is None:
        record = EventRecord(EventKind.HORIZON_REACHED, float(ts[-1]), states[-1].copy())
    else:
        idx, te, ye = hit
        t_ev = t_start + sgn * te
        if idx == blow_index:
            raise BlowUp(f"state norm exceeded {cfg.norm_bound} at t = {t_ev}")
        elif idx == 0:
            record = EventRecord(EventKind.FOLD_EXIT, t_ev, np.array([ye[0], phi]))
        elif idx == 1:
            record = EventRecord(EventKind.FOCUS_CAPTURE, t_ev, ye)
        else:
            record = EventRecord(EventKind.DOMAIN_EXIT, t_ev, ye)
    return Arc(
        kind=ArcKind.SLIDING,
        t0=t_start,
        t1=float(ts[-1]),
        ts=ts,
        states=states,
        terminal_event=record,
    )


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
    met, unraised.  DomainError when x0 <= 0; TangencyAmbiguity when
    x0 >= tau, or when the lift-off excursion X2h*t1**2/2 before the return
    at t1 is not above ``cfg.event_tol``, so that the return is below the
    resolution of the integration (at the cusp); NoReturn when a lane does
    not return within ``cfg.t_max``.  Each return must satisfy
    u = x0*exp(r2*t1) to 1e-10 relative.
    """
    x0s = [float(x0) for x0 in x0s]
    tau, phi, r2 = params.tau, params.phi, params.r2
    out: list = [None] * len(x0s)
    lanes = []
    for i, x0 in enumerate(x0s):
        if x0 <= 0.0:
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
            if arc.states.shape[1] == 2:
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
