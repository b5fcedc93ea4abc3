"""Locating the sliding homoclinic connection.

The visible-fold segment 0 < x0 < tau launches X-trajectories tangent to
Sigma whose first transversal return traces the curve
mu(x0) = (u(x0), u(x0), v(x0)).  The connection exists when the interior
pseudo-equilibrium (x_c, z_c) of the sliding field lands on that curve.
The X-flow is free of beta1 and x_c is a Moebius function of beta1, so the
connection is one root in x0 of G(x0) = v(x0) - z_c(beta1(u(x0))): this
module computes mu and its coarse beta1-free samples, measures the signed
vertical distance D from the focus to the curve, solves G = 0 between the
fold points matched to the ends of a beta1 range, and certifies the
resulting loop (finite-time forward arc onto the focus, asymptotic backward
sliding capture, and the ordering of the sliding return x* below the fold
point).  It also constructs explicit parameter points of the
codimension-one connection manifold via the beta2/e identities, and samples
the first-return map along the fold as a chaos diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from dataclasses import replace as dataclasses_replace

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DomainError,
    FocusLanding,
    IdentityInfeasible,
    InequalityViolated,
    Lemma2Violation,
    MultipleRoots,
    NoBracket,
    NoReturn,
    OrbitEscaped,
    PreySwitchError,
    SameSign,
    TangencyAmbiguity,
    VerificationFailure,
)
from .flow import (
    Direction,
    EventKind,
    IntegratorConfig,
    integrate_sliding,
    integrate_smooth,
    lv_period,
)
from .model import Parameters, Piece, SigmaState, validate_parameters
from .sliding import FocusKind, classify_focus, pseudo_equilibria


@dataclass(frozen=True)
class MuCurve:
    """Sampled fold-return curve x0 -> (u(x0), v(x0))."""

    x0s: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    params: Parameters

    def __len__(self) -> int:
        return len(self.x0s)

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(a), float(b), float(c))
            for a, b, c in zip(self.x0s, self.us, self.vs)
        ]


@dataclass(frozen=True)
class ConnectionCertificate:
    """Numerical evidence of a sliding homoclinic loop.

    ``forward_error`` is the 3D distance from the X-arc's landing on Sigma
    to the pseudo-focus; ``x_star`` is the fold abscissa where the forward
    sliding orbit through (tau, phi) returns, or None if it never does;
    ``residual_D`` is the signed distance functional at the certified
    parameters.
    """

    beta1_star: float
    x0: float
    focus: SigmaState
    forward_error: float
    backward_captured: bool
    capture_radius: float
    x_star: float | None
    residual_D: float
    params: Parameters
    cfg: IntegratorConfig
    bracket_width: float | None = None

    def payload(self) -> dict:
        return {
            "beta1_star": self.beta1_star,
            "x0": self.x0,
            "focus": {"x": self.focus.x, "z": self.focus.z},
            "forward_error": self.forward_error,
            "backward_captured": self.backward_captured,
            "capture_radius": self.capture_radius,
            "x_star": self.x_star,
            "residual_D": self.residual_D,
            "bracket_width": self.bracket_width,
            "params": self.params.as_dict(),
            "cfg": asdict(self.cfg),
        }


@dataclass(frozen=True)
class NPointReport:
    """A constructed point of the connection manifold and its residuals."""

    params_out: Parameters
    x0: float
    r2: float
    M_bound: float
    identity_residuals: dict[str, float]
    mu: tuple[float, float]
    cfg: IntegratorConfig

    def payload(self) -> dict:
        return {
            "params_out": self.params_out.as_dict(),
            "x0": self.x0,
            "r2": self.r2,
            "M_bound": self.M_bound,
            "identity_residuals": dict(self.identity_residuals),
            "mu": {"u": self.mu[0], "v": self.mu[1]},
            "cfg": asdict(self.cfg),
        }


@dataclass(frozen=True)
class Lemma1Report:
    """Measured fold-return asymptotics against their predicted laws."""

    eps: float
    slope: float
    slope_rel_err: float
    slope_pass: bool
    v_ratio: float
    v_ratio_pass: bool
    r2_small: float
    x0: float
    period: float
    coeff_measured: float
    coeff_predicted: float
    coeff_rel_err: float
    coeff_pass: bool

    @property
    def passed(self) -> bool:
        return self.slope_pass and self.v_ratio_pass and self.coeff_pass

    def payload(self) -> dict:
        d = asdict(self)
        d["passed"] = self.passed
        return d


def mu_point(x0: float, params: Parameters, cfg: IntegratorConfig) -> tuple[float, float]:
    """First transversal return (u, v) of the X-flow launched at a fold point.

    The launch (x0, x0, phi) is tangent to Sigma; the switching event is
    armed only after separation, and the located return must satisfy
    u = x0*exp(r2*t1) to 1e-10 relative (the y-component grows exactly
    exponentially, so this cross-checks both the integration and the event
    location).
    """
    x0 = float(x0)
    if x0 <= 0.0:
        raise DomainError(f"fold launch requires x0 > 0, got {x0}")
    tau = params.tau
    if x0 >= tau:
        raise TangencyAmbiguity(
            f"x0 = {x0} >= tau = {tau}: the fold contact is not visible there"
        )
    arc = integrate_smooth(
        Piece.X,
        (x0, x0, params.phi),
        Direction.FORWARD,
        cfg,
        params,
        skip_initial_tangency=True,
    )
    ev = arc.terminal_event
    if ev.kind is not EventKind.SIGMA_CROSSING:
        if ev.kind is EventKind.HORIZON_REACHED:
            h_max = float(np.max(arc.states[:, 0] - arc.states[:, 1]))
            if h_max <= cfg.event_tol:
                raise TangencyAmbiguity(
                    f"launch at x0 = {x0} never separated from Sigma (max h = {h_max:.2e})"
                )
            raise NoReturn(f"no return to Sigma within t_max = {cfg.t_max} from x0 = {x0}")
        raise NoReturn(f"fold launch at x0 = {x0} terminated with {ev.kind.value}")
    u, v = float(ev.state[0]), float(ev.state[2])
    t1 = ev.t - arc.t0
    expected = x0 * math.exp(params.r2 * t1)
    if abs(u - expected) > 1e-10 * abs(u):
        raise PreySwitchError(
            f"return consistency u = x0*exp(r2*t1) violated at x0 = {x0}: "
            f"u = {u!r}, x0*exp(r2*t1) = {expected!r}"
        )
    return u, v


def mu_curve(grid, params: Parameters, cfg: IntegratorConfig) -> MuCurve:
    """Evaluate the fold-return map over a sorted grid of launch points."""
    x0s = np.asarray(grid, dtype=float)
    if x0s.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    if len(x0s) and np.any(np.diff(x0s) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    us = np.empty_like(x0s)
    vs = np.empty_like(x0s)
    for i, x0 in enumerate(x0s):
        try:
            us[i], vs[i] = mu_point(x0, params, cfg)
        except PreySwitchError as err:
            raise type(err)(f"mu_curve node x0 = {x0}: {err}") from err
    return MuCurve(x0s=x0s, us=us, vs=vs, params=params)


def working_window(curve: MuCurve, params: Parameters) -> tuple[int, int] | None:
    """Indices of the longest contiguous run with 0 < u < tau and v > r1.

    This is the sampled realization of the window on which the fold-return
    curve stays inside the sliding region with v above r1; returns None when
    no sample qualifies.
    """
    tau = params.tau
    ok = (curve.us > 0.0) & (curve.us < tau) & (curve.vs > params.r1)
    best: tuple[int, int] | None = None
    start = None
    for i, flag in enumerate(list(ok) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if best is None or (i - 1 - start) > (best[1] - best[0]):
                best = (start, i - 1)
            start = None
    return best


_COARSE_N = 48
_COARSE_SPAN = (0.02, 0.99)


def coarse_mu_curve(params: Parameters, cfg: IntegratorConfig) -> MuCurve:
    """The fold-return curve on the coarse grid that brackets the matching.

    48 launches evenly spaced over [0.02, 0.99]*tau.  X depends on
    (r1, r2, m, e*q1) only, so one curve serves every beta1 and beta2.
    """
    tau = params.tau
    grid = np.linspace(_COARSE_SPAN[0] * tau, _COARSE_SPAN[1] * tau, _COARSE_N)
    return mu_curve(grid, params, cfg)


def _x_flow_rates(params: Parameters) -> tuple[float, float, float, float]:
    return params.r1, params.r2, params.m, params.e * params.q1


def _repulsive_focus(params: Parameters) -> SigmaState:
    """The interior pseudo-equilibrium, which must be a repulsive focus."""
    pe = classify_focus(params)
    if pe.kind is not FocusKind.REPULSIVE_FOCUS:
        raise Lemma2Violation(
            f"pseudo-equilibrium is {pe.kind.value}, not a repulsive focus "
            f"(beta1 = {params.beta1})"
        )
    if not 0.0 < pe.location.x < params.tau:
        raise Lemma2Violation(f"x_c = {pe.location.x} is outside (0, tau) (beta1 = {params.beta1})")
    return pe.location


def _beta1_with_focus_at(u: float, params: Parameters) -> float:
    """The beta1 whose pseudo-focus abscissa x_c is u: x_c's Moebius inverse."""
    p = params
    return (
        p.beta2 * p.r1 * p.a_q * (u * p.e * p.q1 - p.m)
        / (p.r2 * (p.a_q * p.m - u * p.e * p.q2))
    )


def distance_to_connection(
    params: Parameters, cfg: IntegratorConfig, curve: MuCurve
) -> tuple[float, float]:
    """Signed distance D from the pseudo-focus to the fold-return curve.

    Solves u(x0) = x_c on the working window of ``curve`` (from
    :func:`coarse_mu_curve`, for any beta1) and returns (D, x0_matched) with
    D = v(x0_matched) - z_c: positive when the focus lies below the curve,
    negative above.  Raises :class:`DomainError` when the curve's X-flow
    rates (r1, r2, m, e*q1) are not those of ``params``, :class:`NoBracket`
    when x_c is outside the attained range of u, :class:`MultipleRoots` when
    the sampled u is not monotone around the bracket, and
    :class:`Lemma2Violation` when the pseudo-equilibrium is not a repulsive
    focus.
    """
    if _x_flow_rates(curve.params) != _x_flow_rates(params):
        raise DomainError(
            f"the curve was sampled for X-flow rates (r1, r2, m, e*q1) = "
            f"{_x_flow_rates(curve.params)}, not {_x_flow_rates(params)}"
        )
    focus = _repulsive_focus(params)
    x_c, z_c = focus.x, focus.z
    win = working_window(curve, params)
    if win is None:
        raise NoBracket("the fold-return curve has no working window")
    i0, i1 = win
    xs = curve.x0s[i0 : i1 + 1]
    us = curve.us[i0 : i1 + 1]
    if len(xs) < 2:
        raise NoBracket("the working window contains fewer than two samples")

    d = us - x_c
    hits = [
        j for j in range(len(d) - 1) if d[j] == 0.0 or ((d[j] < 0.0) != (d[j + 1] < 0.0))
    ]
    if not hits:
        raise NoBracket(
            f"x_c = {x_c} lies outside the attained fold-return range "
            f"[{us.min()}, {us.max()}]"
        )
    if len(hits) > 1:
        raise MultipleRoots(
            f"u - x_c changes sign {len(hits)} times on the working window"
        )
    j = hits[0]
    neighborhood = us[max(0, j - 1) : j + 3]
    steps = np.diff(neighborhood)
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise MultipleRoots("u is not monotone across the matching bracket")

    x0 = brentq(
        lambda x: mu_point(x, params, cfg)[0] - x_c,
        xs[j],
        xs[j + 1],
        xtol=1e-12,
    )
    _, v = mu_point(x0, params, cfg)
    return v - z_c, float(x0)


def find_shilnikov(
    base: Parameters, beta1_range: tuple[float, float], cfg: IntegratorConfig
) -> ConnectionCertificate:
    """The sliding homoclinic connection, as one root in the fold point x0.

    Each x0 fixes the one beta1(u(x0)) whose focus abscissa is u(x0), so the
    connection is the root of G(x0) = v(x0) - z_c(beta1(u(x0))), bracketed
    by the fold points that :func:`distance_to_connection` matches to the
    ends of ``beta1_range``; their distances must differ in sign, else
    :class:`SameSign`.  Each evaluation of G raises :class:`Lemma2Violation`,
    naming its beta1, when the focus is not repulsive.  The root is then
    certified; ``bracket_width`` is the beta1 width of a final x0 bracket
    whose two ends were both evaluated and give G opposite signs.
    """
    lo, hi = (float(beta1_range[0]), float(beta1_range[1]))
    if not lo < hi:
        raise SameSign(f"beta1 range ({lo}, {hi}) is empty")
    ends = [base.replace(beta1=b1) for b1 in (lo, hi)]
    for params in ends:
        _repulsive_focus(params)
    curve = coarse_mu_curve(base, cfg)
    (fa, x0a), (fb, x0b) = (distance_to_connection(p, cfg, curve) for p in ends)
    if fa * fb > 0.0:
        raise SameSign(
            f"D does not change sign over the range: D({lo}) = {fa}, D({hi}) = {fb}"
        )

    evaluated: dict[float, tuple[float, float]] = {}

    def G(x0: float) -> float:
        u, v = mu_point(x0, base, cfg)
        beta1 = _beta1_with_focus_at(u, base)
        g = v - _repulsive_focus(base.replace(beta1=beta1)).z
        evaluated[x0] = (g, beta1)
        return g

    try:
        x0_star = brentq(G, min(x0a, x0b), max(x0a, x0b), xtol=1e-12)
    except ValueError as err:
        raise NoBracket(
            f"G keeps one sign between the matched fold points {x0a} and {x0b}"
        ) from err
    g_star, beta1_star = evaluated[x0_star]
    width = min(
        abs(beta1 - beta1_star)
        for g, beta1 in evaluated.values()
        if g_star == 0.0 or (g < 0.0) != (g_star < 0.0)
    )
    cert = verify_connection(base.replace(beta1=beta1_star), x0_star, cfg)
    return dataclasses_replace(cert, bracket_width=width)


def verify_connection(
    params: Parameters,
    x0: float,
    cfg: IntegratorConfig,
    capture_radius: float = 1e-4,
    forward_tol: float = 1e-6,
) -> ConnectionCertificate:
    """Certify the sliding homoclinic loop through the fold point x0.

    Three checks, failure of any raising :class:`VerificationFailure`:
    the forward X-arc from (x0, x0, phi) must land within ``forward_tol``
    of the pseudo-focus; the backward sliding orbit from (x0, phi) must be
    captured by the focus without leaving the sliding region; and the
    forward sliding orbit through (tau, phi) must either never return to
    the fold line or return at x* < x0.
    """
    x0 = float(x0)
    tau = params.tau
    if not 0.0 < x0 < tau:
        raise DomainError(f"fold point x0 = {x0} must lie in (0, tau = {tau})")
    focus = _repulsive_focus(params)

    u, v = mu_point(x0, params, cfg)
    forward_error = math.sqrt(2.0 * (u - focus.x) ** 2 + (v - focus.z) ** 2)
    if forward_error > forward_tol:
        raise VerificationFailure(
            f"forward landing misses the pseudo-focus by {forward_error:.3e} "
            f"(tolerance {forward_tol:.1e})"
        )

    back = integrate_sliding(
        (x0, params.phi), Direction.BACKWARD, cfg, params, capture_radius
    )
    if back.terminal_event.kind is not EventKind.FOCUS_CAPTURE:
        raise VerificationFailure(
            f"backward sliding orbit ended with {back.terminal_event.kind.value}, "
            "not FocusCapture"
        )
    z_min = float(np.min(back.states[:, 1]))
    if z_min < params.phi - cfg.event_tol:
        raise VerificationFailure(
            f"backward sliding orbit left the sliding region (min z = {z_min})"
        )

    ret = integrate_sliding(
        (tau, params.phi), Direction.FORWARD, cfg, params, cfg.event_tol
    )
    if ret.terminal_event.kind is EventKind.FOLD_EXIT:
        x_star: float | None = float(ret.terminal_event.state[0])
        if x_star >= x0:
            raise VerificationFailure(
                f"sliding return x* = {x_star} is not below the fold point x0 = {x0}"
            )
    else:
        x_star = None

    return ConnectionCertificate(
        beta1_star=params.beta1,
        x0=x0,
        focus=focus,
        forward_error=forward_error,
        backward_captured=True,
        capture_radius=capture_radius,
        x_star=x_star,
        residual_D=v - focus.z,
        params=params,
        cfg=cfg,
    )


def lemma1_asymptotics_report(
    params: Parameters,
    cfg: IntegratorConfig,
    eps: float = 1e-3,
    r2_small: float = 1e-4,
    x0_factor: float = 0.5,
) -> Lemma1Report:
    """Measure the fold-return expansions against their predicted laws.

    Near the cusp, u(tau - eps) = tau + 2*eps + O(eps^2) and
    v(tau - eps) - phi = O(eps^2); for small r2 the landing height obeys
    (v - r1)/sqrt(r2) ~ sqrt(2*r1*T(x0)*(m - e*q1*x0)) with T from the
    planar period.  Pass thresholds: 5% on the slope, 0.01 on the quadratic
    ratio, 2% on the small-r2 coefficient.
    """
    tau = params.tau
    u, v = mu_point(tau - eps, params, cfg)
    slope = (u - tau) / eps
    slope_rel_err = abs(slope - 2.0) / 2.0
    v_ratio = abs(v - params.phi) / eps

    small = params.replace(r2=r2_small)
    x0 = x0_factor * tau
    u2, v2 = mu_point(x0, small, cfg)
    period = lv_period(x0, cfg, small)
    coeff_measured = (v2 - small.r1) / math.sqrt(r2_small)
    coeff_predicted = math.sqrt(
        2.0 * small.r1 * period * (small.m - small.e * small.q1 * x0)
    )
    coeff_rel_err = abs(coeff_measured - coeff_predicted) / coeff_predicted

    return Lemma1Report(
        eps=eps,
        slope=slope,
        slope_rel_err=slope_rel_err,
        slope_pass=slope_rel_err <= 0.05,
        v_ratio=v_ratio,
        v_ratio_pass=v_ratio <= 0.01,
        r2_small=r2_small,
        x0=x0,
        period=period,
        coeff_measured=coeff_measured,
        coeff_predicted=coeff_predicted,
        coeff_rel_err=coeff_rel_err,
        coeff_pass=coeff_rel_err <= 0.02,
    )


def build_N_point(
    x0: float, r2: float, base: Parameters, cfg: IntegratorConfig
) -> NPointReport:
    """Construct a parameter point of the connection manifold at (x0, r2).

    The beta2 identity is explicit since beta2 does not enter the X-flow;
    the e identity is self-referential through the flow, so it is resolved
    holding the product K = e*q1 fixed (which leaves the fold-return curve
    unchanged) and solving for e in closed form.  The result is checked
    against the admissibility bound m < M(x0, r2), and the rebuilt
    pseudo-equilibrium must coincide with the fold-return point (u, v).
    """
    x0 = float(x0)
    r2_new = float(r2)
    if not 0.0 < x0 < base.tau:
        raise DomainError(f"x0 = {x0} must lie in (0, tau = {base.tau})")
    if not 0.0 < r2_new < base.r1:
        raise DomainError(f"r2 = {r2_new} must lie in (0, r1 = {base.r1})")
    work = base.replace(r2=r2_new)
    u, v = mu_point(x0, work, cfg)
    if v <= work.r1:
        raise IdentityInfeasible(
            f"fold return lands at v = {v} <= r1 = {work.r1}; the beta2 identity "
            "requires v > r1"
        )

    beta2_new = r2_new * base.beta1 / (v - base.r1)
    K = base.e * base.q1
    e_new = (
        base.a_q * (base.m * v - K * base.r1 * u) / (base.q2 * (v - base.r1) * u)
    )
    if e_new <= 0.0:
        raise IdentityInfeasible(f"the e identity yields e = {e_new} <= 0")
    q1_new = K / e_new
    try:
        out = validate_parameters(
            r1=base.r1,
            r2=r2_new,
            a_q=base.a_q,
            q1=q1_new,
            q2=base.q2,
            beta1=base.beta1,
            beta2=beta2_new,
            m=base.m,
            e=e_new,
        )
    except PreySwitchError as err:
        raise IdentityInfeasible(
            f"identities produce inadmissible parameters: {err}"
        ) from err

    phi_n = out.phi
    denom = phi_n**2 * out.b_q**2 * (v - out.r1) ** 2
    if denom == 0.0:
        M_bound = math.inf
    else:
        M_bound = (
            4.0
            * r2_new
            * v
            * (v - phi_n)
            * (out.a_q * out.q1 * out.r1 + out.q2 * (v - out.r1)) ** 2
            / denom
        )
    if out.m >= M_bound:
        raise InequalityViolated(f"m = {out.m} >= M(x0, r2) = {M_bound}")

    _, interior = pseudo_equilibria(out)
    if max(abs(interior.x - u), abs(interior.z - v)) > 1e-8:
        raise VerificationFailure(
            "constructed pseudo-equilibrium "
            f"({interior.x}, {interior.z}) does not match the fold return ({u}, {v})"
        )
    E_identity = (
        out.a_q * out.m * v / ((out.a_q * out.q1 * out.r1 + out.q2 * (v - out.r1)) * u)
    )
    B_identity = r2_new * out.beta1 / (v - out.r1)
    residuals = {
        "e": abs(out.e - E_identity),
        "beta2": abs(out.beta2 - B_identity),
    }
    if max(residuals.values()) > 1e-10:
        raise VerificationFailure(f"identity residuals exceed 1e-10: {residuals}")
    return NPointReport(
        params_out=out,
        x0=x0,
        r2=r2_new,
        M_bound=M_bound,
        identity_residuals=residuals,
        mu=(u, v),
        cfg=cfg,
    )


def return_map_sample(
    params: Parameters,
    segment: tuple[float, float],
    n: int,
    cfg: IntegratorConfig,
) -> list[tuple[float, float]]:
    """Sample the fold-line first-return map on a segment.

    Each point s launches the X-arc from (s, s, phi) to its landing on the
    sliding region, follows the sliding flow to its fold exit, and records
    the exit abscissa pi(s).  Sign changes of pi(s) - s witness sliding
    periodic orbits.  Raises :class:`FocusLanding` if an X-arc lands within
    ``cfg.event_tol`` of the pseudo-focus (as the one from the connection's
    fold point does), and :class:`OrbitEscaped` if any other orbit fails to
    come back to the fold line.
    """
    if n < 0:
        raise DomainError("sample count must be nonnegative")
    if n == 0:
        return []
    lo, hi = (float(segment[0]), float(segment[1]))
    tau = params.tau
    if not 0.0 < lo <= hi < tau:
        raise DomainError(f"segment ({lo}, {hi}) must lie inside (0, tau = {tau})")
    out: list[tuple[float, float]] = []
    for s in np.linspace(lo, hi, n):
        try:
            u, v = mu_point(s, params, cfg)
        except (NoReturn, TangencyAmbiguity) as err:
            raise OrbitEscaped(f"s = {s}: {err}") from err
        if v < params.phi - cfg.event_tol:
            raise OrbitEscaped(f"s = {s}: landing at z = {v} is below the sliding region")
        arc = integrate_sliding((u, v), Direction.FORWARD, cfg, params, cfg.event_tol)
        ev = arc.terminal_event
        if ev.kind is EventKind.FOCUS_CAPTURE:
            raise FocusLanding(f"s = {s}: the X-arc lands on the pseudo-focus at ({u}, {v})")
        if ev.kind is not EventKind.FOLD_EXIT:
            raise OrbitEscaped(f"s = {s}: sliding arc ended with {ev.kind.value}")
        out.append((float(s), float(ev.state[0])))
    return out


def fixed_point_brackets(samples: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Adjacent sample pairs across which pi(s) - s changes sign."""
    out = []
    for (s0, p0), (s1, p1) in zip(samples, samples[1:]):
        g0, g1 = p0 - s0, p1 - s1
        if g0 == 0.0 or (g0 < 0.0) != (g1 < 0.0):
            out.append((s0, s1))
    return out
