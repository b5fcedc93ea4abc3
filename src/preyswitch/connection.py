"""Locating the sliding homoclinic connection.

The visible-fold segment 0 < x0 < tau launches X-trajectories tangent to
Sigma whose first transversal return traces the curve
mu(x0) = (u(x0), u(x0), v(x0)).  The connection exists when the interior
pseudo-equilibrium (x_c, z_c) of the sliding field lands on that curve.
The X-flow is free of beta1 and x_c is a Moebius function of beta1, so the
connection is one root in x0 of G(x0) = v(x0) - z_c(beta1(u(x0))): this
module computes mu and its coarse beta1-free samples, measures the signed
vertical distance D from the focus to the curve (for many beta1 at once,
matching u(x0) = x_c for all of them in lockstep, so that each iteration is
one solver call and a row's D depends on the other rows at about 1e-13),
solves G = 0 on the pair of coarse nodes across which it changes sign
inside a beta1 range, and
certifies the resulting loop (finite-time forward arc onto the focus,
asymptotic backward sliding capture, and the ordering of the sliding return
x* below the fold point).  It also constructs explicit parameter points of the
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
    ConstraintViolation,
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
    integrate_fold_launches,
    integrate_sliding,
    lv_period,
)
from .model import Parameters, SigmaState, validate_parameters
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

    The one-lane case of :func:`~preyswitch.flow.integrate_fold_launches`:
    the launch (x0, x0, phi) is tangent to Sigma, and its return is located
    with the desingularised switching function h/t**2, so no event needs
    arming.  The return must satisfy u = x0*exp(r2*t1) to 1e-10 relative
    (the y-component grows exactly exponentially, so this cross-checks both
    the integration and the event location).  Raises :class:`DomainError`
    for x0 <= 0, :class:`TangencyAmbiguity` for x0 >= tau and for a launch
    so close to the cusp that its return is not resolved, and
    :class:`NoReturn` when there is no return within ``cfg.t_max``.
    """
    (result,) = integrate_fold_launches([x0], cfg, params)
    if isinstance(result, PreySwitchError):
        raise result
    return result


def mu_curve(grid, params: Parameters, cfg: IntegratorConfig) -> MuCurve:
    """Evaluate the fold-return map over a sorted grid of launch points.

    All launches are stacked lanes of one solver call
    (:func:`~preyswitch.flow.integrate_fold_launches`), so a node's (u, v)
    depends, at about 1e-12, on the other nodes of the grid.  A failing
    launch raises the error :func:`mu_point` would raise there, naming the
    first failing node.
    """
    x0s = np.asarray(grid, dtype=float)
    if x0s.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    if len(x0s) and np.any(np.diff(x0s) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    returns = integrate_fold_launches(x0s, cfg, params)
    for x0, result in zip(x0s, returns):
        if isinstance(result, PreySwitchError):
            raise type(result)(f"mu_curve node x0 = {x0}: {result}") from result
    us = np.array([u for u, _ in returns], dtype=float)
    vs = np.array([v for _, v in returns], dtype=float)
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

    48 launches evenly spaced over [0.02, 0.99]*tau, stacked as lanes of
    one solver call.  X depends on (r1, r2, m, e*q1) only, so one curve
    serves every beta1 and beta2.
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


def _node_bracket(params: Parameters, curve: MuCurve) -> tuple[SigmaState, int]:
    """The repulsive focus, and the node j of ``curve`` with x_c between u_j and u_{j+1}.

    The checks :func:`distance_to_connection` makes before any launch; see
    there for the errors they raise.
    """
    if _x_flow_rates(curve.params) != _x_flow_rates(params):
        raise DomainError(
            f"the curve was sampled for X-flow rates (r1, r2, m, e*q1) = "
            f"{_x_flow_rates(curve.params)}, not {_x_flow_rates(params)}"
        )
    focus = _repulsive_focus(params)
    win = working_window(curve, params)
    if win is None:
        raise NoBracket("the fold-return curve has no working window")
    i0, i1 = win
    if i1 - i0 < 1:
        raise NoBracket("the working window contains fewer than two samples")

    d = curve.us - focus.x

    def hits(first: int, last: int) -> list[int]:
        return [
            j for j in range(first, last) if d[j] == 0.0 or ((d[j] < 0.0) != (d[j + 1] < 0.0))
        ]

    found = hits(i0, i1)
    if not found:
        # x_c lies in (0, tau), so a node next to the window that fails only
        # 0 < u < tau still bounds a match on its pair with the window's end
        span = curve.us[i0 : i1 + 1]
        i0, i1 = max(i0 - 1, 0), min(i1 + 1, len(d) - 1)
        found = [j for j in hits(i0, i1) if min(curve.vs[j], curve.vs[j + 1]) > params.r1]
        if not found:
            raise NoBracket(
                f"x_c = {focus.x} lies outside the attained fold-return range "
                f"[{span.min()}, {span.max()}]"
            )
    if len(found) > 1:
        raise MultipleRoots(
            f"u - x_c changes sign {len(found)} times on the working window"
        )
    j = found[0]
    steps = np.diff(curve.us[max(i0, j - 1) : min(i1, j + 2) + 1])
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise MultipleRoots("u is not monotone across the matching bracket")
    return focus, j


# brentq's stopping rule at xtol = 1e-12: |b - a| <= _XTOL + 4*eps*|x|
_XTOL = 1e-12
_MAX_ITER = 100

_FoldPoint = tuple[float, float, float]  # (x0, u, v)


def _match_focus_abscissae(
    brackets: list[tuple[float, _FoldPoint, _FoldPoint]],
    cfg: IntegratorConfig,
    params: Parameters,
) -> list[_FoldPoint | PreySwitchError]:
    """Solve u(x0) = x_c on every bracket together.

    Each bracket is (x_c, a, b) with a and b evaluated fold points (x0, u, v)
    between whose u lies x_c.  Illinois regula falsi advances all brackets
    in lockstep: each iteration is one :func:`integrate_fold_launches` call
    whose lanes are the iterates of the brackets still open.  As in brentq,
    no iterate lies closer than half the tolerance to the bracket's latest
    point.  A bracket closes when an iterate gives u = x_c exactly, or when
    its ends are within brentq's tolerance 1e-12 + 4*eps*|x0|; it then
    yields its latest evaluated fold point, so x0, u and v come from one
    lane.  The lanes
    share step-size control, so a match depends on the other brackets at
    about 1e-13.  A launch error fails its own bracket only, and so does a
    bracket still open after 100 iterations.
    """
    out: list = [None] * len(brackets)
    # per open bracket: x_c, the far end a as (x0, u - x_c) with its Illinois
    # weight folded in, and the latest fold point b as (x0, u, v)
    open_: dict[int, list] = {}
    for i, (x_c, a, b) in enumerate(brackets):
        if abs(a[1] - x_c) < abs(b[1] - x_c):
            a, b = b, a
        if b[1] == x_c:
            out[i] = b
        else:
            open_[i] = [x_c, (a[0], a[1] - x_c), b]
    eps = np.finfo(float).eps
    iterations = 0
    while True:
        for i, (_, (xa, _), b) in list(open_.items()):
            if abs(b[0] - xa) <= _XTOL + 4.0 * eps * abs(b[0]):
                out[i] = b
                del open_[i]
        if not open_ or iterations == _MAX_ITER:
            break
        iterations += 1
        iterates = {}
        for i, (x_c, (xa, fa), (xb, ub, _)) in open_.items():
            fb = ub - x_c
            x = xb - fb * (xb - xa) / (fb - fa)
            # Brent's minimum step: an iterate closer to b than half the
            # tolerance steps that far toward a instead, so that it lands past
            # a root near b and the next check closes the bracket
            half_tol = 0.5 * _XTOL + 2.0 * eps * abs(xb)
            if abs(x - xb) < half_tol:
                x = xb + math.copysign(half_tol, xa - xb)
            # rounding can put the secant point on an end: bisect instead
            iterates[i] = x if min(xa, xb) < x < max(xa, xb) else 0.5 * (xa + xb)
        returns = integrate_fold_launches(list(iterates.values()), cfg, params)
        for (i, x), ret in zip(iterates.items(), returns):
            if isinstance(ret, PreySwitchError):
                out[i] = ret
                del open_[i]
                continue
            x_c, (xa, fa), (xb, ub, _) = open_[i]
            f, fb = ret[0] - x_c, ub - x_c
            if f == 0.0:
                out[i] = (x, *ret)
                del open_[i]
                continue
            # across a sign change the old b becomes the far end; a far end
            # that is kept has its weight halved (Illinois)
            far = (xb, fb) if (f < 0.0) != (fb < 0.0) else (xa, 0.5 * fa)
            open_[i] = [x_c, far, (x, *ret)]
    for i, (x_c, (xa, _), (xb, _, _)) in open_.items():
        out[i] = PreySwitchError(
            f"u(x0) = x_c = {x_c} not matched within {_MAX_ITER} iterations "
            f"(bracket [{min(xa, xb)}, {max(xa, xb)}])"
        )
    return out


def distances_to_connection(
    params_list: list[Parameters], cfg: IntegratorConfig, curve: MuCurve
) -> list[tuple[float, float] | PreySwitchError]:
    """Signed distances D from the pseudo-focus to the fold-return curve.

    One entry per parameter set, in order: (D, x0_matched), or the error
    :func:`distance_to_connection` would raise for it, unraised.  Each
    row's checks run before any launch; the rows that pass them solve
    u(x0) = x_c together, every iteration one solver call whose lanes are
    the rows' current iterates.  So a row's D depends on the other rows at
    about 1e-13, and a launch error fails its own row only.
    """
    out: list = [None] * len(params_list)
    rows, brackets = [], []
    for i, params in enumerate(params_list):
        try:
            focus, j = _node_bracket(params, curve)
        except PreySwitchError as err:
            out[i] = err
            continue
        nodes = [(float(curve.x0s[k]), float(curve.us[k]), float(curve.vs[k])) for k in (j, j + 1)]
        rows.append((i, focus))
        brackets.append((focus.x, *nodes))
    for (i, focus), match in zip(rows, _match_focus_abscissae(brackets, cfg, curve.params)):
        out[i] = match if isinstance(match, PreySwitchError) else (match[2] - focus.z, match[0])
    return out


def distance_to_connection(
    params: Parameters, cfg: IntegratorConfig, curve: MuCurve
) -> tuple[float, float]:
    """Signed distance D from the pseudo-focus to the fold-return curve.

    Solves u(x0) = x_c on the working window of ``curve`` (from
    :func:`coarse_mu_curve`, for any beta1) and returns (D, x0_matched) with
    D = v(x0_matched) - z_c: positive when the focus lies below the curve,
    negative above.  The one-row case of :func:`distances_to_connection`:
    the match starts from the two nodes across which u - x_c changes sign
    and stops at brentq's tolerance, 1e-12 in x0.  When no window pair
    brackets x_c, the pair across an end of the window is used if its
    outer node fails only 0 < u < tau (x_c, inside (0, tau), is then still
    reached before u leaves the window).  Raises
    :class:`DomainError` when the curve's X-flow rates (r1, r2, m, e*q1)
    are not those of ``params``, :class:`NoBracket` when x_c is outside the
    attained range of u, :class:`MultipleRoots` when the sampled u is not
    monotone around the bracket, and :class:`Lemma2Violation` when the
    pseudo-equilibrium is not a repulsive focus.
    """
    (result,) = distances_to_connection([params], cfg, curve)
    if isinstance(result, PreySwitchError):
        raise result
    return result


def _gap(u: float, v: float, base: Parameters) -> tuple[float, float]:
    """G = v - z_c(beta1(u)) at the fold return (u, v), and that beta1."""
    beta1 = _beta1_with_focus_at(u, base)
    return v - _repulsive_focus(base.replace(beta1=beta1)).z, beta1


def find_shilnikov(
    base: Parameters, beta1_range: tuple[float, float], cfg: IntegratorConfig
) -> ConnectionCertificate:
    """The sliding homoclinic connection, as one root in the fold point x0.

    Each x0 fixes the one beta1(u(x0)) whose focus abscissa is u(x0), so the
    connection is the root of G(x0) = v(x0) - z_c(beta1(u(x0))).  G is read
    off the coarse curve (:func:`coarse_mu_curve`) at its nodes, and the root
    is bracketed on them: among the node pairs whose u-segment meets the
    focus abscissae of ``beta1_range`` (the nodes whose beta1(u) lies in the
    range, plus the neighbour node across each end of the range), G must
    change sign across exactly one pair.  A neighbour where G is undefined
    (beta1(u) <= 0, or no repulsive focus) is replaced by the fold point
    matched, on that node pair, to the end of the range whose focus abscissa
    lies between the pair's two u (the one-row case of the matching in
    :func:`distances_to_connection`, without its working window).
    Brent's method then solves G = 0 on that pair.

    Raises :class:`SameSign` when G changes sign across no pair, or when the
    root's beta1 lies outside the range; :class:`MultipleRoots` when it
    changes sign across more than one; :class:`NoBracket` when no node pair
    meets the range; :class:`Lemma2Violation`, naming its beta1, when the
    focus is not repulsive at either end of the range or at any G evaluated
    inside it.  The nodes are stacked lanes of one solver call, so their G
    differs from a lone launch's at about 1e-12.  The root is certified with
    the (u, v) its own evaluation produced; ``bracket_width`` is the beta1
    width of a final x0 bracket whose two ends were both evaluated and give
    G opposite signs.
    """
    lo, hi = (float(beta1_range[0]), float(beta1_range[1]))
    if not lo < hi:
        raise SameSign(f"beta1 range ({lo}, {hi}) is empty")
    ends = {b: base.replace(beta1=b) for b in (lo, hi)}
    focus = {b: _repulsive_focus(p) for b, p in ends.items()}
    u_min, u_max = sorted(f.x for f in focus.values())
    curve = coarse_mu_curve(base, cfg)
    xs, us, vs = curve.x0s, curve.us, curve.vs

    # fold point -> (G, beta1, u, v) for every point where G is known
    known: dict[float, tuple[float, float, float, float]] = {}
    matched: dict[float, float] = {}

    def node(i: int) -> tuple[float, float, float]:
        return float(xs[i]), float(us[i]), float(vs[i])

    def point(i: int, other: int) -> float:
        """Node i as a bracket point or, where G is undefined there, the fold
        point matched to the range end that lies between node i and node other."""
        x, u, v = node(i)
        try:
            g, beta1 = _gap(u, v, base)
        except (ConstraintViolation, Lemma2Violation):  # beta1(u) <= 0, or no repulsive focus
            if u_min <= u <= u_max:
                raise
        else:
            known[x] = (g, beta1, u, v)
            return x
        b = min(
            (b for b in ends if min(u, us[other]) <= focus[b].x <= max(u, us[other])),
            key=lambda b: abs(focus[b].x - u),
        )
        if b not in matched:
            (match,) = _match_focus_abscissae([(focus[b].x, node(i), node(other))], cfg, base)
            if isinstance(match, PreySwitchError):
                raise match
            x0, u0, v0 = match
            known[x0] = (v0 - focus[b].z, b, u0, v0)
            matched[b] = x0
        return matched[b]

    pairs = [
        (point(i, i + 1), point(i + 1, i))
        for i in range(len(xs) - 1)
        if max(us[i], us[i + 1]) >= u_min and min(us[i], us[i + 1]) <= u_max
    ]
    if not pairs:
        raise NoBracket(
            f"the coarse fold-return curve does not reach the focus abscissae "
            f"[{u_min}, {u_max}] of the beta1 range ({lo}, {hi})"
        )
    changes = [(a, b) for a, b in pairs if (known[a][0] < 0.0) != (known[b][0] < 0.0)]
    if not changes:
        raise SameSign(
            f"G keeps one sign on the {len(pairs)} node pairs that meet the "
            f"beta1 range ({lo}, {hi})"
        )
    if len(changes) > 1:
        raise MultipleRoots(
            f"G changes sign across {len(changes)} node pairs that meet the "
            f"beta1 range ({lo}, {hi})"
        )
    [(a, b)] = changes

    def G(x0: float) -> float:
        if x0 not in known:
            u, v = mu_point(x0, base, cfg)
            known[x0] = (*_gap(u, v, base), u, v)
        return known[x0][0]

    x0_star = brentq(G, min(a, b), max(a, b), xtol=1e-12)
    g_star, beta1_star, u_star, v_star = known[x0_star]
    if not lo <= beta1_star <= hi:
        raise SameSign(
            f"G changes sign at beta1 = {beta1_star}, outside the range ({lo}, {hi})"
        )
    width = min(
        abs(beta1 - beta1_star)
        for g, beta1, _, _ in known.values()
        if g_star == 0.0 or (g < 0.0) != (g_star < 0.0)
    )
    cert = _certify(base.replace(beta1=beta1_star), x0_star, (u_star, v_star), cfg)
    return dataclasses_replace(cert, bracket_width=width)


# the certificate's forward landing tolerance and backward capture radius
_FORWARD_TOL = 1e-6
_CAPTURE_RADIUS = 1e-4


def verify_connection(params: Parameters, x0: float, cfg: IntegratorConfig) -> ConnectionCertificate:
    """Certify the sliding homoclinic loop through the fold point x0.

    Three checks, failure of any raising :class:`VerificationFailure`:
    the forward X-arc from (x0, x0, phi) must land within 1e-6 of the
    pseudo-focus; the backward sliding orbit from (x0, phi) must be captured
    within 1e-4 of the focus without leaving the sliding region; and the
    forward sliding orbit through (tau, phi) must either never return to
    the fold line or return at x* < x0.
    """
    x0 = float(x0)
    tau = params.tau
    if not 0.0 < x0 < tau:
        raise DomainError(f"fold point x0 = {x0} must lie in (0, tau = {tau})")
    _repulsive_focus(params)
    return _certify(params, x0, mu_point(x0, params, cfg), cfg)


def _certify(
    params: Parameters, x0: float, landing: tuple[float, float], cfg: IntegratorConfig
) -> ConnectionCertificate:
    """The checks of :func:`verify_connection`, given the fold return (u, v) of x0."""
    focus = _repulsive_focus(params)
    u, v = landing
    forward_error = math.sqrt(2.0 * (u - focus.x) ** 2 + (v - focus.z) ** 2)
    if forward_error > _FORWARD_TOL:
        raise VerificationFailure(
            f"forward landing misses the pseudo-focus by {forward_error:.3e} "
            f"(tolerance {_FORWARD_TOL:.1e})"
        )

    back = integrate_sliding(
        (x0, params.phi), Direction.BACKWARD, cfg, params, _CAPTURE_RADIUS
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
        (params.tau, params.phi), Direction.FORWARD, cfg, params, cfg.event_tol
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
        capture_radius=_CAPTURE_RADIUS,
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
) -> Lemma1Report:
    """Measure the fold-return expansions against their predicted laws.

    Near the cusp, u(tau - eps) = tau + 2*eps + O(eps^2) and
    v(tau - eps) - phi = O(eps^2); for small r2 the landing height obeys
    (v - r1)/sqrt(r2) ~ sqrt(2*r1*T(x0)*(m - e*q1*x0)) with T from the
    planar period, measured at x0 = tau/2.  Pass thresholds: 5% on the
    slope, 0.01 on the quadratic ratio, 2% on the small-r2 coefficient.
    """
    tau = params.tau
    u, v = mu_point(tau - eps, params, cfg)
    slope = (u - tau) / eps
    slope_rel_err = abs(slope - 2.0) / 2.0
    v_ratio = abs(v - params.phi) / eps

    small = params.replace(r2=r2_small)
    x0 = 0.5 * tau
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
    the exit abscissa pi(s).  The n X-arcs are stacked lanes of one solver
    call (:func:`~preyswitch.flow.integrate_fold_launches`), so a landing
    depends on the other samples at about 1e-12; errors are raised in the
    order of s.  Sign changes of pi(s) - s witness sliding
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
        raise DomainError(f"segment ({lo}, {hi}) must satisfy 0 < lo <= hi < tau = {tau}")
    grid = np.linspace(lo, hi, n)
    out: list[tuple[float, float]] = []
    for s, landing in zip(grid, integrate_fold_launches(grid, cfg, params)):
        if isinstance(landing, (NoReturn, TangencyAmbiguity)):
            raise OrbitEscaped(f"s = {s}: {landing}") from landing
        if isinstance(landing, PreySwitchError):
            raise landing
        u, v = landing
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
