"""Locating the sliding homoclinic connection.

The visible-fold segment 0 < x0 < tau launches X-trajectories tangent to
Sigma whose first transversal return traces the curve
mu(x0) = (u(x0), u(x0), v(x0)).  The connection exists when the interior
pseudo-equilibrium (x_c, z_c) of the sliding field lands on that curve.
The X-flow is free of beta1 and x_c is a Moebius function of beta1, so the
connection is one root in x0 of G(x0) = v(x0) - z_c(beta1(u(x0))).  Every
root on the curve is found by one bracketed solver, lockstep regula falsi
whose iterations are each one batch of fold launches with a lane per open
bracket: u(x0) = x_c for the signed vertical distance D from the focus to
the curve (for many beta1 at once), and G = 0 on the pair of coarse nodes
across which G changes sign inside a beta1 range.  The module also certifies the resulting loop
(finite-time forward arc onto the focus, asymptotic backward sliding
capture, and the ordering of the sliding return x* below the fold point),
constructs explicit parameter points of the codimension-one connection
manifold via the beta2/e identities, and samples the first-return map along
the fold as a chaos diagnostic.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from dataclasses import replace as dataclasses_replace
from functools import partial

import numpy as np

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
    _sliding_lanes,
    integrate_fold_launches,
    integrate_sliding,
    lv_period,
)
from .model import Parameters, SigmaState, validate_parameters
from .sliding import FocusKind, _m_bound, classify_focus, pseudo_equilibria, sliding_series


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
        return [self.node(k) for k in range(len(self))]

    def node(self, k: int) -> tuple[float, float, float]:
        """Node k as a fold point (x0, u, v)."""
        return float(self.x0s[k]), float(self.us[k]), float(self.vs[k])


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
        return asdict(self)


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

    All launches are lanes of one batch
    (:func:`~preyswitch.flow.integrate_fold_launches`), and each node's
    (u, v) is the one :func:`mu_point` gives there.  A failing launch raises
    the error :func:`mu_point` would raise there, naming the first failing
    node.
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


_COARSE_N = 48
_COARSE_SPAN = (0.02, 0.99)


def coarse_mu_curve(params: Parameters, cfg: IntegratorConfig) -> MuCurve:
    """The fold-return curve on the coarse grid that brackets the matching.

    48 launches evenly spaced over [0.02, 0.99]*tau, as lanes of one
    batch.  X depends on (r1, r2, m, e*q1) only, so one curve serves every
    beta1 and beta2.
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


def _node_pairs(curve: MuCurve, lo: float, hi: float) -> list[int]:
    """The nodes j whose pair (j, j+1) has a u-segment [min, max) meeting [lo, hi].

    The segment is half-open, so a node whose u equals lo = hi falls on one
    pair, whichever way u runs through it.
    """
    lower = np.minimum(curve.us[:-1], curve.us[1:])
    upper = np.maximum(curve.us[:-1], curve.us[1:])
    return np.flatnonzero((lower <= hi) & (upper > lo)).tolist()


def _node_bracket(params: Parameters, curve: MuCurve) -> tuple[SigmaState, int]:
    """The repulsive focus, and the one node pair (j, j+1) of ``curve`` matching x_c.

    The checks :func:`distance_to_connection` makes before any launch; see
    there for the errors they raise.
    """
    if _x_flow_rates(curve.params) != _x_flow_rates(params):
        raise DomainError(
            f"the curve was sampled for X-flow rates (r1, r2, m, e*q1) = "
            f"{_x_flow_rates(curve.params)}, not {_x_flow_rates(params)}"
        )
    focus = _repulsive_focus(params)
    # D is defined where the fold return lands above r1
    found = [
        j
        for j in _node_pairs(curve, focus.x, focus.x)
        if min(curve.vs[j], curve.vs[j + 1]) > params.r1
    ]
    if not found:
        raise NoBracket(
            f"x_c = {focus.x} lies on no node pair of the fold-return curve whose "
            f"returns both land above r1 = {params.r1}"
        )
    if len(found) > 1:
        raise MultipleRoots(f"x_c = {focus.x} lies on {len(found)} node pairs of the fold-return curve")
    (j,) = found
    steps = np.diff(curve.us[max(j - 1, 0) : j + 3])
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise MultipleRoots("u is not monotone across the matching bracket")
    return focus, j


# Brent's stopping rule at xtol = 1e-12: |b - a| <= _XTOL + 4*eps*|b|
_XTOL = 1e-12
_MAX_ITER = 100

_FoldPoint = tuple[float, float, float]  # (x0, u, v)


def _solve_on_curve(
    brackets: list[tuple[Callable[[float, float], float], _FoldPoint, _FoldPoint]],
    cfg: IntegratorConfig,
    params: Parameters,
) -> list[tuple[_FoldPoint, _FoldPoint] | PreySwitchError]:
    """Solve r(u(x0), v(x0)) = 0 on every bracket together.

    Each bracket is (r, a, b): a residual r(u, v) of the fold return, and two
    evaluated fold points (x0, u, v) at which r has opposite signs or
    vanishes.  Regula falsi advances all brackets in lockstep: each
    iteration is one :func:`integrate_fold_launches` call whose lanes are
    the iterates of the brackets still open, each as it would be alone.
    When an iterate keeps the far end, that end's residual is weighted by
    Anderson and Bjorck's 1 - f/fb (f at the iterate, fb at the one before),
    or by 1/2 if that is not positive.  As in Brent's method, no iterate lies
    closer than half the tolerance to the latest point, and a bracket closes
    when its ends are within 1e-12 + 4*eps*|x0|.  It then yields its ends
    (root, far), root the one with the smaller |r|, so that its x0, u and v
    come from one lane.  A fold point where r = 0 exactly, an end or an
    iterate, closes its bracket at once as (root, root).  A launch error,
    or a :class:`PreySwitchError` raised by r, fails its own bracket only,
    and so does a bracket still open after 100 iterations.
    """
    out: list = [None] * len(brackets)
    # per open bracket: r, the far end a with its weighted residual, and the
    # latest fold point b with its residual
    open_: dict[int, list] = {}
    for i, (r, a, b) in enumerate(brackets):
        try:
            fa, fb = r(*a[1:]), r(*b[1:])
        except PreySwitchError as err:
            out[i] = err
            continue
        if abs(fa) < abs(fb):
            a, fa, b, fb = b, fb, a, fa
        if fb == 0.0:
            out[i] = (b, b)
        else:
            open_[i] = [r, a, fa, b, fb]
    eps = np.finfo(float).eps
    iterations = 0
    while True:
        for i, (r, a, _, b, fb) in list(open_.items()):
            if abs(b[0] - a[0]) <= _XTOL + 4.0 * eps * abs(b[0]):
                out[i] = (b, a) if abs(fb) <= abs(r(*a[1:])) else (a, b)
                del open_[i]
        if not open_ or iterations == _MAX_ITER:
            break
        iterations += 1
        iterates = {}
        for i, (_, (xa, _, _), fa, (xb, _, _), fb) in open_.items():
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
            r, a, fa, b, fb = open_.pop(i)
            if isinstance(ret, PreySwitchError):
                out[i] = ret
                continue
            try:
                f = r(*ret)
            except PreySwitchError as err:
                out[i] = err
                continue
            c = (x, *ret)
            if f == 0.0:
                out[i] = (c, c)
            elif (f < 0.0) != (fb < 0.0):
                # across a sign change the old b becomes the far end
                open_[i] = [r, b, fb, c, f]
            else:
                weight = 1.0 - f / fb
                open_[i] = [r, a, fa * (weight if weight > 0.0 else 0.5), c, f]
    for i, (_, (xa, _, _), _, (xb, _, _), _) in open_.items():
        out[i] = PreySwitchError(
            f"no root within {_MAX_ITER} iterations (bracket [{min(xa, xb)}, {max(xa, xb)}])"
        )
    return out


def _minus_abscissa(x_c: float) -> Callable[[float, float], float]:
    """The residual u - x_c, whose root matches the fold return to the focus abscissa x_c."""
    return lambda u, v: u - x_c


def distances_to_connection(
    params_list: list[Parameters], cfg: IntegratorConfig, curve: MuCurve
) -> list[tuple[float, float] | PreySwitchError]:
    """Signed distances D from the pseudo-focus to the fold-return curve.

    One entry per parameter set, in order: (D, x0_matched), or the error
    :func:`distance_to_connection` would raise for it, unraised.  Each
    row's checks run before any launch; the rows that pass them solve
    u(x0) = x_c together with the lockstep root solver that also finds the
    connection (:func:`find_shilnikov`), every iteration one batch of
    fold launches whose lanes are the rows' current iterates.  A row's match
    is the end of its final bracket with the smaller |u - x_c|.  So a row's
    D is the one it has alone, and a launch error fails its own row only.
    """
    out: list = [None] * len(params_list)
    rows, brackets = [], []
    for i, params in enumerate(params_list):
        try:
            focus, j = _node_bracket(params, curve)
        except PreySwitchError as err:
            out[i] = err
            continue
        rows.append((i, focus))
        brackets.append((_minus_abscissa(focus.x), curve.node(j), curve.node(j + 1)))
    for (i, focus), match in zip(rows, _solve_on_curve(brackets, cfg, curve.params)):
        out[i] = match if isinstance(match, PreySwitchError) else (match[0][2] - focus.z, match[0][0])
    return out


def distance_to_connection(
    params: Parameters, cfg: IntegratorConfig, curve: MuCurve
) -> tuple[float, float]:
    """Signed distance D from the pseudo-focus to the fold-return curve.

    Solves u(x0) = x_c on ``curve`` (from :func:`coarse_mu_curve`, for any
    beta1) and returns (D, x0_matched) with D = v(x0_matched) - z_c:
    positive when the focus lies below the curve, negative above.  The
    one-row case of :func:`distances_to_connection`: the match starts from
    the one node pair whose u-segment [min, max) holds x_c and whose two
    returns land above r1, the rule :func:`find_shilnikov` brackets by, and
    stops at Brent's tolerance, 1e-12 in x0.  Raises :class:`DomainError`
    when the curve's X-flow rates (r1, r2, m, e*q1) are not those of
    ``params``, :class:`NoBracket` when no such pair holds x_c,
    :class:`MultipleRoots` when more than one does or the sampled u is not
    monotone around the pair, and :class:`Lemma2Violation` when the
    pseudo-equilibrium is not a repulsive focus.
    """
    (result,) = distances_to_connection([params], cfg, curve)
    if isinstance(result, PreySwitchError):
        raise result
    return result


def _gap(u: float, v: float, base: Parameters) -> float:
    """G = v - z_c(beta1(u)) at the fold return (u, v)."""
    return v - _repulsive_focus(base.replace(beta1=_beta1_with_focus_at(u, base))).z


def find_shilnikov(
    base: Parameters, beta1_range: tuple[float, float], cfg: IntegratorConfig
) -> ConnectionCertificate:
    """The sliding homoclinic connection, as one root in the fold point x0.

    Each x0 fixes the one beta1(u(x0)) whose focus abscissa is u(x0), so the
    connection is the root of G(x0) = v(x0) - z_c(beta1(u(x0))).  G is read
    off the coarse curve (:func:`coarse_mu_curve`) at its nodes, and the root
    is bracketed on them: among the node pairs whose u-segment [min, max)
    meets the focus abscissae [u_min, u_max] of ``beta1_range`` (the rule
    :func:`distance_to_connection` matches x_c by), G must change sign
    across exactly one pair.  A node where G is undefined (beta1(u) <= 0,
    or no repulsive focus) lies outside [u_min, u_max]; it is replaced by
    the fold point matched, on its pair, to the end of the range whose
    focus abscissa lies between the pair's two u (by the lockstep root
    solver of :func:`distances_to_connection`, all such ends together).
    The same solver then solves G = 0 on that pair.

    Raises :class:`DomainError` when an end of the range is not finite;
    :class:`SameSign` when the range is empty, when G changes sign across no
    pair, or when the root's beta1 lies outside the range;
    :class:`MultipleRoots` when it changes sign across more than one;
    :class:`NoBracket` when no node pair meets the range;
    :class:`Lemma2Violation`, naming its beta1, when the
    focus is not repulsive at either end of the range or at any G evaluated
    inside it.  The root is the end of the final x0 bracket with the
    smaller |G|, certified with the (u, v) its own launch produced, which a
    lone launch from it reproduces; ``bracket_width`` is the beta1 distance
    from it to the bracket's other end, across which G changes sign (0 if G
    vanishes exactly at the root).
    """
    lo, hi = (float(beta1_range[0]), float(beta1_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"beta1 range ({lo}, {hi}) must have finite ends")
    if not lo < hi:
        raise SameSign(f"beta1 range ({lo}, {hi}) is empty")
    abscissae = [_repulsive_focus(base.replace(beta1=b)).x for b in (lo, hi)]
    u_min, u_max = sorted(abscissae)
    curve = coarse_mu_curve(base, cfg)
    G = partial(_gap, base=base)
    pairs = [[curve.node(k), curve.node(k + 1)] for k in _node_pairs(curve, u_min, u_max)]
    if not pairs:
        raise NoBracket(
            f"the coarse fold-return curve does not reach the focus abscissae "
            f"[{u_min}, {u_max}] of the beta1 range ({lo}, {hi})"
        )
    # where G is undefined at a node, u lies outside [u_min, u_max], so the
    # nearer end's focus abscissa lies between it and the pair's other node
    slots, brackets = [], []
    for pair in pairs:
        for end, (_, u, v) in enumerate(pair):
            try:
                G(u, v)
            except (ConstraintViolation, Lemma2Violation):  # beta1(u) <= 0, or no repulsive focus
                if u_min <= u <= u_max:
                    raise
                x_c = min(abscissae, key=lambda x: abs(x - u))
                slots.append((pair, end))
                brackets.append((_minus_abscissa(x_c), pair[end], pair[1 - end]))
    for (pair, end), match in zip(slots, _solve_on_curve(brackets, cfg, base)):
        if isinstance(match, PreySwitchError):
            raise match
        pair[end] = match[0]

    changes = [(a, b) for a, b in pairs if (G(*a[1:]) < 0.0) != (G(*b[1:]) < 0.0)]
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
    (root,) = _solve_on_curve([(G, a, b)], cfg, base)
    if isinstance(root, PreySwitchError):
        raise root
    (x0, u, v), (_, u_far, _) = root
    beta1_star = _beta1_with_focus_at(u, base)
    if not lo <= beta1_star <= hi:
        raise SameSign(
            f"G changes sign at beta1 = {beta1_star}, outside the range ({lo}, {hi})"
        )
    width = abs(_beta1_with_focus_at(u_far, base) - beta1_star)
    cert = _certify(base.replace(beta1=beta1_star), x0, (u, v), cfg)
    return dataclasses_replace(cert, bracket_width=width)


# the certificate's forward landing tolerance and backward capture radius
_FORWARD_TOL = 1e-6
_CAPTURE_RADIUS = 1e-4


def verify_connection(params: Parameters, x0: float, cfg: IntegratorConfig) -> ConnectionCertificate:
    """Certify the sliding homoclinic loop through the fold point x0.

    Three checks, in turn, failure of any raising
    :class:`VerificationFailure`: the forward X-arc from (x0, x0, phi) must
    land within 1e-6 of the pseudo-focus; the forward sliding orbit through
    (tau, phi) must either never return to the fold line or return at
    x* < x0; and the backward sliding orbit from (x0, phi) must be captured
    within 1e-4 of the focus without leaving the sliding region.
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

    # the sliding return first: on the points of the (x0, r2) manifold with
    # x* >= x0, the backward orbit from (x0, phi) ends on the fold line too,
    # and the failure names the hypothesis that fails, x* < x0
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

    # at the constructed parameters, beta2 = r2*beta1/(v - r1) turns the
    # complex-pair bound into the paper's M(x0, r2)
    M_bound = _m_bound(out)
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
    the exit abscissa pi(s).  The n X-arcs are lanes of one batch
    (:func:`~preyswitch.flow.integrate_fold_launches`), and the sliding
    legs from their landings lanes of another (``flow._sliding_lanes``),
    each leg as :func:`~preyswitch.flow.integrate_sliding` runs it alone;
    errors are raised in the order of s, except that a :class:`BlowUp` of
    any sliding leg aborts the batch.  Sign changes of pi(s) - s witness
    sliding periodic orbits.  Raises :class:`FocusLanding` if an X-arc lands
    within ``cfg.event_tol`` of the pseudo-focus (as the one from the
    connection's fold point does), and :class:`OrbitEscaped` if any other
    orbit fails to come back to the fold line.
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
    launches = integrate_fold_launches(grid, cfg, params)
    landings = []
    for landing in launches:
        if isinstance(landing, PreySwitchError) or landing[1] < params.phi - cfg.event_tol:
            break
        landings.append(landing)
    # each landing has u > 0 and z >= phi - event_tol, as integrate_sliding requires
    legs = []
    if landings:
        _, focus = pseudo_equilibria(params)
        legs = _sliding_lanes(np.array(landings), 1.0, 0.0, cfg, params, cfg.event_tol, sliding_series(params), focus)
    out: list[tuple[float, float]] = []
    for s, (u, v), arc in zip(grid, landings, legs):
        ev = arc.terminal_event
        if ev.kind is EventKind.FOCUS_CAPTURE:
            raise FocusLanding(f"s = {s}: the X-arc lands on the pseudo-focus at ({u}, {v})")
        if ev.kind is not EventKind.FOLD_EXIT:
            raise OrbitEscaped(f"s = {s}: sliding arc ended with {ev.kind.value}")
        out.append((float(s), float(ev.state[0])))
    if len(out) < n:  # the first landing that cannot slide
        s, landing = grid[len(out)], launches[len(out)]
        if isinstance(landing, (NoReturn, TangencyAmbiguity)):
            raise OrbitEscaped(f"s = {s}: {landing}") from landing
        if isinstance(landing, PreySwitchError):
            raise landing
        raise OrbitEscaped(f"s = {s}: landing at z = {landing[1]} is below the sliding region")
    return out


def fixed_point_brackets(samples: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Adjacent sample pairs across which pi(s) - s changes sign."""
    out = []
    for (s0, p0), (s1, p1) in zip(samples, samples[1:]):
        g0, g1 = p0 - s0, p1 - s1
        if g0 == 0.0 or (g0 < 0.0) != (g1 < 0.0):
            out.append((s0, s1))
    return out
