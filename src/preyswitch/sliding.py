"""Sliding dynamics on the switching plane.

On the sliding region z > phi the Filippov convention selects the unique
convex combination of X and Y tangent to Sigma.  For this model the
combination collapses to a planar field in (x, z) with an explicit closed
form: a Lotka-Volterra core plus a linear drift in the z-rate.  This module
evaluates that field, locates and classifies its pseudo-equilibria, and
computes the analytic witnesses (Dulac divergence, a scaled first integral
of the core, the hyperbola of z-nullcline balance) used to certify the
global backward convergence onto the repulsive focus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, PoleError, PreySwitchError, TangencyDenominator
from .model import Parameters, Piece, SigmaState, eval_field, first_integral_F, lie_derivatives


class SlidingMode(Enum):
    CLOSED_FORM = "ClosedForm"
    GENERIC_FILIPPOV = "GenericFilippov"


class FocusKind(Enum):
    REPULSIVE_FOCUS = "RepulsiveFocus"
    NODE = "Node"
    SADDLE = "Saddle"
    ORIGIN = "Origin"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class PseudoEquilibrium:
    """Interior zero of the sliding field with its eigenvalue data.

    ``alpha`` is the shared real part of the eigenvalue pair, ``beta_imag``
    the magnitude of the imaginary part (zero when the pair is real).
    """

    location: SigmaState
    alpha: float
    beta_imag: float
    kind: FocusKind


def _coefficients(params: Parameters) -> tuple[float, float, float, float]:
    """Rates (R, B, K, C) of the sliding field x' = x(R - Bz), z' = -Kx - mz + Cxz."""
    p = params
    s = p.beta1 + p.beta2
    R = (p.beta1 * p.r2 + p.beta2 * p.r1) / s
    B = p.beta2 / s
    K = p.e * p.b_q * p.phi * p.beta1 / (p.a_q * s)
    C = p.e * (p.beta1 * p.q2 + p.a_q * p.beta2 * p.q1) / (p.a_q * s)
    return R, B, K, C


def sliding_rhs(params: Parameters, sgn: float = 1.0):
    """The closed-form sliding field f(t, s), s = (x, z), times ``sgn``."""
    R, B, K, C = _coefficients(params)
    m = params.m

    def f(t, s):
        x, z = s.tolist()
        return [sgn * x * (R - B * z), sgn * (-K * x - m * z + C * x * z)]

    return f


def eval_sliding(p, params: Parameters, mode: SlidingMode = SlidingMode.CLOSED_FORM) -> np.ndarray:
    """Sliding velocity (x-rate, z-rate) at a point (x, z) of Sigma.

    CLOSED_FORM evaluates the explicit planar field and is defined for all
    (x, z).  GENERIC_FILIPPOV forms the convex combination
    (Yh*X - Xh*Y)/(Yh - Xh) at (x, x, z) and is meaningful on the closed
    sliding region; it exists as an independent cross-check of the closed
    form and raises :class:`TangencyDenominator` where |Yh - Xh| < 1e-12.
    """
    x, z = (float(v) for v in p)
    if mode is SlidingMode.CLOSED_FORM:
        return np.array(sliding_rhs(params)(0.0, np.array([x, z])))

    Xh, Yh, _ = lie_derivatives((x, z), params)
    denom = Yh - Xh
    if abs(denom) < 1e-12:
        raise TangencyDenominator(
            f"Yh - Xh = {denom:.3e} at (x, z) = ({x}, {z}); "
            "the Filippov combination degenerates on the tangency set"
        )
    s3 = (x, x, z)
    w = (Yh * eval_field(Piece.X, s3, params) - Xh * eval_field(Piece.Y, s3, params)) / denom
    scale = max(1.0, float(np.max(np.abs(w))))
    if abs(w[0] - w[1]) > 1e-9 * scale:
        raise PreySwitchError(
            "Filippov combination is not tangent to Sigma: "
            f"x-rate {w[0]!r} != y-rate {w[1]!r}"
        )
    return np.array([w[0], w[2]])


def pseudo_equilibria(params: Parameters) -> tuple[SigmaState, SigmaState]:
    """The two zeros of the sliding field: the origin and the interior point.

    The interior point satisfies 0 < x_c < tau and z_c > r1 for every
    admissible parameter set.
    """
    p = params
    x_c = (
        p.a_q
        * p.m
        * (p.beta1 * p.r2 + p.beta2 * p.r1)
        / (p.e * (p.beta1 * p.q2 * p.r2 + p.a_q * p.beta2 * p.q1 * p.r1))
    )
    z_c = p.r1 + (p.beta1 / p.beta2) * p.r2
    return SigmaState(0.0, 0.0), SigmaState(x_c, z_c)


def sliding_jacobian(p, params: Parameters) -> np.ndarray:
    """Jacobian of the closed-form sliding field at (x, z)."""
    x, z = (float(v) for v in p)
    R, B, K, C = _coefficients(params)
    return np.array(
        [[R - B * z, -B * x], [-K + C * z, -params.m + C * x]]
    )


def classify_focus(params: Parameters) -> PseudoEquilibrium:
    """Eigenvalue classification of the interior pseudo-equilibrium.

    alpha comes from the closed-form trace expression
    m*b_q*phi*beta1*beta2 / (2*(beta1+beta2)*(a_q*q1*r1*beta2 + q2*r2*beta1));
    the imaginary part from the quadratic formula on the 2x2 Jacobian, with a
    complex pair declared when the discriminant falls below -1e-14.
    The pair is complex exactly when the admissibility bound on m holds, so
    ``beta_imag > 0`` and kind REPULSIVE_FOCUS coincide with that condition
    (for b_q > 0).
    """
    p = params
    _, interior = pseudo_equilibria(params)
    alpha = (
        p.m
        * p.b_q
        * p.phi
        * p.beta1
        * p.beta2
        / (2.0 * (p.beta1 + p.beta2) * (p.a_q * p.q1 * p.r1 * p.beta2 + p.q2 * p.r2 * p.beta1))
    )
    J = sliding_jacobian(interior.as_array(), params)
    tr = J[0, 0] + J[1, 1]
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    scale = float(np.max(np.abs(J)))
    if abs(alpha - tr / 2.0) > 1e-8 * max(abs(alpha), abs(tr) / 2.0) + 1e-13 * max(1.0, scale):
        raise PreySwitchError(
            f"closed-form alpha {alpha!r} disagrees with Jacobian trace/2 {tr / 2.0!r}"
        )
    disc = tr * tr - 4.0 * det
    if disc < -1e-14:
        beta_imag = math.sqrt(-disc) / 2.0
    else:
        beta_imag = 0.0
    if p.b_q == 0.0:
        kind = FocusKind.DEGENERATE
    elif beta_imag > 0.0 and alpha > 0.0:
        kind = FocusKind.REPULSIVE_FOCUS
    elif det < 0.0:
        kind = FocusKind.SADDLE
    else:
        kind = FocusKind.NODE
    return PseudoEquilibrium(location=interior, alpha=alpha, beta_imag=beta_imag, kind=kind)


def focus_condition_holds(params: Parameters) -> bool:
    """Inequality form of the complex-pair condition: m < admissible bound."""
    p = params
    W = p.q2 * p.r2 * p.beta1 + p.a_q * p.q1 * p.r1 * p.beta2
    bound = (
        4.0
        * (p.beta1 + p.beta2)
        * (p.r2 * p.beta1 + p.r1 * p.beta2)
        * W
        * W
        / (p.b_q**2 * p.phi**2 * p.beta1**2 * p.beta2**2)
    )
    return p.m < bound


def monotonicity_witnesses(p, params: Parameters) -> tuple[float, float, float]:
    """Analytic no-limit-cycle witnesses at (x, z), x > 0, z > 0.

    Returns (dulac_div, H_value, dH_along_flow):

    * ``dulac_div``: divergence of the sliding field rescaled by 1/(x*z);
      strictly positive whenever b_q > 0, ruling out limit cycles.
    * ``H_value``: first integral of the Lotka-Volterra core of the sliding
      field, normalized to vanish at the core's center.
    * ``dH_along_flow``: derivative of H(a*x, z) along the full sliding flow,
      where a rescales x so the level sets are centered on the
      pseudo-equilibrium; nonnegative, vanishing exactly on z = z_c.
    """
    x, z = (float(v) for v in p)
    if x <= 0.0 or z <= 0.0:
        raise DomainError(f"witnesses require x > 0 and z > 0, got ({x}, {z})")
    par = params
    s = par.beta1 + par.beta2
    R, B, K, C = _coefficients(params)

    dulac = par.e * par.b_q * par.phi * par.beta1 / (par.a_q * s * z * z)

    H = (
        -par.m
        - R
        + C * x
        + B * z
        - par.m * math.log(C * x / par.m)
        - R * math.log(B * z / R)
    )

    z_c = par.r1 + (par.beta1 / par.beta2) * par.r2
    dH = (
        par.e
        * par.b_q
        * par.phi
        * par.beta1
        * par.beta2**2
        * x
        * (z - z_c) ** 2
        / (par.a_q * z * s * s * (par.beta1 * par.r2 + par.beta2 * par.r1))
    )
    return dulac, H, dH


def h_rescale_constant(params: Parameters) -> float:
    """The x-rescaling a that centers the level sets of H on the focus."""
    p = params
    return (
        (p.beta1 + p.beta2)
        * (p.q2 * p.r2 * p.beta1 + p.a_q * p.q1 * p.r1 * p.beta2)
        / ((p.q2 * p.beta1 + p.a_q * p.q1 * p.beta2) * (p.r2 * p.beta1 + p.r1 * p.beta2))
    )


def hyperbola_and_Fc(x: float, params: Parameters, focus: SigmaState) -> tuple[float, float]:
    """Height of the balance hyperbola at x, and the level gap F_c(x).

    z_h(x) = e*b_q*r1*x / (e*q2*x - a_q*m) is the branch through the origin
    and the focus; F_c(x) = F(x, z_h(x)) - F(x_c, z_c) measures whether the
    hyperbola point lies outside (positive) or inside (negative) the
    F-level set through the focus.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"hyperbola requires x > 0, got {x}")
    p = params
    denom = p.e * p.q2 * x - p.a_q * p.m
    pole = p.a_q * p.m / (p.e * p.q2)
    if abs(denom) <= 1e-12 * max(1.0, p.e * p.q2 * pole):
        raise PoleError(f"x = {x} lies at the vertical asymptote x = {pole}")
    z_h = p.e * p.b_q * p.r1 * x / denom
    if z_h <= 0.0:
        raise DomainError(f"hyperbola height z_h({x}) = {z_h} is not positive")
    F_c = first_integral_F((x, z_h), params) - first_integral_F(focus.as_array(), params)
    return z_h, F_c


def fc_slope_at_focus(params: Parameters, focus: SigmaState) -> float:
    """Closed-form derivative of F_c at x_c; strictly negative.

    Equals -(e*q1*r1*(tau - x_c)^2 + tau*(z_c - r1)^2) / (r1*(tau - x_c)*x_c).
    """
    p = params
    x_c, z_c = focus.x, focus.z
    tau = p.tau
    return -(p.e * p.q1 * p.r1 * (tau - x_c) ** 2 + tau * (z_c - p.r1) ** 2) / (
        p.r1 * (tau - x_c) * x_c
    )
