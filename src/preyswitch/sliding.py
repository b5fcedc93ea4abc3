"""Sliding dynamics on the switching plane.

On the sliding region z > phi the Filippov convention selects the unique
convex combination of X and Y tangent to Sigma.  For this model the
combination collapses to a planar field in (x, z) with an explicit closed
form: a Lotka-Volterra core plus a linear drift in the z-rate,
x' = x(R - Bz), z' = -Kx - mz + Cxz.  The field is defined once: its rates
(R, B, K, C) by :func:`_coefficients`, its quadratic form by
:func:`_form`, which gives the field's rates, its Jacobian and its Taylor
series (:func:`sliding_series`, which carries the field's focus along).
This module evaluates that field, locates and classifies its
pseudo-equilibria, and computes the analytic witnesses (Dulac divergence, a
scaled first integral of the core, the hyperbola of z-nullcline balance)
used to certify the global backward convergence onto the repulsive focus;
the focus and the witnesses read the same rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NoInteriorPseudoEquilibrium, PoleError, PreySwitchError
from .model import Parameters, SigmaState, _finite, _instance, first_integral_F, quadratic_series


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


def _form(params: Parameters):
    """The sliding field as (L, c, i, j) of s' = L s + c s_i s_j, s = (x, z)."""
    R, B, K, C = _coefficients(params)
    return [[R, 0.0], [-K, -params.m]], (-B, C), 0, 1


def sliding_series(params: Parameters, sgn: float = 1.0):
    """Taylor coefficients of the flow of the sliding field times ``sgn``.

    See :func:`~preyswitch.model.quadratic_series`: the field is
    x' = R x - B xz, z' = -K x - m z + C xz, and ``series.sgn`` is ``sgn``.
    ``series.focus`` is the interior pseudo-equilibrium of the same
    parameters (:func:`pseudo_equilibria`), which a sliding arc's capture
    ball is centred on, so that no arc pairs a series with the focus of
    another parameter set.
    """
    _instance(params, Parameters, "params")
    series = quadratic_series(*_form(params), sgn)
    _, series.focus = pseudo_equilibria(params)
    return series


def eval_sliding(p, params: Parameters) -> np.ndarray:
    """Sliding velocity (x-rate, z-rate) at a point (x, z) of Sigma.

    The rates of the closed-form field, read from its quadratic form
    (``series.rate`` of :func:`~preyswitch.model.quadratic_series`),
    defined for all (x, z).  A point that is not two finite coordinates
    raises :class:`DomainError`.
    """
    _instance(params, Parameters, "params")
    s = _finite(p, "Sigma point (x, z)", 2)
    return np.array(quadratic_series(*_form(params)).rate(s))


def pseudo_equilibria(params: Parameters) -> tuple[SigmaState, SigmaState]:
    """The two zeros of the sliding field: the origin and the interior point.

    The interior point zeroes x' = x(R - Bz) at z_c = R/B and
    z' = -Kx - mz + Cxz at x_c = m z_c/(C z_c - K), in the rates of
    :func:`_coefficients`.  It satisfies 0 < x_c < tau and z_c > r1 for
    every admissible parameter set but q1 = q2 = 0, where C z_c - K = 0
    and no interior point exists: :class:`NoInteriorPseudoEquilibrium`.
    """
    _instance(params, Parameters, "params")
    R, B, K, C = _coefficients(params)
    z_c = R / B
    balance = C * z_c - K
    if not balance > 0.0:
        raise NoInteriorPseudoEquilibrium(
            f"the sliding field has no interior pseudo-equilibrium: C*z_c - K = {balance} (q1 = {params.q1}, "
            f"q2 = {params.q2}); one exists only if the predator eats a prey, q1 > 0 or q2 > 0"
        )
    return SigmaState(0.0, 0.0), SigmaState(params.m * z_c / balance, z_c)


def sliding_jacobian(p, params: Parameters) -> np.ndarray:
    """Jacobian L + c d(s_i s_j)/ds of the closed-form sliding field at (x, z).

    A point that is not two finite coordinates raises :class:`DomainError`.
    """
    _instance(params, Parameters, "params")
    s = _finite(p, "Sigma point (x, z)", 2)
    linear, c, i, j = _form(params)
    grad = [0.0] * len(s)
    grad[i] += s[j]
    grad[j] += s[i]
    return np.array([[l + w * g for l, g in zip(row, grad)] for row, w in zip(linear, c)])


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
    _instance(params, Parameters, "params")
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


def _m_bound(params: Parameters) -> float:
    """The admissible bound on m of the complex-pair condition.

    Infinite at b_q = 0, where the pseudo-equilibrium is a center.
    """
    p = params
    W = p.q2 * p.r2 * p.beta1 + p.a_q * p.q1 * p.r1 * p.beta2
    denom = p.b_q**2 * p.phi**2 * p.beta1**2 * p.beta2**2
    if denom == 0.0:
        return math.inf
    return 4.0 * (p.beta1 + p.beta2) * (p.r2 * p.beta1 + p.r1 * p.beta2) * W * W / denom


def focus_condition_holds(params: Parameters) -> bool:
    """Inequality form of the complex-pair condition: m < admissible bound.

    At b_q = 0 the bound is infinite (the pseudo-equilibrium is a center),
    so the condition holds.
    """
    _instance(params, Parameters, "params")
    return params.m < _m_bound(params)


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
    _instance(params, Parameters, "params")
    x, z = _finite(p, "Sigma point (x, z)", 2)
    if x <= 0.0 or z <= 0.0:
        raise DomainError(f"witnesses require x > 0 and z > 0, got ({x}, {z})")
    m = params.m
    R, B, K, C = _coefficients(params)
    _, focus = pseudo_equilibria(params)
    dulac = K / (z * z)
    H = -m - R + C * x + B * z - m * math.log(C * x / m) - R * math.log(B * z / R)
    dH = K * B * B * x * (z - focus.z) ** 2 / (R * z)
    return dulac, H, dH


def h_rescale_constant(params: Parameters) -> float:
    """The x-rescaling a that centers the level sets of H on the focus.

    The core's centre m/C moves onto x_c: a = m/(C x_c).
    """
    _instance(params, Parameters, "params")
    _, _, _, C = _coefficients(params)
    _, focus = pseudo_equilibria(params)
    return params.m / (C * focus.x)


def hyperbola_and_Fc(x: float, params: Parameters, focus: SigmaState) -> tuple[float, float]:
    """Height of the balance hyperbola at x, and the level gap F_c(x).

    z_h(x) = e*b_q*r1*x / (e*q2*x - a_q*m) is the branch through the origin
    and the focus; F_c(x) = F(x, z_h(x)) - F(x_c, z_c) measures whether the
    hyperbola point lies outside (positive) or inside (negative) the
    F-level set through the focus.
    """
    _instance(params, Parameters, "params")
    (x,) = _finite((x,), "x", 1)
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
    _instance(params, Parameters, "params")
    p = params
    x_c, z_c = focus.x, focus.z
    tau = p.tau
    return -(p.e * p.q1 * p.r1 * (tau - x_c) ** 2 + tau * (z_c - p.r1) ** 2) / (
        p.r1 * (tau - x_c) * x_c
    )
