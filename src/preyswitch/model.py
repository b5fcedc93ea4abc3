"""Model core: parameters, vector-field pieces, and the switching plane.

The model is a 1-predator/2-prey system with instantaneous prey switching,
written in rescaled coordinates (x, y, z) = (p1/beta1, p2/(a_q*beta2), P/beta1)
so that the switching plane becomes Sigma = {x = y}.  The field X governs
x >= y (predator on preferred prey), Y governs x <= y, and the planar
Lotka-Volterra field is the restriction of X to the invariant plane y = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    ConstraintViolation,
    DegenerateTau,
    DomainError,
    ParameterLoadError,
)

PARAM_KEYS = ("r1", "r2", "a_q", "q1", "q2", "beta1", "beta2", "m", "e")

#: Absolute tolerance used for membership in the measure-zero sets of Sigma
#: (fold line, cusp point, origin line).
DEFAULT_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Parameters:
    """The nine model rates, validated to lie in the admissible region.

    Use :func:`validate_parameters` (or :func:`load_parameters`) to construct
    instances; direct construction bypasses the admissibility checks.
    Instances are immutable and safe to share between threads.
    """

    r1: float
    r2: float
    a_q: float
    q1: float
    q2: float
    beta1: float
    beta2: float
    m: float
    e: float

    @property
    def phi(self) -> float:
        """Growth-rate gap r1 - r2, the height of the fold line on Sigma."""
        return self.r1 - self.r2

    @property
    def tau(self) -> float:
        """Cusp abscissa m/(e*q1); undefined when q1 = 0."""
        if self.q1 == 0.0:
            raise DegenerateTau("tau = m/(e*q1) is undefined for q1 = 0")
        return self.m / (self.e * self.q1)

    @property
    def b_q(self) -> float:
        """Preference trade-off intercept q2 - a_q*q1."""
        return self.q2 - self.a_q * self.q1

    def replace(self, **changes: float) -> "Parameters":
        """Return a revalidated copy with the given fields replaced."""
        vals = self.as_dict()
        vals.update(changes)
        return validate_parameters(**vals)

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in PARAM_KEYS}


@dataclass(frozen=True)
class State:
    """A point (x, y, z) of the nonnegative octant in model coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if min(self.x, self.y, self.z) < 0.0:
            raise DomainError(f"state components must be nonnegative: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class SigmaState:
    """A point (x, x, z) of the switching plane, stored as (x, z)."""

    x: float
    z: float

    def __post_init__(self):
        if min(self.x, self.z) < 0.0:
            raise DomainError(f"Sigma point components must be nonnegative: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.z])

    def embed(self) -> np.ndarray:
        """The 3D representative (x, x, z)."""
        return np.array([self.x, self.x, self.z])


class RegionLabel(Enum):
    """Mutually exclusive classification of a point of Sigma."""

    SLIDING = "Sliding"
    CROSSING = "Crossing"
    VISIBLE_FOLD = "VisibleFold"
    CUSP = "Cusp"
    ORIGIN_LINE = "OriginLine"
    BOUNDARY = "Boundary"


class Piece(Enum):
    """Which right-hand side to evaluate."""

    X = "X"
    Y = "Y"
    PLANAR_LV = "PlanarLV"


def validate_parameters(
    r1: float,
    r2: float,
    a_q: float,
    q1: float,
    q2: float,
    beta1: float,
    beta2: float,
    m: float,
    e: float,
) -> Parameters:
    """Check the admissibility inequalities and build a :class:`Parameters`.

    Raises :class:`ConstraintViolation` naming the first violated inequality.
    q1 = 0 is admissible; operations needing tau will raise
    :class:`DegenerateTau` later.
    """
    vals = dict(
        r1=r1, r2=r2, a_q=a_q, q1=q1, q2=q2, beta1=beta1, beta2=beta2, m=m, e=e
    )
    for name, v in vals.items():
        if not math.isfinite(v):
            raise ConstraintViolation(f"{name} finite", f"{name} = {v} is not finite")
    checks = [
        ("r2 > 0", r2 > 0),
        ("r1 > r2", r1 > r2),
        ("a_q > 0", a_q > 0),
        ("q1 >= 0", q1 >= 0),
        ("q2 >= 0", q2 >= 0),
        ("b_q >= 0", q2 - a_q * q1 >= 0),
        ("beta1 > 0", beta1 > 0),
        ("beta2 > 0", beta2 > 0),
        ("m > 0", m > 0),
        ("e > 0", e > 0),
    ]
    for name, ok in checks:
        if not ok:
            raise ConstraintViolation(name)
    return Parameters(**{k: float(v) for k, v in vals.items()})


def parameters_from_dict(doc: dict) -> Parameters:
    """Build validated Parameters from a mapping with the nine rate keys."""
    missing = [k for k in PARAM_KEYS if k not in doc]
    if missing:
        raise ParameterLoadError(f"missing parameter keys: {', '.join(missing)}")
    unknown = [k for k in doc if k not in PARAM_KEYS]
    if unknown:
        raise ParameterLoadError(f"unknown parameter keys: {', '.join(unknown)}")
    vals = {}
    for k in PARAM_KEYS:
        v = doc[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParameterLoadError(f"parameter {k} must be a number, got {v!r}")
        vals[k] = float(v)
    return validate_parameters(**vals)


def load_parameters(path: str | Path) -> Parameters:
    """Load and validate parameters from a JSON document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ParameterLoadError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ParameterLoadError(f"parameter document must be a JSON object: {path}")
    return parameters_from_dict(doc)


def to_model_coords(bio: tuple[float, float, float], params: Parameters) -> State:
    """Map biological densities (p1, p2, P) to model coordinates (x, y, z).

    The switching function in the new coordinates is h = x - y; the rescaling
    removes the parameter dependence of the switching plane.
    """
    p1, p2, P = bio
    if min(p1, p2, P) < 0.0:
        raise DomainError("densities must be nonnegative")
    return State(
        x=p1 / params.beta1,
        y=p2 / (params.a_q * params.beta2),
        z=P / params.beta1,
    )


def switching_function(state) -> float:
    """h(x, y, z) = x - y; Sigma is its zero set."""
    return float(state[0]) - float(state[1])


def smooth_rhs(piece: Piece, params: Parameters, sgn: float = 1.0):
    """The right-hand side f(t, s) of one smooth piece, times ``sgn``.

    ``s`` is a float array (x, y, z) for the 3D pieces and (x, z) for
    PLANAR_LV.  PLANAR_LV also takes K states stacked as (x_1..x_K,
    z_1..z_K) and returns their rates stacked alike.
    """
    r1, r2, m = params.r1, params.r2, params.m
    eq1 = params.e * params.q1
    if piece is Piece.X:

        def f(t, s):
            x, y, z = s.tolist()
            return [sgn * (r1 - z) * x, sgn * r2 * y, sgn * (eq1 * x - m) * z]

        return f
    if piece is Piece.Y:
        ratio = params.beta2 / params.beta1
        eq2a = params.e * params.q2 / params.a_q

        def f(t, s):
            x, y, z = s.tolist()
            return [sgn * r1 * x, sgn * (r2 - ratio * z) * y, sgn * (eq2a * y - m) * z]

        return f
    if piece is Piece.PLANAR_LV:

        def f(t, s):
            if len(s) == 2:  # one lane: Python arithmetic beats numpy's per-call cost
                x, z = s.tolist()
                return [sgn * (r1 - z) * x, sgn * (eq1 * x - m) * z]
            x, z = s.reshape(2, -1)
            return sgn * s * np.concatenate((r1 - z, eq1 * x - m))

        return f
    raise ValueError(f"unknown piece: {piece!r}")


def eval_field(piece: Piece, state, params: Parameters) -> np.ndarray:
    """Evaluate one smooth piece of the model at a state.

    ``state`` is (x, y, z) for the 3D pieces and (x, z) for PLANAR_LV.
    """
    return np.array(smooth_rhs(piece, params)(0.0, np.asarray(state, dtype=float)))


def lie_derivatives(p, params: Parameters) -> tuple[float, float, float]:
    """First Lie derivatives of h along X and Y at (x, x, z), plus X2h.

    Returns (Xh, Yh, X2h) where Xh = (phi - z)*x, Yh = (phi + (b2/b1)*z)*x,
    and X2h = phi*(m - e*q1*x)*x is the second derivative along X evaluated
    with z on the fold line; it is meaningful only where Xh = 0.
    """
    x, z = (float(v) for v in p)
    phi = params.phi
    Xh = (phi - z) * x
    Yh = (phi + (params.beta2 / params.beta1) * z) * x
    X2h = phi * (params.m - params.e * params.q1 * x) * x
    return Xh, Yh, X2h


def classify_sigma_point(
    p, params: Parameters, tol: float = DEFAULT_BOUNDARY_TOL
) -> RegionLabel:
    """Classify a point (x, z) of Sigma into its dynamical region.

    Open regions (sliding z > phi, crossing 0 < z < phi) require x > 0; the
    measure-zero sets (origin line, fold segment, cusp, remaining boundary)
    are resolved with absolute tolerance ``tol``.  The escaping region of
    this model is empty, so no escaping label exists.
    """
    x, z = (float(v) for v in p)
    phi = params.phi
    if x <= tol:
        return RegionLabel.ORIGIN_LINE
    if abs(z - phi) <= tol:
        tau = params.tau
        if abs(x - tau) <= tol:
            return RegionLabel.CUSP
        return RegionLabel.VISIBLE_FOLD if x < tau else RegionLabel.BOUNDARY
    if z > phi:
        return RegionLabel.SLIDING
    if z > tol:
        return RegionLabel.CROSSING
    return RegionLabel.BOUNDARY


def first_integral_F(p, params: Parameters) -> float:
    """Conserved quantity of the planar Lotka-Volterra piece.

    F(x, z) = -m - r1 + e*q1*x + z - m*log(e*q1*x/m) - r1*log(z/r1);
    it vanishes at the center (tau, r1) and is positive elsewhere on the
    open quadrant.
    """
    x, z = (float(v) for v in p)
    if x <= 0.0 or z <= 0.0:
        raise DomainError(f"first integral requires x > 0 and z > 0, got ({x}, {z})")
    if params.q1 == 0.0:
        raise DegenerateTau("first integral requires q1 > 0")
    eq1 = params.e * params.q1
    m, r1 = params.m, params.r1
    return -m - r1 + eq1 * x + z - m * math.log(eq1 * x / m) - r1 * math.log(z / r1)
