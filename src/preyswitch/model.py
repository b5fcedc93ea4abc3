"""Model core: parameters, vector-field pieces, and the switching plane.

The model is a 1-predator/2-prey system with instantaneous prey switching,
written in rescaled coordinates (x, y, z) = (p1/beta1, p2/(a_q*beta2), P/beta1)
so that the switching plane becomes Sigma = {x = y}.  The field X governs
x >= y (predator on preferred prey), Y governs x <= y, and the planar
Lotka-Volterra field is X on its invariant plane y = 0.  Each field is
defined once, by its quadratic form (:func:`quadratic_series`), which gives
its Taylor series and, as their order 1, its rates.
"""

from __future__ import annotations

import json
import math
import operator
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


def _finite(p, what: str, dim: int) -> list[float]:
    """The ``dim`` coordinates of p as floats; :class:`DomainError` if p is
    not a sequence of numbers, has another number of them, or one is not
    finite, so that no point is cut short and no NaN or infinity enters a
    result silently."""
    try:
        if isinstance(p, (str, bytes)):  # a sequence, but of characters
            raise TypeError
        values = [float(v) for v in p]
    except (TypeError, ValueError) as err:
        raise DomainError(f"{what} must be a sequence of {dim} numbers, got {p!r}") from err
    if len(values) != dim:
        raise DomainError(f"{what} must have {dim} coordinates, got {tuple(values)}")
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} must be finite, got {tuple(values)}")
    return values


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
        if min(_finite((self.x, self.y, self.z), "state (x, y, z)", 3)) < 0.0:
            raise DomainError(f"state components must be nonnegative: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class SigmaState:
    """A point (x, x, z) of the switching plane, stored as (x, z)."""

    x: float
    z: float

    def __post_init__(self):
        if min(_finite((self.x, self.z), "Sigma point (x, z)", 2)) < 0.0:
            raise DomainError(f"Sigma point components must be nonnegative: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.z])


class RegionLabel(Enum):
    """Mutually exclusive classification of a point of Sigma."""

    SLIDING = "Sliding"
    CROSSING = "Crossing"
    VISIBLE_FOLD = "VisibleFold"
    CUSP = "Cusp"
    ORIGIN_LINE = "OriginLine"
    BOUNDARY = "Boundary"


class Piece(Enum):
    """Which smooth piece of the model: X on x >= y, Y on x <= y."""

    X = "X"
    Y = "Y"


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
    p1, p2, P = _finite(bio, "densities (p1, p2, P)", 3)
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


def quadratic_series(linear, c, i: int, j: int, sgn: float = 1.0):
    """Taylor coefficients of the flow of s' = sgn*(L s + c s_i s_j).

    Every field of the model has this form, with one product s_i s_j, and
    is defined by it alone: ``linear`` holds the rows of L and ``c`` the
    weights of the product.  ``series(p, order)`` returns one list per
    coordinate, s_0..s_order, with s(t) = sum s_k t**k the solution through
    p at t = 0.  Every order after s_0 = p follows from the Cauchy product
    (s_i s_j)_k = sum_l s_(i,l) s_(j,k-l):

        (k+1) s_(k+1) = sgn*(L s_k + c (s_i s_j)_k)

    at O(order**2) cost, so order 1 (k = 0) is the field's rate at p.  Only
    the nonzero entries of L and c enter, the product's first; every row
    must have one.  ``p`` is a list of floats, or holds K lanes as an array
    of shape (dim, K): each coefficient is then the array of the K lanes'
    coefficients, bit-identical to theirs one lane at a time, since each
    lane sees the same operations in the same order.
    """
    n = len(c)
    # each row as (weight, index) pairs into (s_0, .., s_(n-1), s_i s_j)
    rows = [[(sgn * v, q) for q, v in ((n, w), *enumerate(row)) if v != 0.0] for w, row in zip(c, linear)]
    mul = operator.mul

    def series(p, order: int) -> list[list[float]]:
        cols = [[v] for v in p]
        products = []  # (s_i s_j)_k at index k
        seqs = cols + [products]
        # each row's first term starts its sum
        terms = [
            (col, v0, seqs[q0], [(v, seqs[q]) for v, q in rest])
            for col, ((v0, q0), *rest) in zip(cols, rows)
        ]
        left, right = cols[i], cols[j][::-1]  # s_j reversed, for the Cauchy product
        for k in range(order):
            products.append(sum(map(mul, left, right)))
            for col, v0, seq0, rest in terms:
                acc = v0 * seq0[k]
                for v, seq in rest:
                    acc += v * seq[k]
                col.append(acc / (k + 1))
            right.insert(0, cols[j][k + 1])
        return cols

    return series


def smooth_series(piece: Piece, params: Parameters, sgn: float = 1.0):
    """Taylor coefficients of the flow of one smooth piece, times ``sgn``.

    See :func:`quadratic_series`: X is x' = r1 x - xz, y' = r2 y,
    z' = -m z + e q1 xz; Y swaps the product for yz, with weights
    -beta2/beta1 and e q2/a_q.  On the invariant plane y = 0, X is the
    planar Lotka-Volterra field in (x, z).
    """
    diagonal = [[params.r1, 0.0, 0.0], [0.0, params.r2, 0.0], [0.0, 0.0, -params.m]]
    if piece is Piece.X:
        return quadratic_series(diagonal, (-1.0, 0.0, params.e * params.q1), 0, 2, sgn)
    if piece is Piece.Y:
        ratio = params.beta2 / params.beta1
        return quadratic_series(diagonal, (0.0, -ratio, params.e * params.q2 / params.a_q), 1, 2, sgn)
    raise ValueError(f"unknown piece: {piece!r}")


def eval_field(piece: Piece, state, params: Parameters) -> np.ndarray:
    """The rate of one smooth piece at a state (x, y, z): order 1 of its
    :func:`smooth_series`.  A state that is not three finite coordinates
    raises :class:`DomainError`.
    """
    p = _finite(state, "state (x, y, z)", 3)
    return np.array([col[1] for col in smooth_series(piece, params)(p, 1)])


def lie_derivatives(p, params: Parameters) -> tuple[float, float, float]:
    """First Lie derivatives of h along X and Y at (x, x, z), plus X2h.

    Returns (Xh, Yh, X2h) where Xh = (phi - z)*x, Yh = (phi + (b2/b1)*z)*x,
    and X2h = phi*(m - e*q1*x)*x is the second derivative along X evaluated
    with z on the fold line; it is meaningful only where Xh = 0.  A point
    that is not two finite coordinates raises :class:`DomainError`.
    """
    x, z = _finite(p, "Sigma point (x, z)", 2)
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
    this model is empty, so no escaping label exists.  A point that is not
    two finite coordinates raises :class:`DomainError`.
    """
    x, z = _finite(p, "Sigma point (x, z)", 2)
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
    """Conserved quantity of X on the plane y = 0, the planar Lotka-Volterra field.

    F(x, z) = -m - r1 + e*q1*x + z - m*log(e*q1*x/m) - r1*log(z/r1);
    it vanishes at the center (tau, r1) and is positive elsewhere on the
    open quadrant.  A point that is not two finite coordinates raises
    :class:`DomainError`.
    """
    x, z = _finite(p, "point (x, z)", 2)
    if x <= 0.0 or z <= 0.0:
        raise DomainError(f"first integral requires x > 0 and z > 0, got ({x}, {z})")
    if params.q1 == 0.0:
        raise DegenerateTau("first integral requires q1 > 0")
    eq1 = params.e * params.q1
    m, r1 = params.m, params.r1
    return -m - r1 + eq1 * x + z - m * math.log(eq1 * x / m) - r1 * math.log(z / r1)
