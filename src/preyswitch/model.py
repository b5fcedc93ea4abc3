"""Model core: parameters, vector-field pieces, and the switching plane.

The model is a 1-predator/2-prey system with instantaneous prey switching,
written in rescaled coordinates (x, y, z) = (p1/beta1, p2/(a_q*beta2), P/beta1)
so that the switching plane becomes Sigma = {x = y}.  The field X governs
x >= y (predator on preferred prey), Y governs x <= y, and the planar
Lotka-Volterra field is X on its invariant plane y = 0.  Each field is
defined once, by its quadratic form (:func:`quadratic_series`), which gives
its rates, read from the form's rows, and its Taylor series.  The Taylor
recurrence of a form is generated code for each structure of the form and
order, given the form's weights as arguments, in two shapes: straight-line
lines for one point of floats, which the float step of
:mod:`preyswitch.flow` compiles into its program; and a loop over the
orders for K lanes held in one array, compiled here on first use, which
takes each lane's operations in the same order.
"""

from __future__ import annotations

import functools
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


def _instance(value, kind: type, what: str) -> None:
    """:class:`DomainError` naming ``what`` unless ``value`` is a ``kind``.
    Each public entry point checks its ``params`` and ``cfg`` by it, once,
    so that a wrong argument there is the package's error, not an
    AttributeError from deep inside."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got {value!r}")


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

    Raises :class:`ConstraintViolation` naming the first violated inequality,
    or ``"<key> finite"`` for the first rate that is not a finite number.
    q1 = 0 is admissible; operations needing tau will raise
    :class:`DegenerateTau` later.
    """
    vals = dict(
        r1=r1, r2=r2, a_q=a_q, q1=q1, q2=q2, beta1=beta1, beta2=beta2, m=m, e=e
    )
    for name, v in vals.items():
        try:
            (vals[name],) = _finite((v,), name, 1)
        except DomainError as err:
            raise ConstraintViolation(f"{name} finite", f"{name} = {v!r} is not a finite number") from err
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
    return Parameters(**vals)


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
    _instance(params, Parameters, "params")
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
    """Rates and Taylor coefficients of the flow of s' = sgn*(L s + c s_i s_j).

    Every field of the model has this form, with one product s_i s_j, and
    is defined by it alone: ``linear`` holds the rows of L and ``c`` the
    weights of the product.  Only the nonzero entries of L and c enter, the
    product's first; every row must have one, or :class:`DomainError` is
    raised.

    ``series.rate(p)`` returns the field's rate at the point p, a sequence
    of floats, as a list: each row's terms times ``sgn``, added in turn from
    its first, with the product formed as 0 + p_i p_j, by the operations
    that give order 1 of the series below (a left fold, not ``sum``, which
    from Python 3.12 on compensates the rounding of floats).

    ``series(p, order)`` returns the Taylor coefficients s_0..s_order of the
    solutions through the K lanes of ``p``, an array of shape (dim, K), as
    one array of shape (dim, order + 1, K), with s(t) = sum s_k t**k the
    solution through a lane at t = 0.  Every order after s_0 = p follows
    from the Cauchy product (s_i s_j)_k = sum_l s_(i,l) s_(j,k-l):

        (k+1) s_(k+1) = sgn*(L s_k + c (s_i s_j)_k)

    at O(order**2) cost, so order 1 (k = 0) is the field's rate.  The
    recurrence is compiled for the form's structure and the order, with the
    nonzero weights times ``sgn`` as its arguments, as a loop over the
    orders on one array (:func:`_lane_recurrence`).  For K >= 2 each lane's
    coefficients are bit-identical to those of its float step below, since
    each lane sees the same operations in the same order; numpy adds the
    product of one lane alone pairwise.

    ``series.form`` is the form's structure and the indices of its product,
    (structure, i, j), the key of the recurrence's lines for one point of
    floats (:func:`_series_lines`), which take ``series.weights``, the
    nonzero weights times ``sgn`` in turn, as their first arguments.

    ``series.sgn`` is ``sgn``, the sign of time along the arcs that the
    series steps, so that a series states its own direction once: the step
    loop reads it, and no caller restates it.  ``series.axes`` is None: the
    series' coordinates are the field's, but for Y's series (see
    :func:`smooth_series`).
    """
    n = len(c)
    # each row's nonzero weights and their indices into (s_0, .., s_(n-1), s_i s_j)
    rows = [[(sgn * v, q) for q, v in ((n, w), *enumerate(row)) if v != 0.0] for w, row in zip(c, linear)]
    if not all(rows):
        raise DomainError(f"every row of a quadratic form needs a nonzero weight, got L = {linear}, c = {c}")
    structure = tuple(tuple(q for _, q in row) for row in rows)
    weights = tuple(v for row in rows for v, _ in row)

    def series(p, order: int):
        return _lane_recurrence(structure, i, j, order)(p, weights)

    def rate(p):
        s = [*p, 0 + p[i] * p[j]]
        return [functools.reduce(operator.add, [v * s[q] for v, q in row]) for row in rows]

    series.rate = rate
    series.form = (structure, i, j)
    series.weights = weights
    series.sgn = sgn
    series.axes = None
    return series


def _series_lines(structure: tuple[tuple[int, ...], ...], i: int, j: int, order: int, constants: list[str]):
    """The names s{q}_{k} of the coefficients, one list per coordinate, and
    the lines that compute them from ``p`` and ``args`` to ``order``, and
    return None if one is not finite: the series of a float step of the
    form (see :func:`preyswitch.flow._taylor_step`).  ``args`` holds the
    weights, then the values that the lines name ``constants``.

    Row r holds one term per index in ``structure[r]``, n for the product
    s_i s_j and q < n for s_q, and takes its weights in turn from
    ``args``.  Each order is written out in one fixed order of
    operations: the product's order k as 0 + s_(i,0) s_(j,k) + .. +
    s_(i,k) s_(j,0), added in turn, and each row as
    (w s_k + w' s'_k + ..) / (k+1), its terms in turn (order 1 is not
    divided by 1).

    Finiteness is read from a few coefficients: a row with its own term
    (w s_q, w != 0) carries a coefficient that is not finite to its every
    later order, since inf and NaN stay infinite or NaN under + and under *
    by a nonzero weight, and a product carries one into every row it
    enters; so such a row's last coefficient stands for the row, and a row
    without its own term is read whole.  Each is multiplied by 0.0, so that
    their sum is 0.0, or NaN if one is not finite.
    """
    n = len(structure)
    names = [[f"s{q}_{k}" for k in range(order + 1)] for q in range(n)]
    wnames = [f"w{m}" for m in range(sum(map(len, structure)))]
    body = [f"{''.join(col[0] + ', ' for col in names)}= p", f"{''.join(w + ', ' for w in wnames + constants)}= args"]
    for k in range(order):
        terms = " + ".join(f"{names[i][l]}*{names[j][k - l]}" for l in range(k + 1))
        body.append(f"pr{k} = 0.0 + {terms}")
        free = iter(wnames)
        for q, row in enumerate(structure):
            terms = " + ".join(f"{next(free)}*{f'pr{k}' if r == n else names[r][k]}" for r in row)
            body.append(f"{names[q][k + 1]} = ({terms}) / {k + 1.0}" if k else f"{names[q][1]} = {terms}")
    read = [col[order:] if q in row else col for q, (col, row) in enumerate(zip(names, structure))]
    body.append(f"if {' + '.join(f'0.0*{v}' for col in read for v in col)}:")
    body.append("    return None")
    return names, body


def _compiled(name: str, args: str, body: list[str], filename: str, namespace: dict):
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@functools.cache
def _lane_recurrence(structure: tuple[tuple[int, ...], ...], i: int, j: int, order: int):
    """The recurrence of :func:`quadratic_series` to ``order`` on K >= 2
    lanes, compiled as one function ``(p, weights)`` of the form's
    structure, as the float step's series is, for p of shape (dim, K); it
    returns the coefficients as one array of shape (dim, order + 1, K).

    The function is a loop over the orders k on that array, whose rows are
    stored by term pattern: rows whose terms are, in turn, the product,
    their own coordinate or one same other coordinate lie next to each
    other and form one block, such as X's x and z rows (the product, then
    their own coordinate) or the sliding field's z row (the product, x,
    then z).  The product's order k is one reduction over the outer axis,
    which adds 0 + s_(i,0) s_(j,k) + .. + s_(i,k) s_(j,0) in turn on every
    lane, as numpy does for two lanes or more.  Each block is one slice
    expression, with its weights as columns of shape (rows, 1), so that
    each row adds its terms in turn and divides by k + 1 (exactly, by 1,
    at order 1).  So every lane takes the operations that the lines of
    :func:`_series_lines` take on its floats, bit for bit, in a few numpy
    calls an order rather than a few a term, and the short loop compiles in
    far less time than straight-line code.
    """
    n = len(structure)
    blocks: dict = {}  # term pattern -> its rows, in order of first appearance
    for r, row in enumerate(structure):
        blocks.setdefault(tuple("pr" if q == n else "own" if q == r else q for q in row), []).append(r)
    stored = [r for rows in blocks.values() for r in rows]  # the coordinate in each stored row
    at = {r: m for m, r in enumerate(stored)}
    moved = stored != sorted(stored)
    first = [0]  # the index in ``weights`` of each row's first weight
    for row in structure:
        first.append(first[-1] + len(row))
    body = [
        f"{''.join(f'w{m}, ' for m in range(first[-1]))}= weights",
        f"S = empty(({n}, {order + 1}, p.shape[1]))",
        f"S[:, 0] = p[{stored}]" if moved else "S[:, 0] = p",
        *(f"S{m} = S[{m}]" for m in range(n)),
    ]
    # explicit ufunc calls, the reduction's arguments by position, a float
    # divisor and each quotient written in place spare numpy's dispatch some
    # work
    loop = ["k1 = k + 1", "d = k + 1.0"]
    loop.append(f"pr = reduce(multiply(S{at[i]}[:k1], S{at[j]}[k::-1]), 0, None, None, False, 0.0)")
    for b, (pattern, rows) in enumerate(blocks.items()):
        # a lone row is one lane vector with float weights, which numpy
        # multiplies faster than a (1, K) block by (1, 1) columns
        lone = len(rows) == 1
        block = f"S{at[rows[0]]}[{{}}]" if lone else f"S[{at[rows[0]]}:{at[rows[-1]] + 1}, {{}}]"
        total = ""
        for t, term in enumerate(pattern):
            weight = f"w{first[rows[0]] + t}"
            if not lone:
                weight = f"W{b}_{t}"
                body.append(f"{weight} = array([{', '.join(f'[w{first[r] + t}]' for r in rows)}])")
            operand = "pr" if term == "pr" else block.format("k") if term == "own" else f"S{at[term]}[k]"
            total = f"add({total}, multiply({weight}, {operand}))" if total else f"multiply({weight}, {operand})"
        loop.append(f"divide({total}, d, {block.format('k1')})")
    body += [f"for k in range({order}):", *(f"    {line}" for line in loop)]
    body.append(f"return S[{[at[r] for r in range(n)]}]" if moved else "return S")
    namespace = {"empty": np.empty, "array": np.array, "reduce": np.add.reduce}
    namespace.update(multiply=np.multiply, add=np.add, divide=np.divide)
    filename = f"<quadratic form {structure}, {i}, {j} on lanes to order {order}>"
    return _compiled("series", "p, weights", body, filename, namespace)


def smooth_series(piece: Piece, params: Parameters, sgn: float = 1.0):
    """Taylor coefficients of the flow of one smooth piece, times ``sgn``.

    See :func:`quadratic_series`: X is x' = r1 x - xz, y' = r2 y,
    z' = -m z + e q1 xz; Y swaps the product for yz, with weights
    -beta2/beta1 and e q2/a_q.  On the invariant plane y = 0, X is the
    planar Lotka-Volterra field in (x, z).  A piece that is not a
    :class:`Piece` raises :class:`DomainError`.

    Y's series runs on the coordinates (y, x, z), where its form has X's
    structure, y' = r2 y - (beta2/beta1) yz, x' = r1 x, z' = -m z +
    (e q2/a_q) yz, so that X's compiled programs serve it, and it carries
    that order: ``series.axes`` is (1, 0, 2), the field's coordinate at
    each of the series' coordinates, a swap and so its own inverse (None
    for X).  Each row takes the terms of Y's own form in the same order,
    so each coefficient is the same float.
    """
    _instance(params, Parameters, "params")
    if piece is Piece.X:
        diagonal = [[params.r1, 0.0, 0.0], [0.0, params.r2, 0.0], [0.0, 0.0, -params.m]]
        return quadratic_series(diagonal, (-1.0, 0.0, params.e * params.q1), 0, 2, sgn)
    if piece is Piece.Y:
        ratio = params.beta2 / params.beta1
        diagonal = [[params.r2, 0.0, 0.0], [0.0, params.r1, 0.0], [0.0, 0.0, -params.m]]
        series = quadratic_series(diagonal, (-ratio, 0.0, params.e * params.q2 / params.a_q), 0, 2, sgn)
        series.axes = (1, 0, 2)
        return series
    raise DomainError(f"piece must be a Piece, got {piece!r}")


def eval_field(piece: Piece, state, params: Parameters) -> np.ndarray:
    """The rate of one smooth piece at a state (x, y, z), read from its
    :func:`smooth_series` in the series' coordinates.  A state that is not
    three finite coordinates, or a piece that is not a :class:`Piece`,
    raises :class:`DomainError`.
    """
    p = _finite(state, "state (x, y, z)", 3)
    series = smooth_series(piece, params)
    axes = series.axes or range(3)
    # a swap of coordinates is its own inverse
    rate = series.rate([p[q] for q in axes])
    return np.array([rate[q] for q in axes])


def lie_derivatives(p, params: Parameters) -> tuple[float, float, float]:
    """First Lie derivatives of h along X and Y at (x, x, z), plus X2h.

    Returns (Xh, Yh, X2h) where Xh = (phi - z)*x, Yh = (phi + (b2/b1)*z)*x,
    and X2h = phi*(m - e*q1*x)*x is the second derivative along X evaluated
    with z on the fold line; it is meaningful only where Xh = 0.  A point
    that is not two finite coordinates raises :class:`DomainError`.
    """
    _instance(params, Parameters, "params")
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
    two finite coordinates, or a ``tol`` that is not a finite nonnegative
    number, raises :class:`DomainError`.
    """
    _instance(params, Parameters, "params")
    x, z = _finite(p, "Sigma point (x, z)", 2)
    (tol,) = _finite((tol,), "classify_sigma_point tol", 1)
    if tol < 0.0:
        raise DomainError(f"classify_sigma_point tol must be finite and nonnegative, got {tol}")
    phi = params.phi
    if x <= tol:
        return RegionLabel.ORIGIN_LINE
    if abs(z - phi) <= tol:
        if _past_cusp(x, params, tol):
            return RegionLabel.BOUNDARY
        return RegionLabel.CUSP if abs(x - params.tau) <= tol else RegionLabel.VISIBLE_FOLD
    if z > phi:
        return RegionLabel.SLIDING
    if z > tol:
        return RegionLabel.CROSSING
    return RegionLabel.BOUNDARY


def _past_cusp(x: float, params: Parameters, tol: float) -> bool:
    """Whether the point (x, phi) of the fold line lies past the cusp tau by
    more than ``tol``: for x > tol, the part of the fold line that
    :func:`classify_sigma_point` labels BOUNDARY, short of which it labels
    the cusp (within ``tol`` of tau) and the visible fold.  Raises
    :class:`DegenerateTau` for q1 = 0."""
    return x - params.tau > tol


def first_integral_F(p, params: Parameters) -> float:
    """Conserved quantity of X on the plane y = 0, the planar Lotka-Volterra field.

    F(x, z) = -m - r1 + e*q1*x + z - m*log(e*q1*x/m) - r1*log(z/r1);
    it vanishes at the center (tau, r1) and is positive elsewhere on the
    open quadrant.  A point that is not two finite coordinates raises
    :class:`DomainError`.
    """
    _instance(params, Parameters, "params")
    x, z = _finite(p, "point (x, z)", 2)
    if x <= 0.0 or z <= 0.0:
        raise DomainError(f"first integral requires x > 0 and z > 0, got ({x}, {z})")
    if params.q1 == 0.0:
        raise DegenerateTau("first integral requires q1 > 0")
    eq1 = params.e * params.q1
    m, r1 = params.m, params.r1
    return -m - r1 + eq1 * x + z - m * math.log(eq1 * x / m) - r1 * math.log(z / r1)
