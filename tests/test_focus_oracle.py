"""The pseudo-focus's closed forms against a symbolic oracle.

The oracle forms the Filippov combination (Yh X - Xh Y)/(Yh - Xh) of
symbolic X and Y on Sigma = {x = y} in sympy, solves for its interior zero
and takes alpha as half the trace of its Jacobian there, and the bound on m
as the zero of that Jacobian's discriminant.  F_c is the first integral F
of X on y = 0 along the hyperbola that the focus traces as beta1 varies.
It shares no code with the library: neither the rates (R, B, K, C) nor any
closed form.  Each check evaluates the oracle exactly at rational
parameters, the float parameters the library sees taken at their exact
binary value.
"""

import numpy as np
import pytest
import sympy as sp

from preyswitch import (
    classify_focus,
    fc_slope_at_focus,
    focus_condition_holds,
    h_rescale_constant,
    pseudo_equilibria,
    validate_parameters,
)
from preyswitch.connection import _beta1_with_focus_at
from conftest import TABLE1, draw_params

BOUND = 1e-14
INVERSE_BOUND = 1e-12
NAMES = ("r1", "r2", "a_q", "q1", "q2", "beta1", "beta2", "m", "e")


@pytest.fixture(scope="module")
def oracle():
    """The focus (x_c, z_c), alpha, the rescaling a and beta1(u), as sympy
    expressions in the nine rates and u."""
    r1, r2, a_q, q1, q2, b1, b2, m, e, u = sp.symbols("r1 r2 a_q q1 q2 beta1 beta2 m e u", positive=True)
    x, y, z = sp.symbols("x y z", positive=True)
    X = sp.Matrix([(r1 - z) * x, r2 * y, (e * q1 * x - m) * z])
    Y = sp.Matrix([r1 * x, (r2 - b2 / b1 * z) * y, (e * q2 / a_q * y - m) * z])
    X, Y = X.subs(y, x), Y.subs(y, x)
    Xh, Yh = X[0] - X[1], Y[0] - Y[1]
    W = ((Yh * X - Xh * Y) / (Yh - Xh)).applyfunc(sp.cancel)
    # tangent to Sigma: the combination moves x and y alike
    assert sp.simplify(W[0] - W[1]) == 0
    field = sp.Matrix([W[0], W[2]])

    (z_c,) = sp.solve(sp.cancel(field[0] / x), z)
    (x_c,) = sp.solve(field[1].subs(z, z_c), x)
    x_c = sp.cancel(x_c)
    assert sp.simplify(field.subs({x: x_c, z: z_c})) == sp.zeros(2, 1)
    alpha = sp.cancel(field.jacobian([x, z]).subs({x: x_c, z: z_c}).trace() / 2)

    # the Lotka-Volterra core x' = x(R - B z), z' = -m z + C x z has its
    # centre at x = m/C; a moves it onto x_c
    C = sp.Poly(sp.expand(field[1]), x, z).coeff_monomial(x * z)
    a = sp.cancel(m / (C * x_c))
    (beta1_of_u,) = sp.solve(x_c - u, b1)

    # the pair is complex while the discriminant of the Jacobian at the focus
    # is negative; it is m times a linear function of m, so one positive m
    # zeroes it
    J = field.jacobian([x, z]).subs({x: x_c, z: z_c})
    (m_bound,) = sp.solve(sp.cancel(J.trace() ** 2 - 4 * J.det()), m)

    # F, the first integral of X on y = 0, is conserved there; the focus
    # moves with beta1 along the hyperbola z_h(u) = z_c(beta1(u)), and F_c
    # is F along it
    F = e * q1 * x + z - m * sp.log(e * q1 * x / m) - r1 * sp.log(z / r1) - m - r1
    on_plane = sp.Matrix([(r1 - z) * x, (e * q1 * x - m) * z])
    assert sp.simplify(sp.diff(F, x) * on_plane[0] + sp.diff(F, z) * on_plane[1]) == 0
    F_c = F.subs({x: u, z: sp.cancel(z_c.subs(b1, beta1_of_u))})

    rates = dict(zip(NAMES, (r1, r2, a_q, q1, q2, b1, b2, m, e)))
    exprs = {"x_c": x_c, "z_c": z_c, "alpha": alpha, "a": a, "beta1(u)": beta1_of_u}
    return rates, u, exprs | {"m bound": m_bound, "F_c(u)": F_c}


def exact_cases():
    """Table 1 with its decimals as rationals, and three drawn parameter sets,
    each as (float parameters, their exact rationals)."""
    table1 = {k: sp.Rational(str(v)) for k, v in dict(TABLE1, beta1=0.994).items()}
    cases = [(validate_parameters(**{k: float(v) for k, v in table1.items()}), table1)]
    rng = np.random.default_rng(20240611)
    for _ in range(3):
        params = draw_params(rng, require_focus=True)
        cases.append((params, {k: sp.Rational(v) for k, v in params.as_dict().items()}))
    return cases


def relative_gap(value: float, exact) -> float:
    return abs(value - float(exact)) / abs(float(exact))


@pytest.mark.parametrize("case", range(4), ids=["table1", "draw-1", "draw-2", "draw-3"])
def test_focus_closed_forms_match_the_symbolic_oracle(oracle, case):
    rates, u, exprs = oracle
    params, exact = exact_cases()[case]
    at = {rates[k]: v for k, v in exact.items()}
    _, focus = pseudo_equilibria(params)
    library = {
        "x_c": focus.x,
        "z_c": focus.z,
        "alpha": classify_focus(params).alpha,
        "a": h_rescale_constant(params),
    }
    for name, value in library.items():
        assert relative_gap(value, exprs[name].subs(at)) <= BOUND, name

    # beta1(u) inverts x_c: at the focus abscissas of three beta1 values
    beta1_of_u = exprs["beta1(u)"].subs(at)
    for scale in (sp.Rational(1, 2), 1, 3):
        x_c = exprs["x_c"].subs(at | {rates["beta1"]: exact["beta1"] * scale})
        u_float = float(x_c)
        expected = beta1_of_u.subs(u, sp.Rational(u_float))
        assert relative_gap(_beta1_with_focus_at(u_float, params), expected) <= INVERSE_BOUND, scale


@pytest.mark.parametrize("case", range(4), ids=["table1", "draw-1", "draw-2", "draw-3"])
def test_focus_bound_and_fc_slope_match_the_symbolic_oracle(oracle, case):
    rates, u, exprs = oracle
    params, exact = exact_cases()[case]
    at = {rates[k]: v for k, v in exact.items()}

    # the bound on m: the condition holds just below the oracle's bound and
    # fails just above it
    m_bound = exprs["m bound"].subs(at)
    assert m_bound > 0 and not m_bound.has(rates["m"])
    for scale, holds in ((1 - BOUND, True), (1 + BOUND, False)):
        assert focus_condition_holds(params.replace(m=float(m_bound * sp.Rational(scale)))) is holds, scale

    # the slope of F_c at the focus: the derivative of F along the focus's
    # hyperbola, at x_c.  The closed form takes tau - x_c and z_c - r1, so
    # its roundoff grows as they cancel (171-fold on draw-1)
    _, focus = pseudo_equilibria(params)
    slope = sp.diff(exprs["F_c(u)"].subs(at), u).subs(u, exprs["x_c"].subs(at))
    cancellation = max(params.tau / (params.tau - focus.x), focus.z / (focus.z - params.r1))
    assert relative_gap(fc_slope_at_focus(params, focus), slope) <= BOUND * cancellation
