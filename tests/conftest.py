import math
from functools import reduce
from itertools import chain
from operator import add, mul, sub

import mpmath
import numpy as np
import pytest

from preyswitch import (
    IntegratorConfig,
    Piece,
    StepFailure,
    coarse_mu_curve,
    find_shilnikov,
    focus_condition_holds,
    validate_parameters,
)
from preyswitch import flow as flow_mod
from preyswitch import model as model_mod

# Baseline rates for the numerical experiments (decimal points).
TABLE1 = dict(m=0.790, r1=0.836, e=0.948, q1=0.772, a_q=0.660, q2=1.084, beta2=0.896, r2=0.126)


@pytest.fixture(scope="session")
def table1():
    return validate_parameters(beta1=0.994, **TABLE1)


@pytest.fixture(scope="session")
def table1_b10():
    return validate_parameters(beta1=10.0, **TABLE1)


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


@pytest.fixture(scope="session")
def coarse_curve(table1, cfg):
    """Table 1's coarse fold-return curve, shared by every beta1 and beta2."""
    return coarse_mu_curve(table1, cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture(scope="session")
def connection(table1, cfg):
    """The certified connection over beta1 in (0.994, 10), with its wall time."""
    import time

    t0 = time.perf_counter()
    cert = find_shilnikov(table1, (0.994, 10.0), cfg)
    elapsed = time.perf_counter() - t0
    return cert, elapsed


def draw_params(rng, require_focus=False, max_tries=2000):
    """Rejection-sample an admissible parameter set with b_q > 0 and q1 > 0."""
    for _ in range(max_tries):
        r2 = rng.uniform(0.05, 0.8)
        r1 = r2 + rng.uniform(0.05, 1.2)
        a_q = rng.uniform(0.2, 2.0)
        q1 = rng.uniform(0.05, 1.5)
        q2 = a_q * q1 + rng.uniform(0.01, 1.5)
        beta1 = rng.uniform(0.2, 8.0)
        beta2 = rng.uniform(0.2, 8.0)
        e = rng.uniform(0.2, 2.0)
        m = float(np.exp(rng.uniform(np.log(0.05), np.log(60.0))))
        p = validate_parameters(
            r1=r1, r2=r2, a_q=a_q, q1=q1, q2=q2, beta1=beta1, beta2=beta2, m=m, e=e
        )
        if require_focus and not focus_condition_holds(p):
            continue
        return p
    raise RuntimeError("parameter sampler failed to find an admissible draw")


def taylor_runs(monkeypatch):
    """The list of every call of flow's Taylor loop from now on, each as its
    arcs, one a lane, also those whose caller then raises (a tangential
    return)."""
    runs = []
    taylor_lanes = flow_mod._taylor_lanes

    def recorded(*args, **kwargs):
        runs.append(taylor_lanes(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(flow_mod, "_taylor_lanes", recorded)
    return runs


def rounds(runs):
    """The lockstep rounds of recorded calls: each call runs as many rounds as
    its slowest lane takes steps."""
    return sum(max(arc.steps for arc in run) for run in runs)


def reference_field(field, params, sgn=1.0):
    """X, Y or the sliding field ("Sliding") as f(t, s) times ``sgn``, in
    factored form: the tests' own copy of the model's fields, sharing no
    code with the library's quadratic forms."""
    r1, r2, m = params.r1, params.r2, params.m
    if field is Piece.X:
        eq1 = params.e * params.q1

        def f(t, s):
            x, y, z = s.tolist()
            return [sgn * (r1 - z) * x, sgn * r2 * y, sgn * (eq1 * x - m) * z]

    elif field is Piece.Y:
        ratio = params.beta2 / params.beta1
        eq2a = params.e * params.q2 / params.a_q

        def f(t, s):
            x, y, z = s.tolist()
            return [sgn * r1 * x, sgn * (r2 - ratio * z) * y, sgn * (eq2a * y - m) * z]

    else:
        # the closed form of the Filippov combination of X and Y on Sigma, in (x, z)
        b1, b2 = params.beta1, params.beta2
        R = (b1 * r2 + b2 * r1) / (b1 + b2)
        B = b2 / (b1 + b2)
        K = params.e * params.b_q * params.phi * b1 / (params.a_q * (b1 + b2))
        C = params.e * (b1 * params.q2 + params.a_q * b2 * params.q1) / (params.a_q * (b1 + b2))

        def f(t, s):
            x, z = s.tolist()
            return [sgn * x * (R - B * z), sgn * (-K * x - m * z + C * x * z)]

    return f


def reference_series(linear, c, i, j, sgn=1.0):
    """The Taylor recurrence of the quadratic form s' = sgn*(L s + c s_i s_j),
    interpreted order by order: the tests' reference for the library's
    compiled ``model.quadratic_series``, with the same ``series(p, order)``.

    Each order forms the Cauchy product (s_i s_j)_k from 0 by adding its
    terms in turn, and each row as the sum of its nonzero terms in turn,
    the product's first, over k + 1, so that the compiled code must match
    it bit for bit, on floats and on arrays of lanes alike.  The product is
    a left fold, not ``sum``, which from Python 3.12 on compensates the
    rounding of floats but not of arrays.
    """
    n = len(c)
    # each row as (weight, index) pairs into (s_0, .., s_(n-1), s_i s_j)
    rows = [[(sgn * v, q) for q, v in ((n, w), *enumerate(row)) if v != 0.0] for w, row in zip(c, linear)]

    def series(p, order):
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
            products.append(reduce(add, map(mul, left, right), 0))
            for col, v0, seq0, rest in terms:
                acc = v0 * seq0[k]
                for v, seq in rest:
                    acc += v * seq[k]
                col.append(acc / (k + 1))
            right.insert(0, cols[j][k + 1])
        return cols

    return series


def reference_float_step(form, sgn, p, s, cfg):
    """A float Taylor step of the quadratic form (L, c, i, j) times ``sgn``
    from the point p at the time s into an integration: the series by the
    interpreted recurrence (:func:`reference_series`), the step's end by
    the array round's ``flow._step_end``, then list operations on its
    coefficients, as flow's float step took them before the whole step was
    generated.  The tests' reference for the float step of the library's
    series of that form (:func:`float_step`).

    None if a coefficient is not finite; else the step's end, h, the
    coefficients a_k = c_k h**k (h**k by numpy's power of an array, as the
    array round takes it), their spreads sum_(k>=1) |a_k| and the end
    state, each a left fold, the end state from -0.0, as
    ``np.add.accumulate`` adds the orders.  The spreads are a left fold, not
    ``sum``, which from Python 3.12 on compensates its rounding, so that the
    generated step must fold them too.
    """
    n = flow_mod._TAYLOR_ORDER
    c = reference_series(*form, sgn)(p, n)
    if not all(map(math.isfinite, chain.from_iterable(c))):
        return None
    norms = [max(abs(col[n - 1]) for col in c), max(abs(col[n]) for col in c)]
    end = flow_mod._step_end(norms, s, flow_mod._TAYLOR_TOL * cfg.abs_tol, cfg.t_max)
    h = end - s
    powers = (np.array([h]) ** flow_mod._POWERS).tolist()
    a = [list(map(mul, col, powers)) for col in c]
    spread = [reduce(add, map(abs, col[1:]), 0.0) for col in a]
    return end, h, a, spread, [reduce(add, col, -0.0) for col in a]


def horner(coefficients, u):
    """p(u) = sum_k c_k u**k by Horner's rule in a loop, from 0.0: the
    tests' reference for flow's generated evaluation
    (``flow._horner_program``), which must take the same operations."""
    value = 0.0
    for c in reversed(coefficients):
        value = value * u + c
    return value


def brent(coefficients, lo, hi):
    """The root in [lo, hi] of the polynomial with these coefficients, by
    Brent's method to 4 eps, each value by :func:`horner`: a port of
    scipy's ``brentq.c`` at ``xtol = rtol = 4 eps``, as flow took it before
    its polynomial values were generated, and the tests' reference for
    ``flow._brent``.  Raises StepFailure if 100 iterations do not
    converge."""
    tol = 4.0 * math.ulp(1.0)
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = horner(coefficients, xpre), horner(coefficients, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = horner(coefficients, xcur)
    raise StepFailure(f"Brent's method did not converge on [{lo}, {hi}] in 100 iterations")


def swapped(values, series):
    """``values``, one entry per coordinate (a list, or an array along its
    first axis), in the order of ``series.axes``: from the field's
    coordinates to the series' and back, since Y's series runs on
    (y, x, z), a swap, which is its own inverse; as they are for a series
    on the field's coordinates.  None entries stay None."""
    if series.axes is None:
        return values
    if isinstance(values, np.ndarray):
        return values[list(series.axes)]
    return [values[q] for q in series.axes]


def float_step(series, events, p, s, cfg, contact=0):
    """The library's generated float step of ``series`` with flow's event
    table ``events`` (``_Plane`` and ``_Ball`` events) from the point p at
    the time s into an integration that starts at t = 0, as flow's step
    loop runs it: None, or the step's end, its end state and None, or the
    indices of the events whose rows its float tests do not clear, h, the
    coefficients a_k (a list per coordinate) and their spreads."""
    program, args = flow_mod._program(series, events, flow_mod._TAYLOR_TOL * cfg.abs_tol, cfg.t_max)
    return program(p, args, contact, s)


def left_fold(values):
    return reduce(add, values, 0.0)


def plane_clears(plane, p, a, spread, first, lane):
    """Whether a plane's row of a step has no root, by the float tests that
    flow's float step ran in Python before they were generated, its sums
    as left folds: the tests' reference for the generated plane tests.

    Two tests on the step's own coefficients: the spread test
    g_0 > sum_(k>=1) |g_k|, and the signed test g_0 + sum_(k>=1) min(g_k, 0)
    > 1e-13*sum_k |g_k|.  On a tangent lane's first step only the signed
    test runs, on the row as ``rows`` forms it: the contact divided out,
    g_k -> g_(k+c), and its first coefficient clamped at 0.
    """
    c = plane.contact[lane] if first and plane.contact else 0
    if not c:
        # the spread test: g_0 > sum_(k>=1) |g_k|, bounded by spread_i +
        # spread_j with a margin for the rounding of the row and of its
        # Bernstein coefficients
        g0, bound = p[plane.i], spread[plane.i]
        if plane.j is not None:
            g0 -= p[plane.j]
            bound += spread[plane.j]
        g0 = plane.side * (g0 - plane.level)
        if g0 > (1.0 + 1e-9) * bound:
            return True
    d = a[plane.i][1:] if plane.j is None else list(map(sub, a[plane.i][1:], a[plane.j][1:]))
    if c:
        g0, d = max(plane.side * d[c - 1], 0.0), d[c:]
    # the signed test, on the row's own coefficients g_k = side*d_k: every
    # Bernstein coefficient is at least g_0 + sum_(k>=1) min(g_k, 0), whose
    # sum of the min is (side*sum d_k - sum |d_k|)/2
    size = left_fold(map(abs, d))
    return g0 + (plane.side * left_fold(d) - size) * 0.5 > 1e-13 * (abs(g0) + size)


def ball_clears(ball, p, a, spread, first, lane):
    """Whether the focus ball's row of a step has no root, by the float
    tests that flow's float step ran in Python before they were generated,
    its sums as left folds: the tests' reference for the generated ball
    tests, which take a sharper bound as well.

    Its enclosure stays out of the ball, or else, with d = s_0 - centre,
    the signed bound |s(u) - centre|**2 >= |d|**2 + 2 sum_(k>=1)
    min(d.a_k, 0) on [0, 1] exceeds radius**2 by 1e-9 of the size of its
    terms and of (sum spread)**2.
    """
    if flow_mod._far(math.dist(p, ball.centre), left_fold(spread), ball.radius):
        return True
    d = list(map(sub, p, ball.centre))
    dots = [left_fold(map(mul, d, ak)) for ak in zip(*(col[1:] for col in a))]
    dist2, r2 = left_fold(map(mul, d, d)), ball.radius * ball.radius
    low = dist2 - r2 + 2.0 * left_fold(v for v in dots if v < 0.0)
    return low > 1e-9 * (dist2 + r2 + 2.0 * left_fold(map(abs, dots)) + left_fold(spread) ** 2)


def event_tests(events, dim, namespace=None):
    """The library's generated float tests of flow's event table ``events``
    on ``dim`` coordinates, compiled alone from the lines the float step's
    program holds (``flow._event_lines``), in ``namespace`` (by default the
    program's, ``flow._event_namespace()``): a function (p, a, spread, c)
    of a step from the point p with the coefficients a_0..a_order of each
    coordinate, their spreads and the step's contact c, which returns the
    indices of the events whose rows the tests do not clear."""
    constants, lines, _ = flow_mod._event_lines(tuple(ev.shape for ev in events), [f"a{q}" for q in range(dim)])
    prologue = [
        f"{''.join(f's{q}_0, ' for q in range(dim))}= p",
        f"{''.join(f'a{q}, ' for q in range(dim))}= (tuple(col[1:]) for col in a)",
        f"{''.join(f'sp{q}, ' for q in range(dim))}= spread",
        f"{''.join(f'{v}, ' for v in constants)}= constants",
    ]
    namespace = dict(namespace or flow_mod._event_namespace(), constants=[v for ev in events for v in ev.constants])
    return model_mod._compiled("tests", "p, a, spread, c", prologue + lines + ["return pend"], "<event tests>", namespace)


def filippov_combination(params):
    """The Filippov combination (Yh X - Xh Y)/(Yh - Xh) at the point (x, x, z)
    of Sigma, as its (x, y, z) rates: the tests' second definition of the
    sliding field, built from :func:`reference_field`'s X and Y, with Xh and
    Yh each field's x-rate minus its y-rate, so that it shares no code with
    the library.

    It is evaluated at 40 digits and rounded once.  Near the x-nullcline
    z = z_c the x-rate cancels to a small difference of O(1) terms, so any
    two float evaluations differ there by about 1e-12 relative; evaluated
    exactly, the comparison measures the library's rounding alone.
    """
    X, Y = reference_field(Piece.X, params), reference_field(Piece.Y, params)

    def w(x, z):
        with mpmath.workdps(40):
            s = np.array([mpmath.mpf(x), mpmath.mpf(x), mpmath.mpf(z)], dtype=object)
            vx, vy = X(0.0, s), Y(0.0, s)
            Xh, Yh = vx[0] - vx[1], vy[0] - vy[1]
            return np.array([float((Yh * a - Xh * b) / (Yh - Xh)) for a, b in zip(vx, vy)])

    return w
