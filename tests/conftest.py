import mpmath
import numpy as np
import pytest

from preyswitch import (
    IntegratorConfig,
    Piece,
    coarse_mu_curve,
    find_shilnikov,
    focus_condition_holds,
    validate_parameters,
)
from preyswitch import flow as flow_mod

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
