"""The fold-return curve against an independent high-precision oracle.

The oracle integrates the full three-dimensional X field from the fold point
(x0, x0, phi) with mpmath's Taylor integrator at 30 digits, and solves
x - y = 0 for the first return with mpmath's root finder.  It shares no code
with the library: neither the Taylor recurrence, nor the step control, nor
the event location.
"""

import math

import mpmath
import numpy as np
import pytest

from preyswitch import (
    Direction,
    EventKind,
    Piece,
    coarse_mu_curve,
    integrate_smooth,
    mu_curve,
    mu_point,
)

FRACTIONS = (0.02, 0.3, 0.6, 0.9, 0.99, 0.999)  # x0/tau
BOUND = 1e-11
# what the fold-launch lanes reach, 3.0e-12 by DOP853 before them
LANE_BOUND = 1e-13


def first_return(params, x0: float, t_guess: float) -> tuple[float, float]:
    """(u, v) where the X-orbit from (x0, x0, phi) first meets x = y again."""
    with mpmath.workdps(30):
        r1, r2, m = (mpmath.mpf(params.r1), mpmath.mpf(params.r2), mpmath.mpf(params.m))
        eq1 = mpmath.mpf(params.e) * mpmath.mpf(params.q1)
        start = mpmath.mpf(x0)
        orbit = mpmath.odefun(
            lambda t, s: [(r1 - s[2]) * s[0], r2 * s[1], (eq1 * s[0] - m) * s[2]],
            0,
            [start, start, r1 - r2],
        )
        t1 = mpmath.findroot(lambda t: orbit(t)[0] - orbit(t)[1], mpmath.mpf(t_guess))
        # the root must be the first return: x - y stays positive before it
        for k in range(1, 40):
            x, y, _ = orbit(t1 * k / 40)
            assert x - y > 0, f"x0 = {x0}: x = y at t = {t1} is not the first return"
        x, y, z = orbit(t1)
        return float(x), float(z)


@pytest.fixture(scope="module")
def oracle(table1, cfg):
    """x0 -> (u, v) at each of FRACTIONS, started from the library's return time."""
    out = {}
    for frac in FRACTIONS:
        x0 = frac * table1.tau
        u, _ = mu_point(x0, table1, cfg)
        out[x0] = first_return(table1, x0, math.log(u / x0) / table1.r2)
    return out


def test_mu_point_matches_the_oracle(oracle, table1, cfg):
    for x0, (u_ref, v_ref) in oracle.items():
        u, v = mu_point(x0, table1, cfg)
        assert abs(u - u_ref) <= BOUND, x0
        assert abs(v - v_ref) <= BOUND, x0


def test_mu_curve_matches_the_oracle(oracle, table1, cfg):
    curve = mu_curve(list(oracle), table1, cfg)
    ref = np.array(list(oracle.values()))
    assert np.max(np.abs(curve.us - ref[:, 0])) <= BOUND
    assert np.max(np.abs(curve.vs - ref[:, 1])) <= BOUND


def test_fold_lanes_match_the_oracle_tightly(oracle, table1, cfg):
    # the lanes of one batch and each lane alone
    curve = mu_curve(list(oracle), table1, cfg)
    lone = np.array([mu_point(x0, table1, cfg) for x0 in oracle])
    ref = np.array(list(oracle.values()))
    for landings in (np.column_stack((curve.us, curve.vs)), lone):
        assert np.max(np.abs(landings - ref)) <= LANE_BOUND


def test_x_arc_from_the_fold_matches_the_oracle(oracle, table1, cfg):
    # the 3-D X-arc that integrate_filippov runs after every fold exit
    for x0, (u_ref, v_ref) in oracle.items():
        arc = integrate_smooth(Piece.X, (x0, x0, table1.phi), Direction.FORWARD, cfg, table1)
        ev = arc.terminal_event
        assert ev.kind is EventKind.SIGMA_CROSSING, x0
        assert abs(ev.state[0] - u_ref) <= BOUND, x0
        assert abs(ev.state[2] - v_ref) <= BOUND, x0


@pytest.mark.parametrize("grid", ("coarse", "fine"))
def test_mu_curve_matches_mu_point_node_by_node(table1, cfg, grid):
    tau = table1.tau
    if grid == "coarse":
        curve = coarse_mu_curve(table1, cfg)
    else:
        curve = mu_curve(np.linspace(0.1 * tau, 0.999 * tau, 200), table1, cfg)
    lone = np.array([mu_point(x0, table1, cfg) for x0 in curve.x0s])
    assert np.max(np.abs(curve.us - lone[:, 0])) <= BOUND
    assert np.max(np.abs(curve.vs - lone[:, 1])) <= BOUND
