import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from functools import partial
from operator import sub
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from preyswitch import (
    ArcKind,
    BlowUp,
    ChatteringGuard,
    Direction,
    DomainError,
    EventKind,
    IntegratorConfig,
    NoInteriorPseudoEquilibrium,
    NoReturn,
    Piece,
    RegionLabel,
    PreySwitchError,
    StepFailure,
    TangencyAmbiguity,
    classify_focus,
    classify_sigma_point,
    eval_field,
    eval_sliding,
    events_payload,
    find_shilnikov,
    first_integral_F,
    integrate_filippov,
    integrate_sliding,
    integrate_smooth,
    lv_period,
    mu_point,
    pseudo_equilibria,
)
from preyswitch import flow as flow_mod
from preyswitch import model as model_mod
from preyswitch import sliding as sliding_mod
from preyswitch.flow import integrate_fold_launches, trajectory_rows
from preyswitch.model import quadratic_series, smooth_series
from preyswitch.sliding import sliding_jacobian, sliding_series
from conftest import (
    ball_clears,
    brent,
    draw_params,
    event_tests,
    float_step,
    horner,
    plane_clears,
    reference_field,
    reference_float_step,
    reference_series,
    rounds,
    swapped,
    taylor_runs,
)


def arc_gap(a, b):
    """Continuity gap between an arc's terminal event and the next arc's start."""
    ea, sb = a.terminal_event.state, b.states[0]
    if len(ea) == 3 and len(sb) == 2:
        return max(abs(ea[0] - sb[0]), abs(ea[2] - sb[1]))
    if len(ea) == 2 and len(sb) == 3:
        return max(abs(ea[0] - sb[0]), abs(ea[0] - sb[1]), abs(ea[1] - sb[2]))
    return float(np.max(np.abs(ea - sb)))


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(abs_tol=-1.0)
    with pytest.raises(DomainError):
        IntegratorConfig(event_tol=1e-6, abs_tol=1e-12)
    # NaN fails every comparison, so a "<= 0" test alone would admit it
    for name in ("abs_tol", "event_tol", "t_max"):
        for value in (float("nan"), float("inf"), 0.0):
            with pytest.raises(DomainError, match=name):
                IntegratorConfig(**{name: value})
    # the certificates' cfg holds these keys alone
    assert list(asdict(IntegratorConfig())) == ["abs_tol", "event_tol", "t_max"]
    cfg = IntegratorConfig()
    assert cfg.event_tol <= 100.0 * cfg.abs_tol


def test_smooth_x_exponential_y_on_center_line(table1, cfg):
    tau, r1 = table1.tau, table1.r1
    arc = integrate_smooth(
        Piece.X, (tau, 1.0, r1), Direction.FORWARD, replace(cfg, t_max=5.0), table1
    )
    assert arc.kind is ArcKind.SMOOTH_X
    xs, ys, zs = arc.states.T
    assert np.max(np.abs(xs - tau)) < 1e-9
    assert np.max(np.abs(zs - r1)) < 1e-9
    exact = np.exp(table1.r2 * (arc.ts - arc.t0))
    assert np.max(np.abs(ys - exact) / exact) < 1e-9
    # the growing y eventually catches x = tau and the arc ends on Sigma
    ev = arc.terminal_event
    assert ev.kind is EventKind.SIGMA_CROSSING
    assert ev.t == pytest.approx(math.log(tau) / table1.r2, rel=1e-9)


def test_smooth_y_component_law_generic_arc(table1, cfg):
    arc = integrate_smooth(
        Piece.X, (0.9, 0.5, 0.9), Direction.FORWARD, replace(cfg, t_max=6.0), table1
    )
    y0 = arc.states[0, 1]
    exact = y0 * np.exp(table1.r2 * (arc.ts - arc.t0))
    assert np.max(np.abs(arc.states[:, 1] - exact) / exact) < 1e-9


def test_smooth_arc_near_sigma_terminates_on_crossing(table1, cfg):
    x0 = 0.5 * table1.tau
    delta = 1e-6
    arc = integrate_smooth(
        Piece.X, (x0, x0 - delta, table1.phi), Direction.FORWARD, cfg, table1
    )
    ev = arc.terminal_event
    assert ev.kind is EventKind.SIGMA_CROSSING
    raw = arc.states[-1]
    assert abs(raw[0] - raw[1]) <= cfg.event_tol
    assert ev.state[0] == ev.state[1]


def test_smooth_wrong_side_rejected(table1, cfg):
    with pytest.raises(DomainError):
        integrate_smooth(Piece.X, (0.5, 0.8, 0.9), Direction.FORWARD, cfg, table1)
    with pytest.raises(DomainError):
        integrate_smooth(Piece.Y, (0.8, 0.5, 0.9), Direction.FORWARD, cfg, table1)


def test_planar_f_drift_over_one_period(table1, cfg):
    x0 = 0.5 * table1.tau
    T = lv_period(x0, cfg, table1)
    # X on its invariant plane y = 0 is the planar Lotka-Volterra field
    arc = integrate_smooth(
        Piece.X, (x0, 0.0, table1.r1), Direction.FORWARD, replace(cfg, t_max=T), table1
    )
    F0 = first_integral_F((x0, table1.r1), table1)
    drift = max(
        abs(first_integral_F(s[::2], table1) - F0) for s in arc.states[:: max(1, len(arc.ts) // 50)]
    )
    assert drift <= 1e-8
    assert np.max(np.abs(arc.states[-1] - (x0, 0.0, table1.r1))) <= 1e-9


def test_lv_period_limits_and_closure(table1, cfg):
    T = lv_period(table1.tau * (1.0 - 1e-3), cfg, table1)
    linearized = 2.0 * math.pi / math.sqrt(table1.m * table1.r1)
    assert linearized == pytest.approx(7.7314897417385659, rel=1e-12)
    assert abs(T - linearized) / linearized < 0.01

    with pytest.raises(DomainError):
        lv_period(table1.tau, cfg, table1)
    with pytest.raises(NoReturn):
        lv_period(0.5 * table1.tau, replace(cfg, t_max=1.0), table1)


def test_reversibility_smooth(table1, cfg):
    for s0, piece in [
        ((0.9, 0.5, 0.9), Piece.X),
        ((0.5, 0.9, 0.4), Piece.Y),
        ((0.6, 0.0, 1.2), Piece.X),
    ]:
        fwd = integrate_smooth(piece, s0, Direction.FORWARD, replace(cfg, t_max=2.0), table1)
        span = fwd.t1 - fwd.t0
        back = integrate_smooth(
            piece, fwd.states[-1], Direction.BACKWARD, replace(cfg, t_max=span), table1
        )
        assert back.ts[0] > back.ts[-1]
        assert np.max(np.abs(back.states[-1] - np.asarray(s0))) <= 10.0 * cfg.abs_tol


def test_coefficient_overflow_raises_step_failure(table1, cfg):
    with pytest.raises(StepFailure, match="t = 0.0"):
        integrate_smooth(Piece.X, (1e200, 0.0, 1e200), Direction.FORWARD, cfg, table1)


@pytest.mark.lanes
def test_an_overflowing_lane_of_an_array_round_raises_step_failure(table1, cfg):
    # the round's finiteness check names the lane, not numpy's overflow
    # warning, which the tests turn into an error
    p0 = np.tile((0.5, 0.1, 1.0), (max(16, flow_mod._ARRAY_LANES), 1))
    p0[7] = (1e200, 0.0, 1e200)
    with pytest.raises(StepFailure, match="t = 0.0") as failure:
        flow_mod._taylor_lanes(ArcKind.SMOOTH_X, smooth_series(Piece.X, table1), p0, [], 0.0, cfg)
    assert "e+200" in str(failure.value)  # the state of the lane that overflows


def test_blowup_raised(table1, monkeypatch):
    assert flow_mod._NORM_BOUND == 1e6
    monkeypatch.setattr(flow_mod, "_NORM_BOUND", 10.0)
    cfg = IntegratorConfig(t_max=50.0)
    with pytest.raises(BlowUp, match="exceeded 10.0 at"):
        integrate_smooth(Piece.X, (2.0, 1.0, 0.001), Direction.FORWARD, cfg, table1)
    # the sliding spiral out of the focus passes norm 1.392 before its fold exit
    _, focus = pseudo_equilibria(table1)
    start = (focus.x, focus.z + 1e-3)
    free = integrate_sliding(start, Direction.FORWARD, IntegratorConfig(), table1)
    assert free.terminal_event.kind is EventKind.FOLD_EXIT
    assert np.max(np.hypot(*free.states.T)) > 1.392
    monkeypatch.setattr(flow_mod, "_NORM_BOUND", 1.392)
    with pytest.raises(BlowUp) as err:
        integrate_sliding(start, Direction.FORWARD, IntegratorConfig(), table1)
    t = float(str(err.value).rsplit("t = ", 1)[1])
    assert 0.0 < t < free.t1
    # a sliding or smooth start beyond the bound fails at once
    monkeypatch.setattr(flow_mod, "_NORM_BOUND", 1.0)
    with pytest.raises(BlowUp, match="at t = 0.0"):
        integrate_sliding((2.0, 1.0), Direction.FORWARD, IntegratorConfig(), table1)
    with pytest.raises(BlowUp, match="at t = 0.0"):
        integrate_smooth(Piece.X, (2.0, 1.0, 0.5), Direction.FORWARD, IntegratorConfig(t_max=5.0), table1)


@pytest.mark.lanes
def test_blowup_in_an_array_round_is_the_lone_lanes(table1, monkeypatch):
    # the lanes other than one stay within the bound to the horizon, so every
    # round of the call is an array round; the lane that passes the bound
    # raises the BlowUp that it raises alone, by float steps, time included
    monkeypatch.setattr(flow_mod, "_NORM_BOUND", 10.0)
    float_steps = []
    float_round = flow_mod._float_round
    monkeypatch.setattr(flow_mod, "_float_round", lambda *args: float_steps.append(args) or float_round(*args))
    series, cfg = smooth_series(Piece.X, table1), IntegratorConfig(t_max=50.0)
    # planar Lotka-Volterra orbits on y = 0, and the start of test_blowup_raised
    fractions = np.linspace(0.3, 0.9, max(16, flow_mod._ARRAY_LANES))
    p0 = np.array([(f * table1.tau, 0.0, table1.r1) for f in fractions])
    p0[5] = (2.0, 1.0, 0.001)
    with pytest.raises(BlowUp, match="exceeded 10.0 at t = ") as alone:
        flow_mod._taylor_lanes(ArcKind.SMOOTH_X, series, p0[5:6], [], 0.0, cfg)
    assert float_steps and float(str(alone.value).rsplit("t = ", 1)[1]) > 0.0
    float_steps.clear()
    with pytest.raises(BlowUp) as together:
        flow_mod._taylor_lanes(ArcKind.SMOOTH_X, series, p0, [], 0.0, cfg)
    assert not float_steps
    assert str(together.value) == str(alone.value)


def test_sliding_backward_capture_envelope(table1, cfg):
    # the focus row is formed only on steps that can come within the radius,
    # so no capture is dropped: from a radius that the first step reaches
    # down to 1e-6, each capture is the tight reference's
    _, focus = pseudo_equilibria(table1)
    start = (0.95 * table1.tau, table1.phi)
    free = integrate_sliding(start, Direction.BACKWARD, cfg, table1, focus_capture_radius=0.0)
    first, second = (math.hypot(x - focus.x, z - focus.z) for x, z in free.states[:2])
    reach = 0.5 * (first + second)
    t_prev = 0.0
    for radius in (reach, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        arc = integrate_sliding(start, Direction.BACKWARD, cfg, table1, focus_capture_radius=radius)
        ev = arc.terminal_event
        assert ev.kind is EventKind.FOCUS_CAPTURE
        assert (arc.steps == 1) == (radius == reach)
        dist = math.hypot(ev.state[0] - focus.x, ev.state[1] - focus.z)
        assert dist == pytest.approx(radius, rel=1e-6)
        assert np.min(arc.states[:, 1]) >= table1.phi - cfg.event_tol
        assert abs(ev.t) > abs(t_prev)
        t_prev = ev.t
        kind, state = reference_sliding_end(table1, start, Direction.BACKWARD, cfg.t_max, radius=radius)
        assert kind is EventKind.FOCUS_CAPTURE
        assert np.max(np.abs(ev.state - state)) <= 1e-10, radius


def test_sliding_forward_immediate_fold_exit(table1, cfg):
    arc = integrate_sliding((0.5 * table1.tau, table1.phi), Direction.FORWARD, cfg, table1)
    ev = arc.terminal_event
    assert ev.kind is EventKind.FOLD_EXIT
    assert arc.t1 == arc.t0
    assert ev.state[1] == table1.phi
    # the closed-form z-rate on the fold is negative left of the cusp
    assert eval_sliding((0.5 * table1.tau, table1.phi), table1)[1] < 0.0


def test_sliding_forward_spirals_out_from_focus(table1, cfg):
    _, focus = pseudo_equilibria(table1)
    arc = integrate_sliding((focus.x, focus.z + 1e-3), Direction.FORWARD, cfg, table1)
    assert arc.terminal_event.kind is EventKind.FOLD_EXIT
    r = np.hypot(arc.states[:, 0] - focus.x, arc.states[:, 1] - focus.z)
    turn = r[: len(r) // 3]
    assert turn[-1] > turn[0]
    assert r.max() > 100.0 * r[0]


def focus_period(params):
    pe = classify_focus(params)
    return 2.0 * math.pi / math.hypot(pe.alpha, pe.beta_imag)


def central_jf(f, p):
    """J*f at p by a central difference along f, exact up to roundoff for a
    quadratic field."""
    v = np.array(f(0.0, p))
    d = 0.1 * np.max(np.abs(p)) / np.max(np.abs(v))
    return (np.array(f(0.0, p + d * v)) - np.array(f(0.0, p - d * v))) / (2.0 * d)


@pytest.mark.lanes
@pytest.mark.parametrize("field", (Piece.X, Piece.Y, "Sliding"), ids=("X", "Y", "Sliding"))
def test_series_start_with_the_field(rng, field):
    # on every lane of an array, order 1 is the field itself, as is the rate
    # read from the form, and order 2 is J*f/2 in either direction
    for _ in range(10):
        params = draw_params(rng)
        if field == "Sliding":
            lanes = np.array([rng.uniform(0.01, 2.0 * params.tau, 2), rng.uniform(params.phi, 3.0 * params.phi, 2)])
        else:
            lanes = rng.uniform(0.01, 2.0, (3, 2)) * params.tau
        for sgn in (1.0, -1.0):
            f = reference_field(field, params, sgn)
            series = sliding_series(params, sgn) if field == "Sliding" else smooth_series(field, params, sgn)
            # Y's series runs on (y, x, z): in and out of the field's coordinates
            coefficients = swapped(series(swapped(lanes, series), 24), series)
            assert coefficients.shape == (len(lanes), 25, 2)
            assert np.array_equal(coefficients[:, 0], lanes)
            for p, c in zip(lanes.T, coefficients.transpose(2, 0, 1)):
                if field == "Sliding":
                    jf = sgn * sliding_jacobian(p, params) @ f(0.0, p)
                    atol = 1e-15
                else:
                    jf = central_jf(f, p)
                    # the difference's roundoff scales with its largest component
                    atol = 1e-13 * np.max(np.abs(jf)) / 2.0
                rate = np.array(f(0.0, p))
                for first in (c[:, 1], np.array(swapped(series.rate(swapped(p.tolist(), series)), series))):
                    assert np.max(np.abs(first - rate)) <= 1e-14 * np.max(np.abs(rate)), (field, sgn)
                assert np.allclose(c[:, 2], jf / 2.0, rtol=1e-13, atol=atol), (field, sgn)


# lane counts of the series tests: the reduction of the lane recurrence
# must add each lane's product in turn whatever numpy's loops do with K
LANE_COUNTS = (16, 17, 31, 48, 100)


def bits(a):
    """The bit patterns of an array of floats, so that == compares signs of
    zero too."""
    return np.asarray(a, dtype=float).view(np.int64)


def structures(rng, table1):
    """Table 1, q1 = 0, which drops the product from X's z row, and
    b_q = 0, which drops the x term from the sliding field's z row: each
    changes the compiled code and the blocks of rows."""
    drawn = draw_params(rng)
    zero_bq = drawn.replace(q2=drawn.a_q * drawn.q1)
    assert zero_bq.b_q == 0.0
    return table1, draw_params(rng).replace(q1=0.0), zero_bq


def fields(params, sgn):
    """X, Y and the sliding field of ``params`` times ``sgn``: the library's
    series of each and its quadratic form (L, c, i, j), for
    :func:`conftest.reference_series`."""
    diagonal = [[params.r1, 0.0, 0.0], [0.0, params.r2, 0.0], [0.0, 0.0, -params.m]]
    ratio = params.beta2 / params.beta1
    return (
        (smooth_series(Piece.X, params, sgn), (diagonal, (-1.0, 0.0, params.e * params.q1), 0, 2)),
        (smooth_series(Piece.Y, params, sgn), (diagonal, (0.0, -ratio, params.e * params.q2 / params.a_q), 1, 2)),
        (sliding_series(params, sgn), sliding_mod._form(params)),
    )


# points of floats at 0.0 or -0.0, or with one coordinate at 0.0 or -0.0 (on
# an invariant plane), so that some terms are -0.0: the product's sum from 0
# turns one into 0.0, and a term of weight 0 would elsewhere; the sliding
# field takes each one's (x, z)
ZEROS = ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.5, 0.0, 1.5], [0.5, -0.0, 1.5], [-0.0, 0.5, 1.5], [0.5, 1.5, -0.0])


def planar(point, dim):
    return point if dim == 3 else [point[0], point[2]]


@pytest.mark.lanes
def test_series_of_lanes_equals_each_lane_alone(rng, table1):
    # K lanes expand in one call of the lane recurrence, each lane bit for
    # bit, sign bits included, as the interpreted recurrence expands it
    # alone on floats: X, Y and the sliding field both ways, for every
    # structure, Y's series on (y, x, z) against Y's own form.  The first
    # six lanes are the points of ZEROS
    for params in structures(rng, table1):
        for sgn in (1.0, -1.0):
            for series, form in fields(params, sgn):
                dim = len(form[1])
                reference = reference_series(*form, sgn)
                zeros = np.array([planar(point, dim) for point in ZEROS]).T
                for k in LANE_COUNTS:
                    lanes = np.hstack((zeros, rng.uniform(0.01, 2.0, (dim, k - len(ZEROS)))))
                    together = swapped(series(swapped(lanes, series), 24), series)
                    assert isinstance(together, np.ndarray) and together.shape == (dim, 25, k)
                    alone = np.array([reference(lane, 24) for lane in lanes.T.tolist()])
                    assert np.array_equal(bits(together), bits(alone.transpose(1, 2, 0))), (dim, sgn, k)


@pytest.mark.lanes
def test_compiled_series_equal_the_interpreted_recurrence(rng, table1):
    # the lane recurrence on arrays takes the interpreted recurrence's
    # operations in its order, so it agrees with it bit for bit, for every
    # structure, Y's series on (y, x, z) against Y's own form; the rate read
    # from the form equals the interpreted order 1 on floats, sign bits
    # included
    for params in structures(rng, table1):
        for sgn in (1.0, -1.0):
            for series, form in fields(params, sgn):
                dim = len(form[1])
                reference = reference_series(*form, sgn)
                for p in [planar(point, dim) for point in ZEROS] + rng.uniform(0.01, 2.0, (4, dim)).tolist():
                    rate = swapped(series.rate(swapped(p, series)), series)
                    assert np.array_equal(bits(rate), bits([col[1] for col in reference(p, 1)])), (dim, sgn, p)
                for order in (0, 1, 2, 23, 24):
                    for k in LANE_COUNTS:
                        lanes = rng.uniform(0.01, 2.0, (dim, k))
                        together = swapped(series(swapped(lanes, series), order), series)
                        assert np.array_equal(bits(together), bits(reference(lanes, order))), (
                            dim,
                            sgn,
                            order,
                            k,
                        )


@pytest.mark.lanes
def test_fused_float_step_equals_the_reference_step(rng, table1):
    # the generated float step takes the interpreted series and the list
    # code's operations on the same floats: its end, h, coefficients,
    # spreads and end state equal the reference's, sign bits included, for
    # X, Y and the sliding field both ways, for every structure, for a step
    # clamped to t_max, and from a point whose coefficients overflow.  Y's
    # series runs on (y, x, z), in X's program: its step from the swapped
    # point, swapped back, equals the reference step of Y's own form.  A
    # plane at level inf, whose row no test clears, makes the step return
    # its h, coefficients and the spread of the plane's coordinate, the one
    # spread its test reads and the step computes; a ball of infinite
    # radius, whose test reads every spread, makes it return all of them;
    # with no event it returns its end and end state alone, the same
    never = [flow_mod._Plane(EventKind.DOMAIN_EXIT, 0, level=math.inf)]
    cfgs = (IntegratorConfig(), IntegratorConfig(abs_tol=1e-8, t_max=2.0))
    for params in structures(rng, table1):
        for sgn in (1.0, -1.0):
            for series, form in fields(params, sgn):
                dim = len(form[1])
                ball = [flow_mod._Ball(EventKind.FOCUS_CAPTURE, (0.0,) * dim, math.inf)]
                points = [rng.uniform(0.01, 2.0, dim).tolist() for _ in range(6)]
                points += [[0.0, -0.0, 1.5][:dim], [0.5, 0.0, 1.5][:dim], [-0.0, 0.5, -0.0][:dim]]
                for p in points:
                    for cfg in cfgs:
                        for s in (0.0, 1.25, cfg.t_max - 1e-9):
                            reference = reference_float_step(form, sgn, p, s, cfg)
                            for table, read in ((never, {0}), (ball, set(range(dim)))):
                                end, state, (pending, h, a, spread) = float_step(series, table, swapped(p, series), s, cfg)
                                assert pending == (0,) and [v is not None for v in spread] == [
                                    q in read for q in range(dim)
                                ], (dim, sgn, p, cfg, s)
                                fused = (end, h, swapped(a, series), swapped(state, series))
                                assert fused[:2] == reference[:2], (dim, sgn, p, cfg, s)
                                for x, y in zip(fused, (*reference[:3], reference[4])):
                                    assert np.array_equal(bits(x), bits(y)), (dim, sgn, p, cfg, s)
                                for v, w in zip(swapped(spread, series), reference[3]):
                                    assert v is None or bits(v) == bits(w), (dim, sgn, p, cfg, s)
                            end, state, search = float_step(series, [], swapped(p, series), s, cfg)
                            assert search is None and end == reference[0], (dim, sgn, p, cfg, s)
                            assert np.array_equal(bits(swapped(state, series)), bits(reference[4])), (dim, sgn, p, cfg, s)
                    assert fused[0] == cfg.t_max  # the last step is clamped
    # a coefficient that is not finite, also one that a row without its own
    # term (x' = -w) does not carry to later orders, fails the step
    ((x_series, x_form), *_) = fields(table1, 1.0)
    w_form = ([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], (0.0, 1.0, 0.0), 1, 2)
    cases = ((x_series, x_form, [1e200, 0.0, 1e200]), (quadratic_series(*w_form), w_form, [math.inf, 1.0, 0.0]))
    for series, form, p in cases:
        assert float_step(series, [], p, 0.0, IntegratorConfig()) is None
        assert reference_float_step(form, 1.0, p, 0.0, IntegratorConfig()) is None


@pytest.mark.lanes
def test_y_arcs_run_on_x_program_as_the_reference_steps_of_y_form(table1):
    # Y's series runs on (y, x, z), where its form is X's: a Y-arc takes
    # X's program, and each of its steps from a recorded state ends where
    # the reference float step of Y's own form (L, c, 1, 2) on (x, y, z)
    # ends, its time and state bit for bit: forward to its Sigma crossing,
    # whose step the crossing cuts short, and backward to the horizon
    y_form = fields(table1, 1.0)[1][1]
    cfg = IntegratorConfig(t_max=20.0)
    generator = flow_mod._taylor_step
    generator.cache_clear()
    integrate_smooth(Piece.X, (0.9, 0.3, 0.7), Direction.FORWARD, cfg, table1)
    endings = ((Direction.FORWARD, EventKind.SIGMA_CROSSING), (Direction.BACKWARD, EventKind.HORIZON_REACHED))
    for direction, ending in endings:
        sgn = float(direction.value)
        arc = integrate_smooth(Piece.Y, (0.02, 1.5, 0.5), direction, cfg, table1)
        assert (arc.kind, arc.terminal_event.kind) == (ArcKind.SMOOTH_Y, ending) and arc.steps > 5
        assert generator.cache_info().misses == 1
        for k in range(arc.steps):
            end, _, _, _, state = reference_float_step(y_form, sgn, arc.states[k].tolist(), sgn * arc.ts[k], cfg)
            if k == arc.steps - 1 and ending is EventKind.SIGMA_CROSSING:
                assert end > sgn * arc.t1
            else:
                assert end == sgn * arc.ts[k + 1] and np.array_equal(bits(state), bits(arc.states[k + 1])), k
    generator.cache_clear()


@pytest.mark.lanes
def test_series_compile_once_per_structure_and_order(table1, monkeypatch):
    # the two generators, the float step and the lane loop, each compile one
    # program per structure and order (and event structure, for the float
    # step), whatever the field's parameters or sign.  A trajectory's 726
    # float steps take at most two step programs, X's, which Y's series on
    # (y, x, z) shares, and the sliding field's, each arc's call of the
    # step loop after a form's first a hit of the cache; a find_shilnikov
    # and the trajectory ask both generators
    # for order 24 alone, and nothing at order 1, whose rates are read from
    # the forms
    runs = taylor_runs(monkeypatch)
    modules = {"_taylor_step": flow_mod, "_lane_recurrence": model_mod}
    generators = {name: getattr(module, name) for name, module in modules.items()}
    asked = []
    for name, generator in generators.items():
        generator.cache_clear()

        def recorded(*key, _name=name, _generator=generator):
            asked.append((_name, *key))
            return _generator(*key)

        monkeypatch.setattr(modules[name], name, recorded)
    traj = integrate_filippov((1.2, 0.4, 1.0), IntegratorConfig(t_max=400.0), table1)
    info = generators["_taylor_step"].cache_info()
    steps = sum(arc.steps for arc in traj.arcs)
    assert info.misses == info.currsize == len({arc.planar for arc in traj.arcs}) <= 2
    assert info.hits + info.misses == len(runs) and steps > 700
    find_shilnikov(table1, (0.994, 10.0), IntegratorConfig())
    assert {key[4] for key in asked} == {24}
    for name, generator in generators.items():
        assert generator.cache_info().misses == len({key for key in asked if key[0] == name}) > 0, name
    # array rounds take the lane recurrence, compiled once for X's fold
    # launches at two values of e, and once for sliding lanes both ways
    array_rounds = []
    array_round = flow_mod._array_round

    def counted(*args):
        array_rounds.append(args)
        return array_round(*args)

    monkeypatch.setattr(flow_mod, "_array_round", counted)
    generators["_lane_recurrence"].cache_clear()
    cfg = IntegratorConfig(t_max=30.0)
    for params in (table1, table1.replace(e=2.0 * table1.e)):
        integrate_fold_launches(np.linspace(0.05, 0.95, 24) * params.tau, cfg, params)
    starts = np.column_stack((np.linspace(0.5, 1.5, 24) * table1.tau, np.full(24, 1.5 * table1.phi)))
    for sgn in (1.0, -1.0):
        flow_mod._sliding_lanes(starts, 0.0, cfg, table1, 1e-2, sliding_series(table1, sgn))
    info = generators["_lane_recurrence"].cache_info()
    assert info.misses == info.currsize == 2
    assert info.hits + info.misses == len(array_rounds) > 8


# the sizes of every generator cache of the package's modules, by name,
# after importing the package and its CLI
_IMPORT_ONLY = """
import json
import preyswitch, preyswitch.cli
from preyswitch import connection, flow, model, sliding

caches = {
    name: value.cache_info().currsize
    for module in (model, sliding, flow, connection)
    for name, value in vars(module).items()
    if hasattr(value, "cache_info")
}
print(json.dumps(caches))
"""


def test_importing_compiles_nothing():
    # every generated program, the float steps, the lane loops, the array
    # round's step rule and the Horner evaluation, is compiled on its first
    # use, so that a fresh interpreter that imports the package and its CLI
    # has compiled none: each generator's cache is empty
    src = str(Path(flow_mod.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ONLY],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    caches = json.loads(done.stdout)
    assert set(caches) >= {"_taylor_step", "_step_end_program", "_horner_program", "_lane_recurrence"}, caches
    assert not any(caches.values()), caches


def test_a_form_with_an_empty_row_raises(table1):
    # z' = 0 has no term to compile; -0.0 is no weight either
    with pytest.raises(DomainError, match="nonzero weight"):
        quadratic_series([[table1.r1, 0.0], [0.0, -0.0]], (-1.0, 0.0), 0, 1)


@pytest.mark.lanes
def test_fold_lanes_run_as_many_rounds_as_their_slowest_lane(table1, cfg, monkeypatch):
    # each lane takes its own steps, so a batch of fold launches takes each
    # lane's steps alone and runs as many rounds as its slowest lane
    runs = taylor_runs(monkeypatch)
    x0s = np.linspace(0.05, 0.95, 20) * table1.tau
    integrate_fold_launches(x0s, cfg, table1)
    for x0 in x0s:
        integrate_fold_launches([x0], cfg, table1)
    batch, alone = runs[0], [run for (run,) in runs[1:]]
    assert [arc.steps for arc in batch] == [arc.steps for arc in alone]
    assert rounds(runs[:1]) == max(arc.steps for arc in alone) > min(arc.steps for arc in alone)


@pytest.mark.lanes
def test_fold_launches_and_smooth_x_arcs_return_alike(table1, cfg):
    # a launch is a lane of the code that runs an X-arc leaving the fold, and
    # each lane of a batch has its lone arc, so the two agree bit for bit
    x0s = np.linspace(0.05, 0.95, 19) * table1.tau
    for x0, launch in zip(x0s, integrate_fold_launches(x0s, cfg, table1)):
        arc = integrate_smooth(Piece.X, (x0, x0, table1.phi), Direction.FORWARD, cfg, table1)
        assert arc.terminal_event.kind is EventKind.SIGMA_CROSSING
        u, _, v = arc.terminal_event.state.tolist()
        assert (u, v) == launch


@pytest.mark.lanes
def test_lone_lanes_and_array_rounds_agree(table1, monkeypatch):
    # while _ARRAY_LANES lanes or more run, a round steps them together on
    # arrays, and below that each lane takes its step on floats; X-arcs (four
    # from the fold), Y-arcs and sliding arcs both ways (four from the fold
    # line, of which two exit at once forward; backward, six are captured by
    # the focus) each have, bit for bit, the arc they have alone
    cfg = IntegratorConfig(t_max=30.0)
    k = flow_mod._ARRAY_LANES + 2
    rng = np.random.default_rng(11)
    tau, phi = table1.tau, table1.phi
    rounds = []
    for name, kind in (("_array_round", "array"), ("_float_round", "float")):

        def counted(*args, _step=getattr(flow_mod, name), _kind=kind):
            rounds.append(_kind)
            return _step(*args)

        monkeypatch.setattr(flow_mod, name, counted)
    high = rng.uniform(0.2, 1.5, k) * tau
    low = rng.uniform(0.1, 0.9, k) * high
    z = rng.uniform(0.2, 2.0, k) * table1.r1
    folds = [[x0, x0, phi] for x0 in np.array([0.2, 0.4, 0.6, 0.8]) * tau]
    x_starts = np.vstack((folds, np.column_stack((high, low, z))[4:]))
    y_starts = np.column_stack((low, high, z))
    on_fold = [[x0, phi] for x0 in np.array([0.5, 0.9, 1.1, 1.5]) * tau]
    sliding_starts = np.vstack((on_fold, np.column_stack((high, phi + z))[4:]))
    cases = [(Piece.X, x_starts, 1.0), (Piece.Y, y_starts, 1.0)]
    cases += [("Sliding", sliding_starts, sgn) for sgn in (1.0, -1.0)]
    for field, starts, sgn in cases:
        rounds.clear()
        if field == "Sliding":
            direction = Direction.FORWARD if sgn > 0 else Direction.BACKWARD
            together = flow_mod._sliding_lanes(starts, 0.0, cfg, table1, 1e-2, sliding_series(table1, sgn))
            taken = list(rounds)
            alone = [integrate_sliding(p, direction, cfg, table1, 1e-2) for p in starts]
        else:
            series = smooth_series(field, table1, sgn)
            together = flow_mod._smooth_lanes(field, starts, 0.0, cfg, table1, series)
            taken = list(rounds)
            alone = [integrate_smooth(field, p, Direction.FORWARD, cfg, table1) for p in starts]
        # array rounds first, then float steps for the last lanes
        array_rounds = taken.count("array")
        assert array_rounds > 0 and "array" not in taken[array_rounds:], (field, sgn)
        assert len(taken) > array_rounds, (field, sgn)
        # alone, every lane takes float steps only
        assert set(rounds[len(taken) :]) == {"float"}
        for start, a, b in zip(starts, together, alone):
            assert (a.steps, a.terminal_event.kind, a.t1) == (b.steps, b.terminal_event.kind, b.t1), (
                field,
                sgn,
                start,
            )
            assert np.array_equal(a.ts, b.ts) and np.array_equal(a.states, b.states), (field, sgn, start)
            assert np.array_equal(a.terminal_event.state, b.terminal_event.state), (field, sgn, start)


@pytest.mark.lanes
def test_array_round_searches_every_row_a_lone_lane_searches(monkeypatch):
    # s(u) = 1 + 1e-14 - u on one step of length 1: its last Bernstein
    # coefficient is 1e-14, positive but within the rounding of a matrix
    # product, so neither of a lone lane's float tests can clear it (the
    # signed one, g_0 + sum min(g_k, 0) = 1e-14, lies inside its margin) and
    # its row is searched; the batch product must not clear it either.  The
    # form is x' = -w, w' = w v, v' = v from (x, 1, 0), so w stays 1 and v 0,
    # and x = x0 - t exactly.  This form, unlike the model's, does not keep
    # x = 0 invariant, so the call watches the plane x = 0 as its event
    searched = []
    first_root = flow_mod._first_root

    def counted(a, b):
        searched.append(a[0])
        return first_root(a, b)

    series = quadratic_series([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], (0.0, 1.0, 0.0), 1, 2)
    monkeypatch.setattr(flow_mod, "_first_root", counted)
    cfg = IntegratorConfig(t_max=1.0)
    k = flow_mod._ARRAY_LANES
    p0 = np.tile((1.0 + 1e-14, 1.0, 0.0), (k, 1))
    events = [flow_mod._Plane(EventKind.DOMAIN_EXIT, 0)]
    together = flow_mod._taylor_lanes(ArcKind.SMOOTH_X, series, p0, events, 0.0, cfg)
    assert len(searched) == k
    alone = [flow_mod._taylor_lanes(ArcKind.SMOOTH_X, series, p[None], events, 0.0, cfg)[0] for p in p0]
    assert len(searched) == 2 * k
    for a, b in zip(together, alone):
        assert a.terminal_event.kind is b.terminal_event.kind is EventKind.HORIZON_REACHED
        assert a.steps == b.steps == 1
        assert np.array_equal(a.states, b.states) and a.states[-1, 0] > 0.0


def test_no_arc_crosses_a_coordinate_plane(rng, table1):
    # the step loop watches only its caller's events, no coordinate plane,
    # since the fields keep them invariant: every row q of X's and Y's
    # forms, and the sliding field's x row, holds only s_q (term q) and,
    # possibly, the product s_i s_j (term n) with q in {i, j}, so that
    # s_q' = s_q*(a rate), at Table 1 and at random draws, both ways
    for params in (table1, *(draw_params(rng) for _ in range(50))):
        for sgn in (1.0, -1.0):
            for series in (*(smooth_series(piece, params, sgn) for piece in Piece), sliding_series(params, sgn)):
                structure, i, j = series.form
                n = len(structure)
                for q, row in enumerate(structure if n == 3 else structure[:1]):
                    assert set(row) <= {q, n} and (n not in row or q in (i, j)), (params, sgn, q, row)
    # so X- and Y-arcs from starts with one coordinate at 1e-10, above the
    # event tolerance, watching no event, keep it above 0 at every step to
    # the horizon, both ways, in array rounds (18 lanes) and float steps;
    # and sliding arcs, from x = 1e-10 too, keep x above 0
    cfg = IntegratorConfig(t_max=10.0)
    k = flow_mod._ARRAY_LANES + 2
    starts = rng.uniform(0.1, 1.5, (k, 3))
    starts[np.arange(k), np.arange(k) % 3] = 1e-10
    assert 1e-10 > cfg.event_tol
    for piece, kind in ((Piece.X, ArcKind.SMOOTH_X), (Piece.Y, ArcKind.SMOOTH_Y)):
        for sgn in (1.0, -1.0):
            arcs = flow_mod._taylor_lanes(kind, smooth_series(piece, table1, sgn), starts, [], 0.0, cfg)
            for lane, arc in enumerate(arcs):
                assert (arc.terminal_event.kind, arc.t1) == (EventKind.HORIZON_REACHED, sgn * cfg.t_max)
                assert arc.states[:, lane % 3].min() > 0.0, (piece, sgn, lane)
    x = np.where(np.arange(k) % 2, 1e-10, rng.uniform(0.05, 1.5, k) * table1.tau)
    sliding_starts = np.column_stack((x, rng.uniform(1.0, 2.5, k) * table1.phi))
    for sgn in (1.0, -1.0):
        legs = flow_mod._sliding_lanes(sliding_starts, 0.0, cfg, table1, 1e-4, sliding_series(table1, sgn))
        for lane, arc in enumerate(legs):
            assert arc.steps > 0 and arc.states[:, 0].min() > 0.0, (sgn, lane)


def never(*args):
    return False


def untangent(g0, side, d, c, _signed=flow_mod._signed):
    return not c and _signed(g0, side, d, c)


# the namespaces of the generated event tests without some of their tests:
# a plane's spread test alone (its signed test never clears); the plane
# tests as they were before they tested a tangent lane's first step (never
# there); the ball's enclosure alone (no bound on the squared distance)
SPREAD_ONLY = dict(flow_mod._event_namespace(), signed=never)
UNTANGENT = dict(flow_mod._event_namespace(), signed=untangent)
ENCLOSURE_ONLY = dict(flow_mod._event_namespace(), bounds=never)


@pytest.fixture()
def programs():
    """A test that compiles float-step programs in another namespace clears
    their compile cache before and after it, so that no other test takes
    them."""
    flow_mod._taylor_step.cache_clear()
    yield
    flow_mod._taylor_step.cache_clear()


def cleared_at_first_test(g):
    """Whether _first_root clears the row g at its first test; it then finds
    no root."""
    b = flow_mod._TO_BERNSTEIN @ g
    return b[0] >= 0.0 and b[1:].min() > 0.0 and flow_mod._first_root(g, b) is None


def random_step(rng, dim, lead=1.0):
    """Coefficients a_k of a step in each of ``dim`` coordinates, falling
    off geometrically to about 1e-16 at the series' order, as Jorba and
    Zou's step leaves them, with a_0 scaled by ``lead``; and their spreads."""
    n = flow_mod._TAYLOR_ORDER
    rate = 10.0 ** (-16.0 / n)
    a = [(rng.standard_normal(n + 1) * rng.uniform(0.3, 1.0) * rate ** np.arange(n + 1)).tolist() for _ in range(dim)]
    for col in a:
        col[0] *= lead
    return a, [sum(map(abs, col[1:])) for col in a]


@pytest.mark.lanes
def test_signed_plane_test_clears_what_first_root_clears(rng):
    # x = 0.5 + u - 0.2 u**2 + 0.1 u**3 on a step: its spread 1.3 exceeds
    # g_0 = 0.5, but g_0 + sum min(g_k, 0) = 0.3 > 0 bounds every Bernstein
    # coefficient from below, so the row has no root.  The generated tests
    # decide each row as the reference, flow's former Python test, does
    a = [[0.5, 1.0, -0.2, 0.1] + [0.0] * (flow_mod._TAYLOR_ORDER - 3)]
    spread = [sum(map(abs, a[0][1:]))]
    plane = flow_mod._Plane(EventKind.DOMAIN_EXIT, 0)
    assert event_tests([plane], 1, SPREAD_ONLY)([0.5], a, spread, 0) == (0,)
    assert event_tests([plane], 1)([0.5], a, spread, 0) == () and plane_clears(plane, [0.5], a, spread, False, 0)
    assert cleared_at_first_test(np.array(a[0]))
    # 1 - x, which x = 1.4 at u = 1 makes fall through zero, is not cleared
    falling = flow_mod._Plane(EventKind.DOMAIN_EXIT, 0, level=1.0, side=-1.0)
    assert event_tests([falling], 1)([0.5], a, spread, 0) == (0,)
    assert not plane_clears(falling, [0.5], a, spread, False, 0)
    # on a tangent lane's first step the test reads the row with the contact
    # divided out, as rows forms it: x/u = 1 - 0.2 u + 0.1 u**2 and
    # x/u**3 = 0.1 are cleared; x/u**2 = -0.2 + 0.1 u, clamped to 0.1 u,
    # is not, since its bound 0 lies inside the margin, though _first_root
    # clears it at its first test, where b_0 = 0 is allowed
    for contact, cleared in ((1, True), (2, False), (3, True)):
        tangent = flow_mod._Plane(EventKind.DOMAIN_EXIT, 0, contact=(contact,))
        (g,) = tangent.rows(np.array([a]), True, [0])
        tests = event_tests([tangent], 1)
        assert (tests([0.5], a, spread, contact) == ()) is cleared, contact
        assert plane_clears(tangent, [0.5], a, spread, True, 0) is cleared, contact
        assert cleared_at_first_test(g), contact
        assert tests([0.5], a, spread, 0) == (), contact
    # a bound inside the array round's margin 1e-13*sum |g_k| is not enough
    a = [[1.0 + 1e-14, -1.0] + [0.0] * (flow_mod._TAYLOR_ORDER - 1)]
    assert event_tests([plane], 1)([a[0][0]], a, [1.0], 0) == (0,)
    assert not plane_clears(plane, [a[0][0]], a, [1.0], False, 0)
    # tangent first steps of Sigma from the fold, h/u**2 for X and -h/u**2
    # for Y, and of the fold line, (z - z0)/u, on random steps whose divided
    # row starts at 0 to 4 times the size of its other coefficients: every
    # row the test clears, _first_root clears at its first test, the test
    # clears the rows the reference clears and no other, and more than a
    # fifth of them
    planes = [
        flow_mod._Plane(EventKind.SIGMA_CROSSING, 0, 1, side=side, contact=(2,), snap=True) for side in (1.0, -1.0)
    ]
    planes.append(flow_mod._Plane(EventKind.FOLD_EXIT, 1, level=0.7, contact=(1,), snap=True))
    tests = [event_tests([plane], 3) for plane in planes]
    cleared = tested = 0
    for k in range(3000):
        plane = planes[k % 3]
        a, _ = random_step(rng, 3)
        c = plane.contact[0]
        # the contact: the row's c lowest orders vanish
        a[plane.i][:c] = [plane.level, 0.0][:c]
        if plane.j is not None:
            a[plane.j][:c] = a[plane.i][:c]
        d = a[plane.i] if plane.j is None else list(map(sub, a[plane.i], a[plane.j]))
        a[plane.i][c] += plane.side * rng.uniform(0.0, 4.0) * sum(map(abs, d[c + 1 :])) - d[c]
        spread = [sum(map(abs, col[1:])) for col in a]
        (g,) = plane.rows(np.array([a]), True, [0])
        tested += 1
        p = [col[0] for col in a]
        if tests[k % 3](p, a, spread, c) == ():
            cleared += 1
            assert cleared_at_first_test(g), (k, a)
            assert plane_clears(plane, p, a, spread, True, 0), (k, a)
        else:
            assert not plane_clears(plane, p, a, spread, True, 0), (k, a)
    assert tested // 5 < cleared < tested


@pytest.mark.lanes
def test_signed_ball_bound_clears_only_rows_without_a_root(rng):
    # s = (1 - 0.2 u**2, u) about the origin: its enclosure 1 - 1.2 comes
    # within any radius, but |s|**2 >= 1 + 2 min(-0.2, 0) = 0.6 bounds it
    # from below, so at radius 0.7 the row has no root
    n = flow_mod._TAYLOR_ORDER
    a = [[1.0, 0.0, -0.2] + [0.0] * (n - 2), [0.0, 1.0] + [0.0] * (n - 1)]
    spread = [0.2, 1.0]
    ball = flow_mod._Ball(EventKind.FOCUS_CAPTURE, (0.0, 0.0), 0.7)
    assert event_tests([ball], 2, ENCLOSURE_ONLY)([1.0, 0.0], a, spread, 0) == (0,)
    assert event_tests([ball], 2)([1.0, 0.0], a, spread, 0) == () and ball_clears(ball, [1.0, 0.0], a, spread, False, 0)
    (g,) = ball.rows(np.array([a]), False, [0])
    assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None
    # at s = (1 - 0.25 u**2, u) the signed bound 1 - 0.5 lies 1e-14 above
    # r**2, inside its margin: a rounding-scale margin is not enough to
    # clear the row, as with the plane's 1 + 1e-14.  The segment bound
    # clears it: the segment (1, u) keeps 1 from the centre, and the u**2
    # term moves s at most 0.25 off it, so |s| >= 0.75, and the row has no
    # root
    a[0][2] = -0.25
    ball = flow_mod._Ball(EventKind.FOCUS_CAPTURE, (0.0, 0.0), math.sqrt(0.5 - 1e-14))
    assert not ball_clears(ball, [1.0, 0.0], a, [0.25, 1.0], False, 0)
    assert event_tests([ball], 2)([1.0, 0.0], a, [0.25, 1.0], 0) == ()
    (g,) = ball.rows(np.array([a]), False, [0])
    assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None
    # with a u**2 term in y as well, s = (1 - 0.25 u**2, u + u**2), the
    # later orders may move s 1.25 off the segment, more than its distance 1
    # from the centre, so the segment bound clears nothing, and the signed
    # bound alone decides: 1e-14 above r**2, inside its margin, it leaves
    # the row to the root search; 1e-6 above, it clears it
    a[1][2] = 1.0
    assert event_tests([ball], 2)([1.0, 0.0], a, [0.25, 2.0], 0) == (0,)
    assert not ball_clears(ball, [1.0, 0.0], a, [0.25, 2.0], False, 0)
    smaller = flow_mod._Ball(EventKind.FOCUS_CAPTURE, (0.0, 0.0), math.sqrt(0.5 - 1e-6))
    assert event_tests([smaller], 2)([1.0, 0.0], a, [0.25, 2.0], 0) == ()
    assert ball_clears(smaller, [1.0, 0.0], a, [0.25, 2.0], False, 0)
    for event in (ball, smaller):
        (g,) = event.rows(np.array([a]), False, [0])
        assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None
    # steps of the sliding field's size about a focus at random: every row
    # the bounds clear and the enclosure does not has no root for
    # _first_root, the bounds clear every row the reference clears, and
    # they clear some of them, and more than the reference
    cleared = sharper = 0
    for k in range(2000):
        a, spread = random_step(rng, 2, lead=rng.uniform(0.2, 2.0))
        centre = tuple(rng.uniform(-0.5, 0.5, 2).tolist())
        p = [col[0] for col in a]
        dist = math.dist(p, centre)
        ball = flow_mod._Ball(EventKind.FOCUS_CAPTURE, centre, dist * rng.uniform(0.05, 0.95))
        program = event_tests([ball], 2)(p, a, spread, 0) == ()
        reference = ball_clears(ball, p, a, spread, False, 0)
        assert program or not reference, (k, a, centre, ball.radius)
        if event_tests([ball], 2, ENCLOSURE_ONLY)(p, a, spread, 0) == () or not program:
            continue
        cleared += 1
        sharper += not reference
        (g,) = ball.rows(np.array([a]), False, [0])
        assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None, (k, a, centre, ball.radius)
    assert cleared > 100 and sharper > 0


SEED1_STARTS = ((0.5715574303940261, 0.6730991227191068, 1.3990856495961026), (0.4733646538081723, 0.13442713013292387, 1.475657393209628))


@pytest.mark.lanes
def test_signed_plane_test_leaves_filippov_arcs_bit_identical(table1, monkeypatch, programs):
    # the simulate trajectories from the benchmark's seed 1 at Table 1: the
    # signed test clears rows whose spread test fails, which _first_root
    # would clear at its first test, so each arc is the one it is without it
    # (the programs compiled with the plane's spread test alone)
    searches = []
    first_root = flow_mod._first_root

    def counted(a, b):
        searches.append(1)
        return first_root(a, b)

    monkeypatch.setattr(flow_mod, "_first_root", counted)
    cfg = IntegratorConfig(t_max=400.0)
    signed = [integrate_filippov(s0, cfg, table1) for s0 in SEED1_STARTS]
    with_signed = len(searches)
    monkeypatch.setattr(flow_mod, "_event_namespace", lambda: SPREAD_ONLY)
    flow_mod._taylor_step.cache_clear()
    plain = [integrate_filippov(s0, cfg, table1) for s0 in SEED1_STARTS]
    assert with_signed < len(searches) - with_signed
    for a, b in zip(signed, plain):
        assert len(a.arcs) == len(b.arcs) > 50
        for x, y in zip(a.arcs, b.arcs):
            assert (x.kind, x.steps, x.terminal_event.kind, x.t1) == (y.kind, y.steps, y.terminal_event.kind, y.t1)
            assert np.array_equal(bits(x.ts), bits(y.ts)) and np.array_equal(bits(x.states), bits(y.states))


@pytest.mark.lanes
def test_ball_bound_and_tangent_test_leave_simulate_arcs_bit_identical(table1, monkeypatch, programs):
    # the simulate trajectories from the benchmark's seed 1, at Table 1 and
    # at beta1*: the ball's bounds on the squared distance and the plane's
    # test of a tangent first step clear rows that _first_root finds no
    # root in, so every arc and its record are the ones they are without
    # them (the programs compiled with neither), and the float path's root
    # searches fall from 605 to at most 400, and below the 359 of the
    # signed ball bound alone
    searches = []
    first_root = flow_mod._first_root

    def counted(a, b):
        searches.append(1)
        return first_root(a, b)

    monkeypatch.setattr(flow_mod, "_first_root", counted)
    cfg = IntegratorConfig(t_max=400.0)
    runs = [(params, s0) for params in (table1, table1.replace(beta1=7.7768748097)) for s0 in SEED1_STARTS]
    new = [integrate_filippov(s0, cfg, params) for params, s0 in runs]
    with_new = len(searches)
    monkeypatch.setattr(flow_mod, "_event_namespace", lambda: dict(UNTANGENT, bounds=never))
    flow_mod._taylor_step.cache_clear()
    old = [integrate_filippov(s0, cfg, params) for params, s0 in runs]
    assert (with_new, len(searches) - with_new) <= (400, 605) and len(searches) - with_new == 605
    assert with_new < 359
    for a, b in zip(new, old):
        assert len(a.arcs) == len(b.arcs) > 30
        for x, y in zip(a.arcs, b.arcs):
            assert (x.kind, x.steps, x.t0, x.t1) == (y.kind, y.steps, y.t0, y.t1)
            assert np.array_equal(bits(x.ts), bits(y.ts)) and np.array_equal(bits(x.states), bits(y.states))
            ex, ey = x.terminal_event, y.terminal_event
            assert (ex.kind, ex.t) == (ey.kind, ey.t) and np.array_equal(bits(ex.state), bits(ey.state))


def coordinate_planes(dim):
    """Test planes s_i = 0, one per coordinate: planes at level 0 with no
    second coordinate, which no caller of the step loop declares, since the
    model's fields keep them invariant."""
    return [flow_mod._Plane(EventKind.DOMAIN_EXIT, i) for i in range(dim)]


def caller_events(field, params, sgn, radius):
    """The event table of an arc of ``field`` (X, Y or "Sliding") as its
    caller declares it, in its series' coordinates, Sigma from the fold for
    X and Y (s_0 - s_1, which is y - x on Y's (y, x, z)), the fold line and
    the focus ball of ``radius`` for a sliding arc, followed by the test
    planes of :func:`coordinate_planes`, so that planes at level 0 are
    tested too; and the tangent plane's contact."""
    if field == "Sliding":
        focus = sliding_series(params, sgn).focus
        fold = flow_mod._Plane(EventKind.FOLD_EXIT, 1, level=params.phi, contact=(1,), snap=True)
        table = [fold, flow_mod._Ball(EventKind.FOCUS_CAPTURE, (focus.x, focus.z), radius)]
        return table + coordinate_planes(2), 1
    sigma = flow_mod._Plane(EventKind.SIGMA_CROSSING, 0, 1, contact=(2,), snap=True)
    return [sigma] + coordinate_planes(3), 2


def near_events(rng, field, params, sgn):
    """Points near the events of an arc of ``field``, at log-uniform
    distances from them, each with the contact of its first step: a start
    on the fold, tangent to Sigma for X and on the fold line for a sliding
    arc, has the contact of its tangent plane, and every other start 0."""
    tau, phi = params.tau, params.phi
    close = 10.0 ** rng.uniform(-10.0, -1.0)
    if field == "Sliding":
        focus = sliding_series(params, sgn).focus
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x, z = rng.uniform(0.1, 1.5) * tau, phi * (1.0 + rng.uniform(0.0, 1.0))
        near_focus = [focus.x + close * math.cos(angle), focus.z + close * math.sin(angle)]
        return [(near_focus, 0), ([x, phi + close], 0), ([close, z], 0), ([x, phi], 1)]
    x, z, fold = rng.uniform(0.1, 1.5) * tau, rng.uniform(0.2, 2.0) * params.r1, rng.uniform(0.05, 0.95) * tau
    if field is Piece.X:
        # Sigma from the side h > 0, the planes y = 0 and z = 0, the fold
        return [([x, x - close * x, z], 0), ([x, close, z], 0), ([x, 0.5 * x, close], 0), ([fold, fold, phi], 2)]
    return [([x, x + close * x, z], 0), ([close, x, z], 0), ([x, 2.0 * x, close], 0), ([fold, fold, phi], 0)]


@pytest.mark.lanes
def test_generated_event_tests_on_random_steps(rng, table1):
    # generated float steps of X, Y and the sliding field both ways, with
    # their callers' event tables, from random points near the events,
    # tangent first steps from the fold included, all in the series'
    # coordinates (Y's swapped to (y, x, z)): every row that the
    # program's tests clear, _first_root clears at its first test (the
    # ball's row: finds no root in), and they clear every row that the
    # reference, flow's former Python tests, clears, and with the ball's
    # segment bound more
    cfg = IntegratorConfig()
    counts = {"pending": 0, "cleared": 0, "sharper": 0}
    for sgn in (1.0, -1.0):
        for (series, form), field in zip(fields(table1, sgn), (Piece.X, Piece.Y, "Sliding")):
            for _ in range(60):
                radius = 10.0 ** rng.uniform(-4.0, -1.0)
                events, tangent = caller_events(field, table1, sgn, radius)
                for p, c in near_events(rng, field, table1, sgn):
                    _, _, a, spread, _ = reference_float_step(form, sgn, p, 0.0, cfg)
                    p, a, spread = swapped(p, series), swapped(a, series), swapped(spread, series)
                    step = float_step(series, events, p, 0.0, cfg, c)
                    pending = () if step[2] is None else step[2][0]
                    first = c != 0
                    for e, ev in enumerate(events):
                        ball = isinstance(ev, flow_mod._Ball)
                        reference = (ball_clears if ball else plane_clears)(ev, p, a, spread, first, 0)
                        assert e not in pending or not reference, (field, sgn, p, c, e)
                        if e in pending:
                            counts["pending"] += 1
                            continue
                        counts["cleared"] += 1
                        counts["sharper"] += not reference
                        rows = ev.rows(np.array([a]), first, [0])
                        if rows is None:
                            continue
                        (g,) = rows
                        if ball:
                            assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None, (field, sgn, p, e)
                        else:
                            assert cleared_at_first_test(g), (field, sgn, p, c, e)
    assert min(counts.values()) > 0, counts


@pytest.mark.lanes
def test_float_programs_compile_once_per_form_and_event_structure(table1):
    # one program per quadratic form and event structure: the weights and
    # the events' constants are arguments, so X at another beta1 and e, and
    # backward, takes X's program, as do other radii, levels and contacts,
    # and so does Y, whose series on (y, x, z) has X's form and whose Sigma
    # plane there has X's shape; an X table without the tangent plane takes
    # its own.  One Filippov trajectory of X, Y and sliding arcs compiles
    # two, X's and the sliding field's, and a second at beta1* none
    generator = flow_mod._taylor_step
    generator.cache_clear()
    cfg = IntegratorConfig()
    p = [0.3, 0.2, 1.0]
    for params in (table1, table1.replace(beta1=7.7768748097, e=2.0 * table1.e)):
        for sgn in (1.0, -1.0):
            events, _ = caller_events(Piece.X, params, sgn, 1e-4)
            float_step(smooth_series(Piece.X, params, sgn), events, p, 0.0, cfg)
    assert generator.cache_info().misses == 1
    float_step(smooth_series(Piece.Y, table1), caller_events(Piece.Y, table1, 1.0, 1e-4)[0], p, 0.0, cfg)
    assert generator.cache_info().misses == 1
    float_step(smooth_series(Piece.X, table1), coordinate_planes(3), p, 0.0, cfg)
    assert generator.cache_info().misses == 2
    generator.cache_clear()
    traj = integrate_filippov(SEED1_STARTS[0], IntegratorConfig(t_max=400.0), table1)
    assert len({arc.kind for arc in traj.arcs}) == 3 and generator.cache_info().misses == 2
    integrate_filippov(SEED1_STARTS[0], IntegratorConfig(t_max=400.0), table1.replace(beta1=7.7768748097))
    assert generator.cache_info().misses == 2


def test_filippov_builds_its_fields_and_focus_once(table1, monkeypatch):
    # X, Y and the sliding field are three quadratic forms, and the focus one
    # call, for a trajectory of 12 arcs and for one of more than 50
    forms, foci = [], []
    for module in (model_mod, sliding_mod):
        build = module.quadratic_series

        def counted(*args, _build=build):
            forms.append(args)
            return _build(*args)

        monkeypatch.setattr(module, "quadratic_series", counted)
    pseudo = sliding_mod.pseudo_equilibria

    def located(params):
        foci.append(params)
        return pseudo(params)

    monkeypatch.setattr(sliding_mod, "pseudo_equilibria", located)
    for s0, t_max, arcs in (((1.2, 0.4, 1.0), 60.0, 12), (SEED1_STARTS[0], 400.0, 51)):
        forms.clear()
        foci.clear()
        traj = integrate_filippov(s0, IntegratorConfig(t_max=t_max), table1)
        assert len(traj.arcs) >= arcs
        assert {arc.kind for arc in traj.arcs} >= {ArcKind.SMOOTH_X, ArcKind.SLIDING}
        assert (len(forms), len(foci)) == (3, 1)


def test_sliding_arcs_do_not_need_the_focus_classified(table1, cfg, monkeypatch):
    def unclassifiable(params):
        raise PreySwitchError("no classification")

    monkeypatch.setattr(sliding_mod, "classify_focus", unclassifiable)
    monkeypatch.setattr(flow_mod, "classify_focus", unclassifiable, raising=False)
    arc = integrate_sliding((0.5 * table1.tau, table1.phi), Direction.BACKWARD, cfg, table1)
    assert arc.terminal_event.kind is EventKind.FOCUS_CAPTURE


def test_first_root_finds_two_roots_inside_one_step():
    # (u - 0.3)(u - 0.35) is positive at both ends of the step
    n = flow_mod._TAYLOR_ORDER
    a = np.zeros(n + 1)
    a[:3] = (0.3 * 0.35, -0.65, 1.0)
    b = flow_mod._TO_BERNSTEIN @ a
    assert b[0] > 0.0 and b[-1] > 0.0
    assert abs(flow_mod._first_root(a, b) - 0.3) <= 1e-15
    a[0] += 0.03  # no real root
    assert flow_mod._first_root(a, flow_mod._TO_BERNSTEIN @ a) is None


def test_brent_returns_brentqs_roots_bit_for_bit(rng):
    tol = 4.0 * np.finfo(float).eps
    powers = np.arange(flow_mod._TAYLOR_ORDER + 1)
    cases = 0
    while cases < 3000:
        a = (rng.standard_normal(powers.size) * rng.uniform(0.2, 3.0) ** powers).tolist()
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2)).tolist()
        if (horner(a, lo) < 0.0) == (horner(a, hi) < 0.0):
            continue
        cases += 1
        # a zero at an end, which both return at once: p(0) = 0
        ends = [(lo, hi), (0.0, hi), (-hi, 0.0)] if cases % 100 == 0 else [(lo, hi)]
        for lo, hi in ends:
            if lo == 0.0 or hi == 0.0:
                a[0] = 0.0
            f = partial(horner, a)
            found = flow_mod._brent(a, lo, hi, horner(a, lo), horner(a, hi))
            assert found == brentq(f, lo, hi, xtol=tol, rtol=tol)


def test_brent_raises_step_failure_when_it_does_not_converge():
    # from an infinite end the iterates turn NaN and never narrow; -0.3 + u
    # as a row of a step, to the series' order
    a = [-0.3, 1.0] + [0.0] * (flow_mod._TAYLOR_ORDER - 1)
    with pytest.raises(StepFailure, match="did not converge"):
        flow_mod._brent(a, 0.0, float("inf"), horner(a, 0.0), horner(a, float("inf")))


@pytest.mark.lanes
def test_generated_horner_and_brent_equal_the_references(rng):
    # the generated Horner evaluation takes the loop's operations from
    # 0.0*u + c_n, so it equals the reference bit for bit, sign bits
    # included, on random rows of degree 24 with coefficients at 0.0 and
    # -0.0, at u = 0, 1 and inside; and Brent's method on it returns the
    # reference's root, on rows with a root at 0, at 1 and inside, or fails
    # where it fails
    n = flow_mod._TAYLOR_ORDER
    evaluate = flow_mod._horner_program()
    powers = np.arange(n + 1)

    def root_or_failure(solve, a, lo, hi):
        try:
            return bits(solve(a, lo, hi))
        except StepFailure as err:
            return str(err)

    roots = 0
    for k in range(2000):
        a = (rng.standard_normal(n + 1) * rng.uniform(1.0, 3.0) ** -powers).tolist()
        for q in rng.choice(n + 1, k % 6, replace=False).tolist():
            a[q] = [0.0, -0.0][q % 2]
        for u in (0.0, 1.0, -0.0, *rng.uniform(0.0, 1.0, 3).tolist()):
            assert bits(evaluate(a, u)) == bits(horner(a, u)), (k, u)
        root = [0.0, 1.0, rng.uniform(0.05, 0.95)][k % 3]
        # a row through zero at the root: p(u) - p(root)
        a[0] -= horner(a, root)
        lo, hi = (0.0, 1.0) if k % 3 else (-0.5, 1.0)
        if (horner(a, lo) < 0.0) == (horner(a, hi) < 0.0) and horner(a, lo) != 0.0 != horner(a, hi):
            continue
        found = root_or_failure(
            lambda a, lo, hi: flow_mod._brent(a, lo, hi, evaluate(a, lo), evaluate(a, hi)), a, lo, hi
        )
        assert found == root_or_failure(brent, a, lo, hi), (k, root)
        roots += not isinstance(found, str)
    assert roots > 1000
    assert bits(evaluate([-0.0] * (n + 1), 0.5)) == bits(horner([-0.0] * (n + 1), 0.5))


def tight_dop853(f, start, t_max, params, events):
    """End of f's flow from start by DOP853 at rel_tol 1e-13, with steps
    capped at 0.002 of the planar center's linearized period 2*pi/sqrt(m*r1),
    at the first of ``events`` (each falling through zero) or the horizon:
    the index of the event that fired, or None, and the end state."""
    for g in events:
        g.terminal, g.direction = True, -1.0
    sol = solve_ivp(
        f,
        (0.0, t_max),
        start,
        method="DOP853",
        events=events,
        rtol=1e-13,
        atol=1e-15,
        max_step=0.002 * 2.0 * math.pi / math.sqrt(params.m * params.r1),
    )
    fired = next((i for i, te in enumerate(sol.t_events) if len(te)), None)
    return fired, sol.y[:, -1]


def reference_sliding_end(params, start, direction, t_max, radius=1e-4):
    """Terminal kind and state of a sliding arc, with its own fold and
    capture events."""
    sgn = 1.0 if direction is Direction.FORWARD else -1.0
    f = reference_field("Sliding", params, sgn)
    phi = params.phi
    _, focus = pseudo_equilibria(params)
    rate0 = f(0.0, np.array(start))[1]
    if rate0 < 0.0:  # the flow leaves the sliding region at once
        return EventKind.FOLD_EXIT, np.array([start[0], phi])

    def fold(t, s):  # falls through zero where z does through phi, but not at t = 0
        return rate0 if t == 0.0 else (s[1] - phi) / t

    def capture(t, s):
        return math.hypot(s[0] - focus.x, s[1] - focus.z) - radius

    fired, end = tight_dop853(f, start, t_max, params, [fold, capture])
    if fired == 0:
        return EventKind.FOLD_EXIT, np.array([end[0], phi])
    if fired == 1:
        return EventKind.FOCUS_CAPTURE, end
    return EventKind.HORIZON_REACHED, end


def reference_smooth_end(params, piece, start, t_max):
    """Terminal kind and state of an X or Y arc, with its own Sigma event."""
    side = 1.0 if piece is Piece.X else -1.0

    def sigma(t, s):
        return side * (s[0] - s[1])

    fired, end = tight_dop853(reference_field(piece, params), start, t_max, params, [sigma])
    if fired is None:
        return EventKind.HORIZON_REACHED, end
    xm = 0.5 * (end[0] + end[1])
    return EventKind.SIGMA_CROSSING, np.array([xm, xm, end[2]])


def test_arcs_match_a_tight_reference_over_the_admissible_region(rng):
    # over two periods of the focus: sliding arcs forward and backward from
    # fold points on both sides of the cusp, and X and Y arcs from random
    # starts on their own side of Sigma
    for _ in range(10):
        params = draw_params(rng, require_focus=True)
        cfg = IntegratorConfig(t_max=2.0 * focus_period(params))
        for frac in (0.4, 0.8, 1.5):
            start = (frac * params.tau, params.phi)
            for direction in Direction:
                arc = integrate_sliding(start, direction, cfg, params)
                kind, state = reference_sliding_end(params, start, direction, cfg.t_max)
                assert arc.terminal_event.kind is kind, (params, start)
                err = np.max(np.abs(arc.terminal_event.state - state))
                assert err <= 1e-10, (params, start, direction)
        for piece in (Piece.X, Piece.Y):
            high = rng.uniform(0.2, 1.5) * params.tau
            low = rng.uniform(0.1, 0.9) * high
            z = rng.uniform(0.2, 2.0) * params.r1
            start = (high, low, z) if piece is Piece.X else (low, high, z)
            arc = integrate_smooth(piece, start, Direction.FORWARD, cfg, params)
            kind, state = reference_smooth_end(params, piece, start, cfg.t_max)
            assert arc.terminal_event.kind is kind, (params, piece, start)
            err = np.max(np.abs(arc.terminal_event.state - state))
            assert err <= 1e-10, (params, piece, start)


def test_sliding_rejects_bad_starts(table1, cfg):
    with pytest.raises(DomainError):
        integrate_sliding((0.0, 1.0), Direction.FORWARD, cfg, table1)
    with pytest.raises(DomainError):
        integrate_sliding((0.5, 0.1), Direction.FORWARD, cfg, table1)
    # a NaN radius would switch capture off, an infinite one capture every start
    for radius in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="focus_capture_radius"):
            integrate_sliding((0.3, table1.phi + 0.2), Direction.FORWARD, cfg, table1, radius)


def test_integrations_reject_a_wrong_direction_or_piece(table1, cfg):
    # 1 is not Direction.FORWARD: taken for backward, it would run the arc
    # the wrong way; "X" is not Piece.X
    for direction in (1, -1, "forward", None):
        with pytest.raises(DomainError, match="direction"):
            integrate_smooth(Piece.X, (1.2, 0.4, 1.0), direction, cfg, table1)
        with pytest.raises(DomainError, match="direction"):
            integrate_sliding((0.3, table1.phi + 0.2), direction, cfg, table1)
    for piece in ("X", None, ArcKind.SMOOTH_X):
        with pytest.raises(DomainError, match="piece"):
            integrate_smooth(piece, (1.2, 0.4, 1.0), Direction.FORWARD, cfg, table1)
        with pytest.raises(DomainError, match="piece"):
            eval_field(piece, (1.2, 0.4, 1.0), table1)
        with pytest.raises(DomainError, match="piece"):
            smooth_series(piece, table1)


def test_filippov_invariant_plane_y0(table1):
    cfg = IntegratorConfig(t_max=20.0)
    traj = integrate_filippov((0.9, 0.0, 0.9), cfg, table1)
    assert [a.kind for a in traj.arcs] == [ArcKind.SMOOTH_X]
    ys = traj.arcs[0].states[:, 1]
    assert np.max(np.abs(ys)) == 0.0


def test_filippov_fold_start_lands_in_sliding(table1, cfg):
    x0 = 0.3
    traj = integrate_filippov((x0, x0, table1.phi), replace(cfg, t_max=30.0), table1)
    first = traj.arcs[0]
    assert first.kind is ArcKind.SMOOTH_X
    ev = first.terminal_event
    assert ev.kind is EventKind.SIGMA_ENTRY_SLIDING
    u, v = mu_point(x0, table1, cfg)
    assert ev.state[0] == pytest.approx(u, rel=1e-10)
    assert ev.state[2] == pytest.approx(v, rel=1e-10)
    assert classify_sigma_point((ev.state[0], ev.state[2]), table1) is RegionLabel.SLIDING
    assert traj.arcs[1].kind is ArcKind.SLIDING


def test_filippov_start_on_the_origin_line_raises(table1, cfg):
    with pytest.raises(DomainError, match="trajectory reached the origin line"):
        integrate_filippov((0.0, 0.0, 0.5), cfg, table1)


def test_x_start_on_the_fold_just_past_the_cusp_raises_before_any_step(table1, cfg, monkeypatch):
    # x = tau + 5e-13 is on the fold line within the event tolerance and not
    # past the cusp by it, but X2h < 0 there: X does not lift off Sigma
    runs = taylor_runs(monkeypatch)
    x = table1.tau + 5e-13
    with pytest.raises(TangencyAmbiguity, match=r"does not lift off Sigma .*: X2h = -\d\.\d\de-1\d <= 0") as err:
        integrate_smooth(Piece.X, (x, x, table1.phi), Direction.FORWARD, cfg, table1)
    assert "returns" not in str(err.value)
    assert runs == []


@pytest.mark.parametrize("offset", ("cusp", "ulp", "1e-12"))
def test_filippov_slides_from_the_cusp_as_integrate_sliding_does(table1, cfg, offset):
    # one rule decides whether the sliding flow leaves a fold point; at the
    # cusp its z-rate is zero up to roundoff, and neither takes that residue
    # for an exit
    tau, phi = table1.tau, table1.phi
    x = {"cusp": tau, "ulp": math.nextafter(tau, 0.0), "1e-12": tau - 1e-12}[offset]
    first = integrate_filippov((x, x, phi), cfg, table1).arcs[0]
    alone = integrate_sliding((x, phi), Direction.FORWARD, cfg, table1)
    assert alone.terminal_event.kind is EventKind.FOLD_EXIT
    assert first.kind is ArcKind.SLIDING
    assert first.terminal_event.kind is EventKind.FOLD_EXIT
    assert (first.steps, first.t1) == (alone.steps, alone.t1)
    assert first.ts.tobytes() == alone.ts.tobytes()
    assert first.states.tobytes() == alone.states.tobytes()


def test_filippov_crossing_start_passes_without_sliding(table1):
    cfg = IntegratorConfig(t_max=10.0)
    traj = integrate_filippov((0.8, 0.8, 0.3), cfg, table1)
    first = traj.arcs[0]
    assert first.kind is ArcKind.SMOOTH_X
    assert first.t1 - first.t0 > 1.0


@pytest.mark.parametrize(
    "fold", [None, 0.2, 0.5], ids=["crossing", "visible-fold-0.2tau", "visible-fold-0.5tau"]
)
def test_filippov_y_arc_crosses_then_follows_x(table1, fold):
    # a hit is labelled by the arc that follows it: on the visible fold, where
    # the sliding flow leaves, X follows at once, so that hit is a crossing
    cfg = IntegratorConfig(t_max=10.0)
    start = (0.8, 0.9, 0.3)
    if fold is not None:
        x0 = fold * table1.tau
        assert flow_mod._leaves_fold(eval_sliding((x0, table1.phi), table1))
        back = integrate_smooth(
            Piece.Y, (x0, x0, table1.phi), Direction.BACKWARD, IntegratorConfig(t_max=0.3), table1
        )
        assert back.terminal_event.kind is EventKind.HORIZON_REACHED
        start = back.states[-1]
    traj = integrate_filippov(start, cfg, table1)
    kinds = [(a.kind, a.terminal_event.kind) for a in traj.arcs]
    assert kinds[0][0] is ArcKind.SMOOTH_Y
    assert kinds[0][1] is EventKind.SIGMA_CROSSING
    assert kinds[1][0] is ArcKind.SMOOTH_X
    if fold is not None:
        hit = traj.arcs[0].terminal_event.state
        label = classify_sigma_point((hit[0], hit[2]), table1, tol=cfg.event_tol)
        assert label is RegionLabel.VISIBLE_FOLD


def test_filippov_concatenation_continuity(table1):
    cfg = IntegratorConfig(t_max=60.0)
    traj = integrate_filippov((1.2, 0.4, 1.0), cfg, table1)
    assert len(traj.arcs) >= 6
    kinds = {a.kind for a in traj.arcs}
    assert ArcKind.SLIDING in kinds and ArcKind.SMOOTH_X in kinds
    for a, b in zip(traj.arcs, traj.arcs[1:]):
        assert arc_gap(a, b) <= cfg.event_tol
    for a in traj.arcs:
        dts = np.diff(a.ts)
        if len(dts):
            assert np.all(dts > 0.0)
    assert traj.arcs[-1].terminal_event.kind is EventKind.HORIZON_REACHED
    # each hit's label names the arc that follows it, and only a sliding arc
    # ends at a fold exit (this trajectory's hits all enter the sliding
    # region; test_filippov_y_arc_crosses_then_follows_x has crossings)
    follows = {EventKind.SIGMA_ENTRY_SLIDING: ArcKind.SLIDING, EventKind.SIGMA_CROSSING: ArcKind.SMOOTH_X}
    labels = [a.terminal_event.kind for a in traj.arcs]
    assert {EventKind.SIGMA_ENTRY_SLIDING, EventKind.FOLD_EXIT} <= set(labels)
    for label, b in zip(labels, traj.arcs[1:]):
        if label in follows:
            assert b.kind is follows[label]
    for a, label in zip(traj.arcs, labels):
        if label is EventKind.FOLD_EXIT:
            assert a.kind is ArcKind.SLIDING


def test_filippov_classifies_each_point_of_sigma_once(table1, monkeypatch):
    # the simulate trajectories from the benchmark's seed 1, at Table 1 and
    # at beta1*: each hit and each fold exit is classified once, by
    # _after_sigma, also when an X-arc follows a fold exit, whose fold-start
    # check reads only the fold line's rule (model._past_cusp); fold
    # launches classify nothing
    points = []
    classify = flow_mod.classify_sigma_point

    def counted(p, params, tol):
        points.append(tuple(p))
        return classify(p, params, tol=tol)

    monkeypatch.setattr(flow_mod, "classify_sigma_point", counted)
    starts = ((0.5715574303940261, 0.6730991227191068, 1.3990856495961026), (0.4733646538081723, 0.13442713013292387, 1.475657393209628))
    cfg = IntegratorConfig(t_max=400.0)
    on_sigma = (EventKind.SIGMA_CROSSING, EventKind.SIGMA_ENTRY_SLIDING, EventKind.FOLD_EXIT)
    calls = fold_exits_to_x = 0
    for params in (table1, table1.replace(beta1=7.7768748097)):
        for s0 in starts:
            points.clear()
            arcs = integrate_filippov(s0, cfg, params).arcs
            # one call a point, each the terminal state of an arc ending on Sigma
            ends = [tuple(arc.terminal_event.state[[0, -1]]) for arc in arcs if arc.terminal_event.kind in on_sigma]
            assert points == ends
            calls += len(points)
            fold_exits_to_x += sum(
                a.terminal_event.kind is EventKind.FOLD_EXIT and b.kind is ArcKind.SMOOTH_X for a, b in zip(arcs, arcs[1:])
            )
    assert (calls, fold_exits_to_x) == (251, 124)
    points.clear()
    integrate_fold_launches(np.linspace(0.05, 0.95, 20) * table1.tau, cfg, table1)
    assert not points


def test_filippov_sigma_events_verify_defining_equations(table1):
    cfg = IntegratorConfig(t_max=60.0)
    traj = integrate_filippov((1.2, 0.4, 1.0), cfg, table1)
    for arc in traj.arcs:
        ev = arc.terminal_event
        raw = arc.states[-1]
        if ev.kind in (EventKind.SIGMA_CROSSING, EventKind.SIGMA_ENTRY_SLIDING):
            assert abs(raw[0] - raw[1]) <= cfg.event_tol
        elif ev.kind is EventKind.FOLD_EXIT:
            assert abs(raw[1] - table1.phi) <= cfg.event_tol


def test_trajectory_export_shapes(table1):
    cfg = IntegratorConfig(t_max=25.0)
    traj = integrate_filippov((0.3, 0.3, table1.phi), cfg, table1)
    rows = trajectory_rows(traj)
    assert rows[0][:4] == (0.0, 0.3, 0.3, table1.phi)
    assert {r[4] for r in rows} >= {"SmoothX", "Sliding"}
    indices = [r[5] for r in rows]
    assert indices == sorted(indices)
    payload = events_payload(traj)
    assert payload[0]["kind"] == "SigmaEntrySliding"
    assert all(set(d) == {"kind", "t", "state"} for d in payload)


def test_filippov_solver_budget(table1, monkeypatch):
    """Every arc of a Filippov trajectory is one lane of the Taylor loop, and
    no fold launch runs; the budget counts the Taylor steps of all of them.
    That no scipy solver runs either, test_a_library_run_loads_no_scipy
    checks."""
    runs, launches = taylor_runs(monkeypatch), []
    launch = flow_mod.integrate_fold_launches

    def counted(*args, **kwargs):
        launches.append(args)
        return launch(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "integrate_fold_launches", counted)
    traj = integrate_filippov((1.2, 0.4, 1.0), IntegratorConfig(t_max=60.0), table1)
    assert len(traj.arcs) == 12
    assert all(len(run) == 1 for run in runs)
    assert not launches
    assert rounds(runs) <= 750


def test_filippov_raises_past_max_arcs(table1, monkeypatch):
    # the 12-arc trajectory of test_filippov_solver_budget, capped at 5 arcs
    monkeypatch.setattr(flow_mod, "_MAX_ARCS", 5)
    with pytest.raises(PreySwitchError, match="exceeded 5 arcs"):
        integrate_filippov((1.2, 0.4, 1.0), IntegratorConfig(t_max=60.0), table1)


def test_chattering_raises_on_the_fiftieth_switching_event(table1, cfg, monkeypatch):
    # every X-arc returns at once to the crossing point it starts from, so the
    # switching events pile up at one time
    calls = []

    def instant_return(piece, p0, t_start, cfg, params, series):
        calls.append(t_start)
        (state,) = p0
        record = flow_mod.EventRecord(EventKind.SIGMA_CROSSING, t_start, state)
        return [flow_mod.Arc(ArcKind.SMOOTH_X, t_start, t_start, np.array([t_start]), state[None], record, 0)]

    monkeypatch.setattr(flow_mod, "_smooth_lanes", instant_return)
    start = (0.5, 0.5, 0.3)
    assert classify_sigma_point((0.5, 0.3), table1) is RegionLabel.CROSSING
    with pytest.raises(ChatteringGuard):
        integrate_filippov(start, cfg, table1)
    assert len(calls) == 50


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda p, cfg: mu_point(NAN, p, cfg),
        lambda p, cfg: integrate_sliding((0.5, NAN), Direction.FORWARD, cfg, p),
        lambda p, cfg: integrate_smooth(Piece.X, (0.5, 0.3, NAN), Direction.FORWARD, cfg, p),
        lambda p, cfg: integrate_smooth(
            Piece.X, (-0.5, -0.6, 0.7), Direction.FORWARD, replace(cfg, t_max=5.0), p
        ),
        lambda p, cfg: integrate_filippov((0.5, 0.3, INF), cfg, p),
        lambda p, cfg: integrate_filippov((-0.5, 0.3, 0.7), replace(cfg, t_max=5.0), p),
    ],
    ids=["mu_point-nan", "sliding-nan", "smooth-nan", "smooth-negative", "filippov-inf", "filippov-negative"],
)
def test_non_finite_and_negative_starts_raise_domain_error(table1, cfg, call):
    with pytest.raises(DomainError):
        call(table1, cfg)


def test_filippov_without_predation_names_the_missing_pseudo_equilibrium(table1):
    # q1 = q2 = 0 leaves the sliding field no focus to capture arcs at: the
    # trajectory raises the named error, not a bare ZeroDivisionError
    params = table1.replace(q1=0.0, q2=0.0)
    with pytest.raises(NoInteriorPseudoEquilibrium, match="no interior pseudo-equilibrium"):
        integrate_filippov((1.2, 0.4, 1.0), IntegratorConfig(t_max=10.0), params)
