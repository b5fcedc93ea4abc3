import math
from dataclasses import replace
from functools import partial
from operator import sub

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
    NoReturn,
    Piece,
    RegionLabel,
    PreySwitchError,
    StepFailure,
    characteristic_time,
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
from conftest import draw_params, reference_field, reference_float_step, reference_series, rounds, taylor_runs


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
    for name in ("abs_tol", "event_tol", "max_step", "t_max", "norm_bound"):
        for value in (float("nan"), float("inf"), 0.0):
            with pytest.raises(DomainError, match=name):
                IntegratorConfig(**{name: value})
    assert IntegratorConfig(max_step=None).max_step is None
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
    assert characteristic_time(table1) == linearized

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
        flow_mod._taylor_lanes(ArcKind.SMOOTH_X, smooth_series(Piece.X, table1), p0, [], [], 1.0, 0.0, cfg)
    assert "e+200" in str(failure.value)  # the state of the lane that overflows


def test_blowup_raised(table1):
    cfg = IntegratorConfig(norm_bound=10.0, t_max=50.0)
    with pytest.raises(BlowUp):
        integrate_smooth(Piece.X, (2.0, 1.0, 0.001), Direction.FORWARD, cfg, table1)
    # the sliding spiral out of the focus passes norm 1.392 before its fold exit
    _, focus = pseudo_equilibria(table1)
    start = (focus.x, focus.z + 1e-3)
    free = integrate_sliding(start, Direction.FORWARD, IntegratorConfig(), table1)
    assert free.terminal_event.kind is EventKind.FOLD_EXIT
    assert np.max(np.hypot(*free.states.T)) > 1.392
    with pytest.raises(BlowUp) as err:
        integrate_sliding(start, Direction.FORWARD, IntegratorConfig(norm_bound=1.392), table1)
    t = float(str(err.value).rsplit("t = ", 1)[1])
    assert 0.0 < t < free.t1
    # a sliding or smooth start beyond the bound fails at once
    with pytest.raises(BlowUp, match="at t = 0.0"):
        integrate_sliding((2.0, 1.0), Direction.FORWARD, IntegratorConfig(norm_bound=1.0), table1)
    with pytest.raises(BlowUp, match="at t = 0.0"):
        integrate_smooth(
            Piece.X, (2.0, 1.0, 0.5), Direction.FORWARD, IntegratorConfig(norm_bound=1.0, t_max=5.0), table1
        )


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
            coefficients = series(lanes, 24)
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
                for first in (c[:, 1], np.array(series.rate(p.tolist()))):
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
    # structure.  The first six lanes are the points of ZEROS
    for params in structures(rng, table1):
        for sgn in (1.0, -1.0):
            for series, form in fields(params, sgn):
                dim = len(form[1])
                reference = reference_series(*form, sgn)
                zeros = np.array([planar(point, dim) for point in ZEROS]).T
                for k in LANE_COUNTS:
                    lanes = np.hstack((zeros, rng.uniform(0.01, 2.0, (dim, k - len(ZEROS)))))
                    together = series(lanes, 24)
                    assert isinstance(together, np.ndarray) and together.shape == (dim, 25, k)
                    alone = np.array([reference(lane, 24) for lane in lanes.T.tolist()])
                    assert np.array_equal(bits(together), bits(alone.transpose(1, 2, 0))), (dim, sgn, k)


@pytest.mark.lanes
def test_compiled_series_equal_the_interpreted_recurrence(rng, table1):
    # the lane recurrence on arrays takes the interpreted recurrence's
    # operations in its order, so it agrees with it bit for bit, for every
    # structure; the rate read from the form equals the interpreted order 1
    # on floats, sign bits included
    for params in structures(rng, table1):
        for sgn in (1.0, -1.0):
            for series, form in fields(params, sgn):
                dim = len(form[1])
                reference = reference_series(*form, sgn)
                for p in [planar(point, dim) for point in ZEROS] + rng.uniform(0.01, 2.0, (4, dim)).tolist():
                    rate = series.rate(p)
                    assert np.array_equal(bits(rate), bits([col[1] for col in reference(p, 1)])), (dim, sgn, p)
                for order in (0, 1, 2, 23, 24):
                    for k in LANE_COUNTS:
                        lanes = rng.uniform(0.01, 2.0, (dim, k))
                        assert np.array_equal(bits(series(lanes, order)), bits(reference(lanes, order))), (
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
    # X, Y and the sliding field both ways, for every structure, with and
    # without max_step, for a step clamped to t_max, and from a point whose
    # coefficients overflow
    cfgs = (IntegratorConfig(), IntegratorConfig(max_step=1e-3), IntegratorConfig(abs_tol=1e-8, t_max=2.0))
    for params in structures(rng, table1):
        for sgn in (1.0, -1.0):
            for series, form in fields(params, sgn):
                dim = len(form[1])
                points = [rng.uniform(0.01, 2.0, dim).tolist() for _ in range(6)]
                points += [[0.0, -0.0, 1.5][:dim], [0.5, 0.0, 1.5][:dim], [-0.0, 0.5, -0.0][:dim]]
                for p in points:
                    for cfg in cfgs:
                        for s in (0.0, 1.25, cfg.t_max - 1e-9):
                            fused = series.step(p, flow_mod._TAYLOR_ORDER, flow_mod._step_end, s, cfg)
                            reference = reference_float_step(form, sgn, p, s, cfg)
                            assert fused[:2] == reference[:2], (dim, sgn, p, cfg, s)
                            for x, y in zip(fused, reference):
                                assert np.array_equal(bits(x), bits(y)), (dim, sgn, p, cfg, s)
                    assert fused[0] == cfg.t_max  # the last step is clamped
    # a coefficient that is not finite, also one that a row without its own
    # term (x' = -w) does not carry to later orders, fails the step
    ((x_series, x_form), *_) = fields(table1, 1.0)
    w_form = ([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], (0.0, 1.0, 0.0), 1, 2)
    cases = ((x_series, x_form, [1e200, 0.0, 1e200]), (quadratic_series(*w_form), w_form, [math.inf, 1.0, 0.0]))
    for series, form, p in cases:
        assert series.step(p, 24, flow_mod._step_end, 0.0, IntegratorConfig()) is None
        assert reference_float_step(form, 1.0, p, 0.0, IntegratorConfig()) is None


@pytest.mark.lanes
def test_series_compile_once_per_structure_and_order(table1, monkeypatch):
    # the two generators, the float step and the lane loop, each compile one
    # program per structure and order, whatever the field's parameters or
    # sign.  A trajectory's 726 float steps take at most three step
    # programs, X, Y and the sliding field, every float step after a
    # field's first a hit of the cache; a find_shilnikov and the trajectory
    # ask both generators for order 24 alone, and nothing at order 1, whose
    # rates are read from the forms
    generators = {name: getattr(model_mod, name) for name in ("_taylor_step", "_lane_recurrence")}
    asked = []
    for name, generator in generators.items():
        generator.cache_clear()

        def recorded(*key, _name=name, _generator=generator):
            asked.append((_name, *key))
            return _generator(*key)

        monkeypatch.setattr(model_mod, name, recorded)
    traj = integrate_filippov((1.2, 0.4, 1.0), IntegratorConfig(t_max=400.0), table1)
    info = generators["_taylor_step"].cache_info()
    steps = sum(arc.steps for arc in traj.arcs)
    assert info.misses == info.currsize == len({arc.kind for arc in traj.arcs}) <= 3
    assert info.hits + info.misses == steps > 700
    find_shilnikov(table1, (0.994, 10.0), IntegratorConfig())
    assert {order for *_, order in asked} == {24}
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
        focus = pseudo_equilibria(table1)[1]
        flow_mod._sliding_lanes(starts, sgn, 0.0, cfg, table1, 1e-2, sliding_series(table1, sgn), focus)
    info = generators["_lane_recurrence"].cache_info()
    assert info.misses == info.currsize == 2
    assert info.hits + info.misses == len(array_rounds) > 8


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
    for name in ("_array_round", "_float_step"):

        def counted(*args, _step=getattr(flow_mod, name), _name=name):
            rounds.append(_name)
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
            series, focus = sliding_series(table1, sgn), pseudo_equilibria(table1)[1]
            together = flow_mod._sliding_lanes(starts, sgn, 0.0, cfg, table1, 1e-2, series, focus)
            taken = list(rounds)
            alone = [integrate_sliding(p, direction, cfg, table1, 1e-2) for p in starts]
        else:
            series = smooth_series(field, table1, sgn)
            together = flow_mod._smooth_lanes(field, starts, sgn, 0.0, cfg, table1, series)
            taken = list(rounds)
            alone = [integrate_smooth(field, p, Direction.FORWARD, cfg, table1) for p in starts]
        # array rounds first, then float steps for the last lanes
        array_rounds = taken.count("_array_round")
        assert array_rounds > 0 and "_array_round" not in taken[array_rounds:], (field, sgn)
        assert len(taken) > array_rounds, (field, sgn)
        # alone, every lane takes float steps only
        assert set(rounds[len(taken) :]) == {"_float_step"}
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
    # and x = x0 - t exactly
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
    together = flow_mod._taylor_lanes(ArcKind.SMOOTH_X, series, p0, [], [0], 1.0, 0.0, cfg)
    assert len(searched) == k
    alone = [flow_mod._taylor_lanes(ArcKind.SMOOTH_X, series, p[None], [], [0], 1.0, 0.0, cfg)[0] for p in p0]
    assert len(searched) == 2 * k
    for a, b in zip(together, alone):
        assert a.terminal_event.kind is b.terminal_event.kind is EventKind.HORIZON_REACHED
        assert a.steps == b.steps == 1
        assert np.array_equal(a.states, b.states) and a.states[-1, 0] > 0.0


def spread_test_only(self, p, a, spread, first, lane):
    """_Plane's float test without its signed test: g_0 > (1 + 1e-9) times
    the spreads of its coordinates, and never on a tangent lane's first
    step."""
    if first and self.contact and self.contact[lane]:
        return False
    g0, bound = p[self.i], spread[self.i]
    if self.j is not None:
        g0 -= p[self.j]
        bound += spread[self.j]
    return self.side * (g0 - self.level) > (1.0 + 1e-9) * bound


def plane_test_untangent(self, p, a, spread, first, lane, _clears=flow_mod._Plane.clears):
    """_Plane's float test as it was before it tested a tangent lane's first
    step: never there, and elsewhere the spread test, then the signed one."""
    if first and self.contact and self.contact[lane]:
        return False
    return _clears(self, p, a, spread, first, lane)


def ball_enclosure_only(self, p, a, spread, first, lane):
    """_Ball's float test without its signed bound: the step's enclosure
    stays out of the radius."""
    return self._far(math.dist(p, self.centre), sum(spread))


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
    # coefficient from below, so the row has no root
    a = [[0.5, 1.0, -0.2, 0.1] + [0.0] * (flow_mod._TAYLOR_ORDER - 3)]
    spread = [sum(map(abs, a[0][1:]))]
    plane = flow_mod._Plane(EventKind.DOMAIN_EXIT, 0)
    assert not spread_test_only(plane, [0.5], a, spread, False, 0)
    assert plane.clears([0.5], a, spread, False, 0)
    assert cleared_at_first_test(np.array(a[0]))
    # 1 - x, which x = 1.4 at u = 1 makes fall through zero, is not cleared
    assert not flow_mod._Plane(EventKind.DOMAIN_EXIT, 0, level=1.0, side=-1.0).clears([0.5], a, spread, False, 0)
    # on a tangent lane's first step the test reads the row with the contact
    # divided out, as rows forms it: x/u = 1 - 0.2 u + 0.1 u**2 and
    # x/u**3 = 0.1 are cleared; x/u**2 = -0.2 + 0.1 u, clamped to 0.1 u,
    # is not, since its bound 0 lies inside the margin, though _first_root
    # clears it at its first test, where b_0 = 0 is allowed
    for contact, cleared in ((1, True), (2, False), (3, True)):
        tangent = flow_mod._Plane(EventKind.DOMAIN_EXIT, 0, contact=(contact,))
        (g,) = tangent.rows(np.array([a]), True, [0])
        assert tangent.clears([0.5], a, spread, True, 0) is cleared, contact
        assert cleared_at_first_test(g), contact
        assert tangent.clears([0.5], a, spread, False, 0), contact
    # a bound inside the array round's margin 1e-13*sum |g_k| is not enough
    a = [[1.0 + 1e-14, -1.0] + [0.0] * (flow_mod._TAYLOR_ORDER - 1)]
    assert not plane.clears([a[0][0]], a, [1.0], False, 0)
    # tangent first steps of Sigma from the fold, h/u**2 for X and -h/u**2
    # for Y, and of the fold line, (z - z0)/u, on random steps whose divided
    # row starts at 0 to 4 times the size of its other coefficients: every
    # row the test clears, _first_root clears at its first test, and the
    # test clears more than a fifth of them
    planes = [
        flow_mod._Plane(EventKind.SIGMA_CROSSING, 0, 1, side=side, contact=(2,), snap=True) for side in (1.0, -1.0)
    ]
    planes.append(flow_mod._Plane(EventKind.FOLD_EXIT, 1, level=0.7, contact=(1,), snap=True))
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
        if plane.clears([col[0] for col in a], a, spread, True, 0):
            cleared += 1
            assert cleared_at_first_test(g), (k, a)
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
    assert not ball_enclosure_only(ball, [1.0, 0.0], a, spread, False, 0)
    assert ball.clears([1.0, 0.0], a, spread, False, 0)
    (g,) = ball.rows(np.array([a]), False, [0])
    assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None
    # at s = (1 - 0.25 u**2, u) the bound 1 - 0.5 lies 1e-14 above r**2, inside
    # its margin: a rounding-scale margin is not enough to clear the row, as
    # with the plane's 1 + 1e-14
    a[0][2] = -0.25
    ball = flow_mod._Ball(EventKind.FOCUS_CAPTURE, (0.0, 0.0), math.sqrt(0.5 - 1e-14))
    assert not ball.clears([1.0, 0.0], a, [0.25, 1.0], False, 0)
    # steps of the sliding field's size about a focus at random: every row
    # the bound clears and the enclosure does not has no root for
    # _first_root, and the bound clears some of them
    cleared = 0
    for k in range(2000):
        a, spread = random_step(rng, 2, lead=rng.uniform(0.2, 2.0))
        centre = tuple(rng.uniform(-0.5, 0.5, 2).tolist())
        p = [col[0] for col in a]
        dist = math.dist(p, centre)
        ball = flow_mod._Ball(EventKind.FOCUS_CAPTURE, centre, dist * rng.uniform(0.05, 0.95))
        if ball_enclosure_only(ball, p, a, spread, False, 0) or not ball.clears(p, a, spread, False, 0):
            continue
        cleared += 1
        (g,) = ball.rows(np.array([a]), False, [0])
        assert flow_mod._first_root(g, flow_mod._TO_BERNSTEIN @ g) is None, (k, a, centre, ball.radius)
    assert cleared > 100


SEED1_STARTS = ((0.5715574303940261, 0.6730991227191068, 1.3990856495961026), (0.4733646538081723, 0.13442713013292387, 1.475657393209628))


@pytest.mark.lanes
def test_signed_plane_test_leaves_filippov_arcs_bit_identical(table1, monkeypatch):
    # the simulate trajectories from the benchmark's seed 1 at Table 1: the
    # signed test clears rows whose spread test fails, which _first_root
    # would clear at its first test, so each arc is the one it is without it
    searches = []
    first_root = flow_mod._first_root

    def counted(a, b):
        searches.append(1)
        return first_root(a, b)

    monkeypatch.setattr(flow_mod, "_first_root", counted)
    cfg = IntegratorConfig(t_max=400.0)
    signed = [integrate_filippov(s0, cfg, table1) for s0 in SEED1_STARTS]
    with_signed = len(searches)
    monkeypatch.setattr(flow_mod._Plane, "clears", spread_test_only)
    plain = [integrate_filippov(s0, cfg, table1) for s0 in SEED1_STARTS]
    assert with_signed < len(searches) - with_signed
    for a, b in zip(signed, plain):
        assert len(a.arcs) == len(b.arcs) > 50
        for x, y in zip(a.arcs, b.arcs):
            assert (x.kind, x.steps, x.terminal_event.kind, x.t1) == (y.kind, y.steps, y.terminal_event.kind, y.t1)
            assert np.array_equal(bits(x.ts), bits(y.ts)) and np.array_equal(bits(x.states), bits(y.states))


@pytest.mark.lanes
def test_ball_bound_and_tangent_test_leave_simulate_arcs_bit_identical(table1, monkeypatch):
    # the simulate trajectories from the benchmark's seed 1, at Table 1 and
    # at beta1*: the ball's signed bound and the plane's test of a tangent
    # first step clear rows that _first_root finds no root in, so every arc
    # and its record are the ones they are without them, and the float
    # path's root searches fall from 605 to at most 400
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
    monkeypatch.setattr(flow_mod._Plane, "clears", plane_test_untangent)
    monkeypatch.setattr(flow_mod._Ball, "clears", ball_enclosure_only)
    old = [integrate_filippov(s0, cfg, params) for params, s0 in runs]
    assert (with_new, len(searches) - with_new) <= (400, 605) and len(searches) - with_new == 605
    for a, b in zip(new, old):
        assert len(a.arcs) == len(b.arcs) > 30
        for x, y in zip(a.arcs, b.arcs):
            assert (x.kind, x.steps, x.t0, x.t1) == (y.kind, y.steps, y.t0, y.t1)
            assert np.array_equal(bits(x.ts), bits(y.ts)) and np.array_equal(bits(x.states), bits(y.states))
            ex, ey = x.terminal_event, y.terminal_event
            assert (ex.kind, ex.t) == (ey.kind, ey.t) and np.array_equal(bits(ex.state), bits(ey.state))


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
    pseudo = flow_mod.pseudo_equilibria

    def located(params):
        foci.append(params)
        return pseudo(params)

    monkeypatch.setattr(flow_mod, "pseudo_equilibria", located)
    for s0, t_max, arcs in (((1.2, 0.4, 1.0), 60.0, 12), (SEED1_STARTS[0], 400.0, 51)):
        forms.clear()
        foci.clear()
        traj = integrate_filippov(s0, IntegratorConfig(t_max=t_max), table1)
        assert len(traj.arcs) >= arcs
        assert {arc.kind for arc in traj.arcs} >= {ArcKind.SMOOTH_X, ArcKind.SLIDING}
        assert (len(forms), len(foci)) == (3, 1)


def test_sliding_steps_obey_an_explicit_max_step(table1):
    cfg = IntegratorConfig(max_step=0.05)
    for start, direction in (
        ((0.5 * table1.tau, table1.phi), Direction.BACKWARD),
        ((table1.tau, table1.phi), Direction.FORWARD),
    ):
        arc = integrate_sliding(start, direction, cfg, table1)
        assert arc.steps == len(arc.ts) - 1 > 20
        assert np.max(np.abs(np.diff(arc.ts))) <= 0.05


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
        if (flow_mod._horner(a, lo) < 0.0) == (flow_mod._horner(a, hi) < 0.0):
            continue
        cases += 1
        # a zero at an end, which both return at once: p(0) = 0
        ends = [(lo, hi), (0.0, hi), (-hi, 0.0)] if cases % 100 == 0 else [(lo, hi)]
        for lo, hi in ends:
            if lo == 0.0 or hi == 0.0:
                a[0] = 0.0
            f = partial(flow_mod._horner, a)
            assert flow_mod._brent(a, lo, hi) == brentq(f, lo, hi, xtol=tol, rtol=tol)


def test_brent_raises_step_failure_when_it_does_not_converge():
    # from an infinite end the iterates turn NaN and never narrow
    with pytest.raises(StepFailure, match="did not converge"):
        flow_mod._brent([-0.3, 1.0], 0.0, float("inf"))


def tight_dop853(f, start, t_max, params, events):
    """End of f's flow from start by DOP853 at rel_tol 1e-13, with a fifth
    of the planar center's default cap, at the first of ``events`` (each
    falling through zero) or the horizon: the index of the event that fired,
    or None, and the end state."""
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
        max_step=0.002 * characteristic_time(params),
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


def test_integrations_reject_a_start_time_that_is_not_finite(table1, cfg):
    # an arc from t_start = nan or inf would have every time NaN or infinite
    for t_start in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t_start"):
            integrate_smooth(Piece.X, (1.2, 0.4, 1.0), Direction.FORWARD, cfg, table1, t_start=t_start)
        with pytest.raises(DomainError, match="t_start"):
            integrate_sliding((0.3, table1.phi + 0.2), Direction.FORWARD, cfg, table1, t_start=t_start)


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

    def instant_return(piece, p0, sgn, t_start, cfg, params, series):
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
