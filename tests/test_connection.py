import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from preyswitch import (
    ArcKind,
    Direction,
    DomainError,
    EventKind,
    FocusLanding,
    IdentityInfeasible,
    InequalityViolated,
    Lemma2Violation,
    MuCurve,
    MultipleRoots,
    NoBracket,
    NoReturn,
    OrbitEscaped,
    PreySwitchError,
    RegionLabel,
    SameSign,
    TangencyAmbiguity,
    VerificationFailure,
    build_N_point,
    classify_sigma_point,
    coarse_mu_curve,
    distance_to_connection,
    distances_to_connection,
    find_shilnikov,
    first_integral_F,
    fixed_point_brackets,
    integrate_filippov,
    integrate_sliding,
    lemma1_asymptotics_report,
    lie_derivatives,
    mu_curve,
    mu_point,
    pseudo_equilibria,
    return_map_sample,
    validate_parameters,
    verify_connection,
)
from preyswitch import connection as connection_mod
from conftest import rounds, taylor_runs


def pi_map(s, params, cfg):
    u, v = mu_point(s, params, cfg)
    arc = integrate_sliding((u, v), Direction.FORWARD, cfg, params, focus_capture_radius=0.0)
    assert arc.terminal_event.kind is EventKind.FOLD_EXIT
    return float(arc.terminal_event.state[0])


def test_mu_point_cusp_expansion(table1, cfg):
    tau, phi = table1.tau, table1.phi
    slopes = {}
    for eps in (1e-3, 5e-4):
        u, v = mu_point(tau - eps, table1, cfg)
        slopes[eps] = (u - tau) / eps
        assert abs(slopes[eps] - 2.0) / 2.0 <= 0.05
        assert abs(v - phi) / eps <= 0.01
    assert abs(slopes[5e-4] - 2.0) < abs(slopes[1e-3] - 2.0)


def test_mu_point_small_r2_law(table1, cfg):
    report = lemma1_asymptotics_report(table1, cfg)
    assert report.slope_pass and report.v_ratio_pass and report.coeff_pass
    assert report.passed
    assert report.coeff_rel_err <= 0.02
    payload = report.payload()
    assert payload["passed"] is True


def test_mu_point_lands_in_sliding_region(table1, cfg):
    for frac in (0.1, 0.25, 0.4):
        u, v = mu_point(frac * table1.tau, table1, cfg)
        assert classify_sigma_point((u, v), table1) is RegionLabel.SLIDING
        assert v > table1.r1


def test_mu_point_errors(table1, cfg):
    with pytest.raises(DomainError):
        mu_point(0.0, table1, cfg)
    with pytest.raises(TangencyAmbiguity):
        mu_point(table1.tau, table1, cfg)
    with pytest.raises(TangencyAmbiguity):
        mu_point(1.5 * table1.tau, table1, cfg)
    with pytest.raises(NoReturn):
        mu_point(0.3 * table1.tau, table1, replace(cfg, t_max=0.5))


def filippov_return(x0, params, cfg):
    """(u, v) where the Filippov trajectory from the fold point (x0, x0, phi)
    first returns to Sigma, or None where it slides first."""
    traj = integrate_filippov((x0, x0, params.phi), replace(cfg, t_max=5.0), params)
    if traj.arcs[0].kind is ArcKind.SLIDING:
        return None
    ev = traj.arcs[0].terminal_event
    assert ev.kind in (EventKind.SIGMA_ENTRY_SLIDING, EventKind.SIGMA_CROSSING), ev.kind
    return ev.state[0], ev.state[2]


@pytest.mark.parametrize(
    "launch, ratio",
    [
        pytest.param(mu_point, 1e-5, id="1e-05"),
        pytest.param(mu_point, 1e-8, id="1e-08"),
        pytest.param(filippov_return, 0.0, id="filippov-0"),
        pytest.param(filippov_return, 1e-5, id="filippov-1e-05"),
        pytest.param(filippov_return, 1e-8, id="filippov-1e-08"),
    ],
)
def test_mu_point_near_cusp_answers_within_1000_steps(table1, cfg, monkeypatch, launch, ratio):
    # fold launches and Filippov arcs alike run through the Taylor loop,
    # counted by its rounds
    runs = taylor_runs(monkeypatch)
    tau = table1.tau
    eps = ratio * tau
    try:
        landing = launch(tau - eps, table1, cfg)
    except TangencyAmbiguity:
        assert ratio > 0.0
    else:
        if ratio == 0.0:
            # from the cusp itself, where the sliding z-rate vanishes, the
            # Filippov trajectory slides, as integrate_sliding does from there
            assert landing is None
        else:
            # Lemma 1: u(tau - eps) = tau + 2*eps + O(eps^2), v - phi = O(eps^2)
            u, v = landing
            assert abs((u - tau) / eps - 2.0) <= 0.05
            assert abs(v - table1.phi) / eps <= 0.01
    steps = rounds(runs)
    assert 1 <= steps <= 1000
    if launch is filippov_return:
        # every X-arc stays on or above Sigma, also one whose return raised
        for arc in (arc for run in runs for arc in run if arc.kind is ArcKind.SMOOTH_X):
            assert np.min(arc.states[:, 0] - arc.states[:, 1]) >= -cfg.event_tol


def test_mu_curve_window_and_classification(table1, cfg):
    tau = table1.tau
    grid = np.linspace(0.1 * tau, 0.999 * tau, 200)
    curve = mu_curve(grid, table1, cfg)
    assert len(curve) == 200
    # the nodes before u first reaches tau, more than 50, land in the
    # sliding region above r1
    n = int(np.argmax(curve.us >= tau))
    assert n > 50 and curve.us[n] >= tau
    for i in range(n):
        assert curve.vs[i] > table1.r1
        assert 0.0 < curve.us[i] < tau
        assert classify_sigma_point((curve.us[i], curve.vs[i]), table1) is RegionLabel.SLIDING
        Xh, Yh, _ = lie_derivatives((curve.us[i], curve.vs[i]), table1)
        assert Xh < 0.0 < Yh


def test_coarse_curve_nodes_equal_lone_launches(coarse_curve, table1, cfg):
    # each lane takes its own steps, so a node is its lone launch bit for bit
    lone = np.array([mu_point(x0, table1, cfg) for x0 in coarse_curve.x0s])
    assert np.array_equal(coarse_curve.us, lone[:, 0])
    assert np.array_equal(coarse_curve.vs, lone[:, 1])


def test_mu_curve_is_beta_free(table1, table1_b10, cfg):
    grid = np.linspace(0.1 * table1.tau, 0.5 * table1.tau, 12)
    c1 = mu_curve(grid, table1, cfg)
    c2 = mu_curve(grid, table1_b10, cfg)
    assert np.max(np.abs(c1.us - c2.us)) <= 1e-12
    assert np.max(np.abs(c1.vs - c2.vs)) <= 1e-12


def test_mu_curve_empty_and_bad_grids(table1, cfg):
    assert len(mu_curve([], table1, cfg)) == 0
    with pytest.raises(DomainError):
        mu_curve([0.5, 0.4], table1, cfg)
    with pytest.raises(TangencyAmbiguity) as err:
        mu_curve([0.3, 2.0 * table1.tau], table1, cfg)
    assert "node x0" in str(err.value)


def test_distance_sign_reproduces_figure_configurations(table1, table1_b10, cfg, coarse_curve):
    D1, x01 = distance_to_connection(table1, cfg, coarse_curve)
    assert D1 > 0.0
    assert 0.0 < x01 < table1.tau
    D2, x02 = distance_to_connection(table1_b10, cfg, coarse_curve)
    assert D2 < 0.0
    assert 0.0 < x02 < table1_b10.tau


def test_distance_matched_point_hits_focus_abscissa(table1, cfg, coarse_curve):
    _, focus = pseudo_equilibria(table1)
    _, x0 = distance_to_connection(table1, cfg, coarse_curve)
    u, _ = mu_point(x0, table1, cfg)
    assert u == pytest.approx(focus.x, abs=1e-10)


def test_distance_no_bracket(table1, cfg):
    # synthetic coarse curves on which x_c(0.994) = 0.93 is never reached: u
    # stays below it, or it is crossed only on a pair whose second node has
    # v <= r1
    _, focus = pseudo_equilibria(table1)
    x0s = np.linspace(0.2, 0.5, 6)
    for us, vs in (
        ([0.40, 0.50, 0.60, 0.70, 0.80, 0.90], [2.0] * 6),
        ([0.70, 0.75, 0.80, 0.85, 0.90, 1.00], [2.0] * 5 + [0.5 * table1.r1]),
    ):
        assert max(us[:5]) < focus.x
        curve = MuCurve(x0s=x0s, us=np.array(us), vs=np.array(vs), params=table1)
        with pytest.raises(NoBracket):
            distance_to_connection(table1, cfg, curve)


@pytest.mark.parametrize("order", [1, -1])
def test_distance_at_an_exact_node_hit(table1, cfg, monkeypatch, order):
    # a node exactly at x_c lies on one half-open node pair whichever way u
    # runs through it, and is the match itself, without a launch
    runs = taylor_runs(monkeypatch)
    _, focus = pseudo_equilibria(table1)
    x0s = np.linspace(0.2, 0.5, 5)
    us = np.array([0.80, 0.85, focus.x, 0.98, 1.0])[::order]
    curve = MuCurve(x0s=x0s, us=us, vs=np.full(5, 2.0), params=table1)
    assert distance_to_connection(table1, cfg, curve) == (2.0 - focus.z, 0.35)
    assert runs == []


# a draw whose first coarse node is the only one with u < tau: x_c lies
# between it and node 1, whose u exceeds tau and whose v exceeds r1
ONE_NODE = dict(r1=0.7138, r2=0.1563, a_q=1.3517, q1=0.2468, q2=0.5493, beta2=2.41, m=0.06, e=1.9311)


def test_distances_match_next_to_a_lone_node_below_tau(cfg):
    params = [validate_parameters(beta1=b, **ONE_NODE) for b in (0.4665, 0.07775)]
    curve = coarse_mu_curve(params[0], cfg)
    tau, r1 = params[0].tau, params[0].r1
    assert curve.us[0] < tau < curve.us[1] and min(curve.vs[:2]) > r1
    for p, (D, x0) in zip(params, distances_to_connection(params, cfg, curve)):
        _, focus = pseudo_equilibria(p)
        assert curve.us[0] < focus.x < curve.us[1]
        assert curve.x0s[0] < x0 < curve.x0s[1]
        u, v = mu_point(x0, p, cfg)
        assert abs(u - focus.x) <= 1e-10 and v > r1
        assert D == pytest.approx(v - focus.z, abs=1e-10)


def test_distance_lemma2_violation(table1, cfg, coarse_curve):
    bad = table1.replace(m=25.0)
    with pytest.raises(Lemma2Violation):
        distance_to_connection(bad, cfg, replace(coarse_curve, params=bad))


def test_distance_multiple_roots_reported(table1, cfg):
    # synthetic non-monotone coarse curves around the focus abscissa
    _, focus = pseudo_equilibria(table1)
    assert 0.9 < focus.x < 1.0
    x0s = np.linspace(0.2, 0.5, 6)
    vs = np.full(6, 2.0)
    for us in ([0.85, 1.00, 0.88, 1.02, 1.03, 1.04], [0.90, 0.92, 0.91, 1.00, 1.02, 1.04]):
        curve = MuCurve(x0s=x0s, us=np.array(us), vs=vs, params=table1)
        with pytest.raises(MultipleRoots):
            distance_to_connection(table1, cfg, curve)


def test_distances_agree_with_brentq_on_lone_launches(table1, cfg, coarse_curve):
    # the rows are matched together on stacked lanes; each must agree with an
    # independent Brent search whose every evaluation is a lone launch.  x_c
    # of 0.01 and 0.1 lies between node 22, the last with u < tau, and node
    # 23, whose u exceeds tau: they are matched on that pair
    betas = (0.01, 0.1, 2.0, 5.0, 7.5, 9.8)
    us, vs = coarse_curve.us, coarse_curve.vs
    assert np.all((us[:23] > 0.0) & (us[:23] < table1.tau) & (vs[:23] > table1.r1))
    assert us[22] < table1.tau < us[23]
    rows = distances_to_connection([table1.replace(beta1=b) for b in betas], cfg, coarse_curve)
    assert all(coarse_curve.x0s[22] < x0 < coarse_curve.x0s[23] for _, x0 in rows[:2])
    for beta1, (D, x0) in zip(betas, rows):
        _, focus = pseudo_equilibria(table1.replace(beta1=beta1))
        us = coarse_curve.us - focus.x
        j = next(j for j in range(len(us) - 1) if (us[j] < 0.0) != (us[j + 1] < 0.0))
        x_ref = brentq(
            lambda x: mu_point(x, table1, cfg)[0] - focus.x,
            coarse_curve.x0s[j],
            coarse_curve.x0s[j + 1],
            xtol=1e-13,
        )
        assert abs(x0 - x_ref) <= 1e-10
        assert abs(D - (mu_point(x_ref, table1, cfg)[1] - focus.z)) <= 1e-10
    assert distance_to_connection(table1.replace(beta1=5.0), cfg, coarse_curve)[0] == pytest.approx(
        rows[3][0], abs=1e-10
    )


def test_distances_solver_call_budget(table1, cfg, coarse_curve, monkeypatch):
    # each iteration matching all 32 rows together is one call of the Taylor
    # loop; with the Illinois weight instead of Anderson and Bjorck's it took 5
    runs = taylor_runs(monkeypatch)
    params = [table1.replace(beta1=b) for b in np.linspace(1.2, 9.8, 32)]
    rows = distances_to_connection(params, cfg, coarse_curve)
    assert not any(isinstance(row, PreySwitchError) for row in rows)
    assert len(runs) <= 4


def test_root_solver_fails_a_raising_bracket_alone(table1, cfg, coarse_curve, monkeypatch):
    # three brackets of u = x_c solved together, the middle one's residual
    # raising at every iterate: it fails alone, and the other two match as
    # they do without it
    runs = taylor_runs(monkeypatch)
    brackets, xcs = [], []
    for beta1 in (2.0, 5.0, 7.5):
        x_c = pseudo_equilibria(table1.replace(beta1=beta1))[1].x
        d = coarse_curve.us - x_c
        j = next(j for j in range(len(d) - 1) if (d[j] < 0.0) != (d[j + 1] < 0.0))
        brackets.append((lambda u, v, x_c=x_c: u - x_c, coarse_curve.node(j), coarse_curve.node(j + 1)))
        xcs.append(x_c)

    def raising(u, v):
        if u not in coarse_curve.us:
            raise Lemma2Violation(f"no repulsive focus at u = {u}")
        return u - xcs[1]

    brackets[1] = (raising, *brackets[1][1:])
    out = connection_mod._solve_on_curve(brackets, cfg, table1)
    assert isinstance(out[1], Lemma2Violation) and len(runs) >= 2
    alone = connection_mod._solve_on_curve(brackets[::2], cfg, table1)
    for x_c, (root, far), ends_alone in zip(xcs[::2], out[::2], alone):
        assert abs(root[1] - x_c) <= abs(far[1] - x_c) and abs(root[1] - x_c) <= 1e-10
        assert (root[1] - x_c) * (far[1] - x_c) <= 0.0
        assert abs(root[0] - far[0]) <= 1e-12 + 4.0 * np.finfo(float).eps * root[0]
        # a lane does not depend on the other lanes of its call
        assert abs(root[0] - ends_alone[0][0]) <= 1e-14


def test_root_solver_closes_at_an_exact_zero(table1, cfg, coarse_curve, monkeypatch):
    # an end where r = 0 exactly is the root, and its bracket is that point
    runs = taylor_runs(monkeypatch)
    a, b = coarse_curve.node(3), coarse_curve.node(4)
    (out,) = connection_mod._solve_on_curve([(lambda u, v: u - b[1], a, b)], cfg, table1)
    assert out == (b, b) and runs == []


def test_distance_fails_a_bracket_open_past_max_iterations(table1, cfg, coarse_curve, monkeypatch):
    # one regula falsi iterate does not close the bracket at beta1 = 5
    monkeypatch.setattr(connection_mod, "_MAX_ITER", 1)
    with pytest.raises(PreySwitchError, match="no root within 1 iterations"):
        distance_to_connection(table1.replace(beta1=5.0), cfg, coarse_curve)


def test_distance_rejects_curve_of_other_x_flow(table1, table1_b10, cfg, coarse_curve):
    # beta1 and beta2 leave the X-flow alone; r1, r2, m and e*q1 do not
    curve = replace(coarse_curve, params=table1_b10.replace(beta2=2.0))
    same = distance_to_connection(table1, cfg, coarse_curve)
    assert distance_to_connection(table1, cfg, curve) == same
    for change in ({"r1": 0.9}, {"r2": 0.1}, {"m": 0.8}, {"q1": 0.7}):
        with pytest.raises(DomainError):
            distance_to_connection(table1.replace(**change), cfg, coarse_curve)


def test_find_shilnikov_certificate(connection, table1):
    cert, _ = connection
    assert 0.994 < cert.beta1_star < 10.0
    assert cert.bracket_width is not None and cert.bracket_width <= 1e-6
    assert abs(cert.residual_D) <= 1e-9
    assert cert.forward_error <= 1e-6
    assert cert.backward_captured and cert.capture_radius == 1e-4
    assert cert.x_star is not None and cert.x_star < cert.x0
    assert cert.params.beta1 == cert.beta1_star
    payload = cert.payload()
    assert payload["params"]["r1"] == table1.r1
    assert payload["bracket_width"] == cert.bracket_width


def test_find_shilnikov_same_sign(table1, cfg):
    with pytest.raises(SameSign):
        find_shilnikov(table1, (0.994, 2.0), cfg)
    with pytest.raises(SameSign):
        find_shilnikov(table1, (5.0, 5.0), cfg)
    # G changes sign between the node at beta1 = 11.5 and the in-range node
    # at 7.56, but its root beta1* = 7.777 lies above the range
    with pytest.raises(SameSign) as err:
        find_shilnikov(table1, (0.994, 7.6), cfg)
    assert "outside the range" in str(err.value)


def test_find_shilnikov_rejects_a_non_finite_range(table1, cfg):
    # NaN and infinity fail lo < hi like an empty range, but are not one
    for beta1_range in ((math.nan, 10.0), (math.inf, 10.0), (-math.inf, 10.0), (0.994, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            find_shilnikov(table1, beta1_range, cfg)


def test_find_shilnikov_multiple_sign_changes(table1, cfg, monkeypatch):
    # a synthetic coarse curve whose G changes sign on two node pairs inside
    # the range (0.994, 10), where x_c runs from 0.93 down to 0.63
    us = np.array([0.70, 0.75, 0.80, 0.85, 0.90])
    betas = [connection_mod._beta1_with_focus_at(u, table1) for u in us]
    zs = [pseudo_equilibria(table1.replace(beta1=b))[1].z for b in betas]
    vs = np.array(zs) + np.array([0.1, -0.1, 0.1, 0.1, 0.1])
    curve = MuCurve(x0s=np.linspace(0.2, 0.5, 5), us=us, vs=vs, params=table1)
    monkeypatch.setattr(connection_mod, "coarse_mu_curve", lambda params, cfg: curve)
    with pytest.raises(MultipleRoots):
        find_shilnikov(table1, (0.994, 10.0), cfg)


def test_find_shilnikov_lemma2_violation_reports_iterate(table1, cfg):
    with pytest.raises(Lemma2Violation) as err:
        find_shilnikov(table1.replace(m=25.0), (0.994, 10.0), cfg)
    assert "beta1" in str(err.value)


def test_find_shilnikov_is_independent_of_the_range(connection, table1, cfg):
    cert, _ = connection
    assert abs(cert.beta1_star - 7.7768748097) <= 1e-9
    # the focus abscissae of beta1 = 0.1 and 0.01 lie between node 22 and
    # node 23, whose u exceeds tau; that pair alone matches them
    for beta1_range in ((1.2, 9.4), (1.5, 9.0), (0.1, 10.0), (0.01, 10.0)):
        other = find_shilnikov(table1, beta1_range, cfg)
        assert abs(other.beta1_star - 7.7768748097) <= 1e-9
        assert abs(other.beta1_star - cert.beta1_star) <= 1e-9
        assert other.bracket_width <= 1e-6


def test_find_shilnikov_matches_an_end_where_the_neighbour_node_is_undefined(
    connection, table1, cfg, coarse_curve, monkeypatch
):
    # past beta1 = 64.5 (the node at x0 = 0.222) the coarse curve crosses the
    # pole of beta1(u), and the next node has beta1(u) < 0: the end 100 is
    # then matched on that node pair
    cert, _ = connection
    betas = [connection_mod._beta1_with_focus_at(u, table1) for u in coarse_curve.us]
    assert betas[8] < 0.0 and 64.0 < betas[9] < 100.0
    calls = []
    solve = connection_mod._solve_on_curve

    def recorded(brackets, cfg, params):
        calls.append(brackets)
        return solve(brackets, cfg, params)

    monkeypatch.setattr(connection_mod, "_solve_on_curve", recorded)
    other = find_shilnikov(table1, (0.994, 100.0), cfg)
    x_c = pseudo_equilibria(table1.replace(beta1=100.0))[1].x
    # one solve matches u = x_c on nodes 8 and 9, and the next finds G's root
    [[(r, a, b)], [_]] = calls
    assert (r(x_c, 1.0), r(1.0, 2.0)) == (0.0, 1.0 - x_c)
    assert (a[0], b[0]) == (coarse_curve.x0s[8], coarse_curve.x0s[9])
    assert abs(other.beta1_star - cert.beta1_star) <= 1e-9


def test_find_shilnikov_fold_launch_budget(table1, cfg, monkeypatch):
    # every fold launch goes through integrate_fold_launches, each lane
    # counting as one launch, and every call of it with a lane to run through
    # one call of the Taylor loop (that no scipy solver runs,
    # test_a_library_run_loads_no_scipy checks)
    runs, lanes, launch_runs = taylor_runs(monkeypatch), [], []
    launch = connection_mod.integrate_fold_launches

    def counted_launches(x0s, cfg, params):
        lanes.extend(x0s)
        before = len(runs)
        out = launch(x0s, cfg, params)
        launch_runs.extend(runs[before:])
        return out

    monkeypatch.setattr(connection_mod, "integrate_fold_launches", counted_launches)
    find_shilnikov(table1, (0.994, 10.0), cfg)
    assert len(lanes) >= 48  # the coarse curve's lanes were counted
    assert len(launch_runs) <= 12
    assert sum(len(run) for run in launch_runs) == len(lanes) <= 60


def test_find_shilnikov_step_budget(table1, cfg, monkeypatch):
    # the Taylor loop's rounds: the fold launches' plus the steps of the
    # certificate's two sliding arcs; with the launches by DOP853 the search
    # took 630 steps, and with those arcs by DOP853 too, capped at 0.01 of
    # the pseudo-focus's period, 1,251, and capped at 0.01 of the planar
    # center's, 2,058
    runs, arcs = taylor_runs(monkeypatch), []
    sliding = connection_mod.integrate_sliding

    def recorded(*args, **kwargs):
        arcs.append(sliding(*args, **kwargs))
        return arcs[-1]

    monkeypatch.setattr(connection_mod, "integrate_sliding", recorded)
    find_shilnikov(table1, (0.994, 10.0), cfg)
    assert len(arcs) == 2
    assert rounds(runs) <= 1500


def test_verify_connection_at_certificate(connection, cfg):
    cert, _ = connection
    again = verify_connection(cert.params, cert.x0, cfg)
    assert again.forward_error <= 1e-6
    assert again.x_star == pytest.approx(cert.x_star, rel=1e-9)


def test_verify_connection_fails_off_connection(table1, cfg, coarse_curve):
    _, x0 = distance_to_connection(table1, cfg, coarse_curve)
    with pytest.raises(VerificationFailure) as err:
        verify_connection(table1, x0, cfg)
    assert "forward landing" in str(err.value)


def test_verify_connection_rejects_bad_x0(table1, cfg):
    with pytest.raises(DomainError):
        verify_connection(table1, -0.5, cfg)
    with pytest.raises(DomainError):
        verify_connection(table1, 2.0 * table1.tau, cfg)


def test_f_level_consistency_at_connection(connection):
    cert, _ = connection
    params = cert.params
    F_fold = first_integral_F((cert.x0, params.phi), params)
    F_focus = first_integral_F((cert.focus.x, cert.focus.z), params)
    assert abs(F_fold - F_focus) <= 1e-8


def test_distance_is_continuous_in_beta1_near_root(connection, table1, cfg, coarse_curve):
    cert, _ = connection
    D0, _ = distance_to_connection(table1.replace(beta1=cert.beta1_star), cfg, coarse_curve)
    diffs = []
    for delta in (8e-4, 4e-4, 2e-4):
        D, _ = distance_to_connection(
            table1.replace(beta1=cert.beta1_star + delta), cfg, coarse_curve
        )
        diffs.append(abs(D - D0))
    assert diffs[0] > diffs[1] > diffs[2]
    assert 0.2 < diffs[1] / diffs[0] < 0.8
    assert 0.2 < diffs[2] / diffs[1] < 0.8


def test_build_n_point_round_trip(table1, cfg):
    x0 = 0.35 * table1.tau
    rep = build_N_point(x0, 0.05, table1, cfg)
    assert rep.M_bound > rep.params_out.m
    # the paper's M(x0, r2), in the landing height v
    p, v = rep.params_out, rep.mu[1]
    M = 4.0 * p.r2 * v * (v - p.phi) * (p.a_q * p.q1 * p.r1 + p.q2 * (v - p.r1)) ** 2 / (
        p.phi**2 * p.b_q**2 * (v - p.r1) ** 2
    )
    assert rep.M_bound == pytest.approx(M, rel=1e-14)
    assert max(rep.identity_residuals.values()) <= 1e-10
    _, interior = pseudo_equilibria(rep.params_out)
    assert interior.x == pytest.approx(rep.mu[0], abs=1e-8)
    assert interior.z == pytest.approx(rep.mu[1], abs=1e-8)
    D, x0m = distance_to_connection(rep.params_out, cfg, coarse_mu_curve(rep.params_out, cfg))
    assert abs(D) <= 1e-8
    assert x0m == pytest.approx(x0, abs=1e-6)
    payload = rep.payload()
    assert payload["params_out"]["r2"] == 0.05


def test_build_n_point_beta2_identity_positive_at_tiny_r2(table1, cfg):
    # the landing height approaches r1 like sqrt(r2), so the beta2 identity
    # stays finite and positive as r2 shrinks
    x0 = 0.35 * table1.tau
    for r2 in (1e-4, 1e-6):
        work = table1.replace(r2=r2)
        _, v = mu_point(x0, work, cfg)
        beta2 = r2 * table1.beta1 / (v - table1.r1)
        assert np.isfinite(beta2) and beta2 > 0.0


def test_build_n_point_inequality_violated(table1, cfg):
    with pytest.raises(InequalityViolated):
        build_N_point(0.35 * table1.tau, 0.01, table1, cfg)


def test_build_n_point_rejects_bad_inputs(table1, cfg):
    with pytest.raises(DomainError):
        build_N_point(-0.1, 0.05, table1, cfg)
    with pytest.raises(DomainError):
        build_N_point(0.35 * table1.tau, table1.r1, table1, cfg)


def test_build_n_point_identity_infeasible(table1, cfg):
    # at r2 = 0.5 the fold return from tau/2 lands at v = 0.712, below r1,
    # where the beta2 identity has no positive solution
    with pytest.raises(IdentityInfeasible, match="<= r1"):
        build_N_point(0.5 * table1.tau, 0.5, table1, cfg)


def test_return_map_empty_and_bad_segment(table1, cfg):
    assert return_map_sample(table1, (0.2, 0.3), 0, cfg) == []
    with pytest.raises(DomainError):
        return_map_sample(table1, (0.2, 2.0 * table1.tau), 3, cfg)
    # both ends lie inside (0, tau): the message names the order condition
    with pytest.raises(DomainError, match="must satisfy 0 < lo <= hi < tau"):
        return_map_sample(table1, (0.3, 0.25), 3, cfg)


def test_return_map_orbit_escaped(table1, cfg):
    # no fold launch of the segment returns to Sigma within t_max = 0.5
    with pytest.raises(OrbitEscaped) as err:
        return_map_sample(table1, (0.2 * table1.tau, 0.3 * table1.tau), 3, replace(cfg, t_max=0.5))
    assert isinstance(err.value.__cause__, NoReturn)


def test_return_map_fold_leg_matches_lone_launches(connection, cfg, monkeypatch):
    # the 41 X-arcs are the lanes of one launch call, and the 41 sliding legs
    # from their landings the lanes of one sliding call; each landing is a
    # lone launch's from the same fold point, and each leg the lone
    # integrate_sliding from that landing, bit for bit
    cert, _ = connection
    launches, slides = [], []
    launch, slide = connection_mod.integrate_fold_launches, connection_mod._sliding_lanes

    def launched(x0s, cfg, params):
        launches.append((list(x0s), launch(x0s, cfg, params)))
        return launches[-1][1]

    def slid(p0, *args):
        slides.append((p0, slide(p0, *args)))
        return slides[-1][1]

    monkeypatch.setattr(connection_mod, "integrate_fold_launches", launched)
    monkeypatch.setattr(connection_mod, "_sliding_lanes", slid)
    samples = return_map_sample(cert.params, (cert.x0 - 0.039, cert.x0 + 0.041), 41, cfg)
    [(x0s, landings)] = launches
    [(starts, legs)] = slides
    assert len(x0s) == len(starts) == len(legs) == len(samples) == 41
    for s, (u, v), start, leg, (_, exit_x) in zip(x0s, landings, starts, legs, samples):
        assert (u, v) == mu_point(s, cert.params, cfg) == tuple(start)
        alone = integrate_sliding((u, v), Direction.FORWARD, cfg, cert.params, cfg.event_tol)
        assert (leg.steps, leg.terminal_event.kind, leg.t1) == (alone.steps, alone.terminal_event.kind, alone.t1)
        assert np.array_equal(leg.ts, alone.ts) and np.array_equal(leg.states, alone.states)
        assert np.array_equal(leg.terminal_event.state, alone.terminal_event.state)
        assert exit_x == alone.terminal_event.state[0]


def test_return_map_reports_focus_landing_at_connection(connection, cfg):
    cert, _ = connection
    with pytest.raises(FocusLanding):
        return_map_sample(cert.params, (cert.x0, cert.x0), 1, cfg)


def test_return_map_fixed_point_reiteration(connection, cfg):
    cert, _ = connection
    params = cert.params
    # half a step off-centre, so that no sample is x0 itself (FocusLanding)
    samples = return_map_sample(params, (cert.x0 - 0.0095, cert.x0 + 0.0105), 21, cfg)
    assert len(samples) == 21
    brackets = fixed_point_brackets(samples)
    assert brackets
    # pi jumps where the exit of the sliding orbit switches branch; a sign
    # change across a jump bisects to ends that stay apart, and is skipped.
    # The first sign change that is not a jump must hold the fixed point.
    for a, b in brackets:
        ga = pi_map(a, params, cfg) - a
        gb = pi_map(b, params, cfg) - b
        for _ in range(40):
            c = 0.5 * (a + b)
            gc = pi_map(c, params, cfg) - c
            if gc == 0.0 or (b - a) < 1e-11:
                break
            if (gc < 0.0) == (ga < 0.0):
                a, ga = c, gc
            else:
                b, gb = c, gc
        if gc == 0.0 or abs(gb - ga) <= 1e-6:
            break
    else:
        pytest.fail(f"every sign change in {brackets} lies across a jump of pi")
    s_fix = 0.5 * (a + b)
    p1 = pi_map(s_fix, params, cfg)
    assert abs(p1 - s_fix) <= 1e-8
    assert abs(pi_map(p1, params, cfg) - s_fix) <= 1e-6
