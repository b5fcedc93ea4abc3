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
    InequalityViolated,
    Lemma2Violation,
    MuCurve,
    MultipleRoots,
    NoBracket,
    NoReturn,
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
    verify_connection,
    working_window,
)
from preyswitch import connection as connection_mod
from conftest import solver_solutions


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
    first returns to Sigma; its X-arcs must stay on or above Sigma."""
    traj = integrate_filippov((x0, x0, params.phi), replace(cfg, t_max=5.0), params)
    for arc in traj.arcs:
        if arc.kind is ArcKind.SMOOTH_X:
            assert np.min(arc.states[:, 0] - arc.states[:, 1]) >= -cfg.event_tol
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
    sols = solver_solutions(monkeypatch)
    tau = table1.tau
    eps = ratio * tau
    try:
        u, v = launch(tau - eps, table1, cfg)
    except TangencyAmbiguity:
        pass
    else:
        # Lemma 1: u(tau - eps) = tau + 2*eps + O(eps^2), v - phi = O(eps^2)
        assert abs((u - tau) / eps - 2.0) <= 0.05
        assert abs(v - table1.phi) / eps <= 0.01
    steps = sum(len(sol.t) - 1 for sol in sols)
    assert steps <= 1000
    # only a launch from the cusp itself, where X2h = 0, fails before integrating
    assert steps >= 1 or ratio == 0.0
    if launch is filippov_return and sols:
        # the X-arc leaving the fold, also when its return raised
        x, y, _ = sols[0].y
        assert np.min(x - y) >= -cfg.event_tol


def test_mu_curve_window_and_classification(table1, cfg):
    tau = table1.tau
    grid = np.linspace(0.1 * tau, 0.999 * tau, 200)
    curve = mu_curve(grid, table1, cfg)
    assert len(curve) == 200
    win = working_window(curve, table1)
    assert win is not None
    i0, i1 = win
    assert i1 - i0 > 50
    for i in range(i0, i1 + 1):
        assert curve.vs[i] > table1.r1
        assert 0.0 < curve.us[i] < tau
        assert classify_sigma_point((curve.us[i], curve.vs[i]), table1) is RegionLabel.SLIDING
        Xh, Yh, _ = lie_derivatives((curve.us[i], curve.vs[i]), table1)
        assert Xh < 0.0 < Yh


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
    # stays below it, or it is crossed only on the pair past the window's end
    # whose outer node also has v <= r1
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
    # of 0.01 and 0.1 lies between node 22, the working window's last, and
    # node 23, whose u exceeds tau: they are matched on that pair
    betas = (0.01, 0.1, 2.0, 5.0, 7.5, 9.8)
    assert working_window(coarse_curve, table1) == (0, 22) and coarse_curve.us[23] > table1.tau
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
    # the focus abscissae of beta1 = 0.1 and 0.01 lie past the working window
    # (u > tau at the next node), where only their own node pair matches them
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
    matched = []
    match = connection_mod._match_focus_abscissae

    def counted(brackets, cfg, params):
        matched.extend((x_c, a[0], b[0]) for x_c, a, b in brackets)
        return match(brackets, cfg, params)

    monkeypatch.setattr(connection_mod, "_match_focus_abscissae", counted)
    other = find_shilnikov(table1, (0.994, 100.0), cfg)
    x_c = pseudo_equilibria(table1.replace(beta1=100.0))[1].x
    assert matched == [(x_c, coarse_curve.x0s[8], coarse_curve.x0s[9])]
    assert abs(other.beta1_star - cert.beta1_star) <= 1e-9


def test_find_shilnikov_fold_launch_budget(table1, cfg, monkeypatch):
    # every integration goes through flow.solve_ivp, and every fold launch
    # through integrate_fold_launches, each lane counting as one launch
    sols, lanes = solver_solutions(monkeypatch), []
    launch = connection_mod.integrate_fold_launches

    def counted_launches(x0s, cfg, params):
        lanes.extend(x0s)
        return launch(x0s, cfg, params)

    monkeypatch.setattr(connection_mod, "integrate_fold_launches", counted_launches)
    find_shilnikov(table1, (0.994, 10.0), cfg)
    assert len(lanes) >= 48  # the coarse curve's lanes were counted
    assert len(sols) <= 12
    assert len(lanes) <= 60


def test_find_shilnikov_step_budget(table1, cfg, monkeypatch):
    # the certificate's sliding arcs are capped at 0.01 of the pseudo-focus's
    # period; capped at 0.01 of the planar center's, the search took 2,058
    # steps
    sols = solver_solutions(monkeypatch)
    find_shilnikov(table1, (0.994, 10.0), cfg)
    assert sum(len(sol.t) - 1 for sol in sols) <= 1500


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


def test_return_map_empty_and_bad_segment(table1, cfg):
    assert return_map_sample(table1, (0.2, 0.3), 0, cfg) == []
    with pytest.raises(DomainError):
        return_map_sample(table1, (0.2, 2.0 * table1.tau), 3, cfg)
    # both ends lie inside (0, tau): the message names the order condition
    with pytest.raises(DomainError, match="must satisfy 0 < lo <= hi < tau"):
        return_map_sample(table1, (0.3, 0.25), 3, cfg)


def test_return_map_fold_leg_matches_lone_launches(connection, cfg, monkeypatch):
    # the 41 X-arcs are the lanes of one solver call, made before any sliding
    # arc; each landing must agree with a lone launch from the same fold point
    cert, _ = connection
    calls = []
    launch = connection_mod.integrate_fold_launches

    def recorded(x0s, cfg, params):
        calls.append((list(x0s), launch(x0s, cfg, params)))
        return calls[-1][1]

    class SlidingLeg(Exception):
        pass

    def stop(*args, **kwargs):
        raise SlidingLeg

    monkeypatch.setattr(connection_mod, "integrate_fold_launches", recorded)
    monkeypatch.setattr(connection_mod, "integrate_sliding", stop)
    with pytest.raises(SlidingLeg):
        return_map_sample(cert.params, (cert.x0 - 0.039, cert.x0 + 0.041), 41, cfg)
    [(x0s, landings)] = calls
    assert len(x0s) == 41
    for s, (u, v) in zip(x0s, landings):
        u1, v1 = mu_point(s, cert.params, cfg)
        assert abs(u - u1) <= 1e-11 and abs(v - v1) <= 1e-11


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
