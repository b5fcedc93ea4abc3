import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from preyswitch import (
    ArcKind,
    ConstraintViolation,
    Direction,
    DomainError,
    EventKind,
    FocusLanding,
    IdentityInfeasible,
    InequalityViolated,
    IntegratorConfig,
    Lemma2Violation,
    MuCurve,
    MultipleRoots,
    NoBracket,
    NoReturn,
    OrbitEscaped,
    Piece,
    PreySwitchError,
    RegionLabel,
    SameSign,
    TangencyAmbiguity,
    VerificationFailure,
    build_N_point,
    classify_focus,
    classify_sigma_point,
    coarse_mu_curve,
    distance_to_connection,
    distances_to_connection,
    eval_field,
    eval_sliding,
    find_shilnikov,
    first_integral_F,
    fixed_point_brackets,
    focus_condition_holds,
    h_rescale_constant,
    integrate_filippov,
    integrate_sliding,
    integrate_smooth,
    lemma1_asymptotics_report,
    lie_derivatives,
    lv_period,
    mu_curve,
    mu_point,
    pseudo_equilibria,
    return_map_sample,
    to_model_coords,
    validate_parameters,
    verify_connection,
)
from preyswitch import connection as connection_mod
from preyswitch.flow import integrate_fold_launches
from conftest import draw_params, rounds, taylor_runs


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


@pytest.mark.lanes
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
    with pytest.raises(DomainError, match="one-dimensional"):
        mu_curve([[0.1, 0.2], [0.3, 0.4]], table1, cfg)
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


@pytest.mark.lanes
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


@pytest.mark.lanes
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


@pytest.mark.lanes
def test_distances_agree_with_brentq_over_the_admissible_region(cfg, rng, monkeypatch):
    # 8 rows of each of 20 drawn parameter sets, matched together on stacked
    # lanes, each as a Brent search of lone launches matches it; no draw
    # takes more Taylor-loop calls than Table 1's sweep took by regula falsi
    runs, matched = taylor_runs(monkeypatch), 0
    for _ in range(20):
        params = draw_params(rng, require_focus=True)
        curve = coarse_mu_curve(params, cfg)
        rows = [params.replace(beta1=b) for b in rng.uniform(0.2, 8.0, 8)]
        runs.clear()
        out = distances_to_connection(rows, cfg, curve)
        assert len(runs) <= 4
        for row, result in zip(rows, out):
            if isinstance(result, PreySwitchError):
                with pytest.raises(type(result)):
                    distance_to_connection(row, cfg, curve)
                continue
            D, x0 = result
            _, focus = pseudo_equilibria(row)
            _, j = connection_mod._node_bracket(row, curve)
            x_ref = brentq(
                lambda x: mu_point(x, params, cfg)[0] - focus.x, curve.x0s[j], curve.x0s[j + 1], xtol=1e-13
            )
            assert abs(x0 - x_ref) <= 1e-10
            assert abs(D - (mu_point(x_ref, params, cfg)[1] - focus.z)) <= 1e-10
            matched += 1
    assert matched >= 40


def test_distances_solver_call_budget(table1, cfg, coarse_curve, monkeypatch):
    # each iteration matching all 32 rows together is one call of the Taylor
    # loop; by regula falsi from the node pairs alone it took 4 calls, and 5
    # with the Illinois weight instead of Anderson and Bjorck's
    runs = taylor_runs(monkeypatch)
    params = [table1.replace(beta1=b) for b in np.linspace(1.2, 9.8, 32)]
    rows = distances_to_connection(params, cfg, coarse_curve)
    assert not any(isinstance(row, PreySwitchError) for row in rows)
    assert len(runs) <= 2


@pytest.mark.lanes
def test_root_solver_fails_a_raising_bracket_alone(table1, cfg, coarse_curve, monkeypatch):
    # three brackets of u = x_c solved together, the middle one's residual
    # raising at every iterate, and a fourth raising at its ends: each fails
    # alone, and the other two match as they do without them
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
    # a fourth bracket, whose residual raises at its two ends, fails before
    # any launch: the other three run the same lanes without it
    at_ends = Lemma2Violation("no repulsive focus at either end")

    def raising_at_ends(u, v):
        raise at_ends

    brackets.append((raising_at_ends, coarse_curve.node(30), coarse_curve.node(31)))
    out = connection_mod._solve_on_curve(brackets, cfg, table1)
    assert isinstance(out[1], Lemma2Violation) and out[3] is at_ends and len(runs) >= 2
    lanes = [len(run) for run in runs]
    runs.clear()
    assert connection_mod._solve_on_curve(brackets[:3], cfg, table1)[::2] == out[:3:2]
    assert [len(run) for run in runs] == lanes
    alone = connection_mod._solve_on_curve(brackets[:3:2], cfg, table1)
    for x_c, (root, far), ends_alone in zip(xcs[::2], out[:3:2], alone):
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


def matching_brackets(table1, curve, betas):
    """Brackets of u = x_c on ``curve`` for the focus of each beta1, each
    with its node pair's neighbours, and the x_c."""
    brackets, xcs = [], []
    for beta1 in betas:
        x_c = pseudo_equilibria(table1.replace(beta1=beta1))[1].x
        d = curve.us - x_c
        j = next(j for j in range(len(d) - 1) if (d[j] < 0.0) != (d[j + 1] < 0.0))
        brackets.append((lambda u, v, x_c=x_c: u - x_c, *connection_mod._nodes(curve, j)))
        xcs.append(x_c)
    return brackets, xcs


@pytest.mark.parametrize("extra", ["outside", "non-monotone"])
def test_root_solver_falls_back_to_weighted_regula_falsi(table1, cfg, coarse_curve, monkeypatch, extra):
    # two extra fold points beyond the far end a, placed so that the
    # interpolated iterate lies just past the near end b, or one beyond b
    # with r past a's, so that r is not monotone across the points though
    # the iterate would lie inside: either way, with d under half the
    # bracket, the iterate is one lane, Anderson and Bjorck's first step
    # (the secant), where the node pair's true neighbours give two, and the
    # bracket still closes on the root it has with them
    [(r, a, b, *nodes)], [x_c] = matching_brackets(table1, coarse_curve, [5.0])
    runs = taylor_runs(monkeypatch)
    [(clean, _)] = connection_mod._solve_on_curve([(r, a, b, *nodes)], cfg, table1)
    assert len(runs[0]) == 2
    runs.clear()
    (a, fa), (b, fb) = sorted([(a, r(*a[1:])), (b, r(*b[1:]))], key=lambda pf: -abs(pf[1]))
    (xa, xb), secant = (a[0], b[0]), b[0] - fb * (b[0] - a[0]) / (fb - fa)
    if extra == "outside":
        # x(r) through (fb, xb), (fa, xa) and (0, x_t), x_t just past b
        x_t = xb + 0.1 * (xb - secant)

        def through(f):
            return (
                xb * (f - fa) * f / ((fb - fa) * fb)
                + xa * (f - fb) * f / ((fa - fb) * fa)
                + x_t * (f - fb) * (f - fa) / (fb * fa)
            )

        fakes = [(through(fe), x_c + fe, a[2]) for fe in (2.0 * fa - fb, 3.0 * fa - 2.0 * fb)]
    else:
        fakes = [(xb + 2.0 * (xb - xa), x_c + fa + 10.0 * (fa - fb), b[2])]
    points = [(xb, fb), (xa, fa), *((p[0], r(*p[1:])) for p in fakes)]
    x, d = connection_mod._inverse_interpolation(points)
    fs = [f for _, f in sorted(points)]
    monotone = fs == sorted(fs) or fs == sorted(fs, reverse=True)
    assert (monotone, min(xa, xb) < x < max(xa, xb)) == ((True, False) if extra == "outside" else (False, True))
    assert 2.0 * d < abs(xa - xb)
    [(root, far)] = connection_mod._solve_on_curve([(r, a, b, *fakes)], cfg, table1)
    assert len(runs[0]) == 1 and runs[0][0].states[0][0] == secant
    assert abs(root[1] - x_c) <= 1e-10 and (root[1] - x_c) * (far[1] - x_c) <= 0.0
    assert abs(root[0] - far[0]) <= 1e-12 + 4.0 * np.finfo(float).eps * root[0]
    assert abs(root[0] - clean[0]) <= 2e-12


def test_root_solver_weights_a_kept_far_end_where_interpolation_never_holds(table1, cfg, coarse_curve, monkeypatch):
    # a fold point beyond b whose r is a tiny value of a's sign is always
    # the best other point and never monotone with the ends, so every
    # iterate is Anderson and Bjorck's step: one lane a bracket, and each
    # bracket closes in the 4 calls regula falsi took on Table 1's sweep
    # (unweighted, the bracket at beta1 = 2 takes 6)
    brackets, xcs = matching_brackets(table1, coarse_curve, (2.0, 5.0, 7.5))
    clean = connection_mod._solve_on_curve(brackets, cfg, table1)
    runs, stuck = taylor_runs(monkeypatch), []
    for (r, a, b, *_), x_c in zip(brackets, xcs):
        (a, fa), (b, _) = sorted([(a, r(*a[1:])), (b, r(*b[1:]))], key=lambda pf: -abs(pf[1]))
        stuck.append((r, a, b, (b[0] + 2.0 * (b[0] - a[0]), x_c + math.copysign(1e-30, fa), b[2])))
    out = connection_mod._solve_on_curve(stuck, cfg, table1)
    assert [len(run) for run in runs] == [3, 3, 3, 3]
    for (root, far), (clean_root, _), x_c in zip(out, clean, xcs):
        assert abs(root[1] - x_c) <= 1e-10 and (root[1] - x_c) * (far[1] - x_c) <= 0.0
        assert abs(root[0] - clean_root[0]) <= 2e-12


@pytest.mark.lanes
@pytest.mark.parametrize("failure", ["launch", "residual"])
def test_root_solver_fails_a_bracket_whose_partner_lane_fails(table1, cfg, coarse_curve, monkeypatch, failure):
    # three brackets of u = x_c launch two lanes each at first; the second
    # bracket's second lane fails, by a launch error or by r raising at its
    # return: that bracket fails alone, and the other two match as they do
    # without the failure, on the same lanes
    brackets, _ = matching_brackets(table1, coarse_curve, (2.0, 5.0, 7.5))
    runs = taylor_runs(monkeypatch)
    clean = connection_mod._solve_on_curve(brackets, cfg, table1)
    lanes = [len(run) for run in runs]
    assert lanes[0] == 6
    runs.clear()
    launch, partner = connection_mod.integrate_fold_launches, []
    lost = NoReturn("no return of the partner lane")

    def failing(x0s, cfg, params):
        out = launch(x0s, cfg, params)
        if not partner:  # the first call
            partner.append(out[3])
            if failure == "launch":
                out[3] = lost
        return out

    def raising(u, v):
        if (u, v) in partner:
            raise lost
        return brackets[1][0](u, v)

    monkeypatch.setattr(connection_mod, "integrate_fold_launches", failing)
    out = connection_mod._solve_on_curve([brackets[0], (raising, *brackets[1][1:]), brackets[2]], cfg, table1)
    assert out[1] is lost
    assert out[::2] == clean[::2]
    assert [len(run) for run in runs][1:] == [lane - 2 for lane in lanes[1:]]


def test_distance_fails_a_bracket_open_past_max_iterations(table1, cfg, coarse_curve, monkeypatch):
    # one iterate's two lanes shrink the bracket at beta1 = 5 but do not
    # close it: the iterate's predicted error exceeds Brent's tolerance
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


STAR = 7.776874809699024  # beta1*, whose return map has a fixed point on (0.25, 0.3)


def rates(params, **changes):
    return list({**params.as_dict(), **changes}.values())


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda p, cfg: mu_point("a", p, cfg), DomainError, id="mu_point-str"),
        pytest.param(lambda p, cfg: mu_point(None, p, cfg), DomainError, id="mu_point-None"),
        pytest.param(lambda p, cfg: lv_period("a", cfg, p), DomainError, id="lv_period-str"),
        pytest.param(lambda p, cfg: verify_connection(p, "a", cfg), DomainError, id="verify_connection-str"),
        pytest.param(lambda p, cfg: build_N_point("a", 0.05, p, cfg), DomainError, id="build_N_point-x0-str"),
        pytest.param(lambda p, cfg: build_N_point(0.3, None, p, cfg), DomainError, id="build_N_point-r2-None"),
        pytest.param(lambda p, cfg: return_map_sample(p, (0.25, 0.3), 2.5, cfg), DomainError, id="return_map-n-float"),
        pytest.param(lambda p, cfg: return_map_sample(p, ("a", 0.3), 3, cfg), DomainError, id="return_map-segment-str"),
        pytest.param(lambda p, cfg: find_shilnikov(p, ("a", 10), cfg), DomainError, id="find_shilnikov-str"),
        pytest.param(lambda p, cfg: find_shilnikov(p, None, cfg), DomainError, id="find_shilnikov-None"),
        pytest.param(lambda p, cfg: mu_curve(["a"], p, cfg), DomainError, id="mu_curve-str"),
        pytest.param(lambda p, cfg: IntegratorConfig(abs_tol="a"), DomainError, id="config-abs_tol-str"),
        pytest.param(lambda p, cfg: IntegratorConfig(t_max=None), DomainError, id="config-t_max-None"),
        pytest.param(lambda p, cfg: classify_sigma_point((0.5, 0.3), p, tol="a"), DomainError, id="classify-tol-str"),
        pytest.param(
            lambda p, cfg: integrate_sliding((0.5, 1.0), Direction.FORWARD, cfg, p, "a"), DomainError, id="sliding-radius-str"
        ),
        pytest.param(lambda p, cfg: validate_parameters("a", *rates(p)[1:]), ConstraintViolation, id="validate-str"),
        pytest.param(lambda p, cfg: p.replace(beta1=None), ConstraintViolation, id="replace-None"),
    ],
)
def test_a_scalar_that_is_not_a_number_raises_a_named_error(table1, cfg, call, error):
    # each scalar argument is read as a number by one rule (model._finite),
    # so a string or None raises the package's error, not a bare TypeError
    # or ValueError; a rate names its constraint "<key> finite"
    with pytest.raises(error) as err:
        call(table1, cfg)
    if error is ConstraintViolation:
        assert err.value.constraint in ("r1 finite", "beta1 finite")


def first_fold_launch(p, cfg):
    # a point that is not a number fails its own launch, unraised, as
    # x0 <= 0 does, and the other launches run
    bad, good = integrate_fold_launches(["a", 0.5 * p.tau], cfg, p)
    assert isinstance(good, tuple) and len(good) == 2
    raise bad


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p, cfg, curve: mu_point(0.5, p, "a"), id="mu_point-cfg"),
        pytest.param(lambda p, cfg, curve: mu_point(0.5, None, cfg), id="mu_point-params"),
        pytest.param(lambda p, cfg, curve: mu_curve([0.5], p, None), id="mu_curve-cfg"),
        pytest.param(lambda p, cfg, curve: coarse_mu_curve("a", cfg), id="coarse_mu_curve-params"),
        pytest.param(lambda p, cfg, curve: find_shilnikov(p, (1, 9), None), id="find_shilnikov-cfg"),
        pytest.param(lambda p, cfg, curve: find_shilnikov(None, (1, 9), cfg), id="find_shilnikov-params"),
        pytest.param(lambda p, cfg, curve: distance_to_connection(p, "a", curve), id="distance-cfg"),
        pytest.param(lambda p, cfg, curve: distance_to_connection(p, cfg, None), id="distance-curve"),
        pytest.param(lambda p, cfg, curve: distances_to_connection([p, None], cfg, curve), id="distances-params"),
        pytest.param(lambda p, cfg, curve: verify_connection(p, 0.3, None), id="verify_connection-cfg"),
        pytest.param(lambda p, cfg, curve: lemma1_asymptotics_report(None, cfg), id="lemma1-params"),
        pytest.param(lambda p, cfg, curve: build_N_point(0.3, 0.05, p, "a"), id="build_N_point-cfg"),
        pytest.param(lambda p, cfg, curve: return_map_sample(p, (0.25, 0.3), 3, None), id="return_map-cfg"),
        pytest.param(lambda p, cfg, curve: integrate_filippov((0.5, 0.3, 0.7), cfg, None), id="filippov-params"),
        pytest.param(lambda p, cfg, curve: integrate_filippov((0.5, 0.3, 0.7), None, p), id="filippov-cfg"),
        pytest.param(
            lambda p, cfg, curve: integrate_smooth(Piece.X, (0.5, 0.3, 0.7), Direction.FORWARD, p, cfg), id="smooth-swapped"
        ),
        pytest.param(lambda p, cfg, curve: integrate_sliding((0.5, 1.0), Direction.BACKWARD, cfg, "a"), id="sliding-params"),
        pytest.param(lambda p, cfg, curve: lv_period(0.5, None, p), id="lv_period-cfg"),
        pytest.param(lambda p, cfg, curve: first_fold_launch(p, cfg), id="fold_launches-x0-str"),
        pytest.param(lambda p, cfg, curve: integrate_fold_launches([0.5], cfg, None), id="fold_launches-params"),
        pytest.param(lambda p, cfg, curve: classify_sigma_point((0.5, 0.3), None), id="classify-params"),
        pytest.param(lambda p, cfg, curve: lie_derivatives((0.5, 0.7), "a"), id="lie_derivatives-params"),
        pytest.param(lambda p, cfg, curve: first_integral_F((0.5, 0.7), None), id="first_integral-params"),
        pytest.param(lambda p, cfg, curve: eval_field(Piece.Y, (0.5, 0.3, 0.7), None), id="eval_field-params"),
        pytest.param(lambda p, cfg, curve: to_model_coords((1.0, 1.0, 1.0), None), id="to_model_coords-params"),
        pytest.param(lambda p, cfg, curve: eval_sliding((0.5, 1.0), None), id="eval_sliding-params"),
        pytest.param(lambda p, cfg, curve: pseudo_equilibria("a"), id="pseudo_equilibria-params"),
        pytest.param(lambda p, cfg, curve: classify_focus(None), id="classify_focus-params"),
        pytest.param(lambda p, cfg, curve: focus_condition_holds(None), id="focus_condition-params"),
        pytest.param(lambda p, cfg, curve: h_rescale_constant(None), id="h_rescale-params"),
    ],
)
def test_a_wrong_params_or_cfg_raises_a_domain_error(table1, cfg, coarse_curve, call):
    # each public entry point checks its params and cfg (and curve) once, so
    # a wrong one raises DomainError, not a bare AttributeError or
    # ValueError from deep inside; a fold-launch point is read by
    # model._finite, so one that is not a number fails its own launch
    with pytest.raises(DomainError, match="must be"):
        call(table1, cfg, coarse_curve)


def test_numpy_scalars_are_read_as_their_floats(table1, cfg):
    # valid scalars read as before, numpy's included
    x0, star = 0.5 * table1.tau, table1.replace(beta1=STAR)
    assert mu_point(np.float64(x0), table1, cfg) == mu_point(x0, table1, cfg)
    assert lv_period(np.float64(x0), cfg, table1) == lv_period(x0, cfg, table1)
    assert IntegratorConfig(t_max=np.float64(40.0), abs_tol=np.float32(0.5)) == IntegratorConfig(t_max=40.0, abs_tol=0.5)
    assert classify_sigma_point((0.5, 0.3), table1, tol=np.float64(1e-12)) is RegionLabel.CROSSING
    assert validate_parameters(*map(np.float64, rates(table1))) == table1
    assert table1.replace(beta1=np.int64(7)) == table1.replace(beta1=7.0) == validate_parameters(*rates(table1, beta1=7))
    segment = (0.25, 0.3)
    assert return_map_sample(star, np.array(segment), np.int64(3), cfg) == return_map_sample(star, segment, 3, cfg)
    assert build_N_point(np.float64(0.37), np.float64(0.05), table1, cfg) == build_N_point(0.37, 0.05, table1, cfg)


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
    [[(r, a, b, *_)], [_]] = calls
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


def test_find_shilnikov_root_call_budget(table1, cfg, monkeypatch):
    # G's root, interpolated through its node pair and their neighbours,
    # takes at most 3 calls of the Taylor loop; by regula falsi from the pair
    # alone it took 5 one-lane calls
    runs, solves = taylor_runs(monkeypatch), []
    solve = connection_mod._solve_on_curve

    def recorded(brackets, cfg, params):
        before = len(runs)
        out = solve(brackets, cfg, params)
        solves.append(runs[before:])
        return out

    monkeypatch.setattr(connection_mod, "_solve_on_curve", recorded)
    find_shilnikov(table1, (0.994, 10.0), cfg)
    assert len(solves[-1]) <= 3


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


def test_verify_connection_names_a_sliding_return_past_the_fold_point(table1, cfg):
    # the manifold point at x0 = tau/4, r2 = 0.168 has x* = 0.308 > x0 =
    # 0.270; its backward sliding orbit from (x0, phi) ends on the fold line
    # too, but the failure names the hypothesis x* < x0
    rep = build_N_point(0.25 * table1.tau, 0.168, table1, cfg)
    params = rep.params_out
    with pytest.raises(VerificationFailure, match=r"x\* = 0\.3079\d* is not below the fold point x0 = 0\.2698"):
        verify_connection(params, rep.x0, cfg)
    back = integrate_sliding((rep.x0, params.phi), Direction.BACKWARD, cfg, params, 1e-4)
    assert back.terminal_event.kind is EventKind.FOLD_EXIT


def test_verify_connection_names_a_backward_orbit_that_reaches_the_horizon(connection, cfg):
    # at t_max = 30 the certificate's backward sliding orbit is not yet
    # captured by the focus
    cert, _ = connection
    with pytest.raises(VerificationFailure, match="backward sliding orbit ended with HorizonReached"):
        verify_connection(cert.params, cert.x0, replace(cfg, t_max=30.0))


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
    # at r2 = 0.4 the e identity is negative
    with pytest.raises(IdentityInfeasible, match=r"the e identity yields e = -1\.237\d* <= 0"):
        build_N_point(0.5 * table1.tau, 0.4, table1, cfg)
    # at r2 = 0.2 it is positive, but the rebuilt q1 makes b_q negative
    with pytest.raises(IdentityInfeasible, match="inadmissible parameters: .*b_q >= 0") as err:
        build_N_point(0.5 * table1.tau, 0.2, table1, cfg)
    assert isinstance(err.value.__cause__, ConstraintViolation)


def test_return_map_empty_and_bad_segment(table1, cfg):
    assert return_map_sample(table1, (0.2, 0.3), 0, cfg) == []
    with pytest.raises(DomainError, match="nonnegative"):
        return_map_sample(table1, (0.2, 0.3), -1, cfg)
    with pytest.raises(DomainError):
        return_map_sample(table1, (0.2, 2.0 * table1.tau), 3, cfg)
    # both ends lie inside (0, tau): the message names the order condition;
    # a bad segment is bad with no samples asked for too
    for n in (3, 0):
        with pytest.raises(DomainError, match="must satisfy 0 < lo <= hi < tau"):
            return_map_sample(table1, (0.3, 0.25), n, cfg)
        with pytest.raises(DomainError, match="must satisfy 0 < lo <= hi < tau"):
            return_map_sample(table1, (0.2, 5.0), n, cfg)


def test_fixed_point_brackets_report_each_fixed_point_once():
    # a zero at the last sample is bracketed by the last pair
    assert fixed_point_brackets([(0.1, 0.2), (0.3, 0.3)]) == [(0.1, 0.3)]
    # a zero at an inner sample by the pair that starts there, not twice
    assert fixed_point_brackets([(0.1, 0.0), (0.2, 0.2), (0.3, 0.4)]) == [(0.2, 0.3)]
    assert fixed_point_brackets([(0.1, 0.1), (0.2, 0.3)]) == [(0.1, 0.2)]
    # a strict sign change, and none
    assert fixed_point_brackets([(0.1, 0.2), (0.2, 0.1), (0.3, 0.1)]) == [(0.1, 0.2)]
    assert fixed_point_brackets([(0.1, 0.2), (0.2, 0.3)]) == []


def test_return_map_orbit_escaped(table1, cfg):
    # no fold launch of the segment returns to Sigma within t_max = 0.5
    with pytest.raises(OrbitEscaped) as err:
        return_map_sample(table1, (0.2 * table1.tau, 0.3 * table1.tau), 3, replace(cfg, t_max=0.5))
    assert isinstance(err.value.__cause__, NoReturn)
    # the X-arc from 0.9*tau returns at t = 2.2, but its sliding leg needs
    # about 6.2 to reach the fold line
    s = 0.9 * table1.tau
    with pytest.raises(OrbitEscaped, match="sliding arc ended with HorizonReached"):
        return_map_sample(table1, (s, s), 1, replace(cfg, t_max=4.0))


def test_filippov_trajectory_is_an_orbit_of_the_return_map(table1):
    # each stretch of a trajectory from a fold exit at s, an X-arc onto the
    # sliding region and a sliding arc back to the fold line, is one step of
    # pi: it ends, bit for bit, where the lone sample of return_map_sample
    # from s does, although its arcs start later in the window
    cfg = IntegratorConfig()
    stretch = [EventKind.FOLD_EXIT, ArcKind.SMOOTH_X, EventKind.SIGMA_ENTRY_SLIDING, ArcKind.SLIDING, EventKind.FOLD_EXIT]
    for params, count in ((table1, 39), (table1.replace(beta1=7.776874809699024), 22)):
        arcs = integrate_filippov((1.2, 0.4, 1.0), cfg, params).arcs
        found = 0
        for exit_, x_arc, leg in zip(arcs, arcs[1:], arcs[2:]):
            kinds = [exit_.terminal_event.kind, x_arc.kind, x_arc.terminal_event.kind, leg.kind]
            if kinds + [leg.terminal_event.kind] == stretch:
                s = float(exit_.terminal_event.state[0])
                assert return_map_sample(params, (s, s), 1, cfg) == [(s, float(leg.terminal_event.state[0]))]
                found += 1
        assert found == count


@pytest.mark.lanes
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
