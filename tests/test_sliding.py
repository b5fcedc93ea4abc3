import numpy as np
import pytest

from preyswitch import (
    DomainError,
    FocusKind,
    Piece,
    PoleError,
    classify_focus,
    eval_field,
    eval_sliding,
    fc_slope_at_focus,
    focus_condition_holds,
    h_rescale_constant,
    hyperbola_and_Fc,
    monotonicity_witnesses,
    pseudo_equilibria,
    validate_parameters,
)
from preyswitch.sliding import sliding_jacobian
from conftest import TABLE1, draw_params, filippov_combination


def numeric_jacobian(p, params, h=0.1):
    # the sliding field is quadratic, so symmetric differences carry no
    # truncation error; a large step keeps roundoff negligible
    p = np.asarray(p, dtype=float)
    J = np.empty((2, 2))
    for j in range(2):
        step = h * max(1.0, abs(p[j]))
        plus, minus = p.copy(), p.copy()
        plus[j] += step
        minus[j] -= step
        J[:, j] = (eval_sliding(plus, params) - eval_sliding(minus, params)) / (2.0 * step)
    return J


def test_closed_form_equals_x_on_fold_line(table1, rng):
    phi = table1.phi
    for x in rng.uniform(0.01, 2.0 * table1.tau, size=100):
        zs = eval_sliding((x, phi), table1)
        vx = eval_field(Piece.X, (x, x, phi), table1)
        assert abs(zs[0] - vx[0]) <= 1e-14 * max(1.0, abs(vx[0]))
        assert abs(zs[1] - vx[2]) <= 1e-14 * max(1.0, abs(vx[2]))
        assert zs[0] == pytest.approx(table1.r2 * x, rel=1e-13)
        assert zs[1] == pytest.approx((table1.e * table1.q1 * x - table1.m) * phi, rel=1e-12)


def test_closed_form_matches_generic_filippov(table1, rng):
    # the tests' own combination of their factored X and Y, tangent to Sigma
    combination = filippov_combination(table1)
    for _ in range(1000):
        x = rng.uniform(0.01, 2.0 * table1.tau)
        z = table1.phi + rng.uniform(1e-6, 2.0 * table1.phi)
        w = combination(x, z)
        assert abs(w[0] - w[1]) <= 1e-12 * max(1.0, abs(w[0])), (x, z, w)
        cf = eval_sliding((x, z), table1)
        assert np.allclose(cf, w[::2], rtol=1e-12, atol=1e-13), (x, z, cf, w)


def test_equilibria_zero_the_field(table1, table1_b10):
    for params in (table1, table1_b10):
        origin, interior = pseudo_equilibria(params)
        assert (origin.x, origin.z) == (0.0, 0.0)
        assert np.max(np.abs(eval_sliding(origin.as_array(), params))) == 0.0
        assert np.max(np.abs(eval_sliding(interior.as_array(), params))) < 1e-12


def test_interior_equilibrium_values(table1, table1_b10):
    _, i1 = pseudo_equilibria(table1)
    assert i1.x == pytest.approx(0.9293450945393333, rel=1e-12)
    assert i1.z == pytest.approx(0.97578125, rel=1e-14)
    _, i2 = pseudo_equilibria(table1_b10)
    assert i2.x == pytest.approx(0.6323212726896810, rel=1e-12)
    assert i2.z == pytest.approx(2.24225, rel=1e-14)


def test_interior_equilibrium_bounds_random(rng):
    for _ in range(100):
        params = draw_params(rng)
        _, interior = pseudo_equilibria(params)
        assert 0.0 < interior.x < params.tau
        assert interior.z > params.r1


def test_classify_focus_table1(table1, table1_b10):
    pe = classify_focus(table1)
    assert pe.kind is FocusKind.REPULSIVE_FOCUS
    assert pe.alpha == pytest.approx(0.14672928152095640, rel=1e-12)
    assert pe.beta_imag > 0.0
    assert classify_focus(table1_b10).kind is FocusKind.REPULSIVE_FOCUS
    assert focus_condition_holds(table1) and focus_condition_holds(table1_b10)


def test_classify_focus_degenerate_when_bq_zero():
    vals = dict(TABLE1, beta1=0.994)
    vals["q2"] = vals["a_q"] * vals["q1"]
    p = validate_parameters(**vals)
    pe = classify_focus(p)
    assert pe.alpha == 0.0
    assert pe.kind is FocusKind.DEGENERATE


def test_focus_condition_holds_at_bq_zero():
    # the bound on m is infinite at b_q = 0, where the pseudo-equilibrium
    # is a center with a complex pair
    vals = dict(TABLE1, beta1=0.994)
    vals["q2"] = vals["a_q"] * vals["q1"]
    p = validate_parameters(**vals)
    assert p.b_q == 0.0
    assert focus_condition_holds(p) is True
    assert classify_focus(p).beta_imag > 0.0


def test_alpha_matches_numeric_jacobian_eigenvalues(table1, rng):
    for _ in range(30):
        params = draw_params(rng, require_focus=True)
        pe = classify_focus(params)
        J = numeric_jacobian(pe.location.as_array(), params)
        eig = np.linalg.eigvals(J)
        assert pe.alpha == pytest.approx(float(np.mean(eig.real)), rel=1e-8)


def test_condition_equivalent_to_discriminant(rng):
    seen = {True: 0, False: 0}
    for _ in range(200):
        params = draw_params(rng)
        J = sliding_jacobian(pseudo_equilibria(params)[1].as_array(), params)
        disc = (J[0, 0] + J[1, 1]) ** 2 - 4.0 * (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
        holds = focus_condition_holds(params)
        assert holds == (disc < 0.0), (params, disc)
        seen[holds] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_witnesses_dulac_positive(table1, rng):
    for _ in range(200):
        x = rng.uniform(0.01, 2.0)
        z = rng.uniform(0.01, 3.0)
        dulac, _, _ = monotonicity_witnesses((x, z), table1)
        assert dulac > 0.0


def test_witness_dh_vanishes_exactly_on_zc_line(table1, rng):
    _, interior = pseudo_equilibria(table1)
    for x in rng.uniform(0.05, 2.0, size=20):
        _, _, dH = monotonicity_witnesses((x, interior.z), table1)
        assert dH == 0.0


def test_witness_dh_positive_everywhere_off_the_line(table1, rng):
    _, interior = pseudo_equilibria(table1)
    for _ in range(1000):
        x = rng.uniform(0.05, 2.0)
        z = rng.uniform(0.05, 3.0)
        if z == interior.z:
            continue
        _, _, dH = monotonicity_witnesses((x, z), table1)
        assert dH > 0.0


def test_witness_dh_matches_finite_difference(table1, rng):
    # sampled away from z_c, where dH vanishes quadratically and a relative
    # finite-difference comparison would be ill-posed
    a = h_rescale_constant(table1)
    _, interior = pseudo_equilibria(table1)

    def G(x, z):
        return monotonicity_witnesses((a * x, z), table1)[1]

    count = 0
    while count < 1000:
        x = rng.uniform(0.2, 2.0)
        z = rng.uniform(0.05, 3.0)
        if abs(z - interior.z) < 0.15:
            continue
        count += 1
        _, _, dH = monotonicity_witnesses((x, z), table1)
        assert dH > 0.0
        w = eval_sliding((x, z), table1)
        dt = 1e-6 / max(1.0, float(np.max(np.abs(w))))
        fd = (G(x + dt * w[0], z + dt * w[1]) - G(x - dt * w[0], z - dt * w[1])) / (2.0 * dt)
        assert fd == pytest.approx(dH, rel=1e-6)


def test_witnesses_domain(table1):
    with pytest.raises(DomainError):
        monotonicity_witnesses((0.0, 1.0), table1)


def test_hyperbola_passes_through_focus(table1):
    _, focus = pseudo_equilibria(table1)
    z_h, F_c = hyperbola_and_Fc(focus.x, table1, focus)
    assert z_h == pytest.approx(focus.z, rel=1e-12)
    assert F_c == pytest.approx(0.0, abs=1e-12)


def test_fc_positive_left_of_focus(table1):
    _, focus = pseudo_equilibria(table1)
    _, F_c = hyperbola_and_Fc(0.9 * focus.x, table1, focus)
    assert F_c > 0.0


def test_fc_slope_matches_central_difference(table1):
    _, focus = pseudo_equilibria(table1)
    closed = fc_slope_at_focus(table1, focus)
    assert closed == pytest.approx(-0.29905928890499291, rel=1e-12)
    h = 1e-5 * focus.x
    fp = hyperbola_and_Fc(focus.x + h, table1, focus)[1]
    fm = hyperbola_and_Fc(focus.x - h, table1, focus)[1]
    fd = (fp - fm) / (2.0 * h)
    assert fd < 0.0
    assert fd == pytest.approx(closed, rel=1e-4)


def test_hyperbola_pole_and_negative_branch(table1):
    pole = table1.a_q * table1.m / (table1.e * table1.q2)
    with pytest.raises(PoleError):
        hyperbola_and_Fc(pole, table1, pseudo_equilibria(table1)[1])
    with pytest.raises(DomainError):
        hyperbola_and_Fc(0.5 * pole, table1, pseudo_equilibria(table1)[1])


def test_generic_mode_tangency_consistency(table1, rng):
    # the 3D convex combination must return equal x- and y-components
    from preyswitch.model import lie_derivatives

    for _ in range(200):
        x = rng.uniform(0.01, 2.0)
        z = table1.phi + rng.uniform(1e-6, 1.5)
        Xh, Yh, _ = lie_derivatives((x, z), table1)
        vx = eval_field(Piece.X, (x, x, z), table1)
        vy = eval_field(Piece.Y, (x, x, z), table1)
        w = (Yh * vx - Xh * vy) / (Yh - Xh)
        assert abs(w[0] - w[1]) <= 1e-12 * max(1.0, abs(w[0]))
