"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -rA tests/test_acceptance.py`` to see all lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from preyswitch import (
    Direction,
    EventKind,
    Piece,
    RegionLabel,
    classify_focus,
    classify_sigma_point,
    distance_to_connection,
    eval_field,
    eval_sliding,
    find_shilnikov,
    first_integral_F,
    fixed_point_brackets,
    focus_condition_holds,
    h_rescale_constant,
    integrate_sliding,
    integrate_smooth,
    lie_derivatives,
    lv_period,
    monotonicity_witnesses,
    mu_point,
    pseudo_equilibria,
    return_map_sample,
)
from preyswitch.sliding import sliding_jacobian
from conftest import draw_params, filippov_combination


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_section5_reproduction(connection, table1, cfg, coarse_curve):
    D_low, _ = distance_to_connection(table1, cfg, coarse_curve)
    D_high, _ = distance_to_connection(table1.replace(beta1=10.0), cfg, coarse_curve)
    assert np.sign(D_low) != np.sign(D_high)

    cert, elapsed = connection
    assert 0.994 < cert.beta1_star < 10.0
    assert cert.bracket_width is not None and cert.bracket_width <= 1e-6
    assert elapsed <= 60.0

    t0 = time.perf_counter()
    cert_halved = find_shilnikov(table1, (0.994, 10.0), cfg.halved())
    halved_time = time.perf_counter() - t0
    assert abs(cert_halved.beta1_star - cert.beta1_star) <= 1e-5
    report(
        1,
        f"sign(D(0.994)) = {np.sign(D_low):+.0f} != sign(D(10)) = {np.sign(D_high):+.0f}; "
        f"beta1* = {cert.beta1_star:.9f} in (0.994, 10), bracket {cert.bracket_width:.2e} <= 1e-6, "
        f"{elapsed:.1f} s <= 60 s; halved tolerances agree to "
        f"{abs(cert_halved.beta1_star - cert.beta1_star):.2e} <= 1e-5 ({halved_time:.1f} s)",
    )


def test_criterion_02_connection_certificate(connection, cfg):
    cert, _ = connection
    params = cert.params
    assert cert.forward_error <= 1e-6

    back = integrate_sliding(
        (cert.x0, params.phi), Direction.BACKWARD, cfg, params, focus_capture_radius=1e-4
    )
    assert back.terminal_event.kind is EventKind.FOCUS_CAPTURE
    z_min = float(np.min(back.states[:, 1]))
    assert z_min >= params.phi - 1e-12

    assert cert.x_star is not None and cert.x_star < cert.x0
    report(
        2,
        f"forward landing error {cert.forward_error:.2e} <= 1e-6; backward FocusCapture at "
        f"radius 1e-4 with min z - phi = {z_min - params.phi:.2e} >= -1e-12; "
        f"x* = {cert.x_star:.6f} < x0 = {cert.x0:.6f}",
    )


def test_criterion_03_fold_expansion(table1, cfg):
    eps = 1e-3
    tau, phi = table1.tau, table1.phi
    u, v = mu_point(tau - eps, table1, cfg)
    slope = (u - tau) / eps
    ratio = abs(v - phi) / eps
    assert abs(slope - 2.0) / 2.0 <= 0.05
    assert ratio <= 0.01
    report(
        3,
        f"u(tau - 1e-3) slope = {slope:.6f} (within {abs(slope - 2.0) / 2.0:.2%} of 2 <= 5%); "
        f"|v - phi|/eps = {ratio:.5f} <= 0.01",
    )


def test_criterion_04_small_r2_law(table1, cfg):
    r2 = 1e-4
    x0 = 0.5 * table1.tau
    small = table1.replace(r2=r2)
    _, v = mu_point(x0, small, cfg)
    T = lv_period(x0, cfg, small)
    measured = (v - small.r1) / math.sqrt(r2)
    predicted = math.sqrt(2.0 * small.r1 * T * (small.m - small.e * small.q1 * x0))
    rel = abs(measured - predicted) / predicted
    assert rel <= 0.02
    report(
        4,
        f"(v - r1)/sqrt(r2) = {measured:.6f} vs sqrt(2 r1 T (m - e q1 x0)) = {predicted:.6f} "
        f"with T = {T:.6f}: {rel:.3%} <= 2%",
    )


def test_criterion_05_eigenstructure(rng):
    worst = 0.0
    checked = 0
    agreement = 0
    while checked < 100:
        params = draw_params(rng)
        J = sliding_jacobian(pseudo_equilibria(params)[1].as_array(), params)
        disc = (J[0, 0] + J[1, 1]) ** 2 - 4.0 * (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
        assert focus_condition_holds(params) == (disc < 0.0)
        agreement += 1
        if not focus_condition_holds(params):
            continue
        checked += 1
        pe = classify_focus(params)
        # quadratic field: symmetric differences carry no truncation error
        h = 0.1
        Jn = np.empty((2, 2))
        p = pe.location.as_array()
        for j in range(2):
            step = h * max(1.0, abs(p[j]))
            plus, minus = p.copy(), p.copy()
            plus[j] += step
            minus[j] -= step
            Jn[:, j] = (eval_sliding(plus, params) - eval_sliding(minus, params)) / (2.0 * step)
        eig = np.linalg.eigvals(Jn)
        rel = abs(pe.alpha - float(np.mean(eig.real))) / abs(pe.alpha)
        worst = max(worst, rel)
        assert rel <= 1e-8
    report(
        5,
        f"alpha vs numeric Jacobian eigenvalue real part: worst relative error {worst:.2e} <= 1e-8 "
        f"over {checked} focus draws; condition/discriminant agreement on {agreement} draws",
    )


def test_criterion_06_conservation(table1, cfg):
    x0 = 0.5 * table1.tau
    T = lv_period(x0, cfg, table1)
    # X on its invariant plane y = 0 is the planar Lotka-Volterra field
    arc = integrate_smooth(
        Piece.X, (x0, 0.0, table1.r1), Direction.FORWARD, replace(cfg, t_max=T), table1
    )
    F0 = first_integral_F((x0, table1.r1), table1)
    drift = max(abs(first_integral_F(s[::2], table1) - F0) for s in arc.states)
    assert drift <= 1e-8

    T_near = lv_period(table1.tau * (1.0 - 1e-3), cfg, table1)
    linearized = 2.0 * math.pi / math.sqrt(table1.m * table1.r1)
    rel = abs(T_near - linearized) / linearized
    assert rel <= 0.01
    report(
        6,
        f"|F drift| = {drift:.2e} <= 1e-8 over one period (T = {T:.6f}); "
        f"lv_period near the center = {T_near:.6f} vs 2 pi/sqrt(m r1) = {linearized:.6f} "
        f"({rel:.3%} <= 1%)",
    )


def test_criterion_07_sliding_formula_equivalence(table1, rng):
    # the library's one sliding field against the tests' own Filippov
    # combination of their factored X and Y
    combination = filippov_combination(table1)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.01, 2.0 * table1.tau)
        z = table1.phi + rng.uniform(1e-6, 2.0 * table1.phi)
        cf = eval_sliding((x, z), table1)
        gf = combination(x, z)[::2]
        rel = float(np.max(np.abs(cf - gf) / np.maximum(np.abs(cf), 1e-10)))
        worst = max(worst, rel)
        assert rel <= 1e-12

    worst_fold = 0.0
    for x in rng.uniform(0.01, 2.0 * table1.tau, size=200):
        zs = eval_sliding((x, table1.phi), table1)
        vx = eval_field(Piece.X, (x, x, table1.phi), table1)
        gap = max(
            abs(zs[0] - vx[0]) / max(1.0, abs(vx[0])),
            abs(zs[1] - vx[2]) / max(1.0, abs(vx[2])),
        )
        worst_fold = max(worst_fold, gap)
        assert gap <= 1e-14
    report(
        7,
        f"closed form vs Filippov combination: worst relative gap {worst:.2e} <= 1e-12 on 1000 "
        f"sliding points; fold-line identity gap {worst_fold:.2e} <= 1e-14",
    )


def test_criterion_08_classification(table1, rng):
    checked = 0
    for _ in range(10_000):
        x = rng.uniform(1e-6, 2.0 * table1.tau)
        z = rng.uniform(1e-9, 2.0 * table1.phi)
        Xh, Yh, _ = lie_derivatives((x, z), table1)
        assert Yh > 0.0, "escaping region must be empty"
        if Xh < 0.0 < Yh:
            expected = RegionLabel.SLIDING
        elif Xh * Yh > 0.0:
            expected = RegionLabel.CROSSING
        else:
            continue
        assert classify_sigma_point((x, z), table1) is expected
        checked += 1
    report(
        8,
        f"sign-based and closed-form classification agree on {checked}/10000 open-region "
        "samples; no escaping labels exist (Yh > 0 throughout)",
    )


def test_criterion_09_monotonicity_witnesses(table1, rng):
    _, interior = pseudo_equilibria(table1)
    a = h_rescale_constant(table1)

    def G(x, z):
        return monotonicity_witnesses((a * x, z), table1)[1]

    count = 0
    worst = 0.0
    while count < 1000:
        x = rng.uniform(0.2, 2.0)
        z = rng.uniform(0.05, 3.0)
        if abs(z - interior.z) < 0.15:
            continue
        count += 1
        dulac, _, dH = monotonicity_witnesses((x, z), table1)
        assert dulac > 0.0
        assert dH > 0.0
        w = eval_sliding((x, z), table1)
        dt = 1e-6 / max(1.0, float(np.max(np.abs(w))))
        fd = (G(x + dt * w[0], z + dt * w[1]) - G(x - dt * w[0], z - dt * w[1])) / (2.0 * dt)
        rel = abs(fd - dH) / dH
        worst = max(worst, rel)
        assert rel <= 1e-6
    for x in rng.uniform(0.05, 2.0, size=50):
        assert monotonicity_witnesses((x, interior.z), table1)[2] == 0.0
    report(
        9,
        f"Dulac divergence > 0 and dH along the flow > 0 on 1000 samples (exactly 0 on z = z_c); "
        f"worst finite-difference relative error {worst:.2e} <= 1e-6",
    )


def test_criterion_10_return_map_diagnostic(connection, cfg):
    cert, _ = connection
    params = cert.params
    # the grid is off-centre by half a step so that it misses x0 itself: the
    # X-arc from x0 lands on the focus, where the sliding flow rests, and
    # return_map_sample raises FocusLanding there
    lo, hi = cert.x0 - 0.039, cert.x0 + 0.041
    samples = return_map_sample(params, (lo, hi), 41, cfg)
    brackets = fixed_point_brackets(samples)
    assert brackets, "no sign change of pi(s) - s on the fold segment"

    persistent = 0
    for a, b in brackets:
        refined = return_map_sample(params, (a, b), 5, cfg)
        if fixed_point_brackets(refined):
            persistent += 1
    assert persistent >= 1
    report(
        10,
        f"{len(brackets)} sign changes of pi(s) - s on [{lo:.4f}, {hi:.4f}] (41 samples); "
        f"{persistent} persist under halved sampling step",
    )
