"""Sliding arcs against an independent high-precision oracle.

The oracle builds the sliding field from the model's two smooth pieces as
the Filippov convex combination lambda*X + (1 - lambda)*Y, with the lambda
that makes the h-component vanish on Sigma = {x = y}, and integrates it with
mpmath's Taylor integrator at 30 digits.  It shares no code with the
library: neither the closed-form sliding coefficients, nor the step control,
nor the event location.  Only the start points are the library's.
"""

from dataclasses import replace

import mpmath
import numpy as np

from preyswitch import Direction, EventKind, integrate_sliding, mu_curve, return_map_sample

BOUND = 1e-11


def sliding_orbit(params, start, sign: int):
    """t -> (x, z) along the sliding field from ``start``, reversed when sign = -1."""
    mp = mpmath.mpf
    r1, r2, m = mp(params.r1), mp(params.r2), mp(params.m)
    eq1 = mp(params.e) * mp(params.q1)
    eq2 = mp(params.e) * mp(params.q2) / mp(params.a_q)
    ratio = mp(params.beta2) / mp(params.beta1)

    def field(t, s):
        x, z = s  # the point (x, x, z) of Sigma
        X = ((r1 - z) * x, r2 * x, (eq1 * x - m) * z)
        Y = (r1 * x, (r2 - ratio * z) * x, (eq2 * x - m) * z)
        Xh, Yh = X[0] - X[1], Y[0] - Y[1]
        lam = Yh / (Yh - Xh)
        w = [lam * a + (1 - lam) * b for a, b in zip(X, Y)]
        return [sign * w[0], sign * w[2]]

    return mpmath.odefun(field, 0, [mp(v) for v in start])


def fold_exit(params, start, t_guess: float) -> float:
    """x where the forward sliding orbit from ``start`` first falls to z = phi."""
    with mpmath.workdps(30):
        orbit = sliding_orbit(params, start, 1)
        phi = mpmath.mpf(params.phi)
        t1 = mpmath.findroot(lambda t: orbit(t)[1] - phi, mpmath.mpf(t_guess))
        # the root must be the first exit: z stays above phi before it
        for k in range(1, 40):
            assert orbit(t1 * k / 40)[1] > phi, f"z = phi at t = {t1} is not the first exit"
        return float(orbit(t1)[0])


def library_exit(params, start, cfg):
    arc = integrate_sliding(start, Direction.FORWARD, cfg, params, cfg.event_tol)
    assert arc.terminal_event.kind is EventKind.FOLD_EXIT
    return arc


def test_sliding_return_from_the_cusp_matches_the_oracle(connection, cfg):
    # the certificate's x*: the forward sliding orbit through (tau, phi)
    cert, _ = connection
    params = cert.params
    start = (params.tau, params.phi)
    arc = library_exit(params, start, cfg)
    assert arc.terminal_event.state[0] == cert.x_star
    assert abs(cert.x_star - fold_exit(params, start, arc.t1)) <= BOUND


def test_return_map_sliding_legs_match_the_oracle(connection, cfg):
    cert, _ = connection
    params = cert.params
    # three samples, none landing near the focus (whose leg spirals out slowly)
    segment = (cert.x0 - 0.04, cert.x0 + 0.06)
    samples = return_map_sample(params, segment, 3, cfg)
    landings = mu_curve(np.linspace(*segment, 3), params, cfg)
    for (s, pi), u, v in zip(samples, landings.us, landings.vs):
        arc = library_exit(params, (u, v), cfg)
        assert arc.terminal_event.state[0] == pi
        assert abs(pi - fold_exit(params, (u, v), arc.t1)) <= BOUND, s


def test_backward_certificate_arc_matches_the_oracle(connection, cfg):
    # the backward orbit from the fold point, stopped by the horizon short of
    # its capture by the focus
    horizon = 20.0
    cert, _ = connection
    params = cert.params
    start = (cert.x0, params.phi)
    arc = integrate_sliding(start, Direction.BACKWARD, replace(cfg, t_max=horizon), params)
    assert arc.terminal_event.kind is EventKind.HORIZON_REACHED
    assert arc.t1 == -horizon
    with mpmath.workdps(30):
        ref = [float(v) for v in sliding_orbit(params, start, -1)(horizon)]
    assert np.max(np.abs(arc.terminal_event.state - ref)) <= BOUND
