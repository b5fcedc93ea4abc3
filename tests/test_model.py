import json

import pytest

from preyswitch import (
    ConstraintViolation,
    DegenerateTau,
    Direction,
    DomainError,
    IntegratorConfig,
    ParameterLoadError,
    Piece,
    RegionLabel,
    SigmaState,
    State,
    classify_sigma_point,
    eval_field,
    eval_sliding,
    first_integral_F,
    hyperbola_and_Fc,
    integrate_filippov,
    integrate_sliding,
    integrate_smooth,
    lie_derivatives,
    load_parameters,
    monotonicity_witnesses,
    parameters_from_dict,
    pseudo_equilibria,
    switching_function,
    to_model_coords,
    validate_parameters,
)
from preyswitch.sliding import sliding_jacobian
from conftest import TABLE1


def test_table1_derived_constants(table1):
    assert table1.phi == pytest.approx(0.710, rel=1e-12)
    assert table1.tau == pytest.approx(0.790 / (0.948 * 0.772), rel=1e-14)
    assert table1.tau == pytest.approx(1.0794473229706390, rel=1e-12)
    assert table1.b_q == pytest.approx(0.57448, rel=1e-12)


@pytest.mark.parametrize(
    "override, constraint",
    [
        (dict(r1=0.5, r2=0.5), "r1 > r2"),
        (dict(r2=-0.1), "r2 > 0"),
        (dict(q2=0.1, a_q=1.0, q1=0.5), "b_q >= 0"),
        (dict(a_q=0.0), "a_q > 0"),
        (dict(beta1=0.0), "beta1 > 0"),
        (dict(m=-1.0), "m > 0"),
        (dict(e=0.0), "e > 0"),
        (dict(q1=-0.2), "q1 >= 0"),
    ],
)
def test_validate_rejects_inadmissible(override, constraint):
    vals = dict(TABLE1, beta1=0.994)
    vals.update(override)
    with pytest.raises(ConstraintViolation) as err:
        validate_parameters(**vals)
    assert err.value.constraint == constraint


def test_validate_rejects_nonfinite():
    vals = dict(TABLE1, beta1=float("nan"))
    with pytest.raises(ConstraintViolation):
        validate_parameters(**vals)


def test_q1_zero_admitted_but_tau_degenerate():
    p = validate_parameters(**dict(TABLE1, beta1=1.0, q1=0.0))
    assert p.b_q == p.q2
    with pytest.raises(DegenerateTau):
        p.tau
    with pytest.raises(DegenerateTau):
        first_integral_F((0.5, 0.5), p)


def test_parameters_json_round_trip(tmp_path, table1):
    doc = table1.as_dict()
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    again = load_parameters(path)
    assert again == table1

    with pytest.raises(ParameterLoadError):
        parameters_from_dict({k: v for k, v in doc.items() if k != "m"})
    with pytest.raises(ParameterLoadError):
        parameters_from_dict(dict(doc, extra=1.0))
    with pytest.raises(ParameterLoadError):
        parameters_from_dict(dict(doc, m="0.79"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParameterLoadError):
        load_parameters(bad)


def test_to_model_coords(table1):
    origin = to_model_coords((0.0, 0.0, 0.0), table1)
    assert (origin.x, origin.y, origin.z) == (0.0, 0.0, 0.0)

    unit = to_model_coords((table1.beta1, table1.a_q * table1.beta2, table1.beta1), table1)
    assert (unit.x, unit.y, unit.z) == pytest.approx((1.0, 1.0, 1.0), rel=1e-15)

    s = to_model_coords((0.994, 0.660 * 0.896, 1.988), table1)
    assert (s.x, s.y, s.z) == pytest.approx((1.0, 1.0, 2.0), rel=1e-15)
    assert switching_function(s.as_array()) == pytest.approx(0.0, abs=1e-15)

    with pytest.raises(DomainError):
        to_model_coords((-1.0, 0.0, 0.0), table1)


def test_eval_field_center_line(table1):
    for y0 in (0.0, 1.0, 3.7):
        vel = eval_field(Piece.X, (table1.tau, y0, table1.r1), table1)
        assert vel[0] == pytest.approx(0.0, abs=1e-15)
        assert vel[2] == pytest.approx(0.0, abs=1e-15)
        assert vel[1] == pytest.approx(table1.r2 * y0, rel=1e-15)


def test_eval_field_y_keeps_z_zero_plane(table1):
    vel = eval_field(Piece.Y, (0.8, 1.3, 0.0), table1)
    assert vel[2] == 0.0
    assert vel[0] == pytest.approx(table1.r1 * 0.8, rel=1e-15)
    assert vel[1] == pytest.approx(table1.r2 * 1.3, rel=1e-15)


def test_eval_field_planar_example(table1):
    # X on its invariant plane y = 0 is the planar Lotka-Volterra field
    vel = eval_field(Piece.X, (0.5, 0.0, 0.9), table1)
    assert vel[0] == pytest.approx(-0.032, rel=1e-12)
    assert vel[1] == 0.0
    assert vel[2] == pytest.approx(-0.3816648, rel=1e-12)
    # the planar (x, z) form of the call is gone, and a named error says so
    with pytest.raises(DomainError, match="x, y, z"):
        eval_field(Piece.X, (0.5, 0.9), table1)


def test_x_field_invariant_plane_y0(table1, rng):
    for _ in range(50):
        x, z = rng.uniform(0.0, 3.0, size=2)
        assert eval_field(Piece.X, (x, 0.0, z), table1)[1] == 0.0


def test_lie_derivatives_fold_point(table1):
    Xh, Yh, X2h = lie_derivatives((1.0, table1.phi), table1)
    assert Xh == pytest.approx(0.0, abs=1e-15)
    assert X2h == pytest.approx(0.04128224, rel=1e-12)
    assert Yh > 0.0


def test_lie_derivatives_origin_axis(table1):
    assert lie_derivatives((0.0, 1.3), table1) == (0.0, 0.0, 0.0)


def test_lie_derivative_yh_example(table1):
    _, Yh, _ = lie_derivatives((1.0, 0.3), table1)
    assert Yh == pytest.approx(0.9804225352112676, rel=1e-12)


def test_classify_examples(table1):
    assert classify_sigma_point((1.0, 0.3), table1) is RegionLabel.CROSSING
    assert classify_sigma_point((0.5, 0.710), table1) is RegionLabel.VISIBLE_FOLD
    assert classify_sigma_point((table1.tau, table1.phi), table1) is RegionLabel.CUSP
    assert classify_sigma_point((1.0, 1.5), table1) is RegionLabel.SLIDING
    assert classify_sigma_point((0.0, 0.9), table1) is RegionLabel.ORIGIN_LINE
    assert classify_sigma_point((table1.tau + 0.3, table1.phi), table1) is RegionLabel.BOUNDARY
    assert classify_sigma_point((0.7, 0.0), table1) is RegionLabel.BOUNDARY


def test_classify_agrees_with_sign_rule(table1, rng):
    # brute-force rule from the Lie-derivative signs, on the open regions
    hits = 0
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
        got = classify_sigma_point((x, z), table1)
        assert got is expected, (x, z, got, expected)
        hits += 1
    assert hits > 9_000


def test_fold_visibility_and_cusp_degeneracy(table1, rng):
    tau, phi = table1.tau, table1.phi
    for x in rng.uniform(1e-6, tau * (1.0 - 1e-9), size=200):
        _, _, X2h = lie_derivatives((x, phi), table1)
        assert X2h > 0.0
    assert lie_derivatives((tau, phi), table1)[2] == pytest.approx(0.0, abs=1e-15)


def test_first_integral_center_and_example(table1):
    assert first_integral_F((table1.tau, table1.r1), table1) == pytest.approx(0.0, abs=1e-15)
    # frozen from 30-digit evaluation of the defining expression
    assert first_integral_F((0.5, 0.9), table1) == pytest.approx(0.18624061705113450, rel=1e-13)


def test_first_integral_strict_minimum(table1, rng):
    for _ in range(1000):
        x = rng.uniform(0.05, 3.0)
        z = rng.uniform(0.05, 3.0)
        if abs(x - table1.tau) < 1e-6 and abs(z - table1.r1) < 1e-6:
            continue
        assert first_integral_F((x, z), table1) > 0.0


def test_first_integral_domain(table1):
    with pytest.raises(DomainError):
        first_integral_F((0.0, 1.0), table1)
    with pytest.raises(DomainError):
        first_integral_F((1.0, -0.2), table1)


@pytest.mark.parametrize("bad", (float("nan"), float("inf")), ids=("nan", "inf"))
@pytest.mark.parametrize(
    "call",
    [
        lambda p, v: State(v, 0.0, 0.0),
        lambda p, v: SigmaState(0.1, v),
        lambda p, v: to_model_coords((v, 1.0, 1.0), p),
        lambda p, v: first_integral_F((v, 1.0), p),
        lambda p, v: lie_derivatives((v, 1.0), p),
        lambda p, v: classify_sigma_point((1.0, v), p),
        lambda p, v: eval_field(Piece.X, (1.0, 0.5, v), p),
        lambda p, v: eval_sliding((v, 1.0), p),
        lambda p, v: monotonicity_witnesses((1.0, v), p),
        lambda p, v: hyperbola_and_Fc(v, p, pseudo_equilibria(p)[1]),
    ],
    ids=[
        "State",
        "SigmaState",
        "to_model_coords",
        "first_integral_F",
        "lie_derivatives",
        "classify_sigma_point",
        "eval_field",
        "eval_sliding",
        "monotonicity_witnesses",
        "hyperbola_and_Fc",
    ],
)
def test_non_finite_points_raise_domain_error(table1, call, bad):
    # no NaN or infinity passes silently into a result
    with pytest.raises(DomainError, match="finite"):
        call(table1, bad)


POINT_CALLS = [
    pytest.param(lambda p, s: eval_sliding(s, p), 2, id="eval_sliding"),
    pytest.param(lambda p, s: sliding_jacobian(s, p), 2, id="sliding_jacobian"),
    pytest.param(lambda p, s: lie_derivatives(s, p), 2, id="lie_derivatives"),
    pytest.param(lambda p, s: classify_sigma_point(s, p), 2, id="classify_sigma_point"),
    pytest.param(lambda p, s: first_integral_F(s, p), 2, id="first_integral_F"),
    pytest.param(lambda p, s: monotonicity_witnesses(s, p), 2, id="monotonicity_witnesses"),
    pytest.param(lambda p, s: to_model_coords(s, p), 3, id="to_model_coords"),
    pytest.param(lambda p, s: eval_field(Piece.X, s, p), 3, id="eval_field"),
    pytest.param(
        lambda p, s: integrate_smooth(Piece.X, s, Direction.FORWARD, IntegratorConfig(), p),
        3,
        id="integrate_smooth",
    ),
    pytest.param(
        lambda p, s: integrate_sliding(s, Direction.FORWARD, IntegratorConfig(), p), 2, id="integrate_sliding"
    ),
    pytest.param(lambda p, s: integrate_filippov(s, IntegratorConfig(), p), 3, id="integrate_filippov"),
]


@pytest.mark.parametrize("count", ("short", "long"))
@pytest.mark.parametrize("call, dim", POINT_CALLS)
def test_wrong_coordinate_count_raises_domain_error(table1, call, dim, count):
    # a point is neither cut short nor read in part: sliding_jacobian once
    # took (x, z, extra) for (x, z)
    point = (0.5, 0.4, 0.9, 1.1)[: dim - 1 if count == "short" else dim + 1]
    with pytest.raises(DomainError, match=f"must have {dim} coordinates"):
        call(table1, point)


@pytest.mark.parametrize(
    "point",
    (0.5, "ab", "12", None, [0.5, None], [[0.5, 0.4], [0.9, 1.1]]),
    ids=("number", "letters", "digits", "None", "None-coordinate", "nested"),
)
@pytest.mark.parametrize("call, dim", POINT_CALLS)
def test_non_numeric_points_raise_domain_error(table1, call, dim, point):
    # a number, a string, None or a nested sequence is not a point; the
    # float conversion's own TypeError or ValueError used to escape
    with pytest.raises(DomainError, match=f"must be a sequence of {dim} numbers"):
        call(table1, point)
