import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import preyswitch
from preyswitch import (
    IntegratorConfig,
    coarse_mu_curve,
    distance_to_connection,
    validate_parameters,
)
from preyswitch.cli import main
from conftest import TABLE1, taylor_runs


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "table1.json"
    path.write_text(json.dumps(dict(TABLE1, beta1=0.994)))
    return str(path)


def run(args):
    return main(args)


def test_validate_success(params_file, tmp_path, capsys):
    out = tmp_path / "validated.json"
    assert run(["validate", "--params", params_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["beta1"] == 0.994
    assert doc["derived"]["phi"] == pytest.approx(0.710, rel=1e-12)
    assert doc["derived"]["tau"] == pytest.approx(1.0794473229706390, rel=1e-12)


def test_validate_failure_names_constraint(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TABLE1, beta1=0.994, r1=0.1)))
    assert run(["validate", "--params", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "ConstraintViolation" in err and "r1 > r2" in err


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    assert run(["validate", "--params", str(bad)]) == 1
    assert "ParameterLoadError" in capsys.readouterr().err


def test_missing_file_is_domain_error(capsys):
    assert run(["validate", "--params", "/nonexistent/params.json"]) == 1


def test_usage_error_exit_code(params_file, capsys):
    for args in (
        ["classify"],
        ["classify", "--point", "1"],
        ["classify", "--point", "1,a"],
        ["simulate", "--initial", "0.3,0.3"],
        ["mu-curve", "--grid", "0:1"],
        ["mu-curve", "--grid", "0:1:-1"],
        ["mu-curve", "--grid", "0:1:2.5"],
        ["find-connection", "--beta1-range", "1:2:3"],
        ["find-connection", "--beta1-range", "a:b"],
        ["return-map", "--segment", "0.3", "--n", "3"],
        ["return-map", "--segment", "0.3:0.4", "--n", "-1"],
        ["sweep", "--beta1-range", "1:10", "--n", "-2"],
        ["validate", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            run([args[0], "--params", params_file] + args[1:])
        assert exc.value.code == 2, args
        assert "Traceback" not in capsys.readouterr().err


def test_classify_crossing(params_file, capsys):
    assert run(["classify", "--params", params_file, "--point", "1,0.3"]) == 0
    assert capsys.readouterr().out.strip() == "Crossing"


def test_classify_sliding(params_file, capsys):
    assert run(["classify", "--params", params_file, "--point", "1,1.5"]) == 0
    assert capsys.readouterr().out.strip() == "Sliding"


def test_classify_resolves_the_fold_line_to_the_event_tolerance(params_file, capsys):
    # 1e-8 above the fold line phi = 0.71
    args = ["classify", "--params", params_file, "--point", "0.5,0.71000001"]
    assert run(args) == 0
    assert capsys.readouterr().out.strip() == "Sliding"
    assert run(args + ["--abs-tol", "1e-8", "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out.strip() == "VisibleFold"


def test_classify_rejects_a_non_finite_point(params_file, capsys):
    assert run(["classify", "--params", params_file, "--point", "0.5,nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("DomainError: ") and "Traceback" not in captured.err


def test_simulate_rejects_non_finite_and_negative_starts(params_file, capsys):
    for initial in ("0.5,0.3,nan", "-0.5,0.3,0.7"):
        assert run(["simulate", "--params", params_file, f"--initial={initial}", "--t-max", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("DomainError: ") and "Traceback" not in err


def test_mu_curve_deterministic_output(params_file, tmp_path):
    out1, out2 = tmp_path / "mu1.csv", tmp_path / "mu2.csv"
    args = ["mu-curve", "--params", params_file, "--grid", "0.2:0.5:5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "x0,u,v"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.2
    assert "," in text and "." in text


def test_simulate_writes_rows_and_events(params_file, tmp_path):
    traj_csv = tmp_path / "traj.csv"
    ev_json = tmp_path / "events.json"
    code = run(
        [
            "simulate",
            "--params",
            params_file,
            "--initial",
            "0.3,0.3,0.71",
            "--t-max",
            "25",
            "--out",
            str(traj_csv),
            "--events-out",
            str(ev_json),
        ]
    )
    assert code == 0
    lines = traj_csv.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,z,arc_kind,arc_index"
    assert any("Sliding" in line for line in lines[1:])
    events = json.loads(ev_json.read_text())
    assert events[0]["kind"] == "SigmaEntrySliding"


def test_lemmas_report(params_file, tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    assert run(["lemmas", "--params", params_file, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("PASS") == 3
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_find_connection_and_verify(params_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    code = run(
        [
            "find-connection",
            "--params",
            params_file,
            "--beta1-range",
            "7.0:8.5",
            "--out",
            str(cert_path),
        ]
    )
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert 7.0 < cert["beta1_star"] < 8.5
    assert cert["bracket_width"] <= 1e-6
    assert cert["x_star"] < cert["x0"]

    # certify the located loop through the CLI as well
    star_params = tmp_path / "star.json"
    star_params.write_text(json.dumps(cert["params"]))
    verify_out = tmp_path / "verify.json"
    code = run(
        [
            "verify",
            "--params",
            str(star_params),
            "--x0",
            str(cert["x0"]),
            "--out",
            str(verify_out),
        ]
    )
    assert code == 0
    doc = json.loads(verify_out.read_text())
    assert doc["forward_error"] <= 1e-6
    assert doc["backward_captured"] is True


def test_find_connection_same_sign(params_file, capsys):
    assert run(["find-connection", "--params", params_file, "--beta1-range", "0.994:2.0"]) == 1
    assert "SameSign" in capsys.readouterr().err


def test_find_connection_rejects_a_non_finite_range(params_file, capsys):
    for beta1_range in ("nan:10", "inf:10", "0.994:nan"):
        assert run(["find-connection", "--params", params_file, "--beta1-range", beta1_range]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("DomainError: ") and "Traceback" not in captured.err


def test_build_n_point_cli(params_file, tmp_path):
    out = tmp_path / "npoint.json"
    code = run(
        [
            "build-n-point",
            "--params",
            params_file,
            "--x0",
            "0.37",
            "--r2",
            "0.05",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params_out"]["r2"] == 0.05
    assert doc["M_bound"] > doc["params_out"]["m"]
    assert max(doc["identity_residuals"].values()) <= 1e-10


def test_return_map_cli(params_file, tmp_path):
    out = tmp_path / "map.csv"
    code = run(
        [
            "return-map",
            "--params",
            params_file,
            "--segment",
            "0.30:0.40",
            "--n",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,pi_s"
    assert len(lines) == 4


def test_sweep_serial_and_parallel_agree(params_file, tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["sweep", "--params", params_file, "--beta1-range", "6.0:9.0", "--n", "3"]
    assert run(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_text() == parallel.read_text()
    rows = [line.split(",") for line in serial.read_text().strip().splitlines()[1:]]
    assert len(rows) == 3
    ds = [float(r[1]) for r in rows]
    assert ds[0] > 0.0 > ds[-1]


def test_sweep_failing_row_writes_nan(tmp_path):
    # with m = 9.5 the pseudo-equilibrium is a node for beta1 in about
    # (1.85, 3.56), so rows 2 and 3 have no D (Lemma2Violation); the other rows
    # keep the values they have alone
    params = validate_parameters(**dict(TABLE1, beta1=0.994, m=9.5))
    path, out = tmp_path / "m9.5.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(params.as_dict()))
    args = ["sweep", "--params", str(path), "--beta1-range", "1:5", "--n", "5", "--out", str(out)]
    assert run(args) == 0
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert [b for b, _ in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert [math.isnan(d) for _, d in rows] == [False, True, True, False, False]
    curve = coarse_mu_curve(params, IntegratorConfig())
    for b, d in rows[:1] + rows[3:]:
        D, _ = distance_to_connection(params.replace(beta1=b), IntegratorConfig(), curve)
        assert abs(d - D) <= 1e-10


def test_sweep_solver_call_budget(params_file, tmp_path, monkeypatch):
    # the coarse curve is one call of the Taylor loop, and each iteration
    # matching all 32 rows together is one more
    runs = taylor_runs(monkeypatch)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--params", params_file, "--beta1-range", "1.2:9.8", "--n", "32", "--out", str(out)]
    assert run(args) == 0
    ds = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(ds) == 32 and not any(math.isnan(d) for d in ds)
    assert len(runs) <= 10


def test_sweep_curve_failure_exits_1(params_file, capsys):
    # the fold-return curve does not depend on beta1, so its failure fails the
    # whole sweep instead of turning every row into NaN
    args = ["sweep", "--params", params_file, "--beta1-range", "6.0:9.0", "--n", "3", "--jobs", "1"]
    assert run(args + ["--t-max", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NoReturn: ")


def test_readme_cli_examples_run(tmp_path):
    # the shell block of the README's CLI section, run by bash in a fresh
    # directory with its JSON block as table1.json, where preyswitch is this
    # package's CLI module and python this interpreter: every command exits 0
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    params, commands = (re.search(rf"```{kind}\n(.*?)```", section, re.S).group(1) for kind in ("json", "sh"))
    (tmp_path / "table1.json").write_text(params)
    python = shlex.quote(sys.executable)
    script = f'set -e\npython() {{ {python} "$@"; }}\npreyswitch() {{ python -m preyswitch.cli "$@"; }}\n{commands}'
    src = str(Path(preyswitch.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert {"cert.json", "star.json", "verify.json", "map.csv", "sweep.csv"} <= {p.name for p in tmp_path.iterdir()}
    assert json.loads((tmp_path / "verify.json").read_text())
