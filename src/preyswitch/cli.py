"""Command-line front end.

Thin adapters over the library operations: every number written here is
produced by the library, and outputs are deterministic (17 significant
digits, no timestamps).  Exit codes: 0 success, 1 domain error (the error
class and message go to stderr), 2 usage error.

``sweep`` evaluates every row of its beta1 grid in one process with one
:func:`~preyswitch.connection.distances_to_connection` call, which stacks
the rows' fold launches into shared batches of lanes; a row that fails is
written as ``nan``.  Its ``--jobs`` option has no effect and is accepted so
that existing invocations still parse.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .connection import (
    build_N_point,
    coarse_mu_curve,
    distances_to_connection,
    find_shilnikov,
    lemma1_asymptotics_report,
    mu_curve,
    return_map_sample,
    verify_connection,
)
from .errors import PreySwitchError
from .flow import IntegratorConfig, events_payload, integrate_filippov, trajectory_rows
from .model import classify_sigma_point, load_parameters

_FMT = "{:.17g}"


def _fmt(v: float) -> str:
    return _FMT.format(float(v))


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _write_csv(out_path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_text(out_path, "\n".join(lines) + "\n")


def _write_json(out_path: str | None, payload) -> None:
    _write_text(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _numbers(form: str, sep: str):
    """An argparse type reading ``form``: numbers joined by ``sep``, where a
    part named n is a nonnegative count."""
    names = form.split(sep)

    def parse(text: str) -> tuple:
        parts = text.split(sep)
        try:
            if len(parts) == len(names):
                return tuple(_count(v) if k == "n" else float(v) for k, v in zip(names, parts))
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")

    return parse


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative count, got {text!r}")
    return n


def _cfg_from_args(args) -> IntegratorConfig:
    cfg = IntegratorConfig()
    overrides = {}
    if args.abs_tol is not None:
        overrides["abs_tol"] = args.abs_tol
    if args.tol is not None:
        overrides["event_tol"] = args.tol
    if args.max_step is not None:
        overrides["max_step"] = args.max_step
    if args.t_max is not None:
        overrides["t_max"] = args.t_max
    return replace(cfg, **overrides) if overrides else cfg


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", required=True, help="path to the parameters JSON")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    sub.add_argument("--tol", type=float, default=None, help="event tolerance")
    sub.add_argument("--max-step", dest="max_step", type=float, default=None)
    sub.add_argument("--t-max", dest="t_max", type=float, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preyswitch",
        description="Filippov dynamics of the prey-switching model: "
        "simulation, fold-return curve, and sliding-connection search.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("validate", help="validate a parameters file and echo derived constants")
    _add_common(sp)

    sp = subs.add_parser("classify", help="classify a point (x, z) of the switching plane")
    _add_common(sp)
    sp.add_argument("--point", required=True, type=_numbers("x,z", ","), help="x,z")

    sp = subs.add_parser("simulate", help="integrate a Filippov trajectory, write CSV samples")
    _add_common(sp)
    sp.add_argument("--initial", required=True, type=_numbers("x,y,z", ","), help="x,y,z")
    sp.add_argument("--events-out", default=None, help="optional JSON event log path")

    sp = subs.add_parser("mu-curve", help="sample the fold-return curve, write CSV x0,u,v")
    _add_common(sp)
    sp.add_argument("--grid", required=True, type=_numbers("lo:hi:n", ":"), help="lo:hi:n launch grid")

    sp = subs.add_parser("lemmas", help="fold-return asymptotics report with pass/fail lines")
    _add_common(sp)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--r2-small", dest="r2_small", type=float, default=1e-4)

    sp = subs.add_parser("find-connection", help="root search over the fold point for the connection")
    _add_common(sp)
    sp.add_argument(
        "--beta1-range", dest="beta1_range", required=True, type=_numbers("lo:hi", ":"), help="lo:hi"
    )

    sp = subs.add_parser("verify", help="certify the connection at the given fold point")
    _add_common(sp)
    sp.add_argument("--x0", type=float, required=True)

    sp = subs.add_parser("build-n-point", help="construct a connection-manifold parameter point")
    _add_common(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)

    sp = subs.add_parser("return-map", help="sample the fold first-return map, write CSV s,pi_s")
    _add_common(sp)
    sp.add_argument("--segment", required=True, type=_numbers("lo:hi", ":"), help="lo:hi")
    sp.add_argument("--n", type=_count, required=True)

    sp = subs.add_parser("sweep", help="evaluate the distance functional over a beta1 grid")
    _add_common(sp)
    sp.add_argument(
        "--beta1-range", dest="beta1_range", required=True, type=_numbers("lo:hi", ":"), help="lo:hi"
    )
    sp.add_argument("--n", type=_count, default=16)
    sp.add_argument("--jobs", type=int, default=None, help="has no effect; accepted for compatibility")
    return parser


def _run_command(args) -> int:
    params = load_parameters(args.params)
    cfg = _cfg_from_args(args)

    if args.command == "validate":
        payload = {
            "params": params.as_dict(),
            "derived": {"phi": params.phi, "b_q": params.b_q},
        }
        if params.q1 > 0.0:
            payload["derived"]["tau"] = params.tau
        _write_json(args.out, payload)
        return 0

    if args.command == "classify":
        label = classify_sigma_point(args.point, params, tol=cfg.event_tol)
        _write_text(args.out, label.value + "\n")
        return 0

    if args.command == "simulate":
        traj = integrate_filippov(args.initial, cfg, params)
        _write_csv(args.out, ["t", "x", "y", "z", "arc_kind", "arc_index"], trajectory_rows(traj))
        if args.events_out is not None:
            _write_json(args.events_out, events_payload(traj))
        return 0

    if args.command == "mu-curve":
        lo, hi, n = args.grid
        curve = mu_curve(np.linspace(lo, hi, n), params, cfg)
        _write_csv(args.out, ["x0", "u", "v"], curve.rows())
        return 0

    if args.command == "lemmas":
        report = lemma1_asymptotics_report(params, cfg, eps=args.eps, r2_small=args.r2_small)
        for name, ok in (
            ("fold-slope", report.slope_pass),
            ("quadratic-vanishing", report.v_ratio_pass),
            ("small-r2-coefficient", report.coeff_pass),
        ):
            sys.stderr.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        _write_json(args.out, report.payload())
        return 0 if report.passed else 1

    if args.command == "find-connection":
        cert = find_shilnikov(params, args.beta1_range, cfg)
        _write_json(args.out, cert.payload())
        return 0

    if args.command == "verify":
        cert = verify_connection(params, args.x0, cfg)
        _write_json(args.out, cert.payload())
        return 0

    if args.command == "build-n-point":
        report = build_N_point(args.x0, args.r2, params, cfg)
        _write_json(args.out, report.payload())
        return 0

    if args.command == "return-map":
        samples = return_map_sample(params, args.segment, args.n, cfg)
        _write_csv(args.out, ["s", "pi_s"], samples)
        return 0

    if args.command == "sweep":
        # the fold-return curve is free of beta1: sample it once for all rows
        curve = coarse_mu_curve(params, cfg)
        rows = [params.replace(beta1=float(b1)) for b1 in np.linspace(*args.beta1_range, args.n)]
        results = distances_to_connection(rows, cfg, curve)
        nan = float("nan")
        _write_csv(
            args.out,
            ["beta1", "D"],
            [(p.beta1, nan if isinstance(r, PreySwitchError) else r[0]) for p, r in zip(rows, results)],
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except PreySwitchError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
