"""Command-line harness: certify / refine / shadow / periodic / sweep.

Exit codes: 0 success, 1 certification or precondition failure, 2 solver
non-convergence, 3 configuration or usage error.  A JSON report is the text
of json.dumps(report, sort_keys=True, indent=2) and a newline, written by
bishadow.jsonwriter; the other reports are CSV.  Identical config and seed
produce byte-identical output.  Wall-clock timing is only included
when --timing is passed, keeping default reports deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from . import __version__
from .certification import certify_pseudo_orbit, is_quasi_hyperbolic
from .config import (
    ConfigError,
    RunConfig,
    build_perturbed,
    build_pseudo_orbit,
    build_splittings,
    build_system,
    load_config,
    parse_config,
)
from .jsonwriter import dumps
from .refinement import (
    GraphTransformError,
    PreconditionError,
    make_refinement_config,
    refine,
)
from .shadowing import (
    make_solver_config,
    shadowing_preconditions,
    solve_finite,
    solve_periodic,
)
from .systems import map_distance, system_bounds

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONFIG = 3


def _out_path(cfg: RunConfig, args) -> str | None:
    return args.out or cfg.output.get("path")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(report: dict) -> str:
    return dumps(report) + "\n"


def _margins_csv(cert) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["segment", "step", "condition", "lhs", "rhs", "margin"])
    columns = (cert.segment, cert.step, cert.condition, cert.lhs, cert.rhs, cert.margin)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    return buf.getvalue()


def _base_report(cfg: RunConfig, command: str, timing: float | None) -> dict:
    report = {"command": command, "version": __version__, "config": cfg.echo()}
    if timing is not None:
        report["timing"] = {"wall_s": timing}
    return report


def _build_all(cfg: RunConfig, seed_override):
    f = build_system(cfg)
    po = build_pseudo_orbit(cfg, f, seed_override=seed_override)
    splittings = build_splittings(cfg, po, f)
    return f, po, splittings


def _certify(cfg: RunConfig, po, splittings, f):
    block = cfg.certification
    return certify_pseudo_orbit(
        po, splittings, f, float(block["lambda"]),
        float(block.get("epsilon", 0.0)), float(block.get("delta", 0.0)),
    )


def _solver_config(cfg: RunConfig, po, f):
    block = cfg.solver
    lam = float(cfg.certification["lambda"])
    try:
        return make_solver_config(
            po, f, lam,
            lam_tilde=block.get("lambda_tilde"),
            epsilon1=float(block.get("epsilon1", 0.1)),
            eta=block.get("eta"),
            tol_fix=float(block.get("tol_fix", 1e-12)),
            max_iter=int(block.get("max_iter", 10_000)),
        )
    except ValueError as exc:  # the solver block's values out of range for this lambda
        raise ConfigError(f"solver: {exc}") from exc


def cmd_certify(cfg: RunConfig, args) -> int:
    start = time.perf_counter()
    f, po, splittings = _build_all(cfg, args.seed)
    cert = _certify(cfg, po, splittings, f)
    elapsed = time.perf_counter() - start if args.timing else None
    if args.format == "csv":
        _emit(_margins_csv(cert), _out_path(cfg, args))
    else:
        report = _base_report(cfg, "certify", elapsed)
        report["certificate"] = cert.to_dict()
        worst = cert.worst()
        report["binding"] = {"condition": worst.condition, "segment": worst.segment,
                             "step": worst.step, "margin": float(worst.margin)}
        _emit(_report_json(report), _out_path(cfg, args))
    return EXIT_OK if cert.passed else EXIT_FAILED


def cmd_refine(cfg: RunConfig, args) -> int:
    start = time.perf_counter()
    f, po, splittings = _build_all(cfg, args.seed)
    lam = float(cfg.certification["lambda"])
    block = cfg.refinement
    lam_tilde = float(block.get("lambda_tilde", (1.0 + lam) / 2.0))
    bounds = system_bounds(f)
    try:
        rcfg = make_refinement_config(
            lam, lam_tilde, bounds.R,
            lam0=block.get("lambda0"),
            offdiag_tol=float(block.get("offdiag_tol", 1e-8)),
        )
    except ValueError as exc:  # the refinement block's values out of range for this lambda
        raise ConfigError(f"refinement: {exc}") from exc
    report = _base_report(cfg, "refine", None)
    try:
        result = refine(po, splittings, f, rcfg)
    except (PreconditionError, GraphTransformError) as exc:
        kind = "precondition" if isinstance(exc, PreconditionError) else "graph_transform"
        report["error"] = {"kind": kind, "message": str(exc)}
        _emit(_report_json(report), _out_path(cfg, args))
        return EXIT_FAILED
    if args.timing:
        report["timing"] = {"wall_s": time.perf_counter() - start}
    report["refinement"] = {
        "lambda_tilde": rcfg.lam_tilde,
        "eps_cap": rcfg.eps_cap,
        "eps_cap_kind": bounds.kind,
        "certificate": result.certificate.to_dict(),
        "is_quasi_hyperbolic": is_quasi_hyperbolic(result.certificate, rcfg.offdiag_tol),
        "max_offdiagonal": result.max_offdiagonal,
        "max_invariance_residual": result.max_invariance_residual,
        "splittings": [{"unstable": u, "stable": s} for u, s in
                       zip(result.splittings.unstable.tolist(), result.splittings.stable.tolist())],
    }
    _emit(_report_json(report), _out_path(cfg, args))
    return EXIT_OK if result.certificate.passed else EXIT_FAILED


def _shadow_common(cfg: RunConfig, args, periodic: bool) -> int:
    start = time.perf_counter()
    f, po, splittings = _build_all(cfg, args.seed)
    if periodic and not po.closed:
        raise ConfigError("periodic needs a pseudo-orbit whose closing seed equals its first seed")
    g = build_perturbed(cfg, f)
    scfg = _solver_config(cfg, po, f)
    report = _base_report(cfg, "periodic" if periodic else "shadow", None)
    report["solver_constants"] = scfg.to_dict()
    distance, distance_kind = map_distance(f, g)
    report["constants"] = {
        "R": {"kind": scfg.kind, "value": scfg.R}, "L": {"kind": scfg.kind, "value": scfg.L},
        "map_distance": {"kind": distance_kind, "value": distance},
    }
    cert, margins = shadowing_preconditions(po, splittings, f, g, scfg)
    report["certificate"] = cert.to_dict()
    report["precondition_margins"] = {k: float(v) for k, v in margins.items()}
    if not (cert.passed and all(m >= 0 for m in margins.values())):  # a NaN margin fails
        report["error"] = {"kind": "precondition",
                           "message": "certification or size preconditions failed"}
        _emit(_report_json(report), _out_path(cfg, args))
        return EXIT_FAILED
    if periodic:
        result = solve_periodic(po, splittings, f, g, scfg, blocks=cert.blocks)
    else:
        result = solve_finite(po, splittings, f, g, scfg, blocks=cert.blocks)
    if args.timing:
        report["timing"] = {"wall_s": time.perf_counter() - start}
    report["result"] = result.to_dict()
    _emit(_report_json(report), _out_path(cfg, args))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _sweep_payload(raw: dict, axis: str, value: float) -> dict:
    payload = json.loads(json.dumps(raw))  # deep copy
    payload.pop("sweep", None)
    if axis == "delta":
        gen = payload.get("pseudo_orbit", {}).get("generator")
        if gen is None:
            raise ConfigError("delta sweep needs a generator pseudo-orbit")
        gen["jump_amp"] = value
        payload.setdefault("certification", {})["delta"] = value
    elif axis == "d":
        pert = payload.setdefault("perturbation", {"type": "shift"})
        if pert.get("type") != "shift":
            raise ConfigError("d sweep needs a shift perturbation")
        matrix = payload.get("system", {}).get("matrix")
        dim = len(matrix) if matrix else 2
        pert["offset"] = [value] + [0.0] * (dim - 1)
    elif axis == "epsilon":
        payload["certification"]["epsilon"] = value
    else:
        payload["certification"]["lambda"] = value
    return payload


def _run_sweep_cell(payload: dict, seed_override) -> dict:
    start = time.perf_counter()
    cell = {"certified": False, "converged": False,
            "max_shadow_distance": float("nan"), "iterations": 0}
    try:
        cfg = parse_config(payload)
        f, po, splittings = _build_all(cfg, seed_override)
        g = build_perturbed(cfg, f)
        cert = _certify(cfg, po, splittings, f)
        cell["certified"] = cert.passed
        scfg = _solver_config(cfg, po, f)
        result = solve_finite(po, splittings, f, g, scfg, blocks=cert.blocks)
        cell.update(converged=result.converged, max_shadow_distance=result.max_distance,
                    iterations=result.iterations)
    except Exception as exc:  # recorded per cell; cmd_sweep reports it and fails
        cell["error"] = f"{type(exc).__name__}: {exc}"
    cell["wall_ms"] = (time.perf_counter() - start) * 1e3
    return cell


def cmd_sweep(cfg: RunConfig, args) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep command needs a sweep block")
    axis = cfg.sweep["axis"]
    values = [float(v) for v in cfg.sweep["values"]]
    payloads = [_sweep_payload(cfg.raw, axis, v) for v in values]
    jobs = args.jobs if args.jobs else min(os.cpu_count() or 1, len(values))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_sweep_cell, payloads, [args.seed] * len(payloads)))
    else:
        cells = [_run_sweep_cell(p, args.seed) for p in payloads]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["axis_value", "certified", "converged", "max_shadow_distance", "iterations"]
    if args.timing:
        header.append("wall_ms")
    writer.writerow(header)
    for value, cell in zip(values, cells):
        row = [repr(value), cell["certified"], cell["converged"],
               repr(float(cell["max_shadow_distance"])), cell["iterations"]]
        if args.timing:
            row.append(repr(cell["wall_ms"]))
        writer.writerow(row)
    _emit(buf.getvalue(), _out_path(cfg, args))
    failed = [(value, cell["error"]) for value, cell in zip(values, cells) if "error" in cell]
    for value, message in failed:
        sys.stderr.write(f"sweep cell {axis}={value!r} failed: {message}\n")
    return EXIT_FAILED if failed else EXIT_OK


_COMMANDS = {
    "certify": cmd_certify,
    "refine": cmd_refine,
    "shadow": partial(_shadow_common, periodic=False),
    "periodic": partial(_shadow_common, periodic=True),
    "sweep": cmd_sweep,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bishadow",
        description="certify hyperbolicity of pseudo-orbits and compute shadowing orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name == "certify":
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=None, help="parallel sweep cells")
        p.add_argument("--seed", type=int, default=None, help="override the generator rng seed")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte-identical reports)")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad command line: a config error here
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
