"""Command-line harness: certify / refine / shadow / periodic / sweep.

Exit codes: 0 success, 1 certification or precondition failure, 2 solver
non-convergence, 3 configuration error.  Reports are canonical JSON
(sorted keys, shortest round-trip floats) or CSV; identical config and
seed produce byte-identical output.  Wall-clock timing is only included
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
from .systems import estimate_bounds

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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _margins_csv(cert) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["segment", "step", "condition", "lhs", "rhs", "margin"])
    for r in cert.margins:
        writer.writerow([r.segment, r.step, r.condition, repr(float(r.lhs)),
                         repr(float(r.rhs)), repr(float(r.margin))])
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


def _solver_config(cfg: RunConfig, po, f):
    block = cfg.solver
    lam = float(cfg.certification["lambda"])
    return make_solver_config(
        po, f, lam,
        lam_tilde=block.get("lambda_tilde"),
        epsilon1=float(block.get("epsilon1", 0.1)),
        eta=block.get("eta"),
        tol_fix=float(block.get("tol_fix", 1e-12)),
        max_iter=int(block.get("max_iter", 10_000)),
        grid_res=int(block.get("grid_res", 256)),
    )


def cmd_certify(cfg: RunConfig, args) -> int:
    start = time.perf_counter()
    f, po, splittings = _build_all(cfg, args.seed)
    lam = float(cfg.certification["lambda"])
    eps = float(cfg.certification.get("epsilon", 0.0))
    delta = float(cfg.certification.get("delta", 0.0))
    cert = certify_pseudo_orbit(po, splittings, f, lam, eps, delta)
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
    bounds = estimate_bounds(f)
    rcfg = make_refinement_config(
        lam, lam_tilde, bounds.R,
        lam0=block.get("lambda0"),
        offdiag_tol=float(block.get("offdiag_tol", 1e-8)),
    )
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
        "certificate": result.certificate.to_dict(),
        "is_quasi_hyperbolic": is_quasi_hyperbolic(result.certificate, rcfg.offdiag_tol),
        "max_offdiagonal": result.max_offdiagonal,
        "max_invariance_residual": result.max_invariance_residual,
        "splittings": [
            {
                "unstable": [[float(v) for v in row] for row in sp.unstable],
                "stable": [[float(v) for v in row] for row in sp.stable],
            }
            for sp in result.splittings.splittings
        ],
    }
    _emit(_report_json(report), _out_path(cfg, args))
    return EXIT_OK if result.certificate.passed else EXIT_FAILED


def _shadow_common(cfg: RunConfig, args, periodic: bool) -> int:
    start = time.perf_counter()
    f, po, splittings = _build_all(cfg, args.seed)
    g = build_perturbed(cfg, f)
    scfg = _solver_config(cfg, po, f)
    report = _base_report(cfg, "periodic" if periodic else "shadow", None)
    report["solver_constants"] = scfg.to_dict()
    cert, margins = shadowing_preconditions(po, splittings, f, g, scfg)
    report["certificate"] = cert.to_dict()
    report["precondition_margins"] = {k: float(v) for k, v in margins.items()}
    if not cert.passed or min(margins.values()) < 0:
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


def cmd_shadow(cfg: RunConfig, args) -> int:
    return _shadow_common(cfg, args, periodic=False)


def cmd_periodic(cfg: RunConfig, args) -> int:
    return _shadow_common(cfg, args, periodic=True)


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
    try:
        cfg = parse_config(payload)
        f = build_system(cfg)
        po = build_pseudo_orbit(cfg, f, seed_override=seed_override)
        splittings = build_splittings(cfg, po, f)
        g = build_perturbed(cfg, f)
        lam = float(cfg.certification["lambda"])
        eps = float(cfg.certification.get("epsilon", 0.0))
        delta = float(cfg.certification.get("delta", 0.0))
        cert = certify_pseudo_orbit(po, splittings, f, lam, eps, delta)
        scfg = _solver_config(cfg, po, f)
        result = solve_finite(po, splittings, f, g, scfg, blocks=cert.blocks)
        cell = {
            "certified": cert.passed,
            "converged": result.converged,
            "max_shadow_distance": result.max_distance,
            "iterations": result.iterations,
        }
    except Exception as exc:  # recorded per cell; cmd_sweep reports it and fails
        cell = {"certified": False, "converged": False,
                "max_shadow_distance": float("nan"), "iterations": 0,
                "error": f"{type(exc).__name__}: {exc}"}
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
    "shadow": cmd_shadow,
    "periodic": cmd_periodic,
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
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--jobs", type=int, default=None, help="parallel sweep cells")
        p.add_argument("--seed", type=int, default=None, help="override the generator rng seed")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte-identical reports)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
