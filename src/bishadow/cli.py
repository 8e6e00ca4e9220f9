"""Command-line harness: certify / refine / shadow / periodic / sweep.

Exit codes: 0 success, 1 certification or precondition failure, 2 solver
non-convergence or a solver error (reported with kind "solver"), 3
configuration or usage error, or a report that cannot be written.  Each
command returns its report fields (or its CSV text pieces) and its exit
code, with every value computed; main alone adds the command, version and
config, then opens the output and writes the report.  A JSON report is the
text of json.dumps(jsonwriter.plain(report), sort_keys=True, indent=2) and a
newline, streamed from the report's arrays by bishadow.jsonwriter a slice of
rows at a time; the certify CSV is streamed the same way.  Identical config
and seed produce byte-identical output; wall-clock timing is only included
when --timing is passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import partial

from . import __version__
from .certification import certify_pseudo_orbit, is_quasi_hyperbolic
from .config import (ConfigError, RunConfig, build_perturbed, build_pseudo_orbit,
                     build_splittings, build_system, load_config, parse_config)
from .jsonwriter import SLICE, Table, write
from .refinement import GraphTransformError, PreconditionError, make_refinement_config, refine
from .shadowing import (BallInvariantError, UnstableSolveError, make_solver_config,
                        shadowing_preconditions, solve_finite, solve_periodic)
from .systems import system_bounds

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONFIG = 3


def _report_json(report: dict, out) -> None:
    write(report, out)
    out("\n")


def _margins_csv(cert):
    """The margin table as CSV text, one piece per slice of rows."""
    yield "segment,step,condition,lhs,rhs,margin\n"
    columns = (cert.segment, cert.step, cert.condition, cert.lhs, cert.rhs, cert.margin)
    for start in range(0, len(cert.margin), SLICE):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            zip(*(c[start:start + SLICE].tolist() for c in columns)))
        yield buf.getvalue()


# config key -> (library keyword, cast); a key the config leaves out keeps
# the library's default
_SOLVER_ARGS = {"lambda_tilde": ("lam_tilde", float), "epsilon1": ("epsilon1", float),
                "eta": ("eta", float), "tol_fix": ("tol_fix", float),
                "max_iter": ("max_iter", int)}
_REFINEMENT_ARGS = {"lambda0": ("lam0", float), "offdiag_tol": ("offdiag_tol", float)}


def _given(block: dict, names: dict) -> dict:
    return {arg: cast(block[key]) for key, (arg, cast) in names.items() if key in block}


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
    lam = float(cfg.certification["lambda"])
    try:
        return make_solver_config(po, f, lam, **_given(cfg.solver, _SOLVER_ARGS))
    except ValueError as exc:  # the solver block's values out of range for this lambda
        raise ConfigError(f"solver: {exc}") from exc


def cmd_certify(cfg: RunConfig, args):
    f, po, splittings = _build_all(cfg, args.seed)
    cert = _certify(cfg, po, splittings, f)
    code = EXIT_OK if cert.passed else EXIT_FAILED
    if args.format == "csv":
        return _margins_csv(cert), code
    worst = cert.worst()
    return {"certificate": cert.report(),
            "binding": {"condition": worst.condition, "segment": worst.segment,
                        "step": worst.step, "margin": float(worst.margin)}}, code


def cmd_refine(cfg: RunConfig, args):
    f, po, splittings = _build_all(cfg, args.seed)
    lam = float(cfg.certification["lambda"])
    lam_tilde = float(cfg.refinement.get("lambda_tilde", (1.0 + lam) / 2.0))
    bounds = system_bounds(f)
    try:
        rcfg = make_refinement_config(lam, lam_tilde, bounds.R,
                                      **_given(cfg.refinement, _REFINEMENT_ARGS))
    except ValueError as exc:  # the refinement block's values out of range for this lambda
        raise ConfigError(f"refinement: {exc}") from exc
    try:
        result = refine(po, splittings, f, rcfg)
    except (PreconditionError, GraphTransformError) as exc:
        kind = "precondition" if isinstance(exc, PreconditionError) else "graph_transform"
        return {"error": {"kind": kind, "message": str(exc)}}, EXIT_FAILED
    return {"refinement": {
        "lambda_tilde": rcfg.lam_tilde,
        "eps_cap": rcfg.eps_cap,
        "eps_cap_kind": bounds.kind,
        "certificate": result.certificate.report(),
        "is_quasi_hyperbolic": is_quasi_hyperbolic(result.certificate, rcfg.offdiag_tol),
        "max_offdiagonal": result.max_offdiagonal,
        "max_invariance_residual": result.max_invariance_residual,
        "splittings": Table({"unstable": result.splittings.unstable,
                             "stable": result.splittings.stable}),
    }}, EXIT_OK if result.certificate.passed else EXIT_FAILED


def _shadow(cfg: RunConfig, seed_override, periodic: bool):
    """The one shadow pipeline, run by shadow, periodic and every sweep cell.

    Certifies at (lambda, eps0, delta0), checks the size margins, and
    solves only when all of them hold.  Returns the report fields, the
    result (None when no solve finished) and the exit code.
    """
    f, po, splittings = _build_all(cfg, seed_override)
    if periodic and not po.closed:
        raise ConfigError("periodic needs a pseudo-orbit whose closing seed equals its first seed")
    g = build_perturbed(cfg, f)
    scfg = _solver_config(cfg, po, f)
    cert, margins, distance = shadowing_preconditions(po, splittings, f, g, scfg)
    report = {
        "solver_constants": scfg.to_dict(),
        "constants": {"R": {"kind": scfg.kind, "value": scfg.R},
                      "L": {"kind": scfg.kind, "value": scfg.L},
                      "map_distance": {"kind": "exact", "value": distance}},
        "certificate": cert.report(),
        "precondition_margins": {k: float(v) for k, v in margins.items()},
    }
    if not (cert.passed and all(m >= 0 for m in margins.values())):  # a NaN margin fails
        report["error"] = {"kind": "precondition",
                           "message": "certification or size preconditions failed"}
        return report, None, EXIT_FAILED
    solve = solve_periodic if periodic else solve_finite
    try:
        result = solve(po, splittings, f, g, scfg, blocks=cert.blocks)
    except (BallInvariantError, UnstableSolveError) as exc:
        report["error"] = {"kind": "solver", "message": str(exc)}
        return report, None, EXIT_NO_CONVERGENCE
    return report, result, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_shadow(cfg: RunConfig, args, periodic: bool):
    report, result, code = _shadow(cfg, args.seed, periodic)
    if result is not None:
        report["result"] = result.report()
    return report, code


def _sweep_payload(raw: dict, axis: str, value: float) -> dict:
    payload = json.loads(json.dumps(raw))  # deep copy
    payload.pop("sweep", None)
    if axis == "delta":
        gen = payload.get("pseudo_orbit", {}).get("generator")
        if gen is None:
            raise ConfigError("delta sweep needs a generator pseudo-orbit")
        gen["jump_amp"] = value
    elif axis == "d":
        pert = payload.setdefault("perturbation", {"type": "shift"})
        if pert.get("type") != "shift":
            raise ConfigError("d sweep needs a shift perturbation")
        matrix = payload.get("system", {}).get("matrix")
        dim = len(matrix) if matrix else 2
        pert["offset"] = [value] + [0.0] * (dim - 1)
    else:
        payload["certification"]["lambda"] = value
    return payload


def _run_sweep_cell(payload: dict, seed_override):
    """A shadow run on one cell's config: its CSV fields, why it failed (None
    when shadow would exit 0) and its wall time in ms."""
    start = time.perf_counter()
    try:
        report, result, code = _shadow(parse_config(payload), seed_override, periodic=False)
    except ConfigError as exc:
        report, result, code = {"error": {"kind": "config", "message": str(exc)}}, None, EXIT_CONFIG
    certified = code in (EXIT_OK, EXIT_NO_CONVERGENCE)  # the preconditions held
    if result is None:
        fields = [certified, False, "nan", 0]
    else:
        fields = [certified, result.converged, repr(float(result.max_distance)), result.iterations]
    if code == EXIT_OK:
        failure = None
    elif "error" in report:
        failure = "{kind}: {message}".format(**report["error"])
    else:
        failure = f"did not converge in {result.iterations} iterations"
    return fields, failure, (time.perf_counter() - start) * 1e3


def cmd_sweep(cfg: RunConfig, args):
    if not cfg.sweep:
        raise ConfigError("sweep command needs a sweep block")
    axis = cfg.sweep["axis"]
    values = [float(v) for v in cfg.sweep["values"]]
    payloads = [_sweep_payload(cfg.raw, axis, v) for v in values]
    jobs = min(args.jobs or os.cpu_count() or 1, len(payloads))
    if jobs > 1:
        # imported here: the pool's modules cost a serial run 20-30 ms at start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_sweep_cell, payloads, [args.seed] * len(payloads)))
    else:
        cells = [_run_sweep_cell(p, args.seed) for p in payloads]
    timing = ["wall_ms"] if args.timing else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis_value", "certified", "converged", "max_shadow_distance", "iterations",
                     *timing])
    for value, (fields, failure, wall_ms) in zip(values, cells):
        writer.writerow([repr(value), *fields, *([repr(wall_ms)] if timing else [])])
        if failure:
            sys.stderr.write(f"sweep cell {axis}={value!r} failed: {failure}\n")
    return [buf.getvalue()], EXIT_FAILED if any(failure for _, failure, _ in cells) else EXIT_OK


_COMMANDS = {
    "certify": cmd_certify,
    "refine": cmd_refine,
    "shadow": partial(cmd_shadow, periodic=False),
    "periodic": partial(cmd_shadow, periodic=True),
    "sweep": cmd_sweep,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
            p.add_argument("--jobs", type=_positive_int, default=None,
                           help="parallel sweep cells, at most one worker per cell")
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
        start = time.perf_counter()
        report, code = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    if isinstance(report, dict):  # a JSON report; the CSV reports come as text pieces
        report.update(command=args.command, version=__version__, config=cfg.raw)
        if args.timing:
            report["timing"] = {"wall_s": time.perf_counter() - start}
    path = args.out or cfg.output.get("path")
    try:
        with (open(path, "w", encoding="utf-8", newline="") if path
              else nullcontext(sys.stdout)) as fh:
            if isinstance(report, dict):
                _report_json(report, fh.write)
            else:
                fh.writelines(report)
    except OSError as exc:
        sys.stderr.write(f"cannot write report {path or '<stdout>'}: {exc.strerror or exc}\n")
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
