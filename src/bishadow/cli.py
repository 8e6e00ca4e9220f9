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
from functools import cache, partial

from . import __version__
from .certification import certify_pseudo_orbit, is_quasi_hyperbolic
from .config import (ConfigError, RunConfig, build_perturbed, build_pseudo_orbit,
                     build_splittings, build_system, keyword_args, load_config, parse_config)
from .jsonwriter import SLICE, Table, write
from .refinement import GraphTransformError, PreconditionError, make_refinement_config, refine
from .shadowing import (BallInvariantError, ShadowProblem, UnstableSolveError, _solve,
                        make_solver_config, shadowing_preconditions, solve_finite, solve_periodic)
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
        return make_solver_config(po, f, lam, **keyword_args(cfg.solver))
    except ValueError as exc:  # the solver block's values out of range for this lambda
        raise ConfigError(f"solver: {exc}") from exc


def cmd_certify(cfg: RunConfig, args):
    f, po, splittings = _build_all(cfg, args.seed)
    cert = _certify(cfg, po, splittings, f)
    code = EXIT_OK if cert.passed else EXIT_FAILED
    if args.format == "csv":
        return _margins_csv(cert), code
    return {"certificate": cert.report(), "binding": cert.binding()}, code


def cmd_refine(cfg: RunConfig, args):
    f, po, splittings = _build_all(cfg, args.seed)
    lam = float(cfg.certification["lambda"])
    given = keyword_args(cfg.refinement)
    bounds = system_bounds(f)
    try:
        rcfg = make_refinement_config(lam, given.pop("lam_tilde", (1.0 + lam) / 2.0), bounds.R,
                                      **given)
    except ValueError as exc:  # the refinement block's values out of range for this lambda
        raise ConfigError(f"refinement: {exc}") from exc
    try:
        result = refine(po, splittings, f, rcfg)
    except (PreconditionError, GraphTransformError) as exc:
        kind = "precondition" if isinstance(exc, PreconditionError) else "graph_transform"
        return {"error": {"kind": kind, "message": str(exc)}}, EXIT_FAILED
    cert = result.certificate
    invariant = is_quasi_hyperbolic(cert, rcfg.offdiag_tol)
    return {"refinement": {
        "lambda_tilde": rcfg.lam_tilde,
        "eps_cap": rcfg.eps_cap,
        "eps_cap_kind": bounds.kind,
        "certificate": cert.report(),
        "is_quasi_hyperbolic": invariant,
        "max_offdiagonal": cert.max_offdiagonal,
        "splittings": Table({"unstable": result.splittings.unstable,
                             "stable": result.splittings.stable}),
    }}, EXIT_OK if cert.passed and invariant else EXIT_FAILED


class _Shared:
    """The builds a sweep's cells share: a stage named in stages is built for
    the first cell that reaches it, and every later cell gets that value, or
    a ConfigError with the same message.  Any other stage is built for each
    cell."""

    def __init__(self, stages=()):
        self.stages = stages
        self.built = {}

    def __call__(self, stage: str, build):
        if stage not in self.stages:
            return build()
        if stage not in self.built:
            try:
                self.built[stage] = build(), None
            except ConfigError as exc:
                self.built[stage] = None, str(exc)
        value, error = self.built[stage]
        if error is not None:
            raise ConfigError(error)
        return value


#: per sweep axis, the stages of _prepare that read no swept value
_SHARED = {"d": ("f", "po", "splittings", "solver_config", "certificate"),
           "lambda": ("f", "po", "splittings"),
           "delta": ("f",)}


def _prepare(cfg: RunConfig, seed_override, periodic: bool, share: _Shared):
    """The shadow pipeline up to the solve, run by shadow, periodic and every
    sweep cell.

    Certifies at (lambda, eps0, delta0) and checks the size margins.
    Returns the report fields and the arguments of the solve, (po,
    splittings, f, g, solver config, blocks), or None when a precondition
    fails.  share hands a sweep's cells the builds they share.
    """
    f = share("f", lambda: build_system(cfg))
    po = share("po", lambda: build_pseudo_orbit(cfg, f, seed_override=seed_override))
    splittings = share("splittings", lambda: build_splittings(cfg, po, f))
    if periodic and not po.closed:
        raise ConfigError("periodic needs a pseudo-orbit whose closing seed equals its first seed")
    g = build_perturbed(cfg, f)
    scfg = share("solver_config", lambda: _solver_config(cfg, po, f))
    cert = share("certificate", lambda: certify_pseudo_orbit(po, splittings, f, scfg.lam,
                                                             scfg.eps0, scfg.delta0))
    cert, margins, distance = shadowing_preconditions(po, splittings, f, g, scfg, certificate=cert)
    report = {
        "solver_constants": scfg.to_dict(),
        "constants": {"R": {"kind": scfg.kind, "value": scfg.R},
                      "L": {"kind": scfg.kind, "value": scfg.L},
                      "map_distance": {"kind": "exact", "value": distance}},
        "certificate": cert.summary,
        "precondition_margins": {k: float(v) for k, v in margins.items()},
    }
    if not (cert.passed and all(m >= 0 for m in margins.values())):  # a NaN margin fails
        report["error"] = {"kind": "precondition",
                           "message": "certification or size preconditions failed"}
        return report, None
    return report, (po, splittings, f, g, scfg, cert.blocks)


def _solved(report: dict, outcome):
    """The result and exit code of a solve that gave outcome, its result or
    its solver error; a solver error goes into the report."""
    if isinstance(outcome, (BallInvariantError, UnstableSolveError)):
        report["error"] = {"kind": "solver", "message": str(outcome)}
        return None, EXIT_NO_CONVERGENCE
    return outcome, EXIT_OK if outcome.converged else EXIT_NO_CONVERGENCE


def cmd_shadow(cfg: RunConfig, args, periodic: bool):
    report, solve_args = _prepare(cfg, args.seed, periodic, _Shared())
    if solve_args is None:
        return report, EXIT_FAILED
    solve = solve_periodic if periodic else solve_finite
    try:
        outcome = solve(*solve_args)
    except (BallInvariantError, UnstableSolveError) as exc:
        outcome = exc
    result, code = _solved(report, outcome)
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


def _sweep_cells(payloads: list, seed_override, axis: str):
    """A shadow run on each cell's config, the cells sharing what their axis
    leaves alone and solved as one stack: per cell, its CSV fields, why it
    failed (None when shadow would exit 0) and the wall time of the whole
    stack in ms."""
    start = time.perf_counter()
    share = _Shared(_SHARED[axis])
    cells = []  # (report, solve arguments or None, exit code when not solved)
    for payload in payloads:
        try:
            report, solve_args = _prepare(parse_config(payload), seed_override, False, share)
            code = EXIT_FAILED  # unless it is solved: a precondition failed
        except ConfigError as exc:
            report = {"error": {"kind": "config", "message": str(exc)}}
            solve_args, code = None, EXIT_CONFIG
        cells.append((report, solve_args, code))
    outcomes = iter(_solve([ShadowProblem(*solve_args) for _, solve_args, _ in cells if solve_args],
                               "finite"))
    rows = []
    for report, solve_args, code in cells:
        result = None
        if solve_args is not None:
            result, code = _solved(report, next(outcomes))
        certified = code in (EXIT_OK, EXIT_NO_CONVERGENCE)  # the preconditions held
        if result is None:
            fields = [certified, False, "nan", 0]
        else:
            fields = [certified, result.converged, repr(float(result.max_distance)),
                      result.iterations]
        if code == EXIT_OK:
            failure = None
        elif "error" in report:
            failure = "{kind}: {message}".format(**report["error"])
        else:
            failure = f"did not converge in {result.iterations} iterations"
        rows.append((fields, failure))
    wall_ms = (time.perf_counter() - start) * 1e3
    return [(fields, failure, wall_ms) for fields, failure in rows]


def cmd_sweep(cfg: RunConfig, args):
    if not cfg.sweep:
        raise ConfigError("sweep command needs a sweep block")
    axis = cfg.sweep["axis"]
    values = [float(v) for v in cfg.sweep["values"]]
    payloads = [_sweep_payload(cfg.raw, axis, v) for v in values]
    jobs = min(args.jobs or os.cpu_count() or 1, len(payloads))
    # jobs contiguous runs of cells, each solved as one stack
    ends = [len(payloads) * i // jobs for i in range(jobs + 1)]
    runs = [payloads[a:b] for a, b in zip(ends, ends[1:])]
    if jobs > 1:
        # imported here: the pool's modules cost a serial run 20-30 ms at start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_sweep_cells, runs, [args.seed] * jobs, [axis] * jobs))
    else:
        done = [_sweep_cells(runs[0], args.seed, axis)]
    cells = [cell for run in done for cell in run]
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


@cache  # built on the first main call, then shared by every later one
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
