"""Run-configuration schema: parsing, validation, and object construction.

Configs are JSON with nested blocks (system, pseudo_orbit, certification,
refinement, solver, perturbation, sweep, output).  Validation is strict:
unknown keys are rejected so typos fail fast, before any computation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .pseudo_orbit import SegmentedPseudoOrbit, assign_splittings, flatten, generate
from .systems import (AffineMap, PerturbedCatMap, ShiftedMap, SmoothMap, TorusLinearMap,
                      cat_amplitude, cat_map)

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


_TOP_KEYS = {
    "system", "pseudo_orbit", "certification", "refinement",
    "solver", "perturbation", "splitting", "sweep", "output",
}
_REQUIRED = {"system", "pseudo_orbit", "certification"}


def _check_keys(block: dict, allowed: set, required: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(f'{where}.{k}' for k in unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _is_number(v) -> bool:
    """A finite JSON number that fits a float: not a bool, NaN or Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _check_number(block, key, where, ok, wanted):
    """A present block[key] must be a number (not a bool) with ok(value)."""
    if key in block and not (_is_number(block[key]) and ok(block[key])):
        raise ConfigError(f"{where}.{key} must be {wanted}")


def _check_numbers(block, key, where, ok, wanted):
    """A present block[key] must be a nonempty list of numbers with ok(value)."""
    if key not in block:
        return
    values = block[key]
    if (not isinstance(values, list) or not values
            or not all(_is_number(v) and ok(v) for v in values)):
        raise ConfigError(f"{where}.{key} must be a nonempty list of {wanted}")


def _integer_from(low):
    return lambda v: isinstance(v, int) and v >= low


@dataclass
class RunConfig:
    raw: dict
    system: dict
    pseudo_orbit: dict
    certification: dict
    refinement: dict
    solver: dict
    perturbation: dict
    splitting: dict
    sweep: dict
    output: dict


def parse_config(payload: dict) -> RunConfig:
    _check_keys(payload, _TOP_KEYS, _REQUIRED, "config")

    sys_block = payload["system"]
    _check_keys(sys_block, {"type", "amplitude", "matrix", "offset"}, {"type"}, "system")
    if sys_block["type"] not in ("cat_map", "perturbed_cat_map", "torus_linear", "affine"):
        raise ConfigError(f"unknown system type {sys_block['type']!r}")
    _check_number(sys_block, "amplitude", "system", lambda v: True, "a number")

    po_block = payload["pseudo_orbit"]
    _check_keys(
        po_block, {"seeds", "lengths", "generator"}, set(), "pseudo_orbit"
    )
    if ("generator" in po_block) == ("seeds" in po_block):
        raise ConfigError("pseudo_orbit needs exactly one of 'seeds' or 'generator'")
    if "generator" in po_block:
        _check_keys(
            po_block["generator"],
            {"start", "lengths", "jump_amp", "rng_seed", "i_min"},
            {"start", "lengths", "jump_amp", "rng_seed"},
            "pseudo_orbit.generator",
        )
        gen_block = po_block["generator"]
        where = "pseudo_orbit.generator"
        _check_numbers(gen_block, "lengths", where, _integer_from(1), "positive integers")
        _check_number(gen_block, "jump_amp", where, lambda v: True, "a number")
        _check_number(gen_block, "rng_seed", where, _integer_from(0), "a nonnegative integer")
        _check_number(gen_block, "i_min", where, lambda v: isinstance(v, int), "an integer")
    else:
        if "lengths" not in po_block:
            raise ConfigError("pseudo_orbit with seeds needs lengths")
        _check_numbers(po_block, "lengths", "pseudo_orbit", _integer_from(1), "positive integers")

    cert_block = payload["certification"]
    _check_keys(cert_block, {"lambda", "epsilon", "delta"}, {"lambda"}, "certification")
    _check_number(cert_block, "lambda", "certification", lambda v: 0.0 < v < 1.0, "in (0, 1)")
    for key in ("epsilon", "delta"):
        _check_number(cert_block, key, "certification", lambda v: v >= 0.0, "a nonnegative number")

    refine_block = payload.get("refinement", {})
    _check_keys(refine_block, {"lambda_tilde", "lambda0", "offdiag_tol"}, set(), "refinement")
    for key in ("lambda_tilde", "lambda0"):
        _check_number(refine_block, key, "refinement", lambda v: 0.0 < v < 1.0, "in (0, 1)")
    _check_number(refine_block, "offdiag_tol", "refinement", lambda v: v >= 0.0,
                  "a nonnegative number")

    solver_block = payload.get("solver", {})
    _check_keys(
        solver_block,
        {"lambda_tilde", "epsilon1", "eta", "tol_fix", "max_iter"}, set(), "solver",
    )
    _check_number(solver_block, "lambda_tilde", "solver", lambda v: 0.0 < v < 1.0, "in (0, 1)")
    for key in ("epsilon1", "eta", "tol_fix"):
        _check_number(solver_block, key, "solver", lambda v: v > 0.0, "a positive number")
    _check_number(solver_block, "max_iter", "solver", _integer_from(1), "a positive integer")

    pert_block = payload.get("perturbation", {"type": "none"})
    _check_keys(pert_block, {"type", "offset", "amplitude"}, {"type"}, "perturbation")
    if pert_block["type"] not in ("none", "shift", "perturbed_amplitude"):
        raise ConfigError(f"unknown perturbation type {pert_block['type']!r}")
    _check_number(pert_block, "amplitude", "perturbation", lambda v: True, "a number")

    split_block = payload.get("splitting", {})
    _check_keys(split_block, {"strategy", "dim_u", "depth"}, set(), "splitting")
    _check_number(split_block, "dim_u", "splitting", _integer_from(1), "a positive integer")
    _check_number(split_block, "depth", "splitting", _integer_from(0), "a nonnegative integer")

    sweep_block = payload.get("sweep", {})
    if sweep_block:
        _check_keys(sweep_block, {"axis", "values"}, {"axis", "values"}, "sweep")
        if sweep_block["axis"] not in ("delta", "d", "lambda"):
            raise ConfigError(f"unknown sweep axis {sweep_block['axis']!r}")
        _check_numbers(sweep_block, "values", "sweep", lambda v: True, "numbers")
        values = sweep_block["values"]
        if sorted(values) != values:
            raise ConfigError("sweep.values must be sorted ascending")

    out_block = payload.get("output", {})
    _check_keys(out_block, {"path"}, set(), "output")

    return RunConfig(
        raw=payload,
        system=sys_block,
        pseudo_orbit=po_block,
        certification=cert_block,
        refinement=refine_block,
        solver=solver_block,
        perturbation=pert_block,
        splitting=split_block,
        sweep=sweep_block,
        output=out_block,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(payload)


def build_system(cfg: RunConfig) -> SmoothMap:
    block = cfg.system
    kind = block["type"]
    if kind == "perturbed_cat_map" and block.get("amplitude") is None:
        raise ConfigError("perturbed_cat_map needs an amplitude")
    if kind in ("torus_linear", "affine") and "matrix" not in block:
        raise ConfigError(f"{kind} needs a matrix")
    try:
        if kind == "cat_map":
            return cat_map()
        if kind == "perturbed_cat_map":
            f = PerturbedCatMap(float(block["amplitude"]))
            if f.derivative_bounds() is None:
                raise ValueError("Weyl's bound on Df needs |amplitude| < (3 - sqrt 5) / 2")
            return f
        if kind == "torus_linear":
            return TorusLinearMap(np.asarray(block["matrix"]))
        return AffineMap(block["matrix"], block.get("offset"))
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise ConfigError(f"cannot build system: {exc}") from exc


def build_perturbed(cfg: RunConfig, f: SmoothMap) -> SmoothMap:
    block = cfg.perturbation
    kind = block["type"]
    if kind == "none":
        return f
    if kind == "shift":
        if "offset" not in block:
            raise ConfigError("shift perturbation needs an offset")
        try:
            return ShiftedMap(f, np.asarray(block["offset"], dtype=float))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"cannot build the shift perturbation: {exc}") from exc
    amp = block.get("amplitude")
    if amp is None:
        raise ConfigError("perturbed_amplitude needs an amplitude")
    if cat_amplitude(f) is None:
        raise ConfigError("perturbed_amplitude only applies to the cat map or a perturbed_cat_map")
    return PerturbedCatMap(float(amp))


def build_pseudo_orbit(cfg: RunConfig, f: SmoothMap, seed_override=None) -> SegmentedPseudoOrbit:
    block = cfg.pseudo_orbit
    try:
        if "generator" in block:
            gen = block["generator"]
            seed = gen["rng_seed"] if seed_override is None else seed_override
            return generate(
                f,
                np.asarray(gen["start"], dtype=float),
                np.asarray(gen["lengths"], dtype=int),
                float(gen["jump_amp"]),
                int(seed),
                i_min=int(gen.get("i_min", 0)),
            )
        return flatten(
            np.asarray(block["seeds"], dtype=float),
            np.asarray(block["lengths"], dtype=int),
            f,
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot build pseudo-orbit: {exc}") from exc


def build_splittings(cfg: RunConfig, po: SegmentedPseudoOrbit, f: SmoothMap):
    block = cfg.splitting
    strategy = block.get("strategy")
    if strategy is None:
        strategy = "power" if isinstance(f, PerturbedCatMap) else "eigen"
    # a block without a depth keeps assign_splittings' default
    depth = {"depth": int(block["depth"])} if "depth" in block else {}
    try:
        return assign_splittings(po, f, strategy, dim_u=block.get("dim_u"), **depth)
    except ValueError as exc:
        raise ConfigError(f"cannot assign splittings: {exc}") from exc
