"""Run-configuration schema: parsing, validation, and object construction.

Configs are JSON with nested blocks (system, pseudo_orbit, certification,
refinement, solver, perturbation, splitting, sweep, output).  Validation is
strict: unknown keys are rejected so typos fail fast, before any
computation.  _SCHEMA lists each block's keys and the check on each value;
parse_config walks it and adds the rules that tie keys together.
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


def _is_number(v) -> bool:
    """A finite JSON number that fits a float: not a bool, NaN or Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# A check is a number rule (ok, wanted), a one-rule list [(ok, wanted)] for a
# nonempty list of such numbers, a tuple of the names a value may take, or
# None where the build_* functions check the value.
_NUMBER = (lambda v: True, "a number")
_RATE = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_NONNEGATIVE = (lambda v: v >= 0.0, "a nonnegative number")
_POSITIVE = (lambda v: v > 0.0, "a positive number")
_COUNT = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_INDEX = (lambda v: isinstance(v, int) and v >= 0, "a nonnegative integer")
_LENGTHS = [(_COUNT[0], "positive integers")]

#: block -> (required keys, {allowed key: check}); keys are checked in this order
_SCHEMA = {
    "config": ({"system", "pseudo_orbit", "certification"}, dict.fromkeys((
        "system", "pseudo_orbit", "certification", "refinement", "solver",
        "perturbation", "splitting", "sweep", "output"))),
    "system": ({"type"}, {"type": ("cat_map", "perturbed_cat_map", "torus_linear", "affine"),
                          "amplitude": _NUMBER, "matrix": None, "offset": None}),
    # a top-level lengths is checked by parse_config, and only for seeds
    "pseudo_orbit": (set(), dict.fromkeys(("seeds", "lengths", "generator"))),
    "pseudo_orbit.generator": ({"start", "lengths", "jump_amp", "rng_seed"}, {
        "start": None, "lengths": _LENGTHS, "jump_amp": _NUMBER, "rng_seed": _INDEX,
        "i_min": (lambda v: isinstance(v, int), "an integer")}),
    "certification": ({"lambda"}, {"lambda": _RATE, "epsilon": _NONNEGATIVE,
                                   "delta": _NONNEGATIVE}),
    "refinement": (set(), {"lambda_tilde": _RATE, "lambda0": _RATE,
                           "offdiag_tol": _NONNEGATIVE}),
    "solver": (set(), {"lambda_tilde": _RATE, "epsilon1": _POSITIVE, "eta": _POSITIVE,
                       "tol_fix": _POSITIVE, "max_iter": _COUNT}),
    "perturbation": ({"type"}, {"type": ("none", "shift", "perturbed_amplitude"),
                                "offset": None, "amplitude": _NUMBER}),
    "splitting": (set(), {"strategy": ("eigen", "power"), "dim_u": _COUNT, "depth": _INDEX}),
    "sweep": ({"axis", "values"}, {"axis": ("delta", "d", "lambda"),
                                   "values": [(lambda v: True, "numbers")]}),
    "output": (set(), {"path": None}),
}


def _check(value, check, where: str, key: str):
    if isinstance(check, list):
        [(ok, wanted)] = check
        if not (isinstance(value, list) and value and all(_is_number(v) and ok(v) for v in value)):
            raise ConfigError(f"{where}.{key} must be a nonempty list of {wanted}")
    elif callable(check[0]):
        ok, wanted = check
        if not (_is_number(value) and ok(value)):
            raise ConfigError(f"{where}.{key} must be {wanted}")
    elif value not in check:
        raise ConfigError(f"unknown {where} {key} {value!r}")


def _checked(block, where: str) -> dict:
    """block, once it passes the checks _SCHEMA[where] lists."""
    required, checks = _SCHEMA[where]
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(checks)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(f'{where}.{k}' for k in unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")
    for key, check in checks.items():
        if key in block and check is not None:
            _check(block[key], check, where, key)
    return block


def keyword_args(block: dict) -> dict:
    """A checked solver or refinement block as keyword arguments of
    make_solver_config or make_refinement_config; a key the block leaves out
    keeps the library's default."""
    names = {"lambda_tilde": "lam_tilde", "lambda0": "lam0"}
    return {names.get(key, key): (int if key == "max_iter" else float)(value)
            for key, value in block.items()}


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
    _checked(payload, "config")
    system = _checked(payload["system"], "system")
    po_block = _checked(payload["pseudo_orbit"], "pseudo_orbit")
    if ("generator" in po_block) == ("seeds" in po_block):
        raise ConfigError("pseudo_orbit needs exactly one of 'seeds' or 'generator'")
    if "generator" in po_block:
        _checked(po_block["generator"], "pseudo_orbit.generator")
    elif "lengths" not in po_block:
        raise ConfigError("pseudo_orbit with seeds needs lengths")
    else:
        _check(po_block["lengths"], _LENGTHS, "pseudo_orbit", "lengths")
    blocks = {name: _checked(payload.get(name, default), name) for name, default in (
        ("certification", {}), ("refinement", {}), ("solver", {}),
        ("perturbation", {"type": "none"}), ("splitting", {}))}
    sweep = payload.get("sweep", {})
    if sweep != {}:  # only an absent or empty block asks for no sweep
        _checked(sweep, "sweep")
        if sorted(sweep["values"]) != sweep["values"]:
            raise ConfigError("sweep.values must be sorted ascending")
    return RunConfig(raw=payload, system=system, pseudo_orbit=po_block, sweep=sweep,
                     output=_checked(payload.get("output", {}), "output"), **blocks)


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
    strategy = block.get("strategy", "power" if isinstance(f, PerturbedCatMap) else "eigen")
    # a block without a depth keeps assign_splittings' default
    depth = {"depth": int(block["depth"])} if "depth" in block else {}
    try:
        return assign_splittings(po, f, strategy, dim_u=block.get("dim_u"), **depth)
    except ValueError as exc:
        raise ConfigError(f"cannot assign splittings: {exc}") from exc
