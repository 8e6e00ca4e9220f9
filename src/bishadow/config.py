"""Run-configuration schema: parsing, validation, and object construction.

Configs are JSON with nested blocks (system, pseudo_orbit, certification,
refinement, solver, perturbation, sweep, output).  Validation is strict:
unknown keys are rejected so typos fail fast, before any computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .pseudo_orbit import SegmentedPseudoOrbit, assign_splittings, flatten, generate
from .systems import AffineMap, PerturbedCatMap, ShiftedMap, SmoothMap, TorusLinearMap, cat_map

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
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _positive(block, key, where, default=None):
    v = block.get(key, default)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
        raise ConfigError(f"{where}.{key} must be a positive number")
    return float(v)


def _nonnegative(block, key, where, default=None):
    v = block.get(key, default)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
        raise ConfigError(f"{where}.{key} must be a nonnegative number")
    return float(v)


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

    def echo(self) -> dict:
        return self.raw


def parse_config(payload: dict) -> RunConfig:
    _check_keys(payload, _TOP_KEYS, _REQUIRED, "config")

    sys_block = payload["system"]
    _check_keys(sys_block, {"type", "amplitude", "matrix", "offset"}, {"type"}, "system")
    if sys_block["type"] not in ("cat_map", "perturbed_cat_map", "torus_linear", "affine"):
        raise ConfigError(f"unknown system type {sys_block['type']!r}")

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
    else:
        if "lengths" not in po_block:
            raise ConfigError("pseudo_orbit with seeds needs lengths")

    cert_block = payload["certification"]
    _check_keys(cert_block, {"lambda", "epsilon", "delta"}, {"lambda"}, "certification")
    lam = _positive(cert_block, "lambda", "certification")
    if lam >= 1.0:
        raise ConfigError("certification.lambda must lie in (0, 1)")
    _nonnegative(cert_block, "epsilon", "certification", 0.0)
    _nonnegative(cert_block, "delta", "certification", 0.0)

    refine_block = payload.get("refinement", {})
    _check_keys(refine_block, {"lambda_tilde", "lambda0", "offdiag_tol"}, set(), "refinement")

    solver_block = payload.get("solver", {})
    _check_keys(
        solver_block,
        {"lambda_tilde", "epsilon1", "eta", "tol_fix", "max_iter", "grid_res"},
        set(), "solver",
    )

    pert_block = payload.get("perturbation", {"type": "none"})
    _check_keys(pert_block, {"type", "offset", "amplitude"}, {"type"}, "perturbation")
    if pert_block["type"] not in ("none", "shift", "perturbed_amplitude"):
        raise ConfigError(f"unknown perturbation type {pert_block['type']!r}")

    split_block = payload.get("splitting", {})
    _check_keys(split_block, {"strategy", "dim_u", "depth"}, set(), "splitting")

    sweep_block = payload.get("sweep", {})
    if sweep_block:
        _check_keys(sweep_block, {"axis", "values"}, {"axis", "values"}, "sweep")
        if sweep_block["axis"] not in ("delta", "d", "epsilon", "lambda"):
            raise ConfigError(f"unknown sweep axis {sweep_block['axis']!r}")
        values = sweep_block["values"]
        if (not isinstance(values, list) or not values
                or any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in values)):
            raise ConfigError("sweep.values must be a nonempty list of numbers")
        if sorted(values) != values:
            raise ConfigError("sweep.values must be sorted ascending")

    out_block = payload.get("output", {})
    _check_keys(out_block, {"path", "format"}, set(), "output")

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
    if kind == "cat_map":
        return cat_map()
    if kind == "perturbed_cat_map":
        amp = block.get("amplitude")
        if amp is None:
            raise ConfigError("perturbed_cat_map needs an amplitude")
        return PerturbedCatMap(float(amp))
    if kind == "torus_linear":
        if "matrix" not in block:
            raise ConfigError("torus_linear needs a matrix")
        return TorusLinearMap(np.asarray(block["matrix"]))
    if "matrix" not in block:
        raise ConfigError("affine needs a matrix")
    return AffineMap(np.asarray(block["matrix"], dtype=float), block.get("offset"))


def build_perturbed(cfg: RunConfig, f: SmoothMap) -> SmoothMap:
    block = cfg.perturbation
    kind = block["type"]
    if kind == "none":
        return f
    if kind == "shift":
        if "offset" not in block:
            raise ConfigError("shift perturbation needs an offset")
        return ShiftedMap(f, np.asarray(block["offset"], dtype=float))
    amp = block.get("amplitude")
    if amp is None:
        raise ConfigError("perturbed_amplitude needs an amplitude")
    if not isinstance(f, (PerturbedCatMap, TorusLinearMap)):
        raise ConfigError("perturbed_amplitude only applies to (perturbed) cat maps")
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
    except ValueError as exc:
        raise ConfigError(f"cannot build pseudo-orbit: {exc}") from exc


def build_splittings(cfg: RunConfig, po: SegmentedPseudoOrbit, f: SmoothMap):
    block = cfg.splitting
    strategy = block.get("strategy")
    if strategy is None:
        strategy = "power" if isinstance(f, PerturbedCatMap) else "eigen"
    try:
        return assign_splittings(
            po, f, strategy,
            dim_u=block.get("dim_u"),
            depth=int(block.get("depth", 50)),
        )
    except ValueError as exc:
        raise ConfigError(f"cannot assign splittings: {exc}") from exc
