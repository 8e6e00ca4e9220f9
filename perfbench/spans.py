"""Spans and counters recorded around the package's public functions.

Tracing wraps functions from the outside: for every function listed in
LAYERS the wrapper replaces the original in every ``bishadow`` module
namespace that holds it, so calls made from the CLI, from other modules
and from the benchmark all pass through it.  Each call records a span
(name, start, end, parent); a layer's self time is the time its spans
cover minus the time covered by their direct children.  Spans stay in
memory and are reduced when the run ends.  Nothing under ``src/`` is
touched, and the wrappers are removed again on exit.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

# layer metric prefix -> (module, function names).  A name missing from the
# package (renamed or removed by a later change) is skipped.
LAYERS = {
    "cli.self": ("cli", ["main"]),
    "config.build": ("config", ["load_config", "parse_config", "build_system", "build_perturbed",
                          "build_pseudo_orbit", "build_splittings"]),
    "pseudo_orbit.generate": ("pseudo_orbit", ["generate", "flatten"]),
    "pseudo_orbit.assign_splittings": ("pseudo_orbit", ["assign_splittings"]),
    "splitting.block_decompose": ("splitting", ["block_decompose"]),
    "certification.blocks": ("certification", ["pseudo_orbit_blocks", "segment_blocks"]),
    "certification.certify": ("certification", ["certify_pseudo_orbit", "certify_blocks",
                                                "certify_segment", "is_quasi_hyperbolic"]),
    "certification.min_feasible_lambda": ("certification", ["min_feasible_lambda"]),
    "adapted.well_adapted_sequence": ("adapted", ["well_adapted_sequence"]),
    "systems.estimate_bounds": ("systems", ["estimate_bounds"]),
    "systems.sup_distance": ("systems", ["sup_distance"]),
    "refinement.refine": ("refinement", ["refine", "make_refinement_config", "chart_blocks",
                                         "solve_unstable_graphs", "solve_stable_graphs",
                                         "graph_step", "_stable_step",
                                         "unstable_invariance_residuals",
                                         "stable_invariance_residuals"]),
    "shadowing.solver_config": ("shadowing", ["make_solver_config"]),
    "shadowing.preconditions": ("shadowing", ["shadowing_preconditions"]),
    "shadowing.apply_operator": ("shadowing", ["apply_operator"]),
    "shadowing.solve": ("shadowing", ["solve_finite", "solve_periodic", "solve_infinite",
                                      "build_problem"]),
}

# (metric, unit, better); every metric is reported per round of operations.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("config.build_s", "s", "lower"),
    ("pseudo_orbit.generate_s", "s", "lower"),
    ("pseudo_orbit.assign_splittings_s", "s", "lower"),
    ("splitting.block_decompose_s", "s", "lower"),
    ("splitting.block_decompose_calls", "count", "lower"),
    ("certification.blocks_s", "s", "lower"),
    ("certification.certify_s", "s", "lower"),
    ("certification.min_feasible_lambda_s", "s", "lower"),
    ("adapted.well_adapted_sequence_s", "s", "lower"),
    ("systems.estimate_bounds_s", "s", "lower"),
    ("systems.sup_distance_s", "s", "lower"),
    ("systems.grid_points", "count", "lower"),
    ("refinement.refine_s", "s", "lower"),
    ("refinement.graph_sweeps", "count", "lower"),
    ("shadowing.solver_config_s", "s", "lower"),
    ("shadowing.preconditions_s", "s", "lower"),
    ("shadowing.apply_operator_s", "s", "lower"),
    ("shadowing.apply_operator_calls", "count", "lower"),
    ("shadowing.steps_per_s", "1/s", "higher"),
    ("shadowing.solve_s", "s", "lower"),
]

_SWEEP_FUNCS = ("graph_step", "_stable_step")


class Tracer:
    """In-memory spans plus per-round counters."""

    def __init__(self):
        self.spans = []      # [layer, start, end, parent index, round]
        self.stack = []
        self.round = 0
        self.counts = {}     # (round, counter) -> value

    def count(self, name: str, value: float = 1):
        key = (self.round, name)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, layer: str):
        idx = len(self.spans)
        rec = [layer, time.perf_counter(), None, self.stack[-1] if self.stack else None,
               self.round]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name == "block_decompose":
                tracer.count("splitting.block_decompose_calls")
            elif name in _SWEEP_FUNCS:
                tracer.count("refinement.graph_sweeps")
            elif name == "apply_operator":
                tracer.count("shadowing.apply_operator_calls")
                tracer.count("apply_operator_steps", args[0].n_steps)
            with tracer.span(layer):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every listed function in every bishadow namespace holding it,
        and count the sampling-grid points the phase spaces hand out."""
        import bishadow.systems

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bishadow" or n.startswith("bishadow."))]
        undo = []
        for layer, (mod_name, names) in LAYERS.items():
            home = sys.modules[f"bishadow.{mod_name}"]
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                traced = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, traced)
                            undo.append((mod, attr, fn))
        phase = bishadow.systems.Phase
        grid = phase.grid
        tracer = self

        def counted_grid(self_, res):
            pts = grid(self_, res)
            tracer.count("systems.grid_points", len(pts))
            return pts

        phase.grid = counted_grid
        try:
            yield self
        finally:
            phase.grid = grid
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

    def layer_metrics(self, rounds: int) -> dict:
        """Median over rounds of each layer's self time and of each counter."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_time = {}
        for i, (layer, start, end, parent, rnd) in enumerate(self.spans):
            if layer.startswith("op:"):
                continue
            key = (rnd, layer)
            self_time[key] = self_time.get(key, 0.0) + (end - start) - child[i]

        def per_round(getter):
            return statistics.median(getter(r) for r in range(rounds))

        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric == "shadowing.steps_per_s":
                def rate(r):
                    busy = self_time.get((r, "shadowing.apply_operator"), 0.0)
                    steps = self.counts.get((r, "apply_operator_steps"), 0)
                    return steps / busy if busy > 0 else 0.0
                value = per_round(rate)
            elif unit == "s":
                layer = metric[: -len("_s")]
                value = per_round(lambda r: self_time.get((r, layer), 0.0))
            else:
                value = per_round(lambda r: self.counts.get((r, metric), 0))
            out[metric] = {"value": value, "unit": unit}
        return out
