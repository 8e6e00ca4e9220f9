"""Workload inputs, the operations run on them, and their checks.

Every workload runs all seven operation kinds, so every end-to-end
metric exists on every workload; the workloads differ in the map and in
how long and how many the problems are:

  cat-long        linear cat map, one 1000-step orbit for certify,
                  min_lambda, shadow and refine; small sweep, periodic
                  and window problems on the cat map.
  perturbed-long  nonlinear perturbed cat map, one 500-step orbit for
                  certify, min_lambda, shadow and refine; small sweep,
                  periodic and window problems on the same family.
  small-many      many short problems: three 18-step perturbed orbits,
                  an 8-cell sweep, ten periodic cycles, a 16-deep
                  window table, and one periodic problem on a
                  perturbed_cat_map cycle that the program rejects.

All inputs derive from the workload seed; the program only receives the
resulting configuration files (explicit seeds and lengths) or, for the
library calls without a subcommand, the pseudo-orbit built from them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bishadow as bs
import bishadow.cli
import reference as ref

WORKLOADS = ("cat-long", "perturbed-long", "small-many")
E2E_OPS = ("certify_s", "min_lambda_s", "shadow_s", "refine_s",
           "sweep_s", "periodic_s", "windows_s")

EPSILON1 = 0.1           # solver default: radius every shadow orbit must stay in
OFFDIAG_TOL = 1e-8       # refinement default: invariance tolerance
SHADOW_TOL = 1e-10       # agreement with reference orbits / one-step orbit error


@dataclass
class Op:
    """One operation: `run` is timed, everything else is not.

    run() returns a raw value; outcome(raw) turns it into (fingerprint
    bytes, failed cells, parsed data); check(parsed, ctx) returns a list
    of problems.  `metric` names the end-to-end metric the time feeds
    (None: timed apart).  `capture` names a function in bishadow.cli
    whose return value the first round records for the check.
    """

    metric: str | None
    label: str
    run: Callable
    outcome: Callable
    check: Callable
    cells: int = 1
    capture: str | None = None
    is_cli: bool = False


def _near(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


class Workload:
    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []
        self._stream = 0

    def rng(self):
        self._stream += 1
        return np.random.default_rng([self.seed, self._stream])

    # -- inputs ------------------------------------------------------------

    def orbit(self, amplitude, lengths, jump):
        rng = self.rng()
        seeds = ref.make_seeds(amplitude, rng.random(2), lengths, jump, rng)
        return seeds, ref.flat_points(amplitude, seeds, lengths)

    @staticmethod
    def system(amplitude):
        if amplitude == 0.0:
            return {"type": "cat_map"}
        return {"type": "perturbed_cat_map", "amplitude": amplitude}

    def write(self, label, payload) -> str:
        path = self.workdir / f"{label}.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        return str(path)

    # -- CLI operations ----------------------------------------------------

    def cli(self, metric, label, command, payload, check, *, cells=1, capture=None,
            extra=()):
        cfg = self.write(label, payload)
        out = str(self.workdir / f"{label}.out")
        argv = [command, "--config", cfg, "--out", out, *extra]

        def run():
            return bishadow.cli.main(argv)

        def outcome(code):
            data = Path(out).read_bytes()
            if command == "sweep":
                rows = list(csv.DictReader(io.StringIO(data.decode())))
                failed = sum(r["converged"] != "True"
                             or math.isnan(float(r["max_shadow_distance"])) for r in rows)
                return data, failed, rows
            return data, int(code != 0), json.loads(data)

        self.ops.append(Op(metric, label, run, outcome, check, cells=cells,
                           capture=capture, is_cli=True))

    def library(self, metric, label, fn, fingerprint, check):
        def outcome(value):
            return fingerprint(value), 0, value

        self.ops.append(Op(metric, label, fn, outcome, check))

    # -- the operation families -------------------------------------------

    def orbit_ops(self, tag, amplitude, lengths, jump, lam):
        """certify, min_lambda, shadow and refine on one pseudo-orbit.

        The cat map is shadowed under a shift by (1e-4, 0), the perturbed
        map under the same map at an amplitude larger by 1e-4.
        """
        seeds, points = self.orbit(amplitude, lengths, jump)
        eps = 0.0 if amplitude == 0.0 else 1e-9
        base = {
            "system": self.system(amplitude),
            "pseudo_orbit": {"seeds": seeds.tolist(), "lengths": lengths},
            "certification": {"lambda": lam, "epsilon": eps, "delta": jump},
        }
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        n_rows = 4 * int(offsets[-1]) + len(lengths)
        certify_label = f"certify{tag}"

        def check_certify(report, ctx):
            cert = report["certificate"]
            rows = cert["margins"]
            problems = []
            if not cert["passed"] or len(rows) != n_rows:
                problems.append(f"certificate passed={cert['passed']} with {len(rows)} rows")
            res = [r["lhs"] for r in rows if r["condition"] == "residual"]
            if not _near(res, jump, 1e-12):
                problems.append("residual rows differ from the jump size")
            if amplitude == 0.0:
                want = {"contraction_product": -math.log(ref.MU),
                        "expansion_product": math.log(ref.MU)}
                for r in rows:
                    start = int(offsets[r["segment"]])
                    k = r["step"] - start
                    if r["condition"] == "contraction_product":
                        expect = k * want[r["condition"]]
                    elif r["condition"] == "expansion_product":
                        expect = (lengths[r["segment"]] - k) * want[r["condition"]]
                    elif r["condition"] == "ratio":
                        expect = ref.MU ** -2
                    else:
                        continue
                    if abs(r["lhs"] - expect) > 1e-9:
                        problems.append(f"{r['condition']} row at step {r['step']}: "
                                        f"{r['lhs']!r} != {expect!r}")
                        break
            return problems

        self.cli("certify_s", certify_label, "certify", base, check_certify)

        def min_lambda():
            f = bs.cat_map() if amplitude == 0.0 else bs.PerturbedCatMap(amplitude)
            po = bs.flatten(seeds, lengths, f)
            strategy = "eigen" if amplitude == 0.0 else "power"
            spl = bs.assign_splittings(po, f, strategy)
            return bs.min_feasible_lambda(po, spl, f, epsilon=eps)

        def check_min_lambda(value, ctx):
            if value is None:
                return ["min_feasible_lambda returned None"]
            problems = []
            exact = ref.min_lambda_from_margins(
                ctx[certify_label]["certificate"]["margins"], offsets, lengths)
            if amplitude == 0.0 and abs(exact - ref.CAT_MIN_LAMBDA) > 1e-12:
                problems.append(f"certificate rows give {exact!r}, not (3 - sqrt 5) / 2")
            # bisection to 1e-6 returns the upper end of its bracket
            if not (exact * (1 - 1e-9) <= value <= exact + 1.01e-6):
                problems.append(f"min lambda {value!r} vs closed form {exact!r}")
            return problems

        self.library("min_lambda_s", f"min_lambda{tag}", min_lambda,
                     lambda v: repr(v).encode(), check_min_lambda)

        shift = (1e-4, 0.0)
        g_amplitude = amplitude + 1e-4
        shadow = dict(base, solver={"lambda_tilde": 0.5})
        if amplitude == 0.0:
            shadow["perturbation"] = {"type": "shift", "offset": list(shift)}
        else:
            shadow["perturbation"] = {"type": "perturbed_amplitude", "amplitude": g_amplitude}

        shadow_label = f"shadow{tag}"

        def check_shadow(report, ctx):
            res = report["result"]
            if amplitude == 0.0:
                v = ref.linear_shadow(points, shift)
                problems = []
                if not _near(res["distances"], np.linalg.norm(v, axis=1), SHADOW_TOL):
                    problems.append("distances differ from the linear reference")
                if not _near(ref.wrap(np.array(res["shadow_point"]) - (points[0] + v[0])), 0.0,
                             SHADOW_TOL):
                    problems.append("shadow point differs from the linear reference")
                return problems
            return orbit_problems(res, ctx.get(f"{shadow_label}.captured"), points, g_amplitude)

        self.cli("shadow_s", shadow_label, "shadow", shadow, check_shadow,
                 capture=None if amplitude == 0.0 else "solve_finite")

        refine = dict(base, refinement={"offdiag_tol": OFFDIAG_TOL})
        if amplitude != 0.0:
            refine["splitting"] = {"strategy": "power", "depth": 1}

        def check_refine(report, ctx):
            out = report["refinement"]
            u = np.array([s["unstable"] for s in out["splittings"]])[..., 0]
            s = np.array([s["stable"] for s in out["splittings"]])[..., 0]
            problems = []
            if not (out["certificate"]["passed"] and out["is_quasi_hyperbolic"]):
                problems.append("refined splitting does not certify")
            if not (_near(np.linalg.norm(u, axis=1), 1.0, 1e-12)
                    and _near(np.linalg.norm(s, axis=1), 1.0, 1e-12)):
                problems.append("refined bases are not unit vectors")
            worst = float(ref.offdiag_sizes(amplitude, points, u, s).max())
            if worst > OFFDIAG_TOL:
                problems.append(f"refined splitting not invariant: off-diagonal {worst:.3e}")
            return problems

        self.cli("refine_s", f"refine{tag}", "refine", refine, check_refine)

    def sweep(self, amplitude, cells, jump):
        lengths = [3] * 6
        seeds, points = self.orbit(amplitude, lengths, jump)
        values = [float(v) for v in np.geomspace(1e-6, 3e-5, cells)]
        payload = {
            "system": self.system(amplitude),
            "pseudo_orbit": {"seeds": seeds.tolist(), "lengths": lengths},
            "certification": {"lambda": 0.45, "epsilon": 1e-9, "delta": jump},
            "solver": {"lambda_tilde": 0.5},
            "perturbation": {"type": "shift", "offset": [values[0], 0.0]},
            "sweep": {"axis": "d", "values": values},
        }

        def check_sweep(rows, ctx):
            problems = []
            if [float(r["axis_value"]) for r in rows] != values:
                problems.append("sweep rows do not follow the axis values")
            for r, d in zip(rows, values):
                if r["converged"] != "True":
                    continue
                dist = float(r["max_shadow_distance"])
                if r["certified"] != "True" or not (0.0 < dist <= EPSILON1):
                    problems.append(f"cell d={d!r}: certified={r['certified']} distance={dist!r}")
                if amplitude == 0.0:
                    want = float(np.linalg.norm(ref.linear_shadow(points, [d, 0.0]), axis=1).max())
                    if abs(dist - want) > SHADOW_TOL:
                        problems.append(f"cell d={d!r}: distance {dist!r} vs reference {want!r}")
            return problems

        self.cli("sweep_s", "sweep", "sweep", payload, check_sweep, cells=cells,
                 extra=("--jobs", "1"))

    def periodic(self, periods, g_amplitude, shift):
        """Periodic shadowing of jittered cat-map cycles; g is the cat map
        plus `shift`, or the perturbed map at `g_amplitude`."""
        for p in periods:
            rng = self.rng()
            candidates = [pt for pt in bs.cat_map_periodic_points(p)
                          if ref.exact_cycle(pt, p) is not None]
            cycle = ref.exact_cycle(candidates[int(rng.integers(len(candidates)))], p)
            exact = np.array([[float(c) for c in pt] for pt in cycle])
            jitter = rng.standard_normal((p, 2))
            jitter *= 1e-5 / np.linalg.norm(jitter, axis=1, keepdims=True)
            seeds = ref.canon(exact + jitter)
            payload = {
                "system": {"type": "cat_map"},
                "pseudo_orbit": {"seeds": seeds.tolist() + [seeds[0].tolist()],
                                 "lengths": [1] * p},
                "certification": {"lambda": 0.4, "epsilon": 0.0, "delta": 1e-4},
                "solver": {"lambda_tilde": 0.5},
            }
            if g_amplitude is None:
                payload["perturbation"] = {"type": "shift", "offset": list(shift)}
                kind = "shift"
            else:
                payload["perturbation"] = {"type": "perturbed_amplitude",
                                           "amplitude": g_amplitude}
                kind = "amp"

            def check(report, ctx, p=p, exact=exact):
                res = report["result"]
                x = np.array(res["shadow_point"])
                amp = 0.0 if g_amplitude is None else g_amplitude
                s = shift if g_amplitude is None else (0.0, 0.0)
                problems = closure_problems(res, amp, s, x, p)
                if g_amplitude is None:
                    want = exact[0] + ref.shifted_cycle_offset(p, shift)
                    if not _near(ref.wrap(x - want), 0.0, SHADOW_TOL):
                        problems.append(f"period {p}: shadow point {x} vs exact {want}")
                elif np.linalg.norm(ref.wrap(x - exact[0])) > EPSILON1:
                    problems.append(f"period {p}: shadow point left the epsilon1 ball")
                return problems

            self.cli("periodic_s", f"periodic-{kind}-p{p}", "periodic", payload, check)

    def periodic_perturbed_f(self):
        """A periodic problem whose map f is the perturbed cat map: a period-3
        cycle of that map, jittered.  Its inputs do not depend on the seed."""
        amplitude = 0.02
        cycle = next(c for c in map(lambda pt: ref.exact_cycle(pt, 3),
                                    bs.cat_map_periodic_points(3)) if c is not None)
        orbit = ref.periodic_orbit(amplitude, cycle)
        jitter = np.random.default_rng(0).standard_normal((3, 2))
        jitter *= 1e-5 / np.linalg.norm(jitter, axis=1, keepdims=True)
        seeds = ref.canon(orbit + jitter)
        payload = {
            "system": {"type": "perturbed_cat_map", "amplitude": amplitude},
            "pseudo_orbit": {"seeds": seeds.tolist() + [seeds[0].tolist()],
                             "lengths": [1] * 3},
            "certification": {"lambda": 0.45, "epsilon": 1e-9, "delta": 1e-4},
            "solver": {"lambda_tilde": 0.5},
        }

        def check(report, ctx):
            res = report["result"]
            x = np.array(res["shadow_point"])
            problems = closure_problems(res, amplitude, (0.0, 0.0), x, 3)
            if not _near(ref.wrap(x - orbit[0]), 0.0, SHADOW_TOL):
                problems.append(f"shadow point {x} vs periodic orbit {orbit[0]}")
            return problems

        self.cli(None, "periodic-perturbed-f", "periodic", payload, check)

    def windows(self, amplitude, k_max, shift):
        """Growing two-sided windows k = 2, 4, ..., k_max through solve_infinite."""
        lengths = [2] * (2 * k_max + 1)
        rng = self.rng()
        seeds = ref.make_seeds(amplitude, rng.random(2), lengths, 1e-5, rng)
        f = bs.cat_map() if amplitude == 0.0 else bs.PerturbedCatMap(amplitude)
        master = bs.flatten(seeds, lengths, f, i_min=-k_max)
        ks = list(range(2, k_max + 1, 2))
        strategy = "eigen" if amplitude == 0.0 else "power"

        def run():
            g = bs.ShiftedMap(f, shift)
            config = bs.make_solver_config(master, f, lam=0.45, lam_tilde=0.5, tol_fix=1e-13)

            def window_problem(k):
                w = master.window(-k, k)
                return w, bs.assign_splittings(w, f, strategy), f, g

            return bs.solve_infinite(window_problem, ks, config)

        def fingerprint(value):
            result, table = value
            return json.dumps([table.to_dict(), result.to_dict()], sort_keys=True).encode()

        def check(value, ctx):
            result, table = value
            diffs = table.diffs()
            problems = []
            if not table.converged:
                problems.append("window table not declared converged")
            # geometric decay of the anchor differences down to the roundoff floor
            for a, b in zip(diffs, diffs[1:]):
                if b > max(0.5 * a, 1e-12):
                    problems.append(f"anchor differences do not decay: {diffs}")
                    break
            if result.max_distance > EPSILON1:
                problems.append("largest window left the epsilon1 ball")
            return problems

        self.library("windows_s", "windows", run, fingerprint, check)


def closure_problems(res, amplitude, shift, x, period):
    """A periodic result closes at roundoff, by the benchmark's own map."""
    problems = []
    own = ref.closure(amplitude, shift, x, period)
    # the solver's 1e-12 fixed-point tolerance, stretched by p expanding steps
    if not res["converged"] or own > 1e-12 * ref.MU ** period:
        problems.append(f"period {period}: closure {own:.3e} (converged={res['converged']})")
    post = res["closure"]["post_polish"]
    if post is None or post > 1e-12:
        problems.append(f"period {period}: polished closure {post}")
    return problems


def orbit_problems(res, captured, points, g_amplitude):
    """The solver's orbit is a true orbit of g and stays within epsilon1."""
    if captured is None:
        return ["solver result was not captured"]
    problems = []
    if (list(map(float, captured.distances)) != res["distances"]
            or list(map(float, captured.shadow_point)) != res["shadow_point"]):
        problems.append("report differs from the solver result")
    g = ref.torus_map(g_amplitude)
    x = ref.canon(points + captured.v)
    step = np.linalg.norm(ref.wrap(g(x[:-1]) - x[1:]), axis=1)
    if not res["converged"] or step.max() > SHADOW_TOL:
        problems.append(f"not an orbit of g: one-step error {step.max():.3e}")
    dist = np.linalg.norm(ref.wrap(x - points), axis=1)
    if not _near(res["distances"], dist, SHADOW_TOL):
        problems.append("reported distances differ from the orbit's distances")
    if dist.max() > EPSILON1:
        problems.append(f"orbit leaves the epsilon1 ball ({dist.max():.3e})")
    return problems


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    b = Workload(workload, seed, workdir)
    if workload == "cat-long":
        b.orbit_ops("", 0.0, [4] * 250, 1e-4, lam=0.4)
        b.sweep(0.0, cells=4, jump=1e-4)
        b.periodic((2, 3, 4), g_amplitude=None, shift=(1e-4, 0.0))
        b.windows(0.0, 12, (5e-5, 5e-5))
    elif workload == "perturbed-long":
        b.orbit_ops("", 0.02, [4] * 125, 1e-5, lam=0.45)
        b.sweep(0.02, cells=4, jump=1e-5)
        b.periodic((2, 3, 4), g_amplitude=1e-4, shift=None)
        b.windows(0.02, 12, (1e-5, 1e-5))
    else:
        for i in range(3):
            b.orbit_ops(f"-{i}", 0.02, [3] * 6, 1e-5, lam=0.45)
        b.sweep(0.02, cells=8, jump=1e-5)
        b.periodic(range(2, 7), g_amplitude=None, shift=(1e-4, 0.0))
        b.periodic(range(2, 7), g_amplitude=1e-4, shift=None)
        b.periodic_perturbed_f()
        b.windows(0.0, 16, (5e-5, 5e-5))
    return b.ops
