"""Benchmark for bishadow: certify, refine and shadow, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cat-long --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory.  The run
builds the workload's inputs from the seed, then repeats whole rounds of
the same operations until ``--seconds`` have passed (at least two
rounds).  The first round's outputs are checked against the benchmark's
own reference computations; every later round must reproduce them byte
for byte.  The last line of standard output is one JSON object:
end-to-end metrics (in reference seconds, see ``calibration_kernel``)
with ``--trace 0``, per-layer metrics (in wall seconds) with
``--trace 1``.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
NOMINAL_KERNEL_S = 0.04   # one calibration kernel, in reference seconds


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs, print the time taken")
    return p.parse_args(argv)


def _workdir(workload: str, name: str) -> Path:
    path = ROOT / ".perfbench_work" / workload / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _import_workloads():
    """Import the benchmark's workloads, and through them bishadow from src/."""
    if not (SRC / "bishadow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'bishadow'}")
    sys.path.insert(0, str(SRC))
    import bishadow
    import workloads

    if Path(bishadow.__file__).resolve().parent != SRC / "bishadow":
        raise SystemExit(f"perfbench: imported bishadow from {bishadow.__file__}, not src/")
    return workloads


def _setup_only(args) -> None:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.build(args.workload, args.seed, _workdir(args.workload, f"setup-{os.getpid()}"))
    elapsed = time.perf_counter() - t0
    kernel = statistics.median(calibration_kernel() for _ in range(5))
    print(repr(elapsed * NOMINAL_KERNEL_S / kernel))


def _setup_seconds(args) -> float:
    """Median time of fresh processes that import the package and build the
    inputs, in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("perfbench: set-up process failed")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of work shaped like the package's:
    interpreter loops over tiny numpy calls plus one batched decomposition.

    On a shared host the CPU speed drifts by tens of percent between and
    within runs, and the drift moves the kernel and the operations alike.
    Timing the kernel next to each operation lets the benchmark report
    times in reference seconds: wall time times NOMINAL_KERNEL_S over the
    kernel's time.
    """
    import numpy as np

    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    x = np.array([0.13, 0.41])
    batch = np.broadcast_to(m, (16384, 2, 2)) + np.linspace(0.0, 1e-3, 16384)[:, None, None]
    t0 = time.perf_counter()
    for _ in range(1200):
        x = np.mod(m @ x, 1.0)
        np.linalg.solve(m, x)
        np.linalg.norm(x)
    np.linalg.svd(batch, compute_uv=False)
    return time.perf_counter() - t0


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times = {op.label: [] for op in ops}     # wall seconds per round
        self.scaled = {op.label: [] for op in ops}    # reference seconds per round
        self.first = {}                               # label -> fingerprint of round 0
        self.ctx = {}                                 # label -> parsed output of round 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []

    @contextlib.contextmanager
    def _capture(self, op, rnd):
        """In round 0, record what op.capture (a bishadow.cli global) returns."""
        import bishadow.cli

        captured = []
        if rnd != 0 or not op.capture:
            yield captured
            return
        orig = getattr(bishadow.cli, op.capture)

        def keep(*args, **kwargs):
            captured.append(orig(*args, **kwargs))
            return captured[-1]

        setattr(bishadow.cli, op.capture, keep)
        try:
            yield captured
        finally:
            setattr(bishadow.cli, op.capture, orig)

    def round(self, rnd: int):
        """Run every operation once.  Untraced, a calibration kernel runs
        before each operation and after the last; each operation's time is
        scaled by the nominal kernel time over the mean of the two kernels
        around it."""
        if self.tracer is not None:
            self.tracer.round = rnd
            for op in self.ops:
                self._run(op, rnd)
            return
        before = calibration_kernel()
        for op in self.ops:
            self._run(op, rnd)
            after = calibration_kernel()
            self.scaled[op.label].append(
                self.times[op.label][-1] * NOMINAL_KERNEL_S * 2.0 / (before + after))
            before = after

    def _run(self, op, rnd: int):
        self.attempted += op.cells
        span = self.tracer.span(f"op:{op.label}") if self.tracer else contextlib.nullcontext()
        with self._capture(op, rnd) as captured, span:
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                raw = exc
            self.times[op.label].append(time.perf_counter() - t0)
        if isinstance(raw, Exception):
            self.failed += op.cells
            if rnd == 0:
                self.errors.append(f"{op.label}: {type(raw).__name__}: {raw}")
            return
        fingerprint, failed, parsed = op.outcome(raw)
        self.failed += failed
        if self.tracer is not None and op.is_cli:
            self.tracer.count("cli.report_bytes", len(fingerprint))
        if rnd == 0:
            self.first[op.label] = fingerprint
            if failed:
                self.errors.append(f"{op.label}: {failed} of {op.cells} failed")
            if failed < op.cells:
                self.ctx[op.label] = parsed
                if captured:
                    self.ctx[f"{op.label}.captured"] = captured[-1]
        elif fingerprint != self.first.get(op.label):
            self.problems.append(f"{op.label}: round {rnd} output differs from round 0")

    def check(self):
        """Judge round 0's outputs of every operation that did not fail."""
        for op in self.ops:
            if op.label in self.ctx:
                for problem in op.check(self.ctx[op.label], self.ctx):
                    self.problems.append(f"{op.label}: {problem}")

    def e2e(self, names):
        """Per metric: mean reference time of its operations in each round,
        median over rounds."""
        out = {}
        for name in names:
            per_op = [self.scaled[op.label] for op in self.ops if op.metric == name]
            per_round = [sum(ts) / len(ts) for ts in zip(*per_op)]
            out[name] = {"value": statistics.median(per_round), "unit": "s"}
        return out

    def summary(self):
        """Wall seconds of every operation per round (reference seconds in brackets)."""
        lines = []
        for op in self.ops:
            ts, ref = self.times[op.label], self.scaled[op.label]
            line = f"  {op.label:<24} median {statistics.median(ts):.4f}s of "
            line += " ".join(f"{t:.3f}" for t in ts)
            if ref:
                line += " [" + " ".join(f"{t:.3f}" for t in ref) + "]"
            lines.append(line)
        return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_only:
        _setup_only(args)
        return 0
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    setup_s = _setup_seconds(args) if args.trace == 0 else None
    ops = workloads.build(args.workload, args.seed, _workdir(args.workload, "run"))

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    runner = Runner(ops, tracer)
    start = time.perf_counter()
    rnd = 0
    with tracer.installed() if tracer else contextlib.nullcontext():
        while rnd < 2 or time.perf_counter() - start < args.seconds:
            runner.round(rnd)
            if rnd == 0:
                runner.check()
            rnd += 1

    if args.trace:
        metrics = tracer.layer_metrics(rnd)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update(runner.e2e(workloads.E2E_OPS))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}

    sys.stderr.write(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
                     f"{rnd} rounds in {time.perf_counter() - start:.1f}s\n{runner.summary()}\n")
    for line in runner.errors:
        sys.stderr.write(f"  failed: {line}\n")
    for line in runner.problems:
        sys.stderr.write(f"  INCORRECT: {line}\n")
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
