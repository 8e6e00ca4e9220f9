"""Segmented pseudo-orbits: seed points, exact in-segment orbits, and jumps.

A pseudo-orbit is a list of orbit segments.  Segment i starts at seed
x_i, follows the map for n_i steps, and then jumps to the next seed
x_{i+1}; the jump size is the segment's residual.  The flattened view
concatenates the segments into points y_0 ... y_N (N = sum of lengths),
where the last point is the closing seed.  Segment starts sit at offsets
that accumulate the lengths; windows of two-sided orbits carry a
(possibly negative) first segment index so the anchor segment 0 keeps
its meaning under slicing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .splitting import Splitting, _orthonormalize, eigen_splitting
from .systems import Phase, SmoothMap

__all__ = [
    "OrbitSegment",
    "SegmentedPseudoOrbit",
    "SplittingAssignment",
    "SplittingError",
    "flatten",
    "generate",
    "assign_splittings",
]


class SplittingError(ValueError):
    """Splitting assignment failed (e.g. power iteration did not separate)."""


@dataclass(frozen=True, eq=False)
class OrbitSegment:
    """View of one segment: its points plus the follow-up seed."""

    phase: Phase
    index: int
    start: int
    length: int
    points: np.ndarray  # (length + 1, dim); last row is the next seed
    residual: float


@dataclass(frozen=True, eq=False)
class SegmentedPseudoOrbit:
    phase: Phase
    seeds: np.ndarray       # (m + 1, dim); last seed closes the window
    lengths: np.ndarray     # (m,)
    points: np.ndarray      # (N + 1, dim) flattened, closing seed included
    residuals: np.ndarray   # (m,) jump sizes at segment ends
    i_min: int = 0

    def __post_init__(self):
        casts = {"seeds": float, "lengths": int, "points": float, "residuals": float}
        for name, dtype in casts.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.points.shape[0] != int(self.lengths.sum()) + 1:
            raise ValueError("flattened points do not match the segment lengths")
        if self.seeds.shape[0] != self.lengths.size + 1:
            raise ValueError("need one more seed than segments")
        offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_segments(self) -> int:
        return len(self.lengths)

    @property
    def n_steps(self) -> int:
        return int(self.offsets[-1])

    @property
    def i_max(self) -> int:
        return self.i_min + self.n_segments - 1

    @property
    def center(self) -> int:
        """Flattened position of the segment-0 seed."""
        if not (self.i_min <= 0 <= self.i_max + 1):
            raise ValueError("segment index 0 is outside this window")
        return int(self.offsets[-self.i_min])

    def N(self, i: int) -> int:
        """Signed flattened offset of seed i: 0 at i = 0, cumulative lengths
        forward, negated cumulative lengths backward."""
        if not (self.i_min <= i <= self.i_max + 1):
            raise ValueError(f"segment index {i} outside [{self.i_min}, {self.i_max + 1}]")
        return int(self.offsets[i - self.i_min]) - int(self.offsets[-self.i_min])

    def position(self, i: int) -> int:
        """0-based flattened position of seed i."""
        return int(self.offsets[i - self.i_min])

    def segment(self, i: int) -> OrbitSegment:
        t = i - self.i_min
        if not (0 <= t < self.n_segments):
            raise ValueError(f"no segment {i}")
        start = int(self.offsets[t])
        stop = int(self.offsets[t + 1])
        return OrbitSegment(
            phase=self.phase,
            index=i,
            start=start,
            length=int(self.lengths[t]),
            points=self.points[start : stop + 1],
            residual=float(self.residuals[t]),
        )

    def segments(self):
        return [self.segment(i) for i in range(self.i_min, self.i_max + 1)]

    def window(self, i_lo: int, i_hi: int) -> "SegmentedPseudoOrbit":
        """Sub-orbit covering segments i_lo..i_hi inclusive."""
        if not (self.i_min <= i_lo <= i_hi <= self.i_max):
            raise ValueError("window is not contained in this pseudo-orbit")
        a = i_lo - self.i_min
        b = i_hi - self.i_min + 1
        lo, hi = int(self.offsets[a]), int(self.offsets[b])
        return SegmentedPseudoOrbit(
            phase=self.phase,
            seeds=self.seeds[a : b + 1],
            lengths=self.lengths[a:b],
            points=self.points[lo : hi + 1],
            residuals=self.residuals[a:b],
            i_min=i_lo,
        )

    def to_json(self) -> str:
        def enc(arr):
            return [[format(v, ".17g") for v in row] for row in np.atleast_2d(arr)]

        payload = {
            "phase": {"kind": self.phase.kind, "dim": self.phase.dim},
            "i_min": self.i_min,
            "seeds": enc(self.seeds),
            "lengths": [int(v) for v in self.lengths],
            "points": enc(self.points),
            "residuals": [format(v, ".17g") for v in self.residuals],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SegmentedPseudoOrbit":
        payload = json.loads(text)
        dec = lambda rows: np.array([[float(v) for v in row] for row in rows])
        return cls(
            phase=Phase(payload["phase"]["kind"], payload["phase"]["dim"]),
            seeds=dec(payload["seeds"]),
            lengths=np.array(payload["lengths"], dtype=int),
            points=dec(payload["points"]),
            residuals=np.array([float(v) for v in payload["residuals"]]),
            i_min=int(payload["i_min"]),
        )


def flatten(seeds, lengths, f: SmoothMap, i_min: int = 0) -> SegmentedPseudoOrbit:
    """Build the flattened pseudo-orbit from seeds and segment lengths.

    Expects one more seed than lengths: the final seed closes the window.
    Within each segment the stored points are exact forward iterates of
    the seed; residuals measure the jump from each segment's ideal
    endpoint to the next seed.
    """
    lengths = np.asarray(lengths, dtype=int)
    if lengths.size == 0:
        raise ValueError("a pseudo-orbit needs at least one segment")
    if np.any(lengths < 1):
        raise ValueError("segment lengths must be positive")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[0] != lengths.size + 1:
        raise ValueError("need len(lengths) + 1 seeds (the last seed closes the window)")
    phase = f.phase
    seeds = phase.canon(seeds)
    total = int(lengths.sum())
    points = np.empty((total + 1, phase.dim))
    residuals = np.empty(lengths.size)
    j = 0
    for t, n in enumerate(lengths):
        x = seeds[t]
        points[j] = x
        for _ in range(int(n)):
            x = f.at_step(j)(x)
            j += 1
            points[j] = x
        residuals[t] = phase.distance(x, seeds[t + 1])
        points[j] = seeds[t + 1]
    return SegmentedPseudoOrbit(
        phase=phase, seeds=seeds, lengths=lengths, points=points,
        residuals=residuals, i_min=i_min,
    )


def generate(
    f: SmoothMap,
    x_start,
    lengths,
    jump_amp: float,
    rng_seed: int,
    i_min: int = 0,
) -> SegmentedPseudoOrbit:
    """Pseudo-orbit factory: follow f and inject isotropic jumps of exact size.

    Each segment end jumps by jump_amp along a fresh random unit vector,
    so every residual equals jump_amp and the whole construction is
    reproducible from the seed.
    """
    if jump_amp < 0:
        raise ValueError("jump amplitude must be nonnegative")
    if jump_amp >= f.phase.injectivity_radius:
        raise ValueError("jump amplitude must stay below the injectivity radius")
    lengths = np.asarray(lengths, dtype=int)
    rng = np.random.default_rng(rng_seed)
    phase = f.phase
    seeds = [phase.canon(np.asarray(x_start, dtype=float))]
    j = 0
    for n in lengths:
        x = seeds[-1]
        for _ in range(int(n)):
            x = f.at_step(j)(x)
            j += 1
        u = rng.standard_normal(phase.dim)
        u /= np.linalg.norm(u)
        seeds.append(phase.exp(x, jump_amp * u))
    return flatten(np.stack(seeds), lengths, f, i_min=i_min)


@dataclass(frozen=True, eq=False)
class SplittingAssignment:
    """One splitting per flattened index, closing point included."""

    splittings: tuple

    def __post_init__(self):
        if not self.splittings:
            raise ValueError("empty assignment")
        du = self.splittings[0].dim_u
        if any(sp.dim_u != du for sp in self.splittings):
            raise ValueError("splitting dimensions must be constant along the orbit")

    def __len__(self):
        return len(self.splittings)

    def __getitem__(self, j):
        return self.splittings[j]

    def window(self, j_lo: int, j_hi: int) -> "SplittingAssignment":
        return SplittingAssignment(self.splittings[j_lo : j_hi + 1])


def _power_splittings(po, f, dim_u, depth, seed: Splitting):
    """Subspace iteration over a window of `depth` steps on each side of j.

    A closed pseudo-orbit (closing seed equal to the first) is one period
    of a cycle, so its windows wrap around and indices 0 and N agree.
    """
    n = po.n_steps
    jacs = [f.at_step(j).jacobian(po.points[j]) for j in range(n)]
    closed = np.array_equal(po.seeds[0], po.seeds[-1])
    out = []
    for j in range(n + 1):
        u = seed.unstable.copy()
        for t in range(j - depth if closed else max(0, j - depth), j):
            u = _orthonormalize(jacs[t % n] @ u)
        s = seed.stable.copy()
        for t in range(j + depth - 1 if closed else min(n, j + depth) - 1, j - 1, -1):
            s = _orthonormalize(np.linalg.solve(jacs[t % n], s))
        gap = np.linalg.svd(np.concatenate([u, s], axis=1), compute_uv=False)[-1]
        if gap < 1e-6:
            raise SplittingError(f"power iteration failed to separate subspaces at index {j}")
        out.append(Splitting.from_bases(u, s))
    return out


def assign_splittings(
    po: SegmentedPseudoOrbit,
    f: SmoothMap,
    strategy: str = "eigen",
    *,
    dim_u: int | None = None,
    depth: int = 50,
    splittings=None,
) -> SplittingAssignment:
    """Attach a splitting to every flattened index of the pseudo-orbit.

    Strategies:
      ``eigen``  constant eigen-splitting of the (constant) derivative;
      ``user``   pass through the provided splitting(s) unchanged;
      ``power``  per-index forward/backward subspace iteration, warm
                 started from the eigen-splitting of the derivative's
                 linear part; periodic around a closed pseudo-orbit.
    """
    n = po.n_steps
    if strategy == "user":
        if splittings is None:
            raise ValueError("user strategy needs splittings")
        if isinstance(splittings, Splitting):
            return SplittingAssignment((splittings,) * (n + 1))
        splittings = tuple(splittings)
        if len(splittings) != n + 1:
            raise ValueError(f"need {n + 1} splittings, got {len(splittings)}")
        return SplittingAssignment(splittings)

    j0 = f.at_step(0).jacobian(po.points[0])
    if strategy == "eigen":
        sample = po.points[:: max(1, n // 8)]
        jac = f.at_step(0).jacobian(sample)
        if np.abs(jac - j0).max() > 1e-9:
            raise SplittingError("eigen strategy needs a constant derivative; use power")
        sp = eigen_splitting(j0, dim_u=dim_u)
        return SplittingAssignment((sp,) * (n + 1))

    if strategy == "power":
        seed = eigen_splitting(j0, dim_u=dim_u)
        return SplittingAssignment(tuple(_power_splittings(po, f, dim_u, depth, seed)))

    raise ValueError(f"unknown strategy {strategy!r}")
