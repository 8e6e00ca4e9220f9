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

from .jsonwriter import dumps
from .splitting import Splitting, _checked_basis, _orthonormalize, eigen_splitting
from .systems import Phase, SmoothMap

__all__ = [
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
    def closed(self) -> bool:
        """Closing seed equal to the first, bitwise: one period of a cycle."""
        return bool(np.array_equal(self.seeds[0], self.seeds[-1]))

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
        return dumps(payload)

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


def _segmentwise(accumulate, x, offsets):
    """np.cumsum or np.cumprod of x restarted at every segment start; each
    segment accumulates in order, so it rounds as it would alone."""
    out = np.empty_like(x)
    lengths = np.diff(offsets)
    for length in np.unique(lengths):
        rows = offsets[:-1][lengths == length, None] + np.arange(length)
        out[rows] = accumulate(x[rows], axis=1)
    return out


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
    """One splitting per flattened index, closing point included, as stacks:
    orthonormal bases unstable ``(N + 1, n, du)`` and stable
    ``(N + 1, n, ds)``, and basis_inv ``(N + 1, n, n)``, the inverse of
    [unstable | stable].  A constant splitting is a broadcast view of one
    Splitting's arrays; ``spl[j]`` is the Splitting at index j.
    """

    unstable: np.ndarray
    stable: np.ndarray
    basis_inv: np.ndarray

    def __post_init__(self):
        if not len(self.unstable) == len(self.stable) == len(self.basis_inv) > 0:
            raise ValueError("need nonempty stacks of one length")

    @classmethod
    def from_bases(cls, unstable, stable) -> "SplittingAssignment":
        """Orthonormalize and check stacked bases, every index at once."""
        u = _orthonormalize(np.asarray(unstable, dtype=float))
        s = _orthonormalize(np.asarray(stable, dtype=float))
        return cls(u, s, _checked_basis(u, s)[1])

    @classmethod
    def constant(cls, sp: Splitting, size: int) -> "SplittingAssignment":
        return cls(*(np.broadcast_to(x, (size,) + x.shape)
                     for x in (sp.unstable, sp.stable, sp.basis_inv)))

    def __len__(self):
        return len(self.unstable)

    def __getitem__(self, j) -> Splitting:
        return Splitting(self.unstable[j], self.stable[j])

    @property
    def dim_u(self) -> int:
        return self.unstable.shape[-1]

    @property
    def basis(self) -> np.ndarray:
        return np.concatenate([self.unstable, self.stable], axis=-1)

    def window(self, j_lo: int, j_hi: int) -> "SplittingAssignment":
        return SplittingAssignment(self.unstable[j_lo : j_hi + 1], self.stable[j_lo : j_hi + 1],
                                   self.basis_inv[j_lo : j_hi + 1])


def _power_splittings(po, f, depth, seed: Splitting) -> SplittingAssignment:
    """Chained subspace iteration: one forward QR pass pushes the seed's
    unstable basis along the orbit, u_{t+1} = orth(J_t u_t), and one
    backward pass pulls its stable basis back, s_t = orth(J_t^{-1} s_{t+1}).

    An open pseudo-orbit starts the passes at its ends.  A closed one
    (closing seed equal to the first) is one period of a cycle: both
    passes start `depth` steps early, wrapping around, and index N is
    set to index 0.
    """
    n = po.n_steps
    jacs = f.jacobian_along(po.points[:-1])
    warm = depth if po.closed else 0
    u, s = [seed.unstable], [seed.stable]
    for t in range(-warm, n):
        u.append(_orthonormalize(jacs[t % n] @ u[-1]))
    for t in range(n - 1 + warm, -1, -1):
        s.append(_orthonormalize(np.linalg.solve(jacs[t % n], s[-1])))
    u, s = np.stack(u[warm:]), np.stack(s[warm:][::-1])  # indices 0..N
    if po.closed:
        u[n], s[n] = u[0], s[0]
    gaps = np.linalg.svd(np.concatenate([u, s], axis=-1), compute_uv=False)[:, -1]
    bad = np.flatnonzero(gaps < 1e-6)
    if bad.size:
        raise SplittingError(f"power iteration failed to separate subspaces at index {bad[0]}")
    return SplittingAssignment.from_bases(u, s)


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
      ``power``  chained forward/backward subspace iteration, started
                 from the eigen-splitting of the derivative's linear part.

    On an open pseudo-orbit the ``power`` passes start at the orbit's ends,
    which is the limit of per-index windows as their depth grows, so
    ``depth`` does not matter there.  On a closed pseudo-orbit (closing
    seed equal to the first) the passes wrap around the cycle, starting
    ``depth`` steps early as warm-up, and index N equals index 0.
    """
    n = po.n_steps
    if strategy == "user":
        if splittings is None:
            raise ValueError("user strategy needs splittings")
        if isinstance(splittings, Splitting):
            return SplittingAssignment.constant(splittings, n + 1)
        if len(splittings) != n + 1:
            raise ValueError(f"need {n + 1} splittings, got {len(splittings)}")
        return SplittingAssignment(*(np.stack([getattr(sp, name) for sp in splittings])
                                     for name in ("unstable", "stable", "basis_inv")))

    j0 = f.at_step(0).jacobian(po.points[0])
    if strategy == "eigen":
        sample = po.points[:: max(1, n // 8)]
        jac = f.at_step(0).jacobian(sample)
        if np.abs(jac - j0).max() > 1e-9:
            raise SplittingError("eigen strategy needs a constant derivative; use power")
        return SplittingAssignment.constant(eigen_splitting(j0, dim_u=dim_u), n + 1)

    if strategy == "power":
        if depth < 0:
            raise ValueError("power splittings need a nonnegative depth")
        return _power_splittings(po, f, depth, eigen_splitting(j0, dim_u=dim_u))

    raise ValueError(f"unknown strategy {strategy!r}")
