"""Reference computations the benchmark checks the program against.

Everything here is written from the formulas of the maps, not from the
package: the cat map A = [[2, 1], [1, 1]] and its sinusoidal
perturbation on the unit torus, their Jacobians, pseudo-orbit
construction from seeds, and the closed-form shadow orbit of the linear
problem.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
MU = (3.0 + math.sqrt(5.0)) / 2.0          # expanding eigenvalue of CAT
CAT_MIN_LAMBDA = (3.0 - math.sqrt(5.0)) / 2.0
_E_U = np.array([1.0, MU - 2.0]) / math.hypot(1.0, MU - 2.0)
_E_S = np.array([-(MU - 2.0), 1.0]) / math.hypot(1.0, MU - 2.0)


def wrap(d):
    d = np.asarray(d, dtype=float)
    return d - np.floor(d + 0.5)


def canon(x):
    return np.mod(np.asarray(x, dtype=float), 1.0)


def torus_map(amplitude: float):
    """x -> A x + (c / 2 pi) (sin 2 pi x2, sin 2 pi x1) mod 1 (c = 0: cat map)."""
    k = amplitude / (2.0 * math.pi)

    def g(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        y = np.stack([2.0 * x1 + x2 + k * np.sin(2.0 * math.pi * x2),
                      x1 + x2 + k * np.sin(2.0 * math.pi * x1)], axis=-1)
        return np.mod(y, 1.0)

    return g


def jacobian(amplitude: float, x):
    x = np.asarray(x, dtype=float)
    j = np.empty(x.shape[:-1] + (2, 2))
    j[..., 0, 0] = 2.0
    j[..., 0, 1] = 1.0 + amplitude * np.cos(2.0 * math.pi * x[..., 1])
    j[..., 1, 0] = 1.0 + amplitude * np.cos(2.0 * math.pi * x[..., 0])
    j[..., 1, 1] = 1.0
    return j


def make_seeds(amplitude: float, start, lengths, jump: float, rng):
    """Seeds of a pseudo-orbit: follow the map, then jump by exactly `jump`
    along a random unit vector at every segment end."""
    f = torus_map(amplitude)
    seeds = [canon(start)]
    for n in lengths:
        x = seeds[-1]
        for _ in range(int(n)):
            x = f(x)
        u = rng.standard_normal(2)
        seeds.append(canon(x + jump * u / np.linalg.norm(u)))
    return np.stack(seeds)


def flat_points(amplitude: float, seeds, lengths):
    """Flattened points y_0..y_N: exact iterates inside segments, next seed at joins."""
    f = torus_map(amplitude)
    pts = []
    for t, n in enumerate(lengths):
        x = seeds[t]
        for _ in range(int(n)):
            pts.append(x)
            x = f(x)
    pts.append(seeds[-1])
    return np.stack(pts)


def linear_shadow(points, shift):
    """Shadow orbit of g = A x + shift along a cat-map pseudo-orbit.

    Solves v_{j+1} = A v_j + r_j with r_j = wrap(A y_j + shift - y_{j+1}),
    stable component zero at j = 0 and unstable component zero at j = N:
    one forward pass in the stable eigencoordinate, one backward pass in
    the unstable one.  Returns the tangent offsets v (N + 1, 2).
    """
    y = np.asarray(points, dtype=float)
    r = wrap(y[:-1] @ CAT.T + np.asarray(shift, dtype=float) - y[1:])
    ru, rs = r @ _E_U, r @ _E_S
    n = len(r)
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    for j in range(n):
        b[j + 1] = b[j] / MU + rs[j]
    for j in range(n - 1, -1, -1):
        a[j] = (a[j + 1] - ru[j]) / MU
    return np.outer(a, _E_U) + np.outer(b, _E_S)


def exact_cycle(point, period: int):
    """Exact rational orbit of a cat-map periodic point; None unless the
    minimal period is `period`."""
    p = tuple(Fraction(c) for c in point)
    orbit = [p]
    for _ in range(period):
        p = ((2 * p[0] + p[1]) % 1, (p[0] + p[1]) % 1)
        orbit.append(p)
    if orbit[-1] != orbit[0] or any(q == orbit[0] for q in orbit[1:-1]):
        return None
    return orbit[:-1]


def shifted_cycle_offset(period: int, shift):
    """e_0 with e_0 = A^p e_0 + sum_i A^(p-1-i) shift: how far the periodic
    point of x -> A x + shift sits from the cat-map periodic point."""
    s = np.asarray(shift, dtype=float)
    acc = np.zeros(2)
    power = np.eye(2)
    for _ in range(period):
        acc = CAT @ acc + s
        power = CAT @ power
    return np.linalg.solve(np.eye(2) - power, acc)


def periodic_orbit(amplitude: float, cycle, tol: float = 1e-15):
    """Newton refinement of a cat-map cycle to a cycle of the perturbed map."""
    g = torus_map(amplitude)
    x = np.array([float(c) for c in cycle[0]])
    p = len(cycle)
    for _ in range(50):
        q, jac = x, np.eye(2)
        for _ in range(p):
            jac = jacobian(amplitude, q) @ jac
            q = g(q)
        r = wrap(q - x)
        if np.linalg.norm(r) <= tol:
            break
        x = canon(x - np.linalg.solve(jac - np.eye(2), r))
    out = [x]
    for _ in range(p - 1):
        out.append(g(out[-1]))
    return np.stack(out)


def closure(amplitude: float, shift, x, period: int) -> float:
    g = torus_map(amplitude)
    s = np.asarray(shift, dtype=float)
    q = np.asarray(x, dtype=float)
    for _ in range(period):
        q = canon(g(q) + s)
    return float(np.linalg.norm(wrap(q - x)))


def offdiag_sizes(amplitude: float, points, unstable, stable):
    """Off-diagonal entries of Df(y_j) read from splitting j into j + 1
    (one-dimensional subspaces): the residual invariance of both families."""
    jac = jacobian(amplitude, points[:-1])
    basis = np.stack([unstable, stable], axis=-1)        # (N + 1, 2, 2)
    m = np.linalg.solve(basis[1:], jac @ basis[:-1])
    return np.maximum(np.abs(m[:, 0, 1]), np.abs(m[:, 1, 0]))


def min_lambda_from_margins(margins, offsets, lengths) -> float:
    """Smallest rate passing every rate-dependent row of a certificate.

    Each condition is linear in log(lambda): contraction rows need
    k log(lambda) >= sum of log ||D||, expansion rows need
    (n - k) log(lambda) >= -(sum of log m(A)), ratio rows need
    lambda^2 >= ||D|| / m(A).
    """
    start = {i: int(offsets[i]) for i in range(len(lengths))}
    bound = -math.inf
    for r in margins:
        cond = r["condition"]
        if cond == "contraction_product":
            k = r["step"] - start[r["segment"]]
            bound = max(bound, r["lhs"] / k)
        elif cond == "expansion_product":
            k = r["step"] - start[r["segment"]]
            bound = max(bound, -r["lhs"] / (int(lengths[r["segment"]]) - k))
        elif cond == "ratio":
            bound = max(bound, 0.5 * math.log(r["lhs"]))
    return math.exp(bound)
