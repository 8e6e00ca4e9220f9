"""Upgrade a nearly invariant splitting to an exactly invariant one.

The perturbed cat map's derivative is not diagonal in the unperturbed
eigenbasis: the off-diagonal blocks have size comparable to the
perturbation amplitude.  The graph transform tilts each subspace onto
the invariant family, after which the derivative is block-diagonal to
solver precision and the orbit certifies at a slightly weaker rate with
no off-diagonal allowance.
"""

import numpy as np

import bishadow as bs
from bishadow.refinement import make_refinement_config, refine
from bishadow.splitting import eigen_splitting

amplitude = 0.005
f = bs.PerturbedCatMap(amplitude)
po = bs.generate(f, x_start=[0.3, 0.7], lengths=[3, 3, 3], jump_amp=1e-5, rng_seed=7)

base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
splittings = bs.assign_splittings(po, f, "user", splittings=base)

blocks = bs.pseudo_orbit_blocks(po, splittings, f)
before = bs.block_norms(blocks)[2].max()
print(f"perturbation amplitude {amplitude}: off-diagonal size before = {before:.2e}")

config = make_refinement_config(lam=0.4, lam_tilde=0.5, R=2.63)
print(f"admissible off-diagonal cap: {config.eps_cap:.3e}")

result = refine(po, splittings, f, config)
print(f"off-diagonal size after  = {result.max_offdiagonal:.2e}")
print(f"graph invariance residual = {result.max_invariance_residual:.2e}")
print(f"refined certificate at rate 0.5: passed={result.certificate.passed}")
print(f"block-diagonal at 1e-8: {bs.is_quasi_hyperbolic(result.certificate, 1e-8)}")

tilt = max(np.abs(result.unstable_graphs).max(), np.abs(result.stable_graphs).max())
print(f"largest graph tilt: {tilt:.2e} (scales with the amplitude)")
