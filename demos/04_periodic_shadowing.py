"""Shadow periodic pseudo-orbits with genuinely periodic orbits.

The exact rational periodic points of the cat map (enumerated in
integer arithmetic) provide ground truth.  First the solver recovers a
period-2 point from its own orbit data; then a jittered period-3 cycle
is shadowed under a shifted map, and the periodic boundary conditions
force the shadow orbit to close up exactly.  Once the solver has
converged, one more periodic update polishes the orbit.  Closure is
measured by multiple shooting: the largest one-step residual
|G_j(v_j) - v_{(j+1) mod N}| around the cycle, the seam included, for
the solver's orbit and for the polished one that the result returns.
"""

import numpy as np

import bishadow as bs
from bishadow.oracle import exact_cat_orbit

f = bs.cat_map()

print("periodic points by period (count = |det(A^p - I)|):")
for p in (1, 2, 3):
    pts = bs.cat_map_periodic_points(p)
    print(f"  period {p}: {len(pts)} points, e.g. {pts[:3]}")

cycle = [pt for pt in bs.cat_map_periodic_points(2) if pt != (0, 0)][0]
x0 = np.array([float(v) for v in cycle])
# the exact rational orbit closes up, so its float seeds repeat bitwise
po = bs.flatten(np.array(exact_cat_orbit(cycle, 2), dtype=float), [1, 1], f)
splittings = bs.assign_splittings(po, f, "eigen")
config = bs.make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
res = bs.solve_periodic(po, splittings, f, f, config)
print(f"\nperiod-2 recovery: shadow={res.shadow_point} vs exact={x0}")
print(f"closure (largest step residual around the cycle): solver {res.periodic_closure:.1e}, "
      f"polished {res.periodic_closure_polished:.1e} after {res.iterations} updates")

cyc3 = [pt for pt in bs.cat_map_periodic_points(3) if pt != (0, 0)][0]
orb = np.array(exact_cat_orbit(cyc3, 2), dtype=float)
rng = np.random.default_rng(5)
jittered = [f.phase.canon(orb[i] + 1e-4 * rng.standard_normal(2)) for i in range(3)]
po3 = bs.flatten(np.array(jittered + [jittered[0]]), [1, 1, 1], f)
spl3 = bs.assign_splittings(po3, f, "eigen")
g = bs.ShiftedMap(f, [1e-4, 0.0])
cfg3 = bs.make_solver_config(po3, f, lam=0.4, lam_tilde=0.5)
res3 = bs.solve_periodic(po3, spl3, f, g, cfg3)
print(f"\njittered period-3 cycle under the shifted map:")
print(f"seam gap |v_0 - v_N| = {res3.seam_gap:.1e}")
print(f"closure (largest step residual around the cycle): solver {res3.periodic_closure:.1e}, "
      f"polished {res3.periodic_closure_polished:.1e} after {res3.iterations} updates")
print(f"max distance to the pseudo-orbit: {res3.max_distance:.2e}")
