#!/usr/bin/env python3
"""Walkthrough: phase-diagram datasets over the (p0, eta) plane.

Sweeps a grid for a fixed environment and writes the CSV datasets behind
the three-region phase diagrams: region I (guess "present"), region II
(guess "absent"), region III (measure). The quantum region II is strictly
smaller than the conventional one whenever the environment spectrum is
anisotropic, because lambda_h < lambda_d.
"""

import numpy as np

from illume import REGIONS, EnvironmentState, SweepSpec, region_boundaries, run_sweep, write_csv

env = EnvironmentState([0.5, 0.3, 0.2])
spec = SweepSpec(p0_range=(0.0, 1.0, 101), eta_range=(0.0, 1.0, 101), env=env)
table = run_sweep(spec)  # columns: p0 and eta axes, region codes and errors per cell

write_csv(table, "phase_diagram_skew3.csv")
print(f"wrote {len(table)} grid cells to phase_diagram_skew3.csv")

# region codes index REGIONS ("I", "II", "III"); count them straight from the columns
grid = table.grid
tally_c = np.bincount(grid.region_c.ravel(), minlength=len(REGIONS))
tally_q = np.bincount(grid.region_q.ravel(), minlength=len(REGIONS))
print("\nregion cell counts (conventional vs quantum):")
for region, n_c, n_q in zip(REGIONS, tally_c, tally_q):
    print(f"  {region:>3}: {n_c:6d} vs {n_q:6d}")
two = REGIONS.index("II")
print("  quantum region II is contained in the conventional one:",
      bool(np.all(grid.region_c[grid.region_q == two] == two)))

# the boundary curves separating the regions, as plottable polylines
curves = region_boundaries(env, (0.0, 1.0, 101))
print("\nboundary curves at a few p0 values (raw, before clamping to [0,1]):")
print(f"  {'p0':>5} {'eta*':>9} {'eta_c':>9} {'eta_q':>9}")
for i in (10, 25, 50, 60, 75, 90):
    print(f"  {curves.p0[i]:5.2f} {curves.eta_star_raw[i]:9.4f}"
          f" {curves.eta_c_raw[i]:9.4f} {curves.eta_q_raw[i]:9.4f}")
print("\n(eta* only matters left of p0 = 1/2, eta_c/eta_q right of it;")
print(" negative values mean the region is empty at that prior)")
