#!/usr/bin/env python3
"""Walkthrough: the full analytic answer for one detection scenario.

A target is probed with a single d-dimensional signal. With probability p0
it is absent and only the thermal environment returns; otherwise a fraction
eta of the probe survives on top of the environment. The library classifies
the scenario, evaluates the minimal one-shot error for unentangled
(conventional) and entangled (quantum) probes, and constructs the states
that achieve them.
"""

import numpy as np

from illume import EnvironmentState, Scenario, optimal_probe_conventional, report

env = EnvironmentState([0.5, 0.3, 0.2])
s = Scenario(p0=0.5, eta=0.6, env=env)
r = report(s)

print("Scenario: p0 = 0.5, eta = 0.6, environment spectrum (0.5, 0.3, 0.2)")
print(f"  regions:        conventional {r.region_c}, quantum {r.region_q}")
print(f"  minimal errors: conventional {r.perr_c:.12f}, quantum {r.perr_q:.12f}")
print(f"  advantage:      {r.advantage:.12f}")
print(f"  boundaries:     eta* = {r.eta_star:.4f}, eta_c = {r.eta_c:.4f}, eta_q = {r.eta_q:.4f}")
print()
print("Optimal probes:")
probe_c = optimal_probe_conventional(s)
print(f"  conventional: the environment eigenvector of least weight -> {probe_c.real}")
print(f"  quantum: Schmidt squares lambda_h/lambda_i -> {np.round(r.mu_sq, 6)}")
print()

# In region III the error keeps dropping as the reflectivity grows; in
# regions I and II measurements are useless and the best move is a blind
# guess. Watch the labels flip as eta shrinks:
for eta in (0.6, 0.2, 0.05, 0.0):
    r = report(Scenario(0.6, eta, env))
    print(f"  p0 = 0.6, eta = {eta:4.2f}: regions ({r.region_c:>3}, {r.region_q:>3}),"
          f" P_err = ({r.perr_c:.6f}, {r.perr_q:.6f})")
print()
print("At eta = 0.08 the conventional detector is already blind (region II)")
print("while the entangled probe still extracts signal (region III):")
r = report(Scenario(0.6, 0.08, env))
print(f"  P_err conventional = {r.perr_c:.6f} (= p1, the blind guess)")
print(f"  P_err quantum      = {r.perr_q:.6f} (advantage {r.advantage:.6f})")
