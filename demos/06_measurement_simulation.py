#!/usr/bin/env python3
"""Walkthrough: Monte-Carlo simulation of the optimal binary measurement.

The optimal two-outcome measurement (Helstrom's) projects onto the positive
eigenspace of omega = p1 rho_1 - p0 rho_0, so one shot errs with the probe's
Helstrom error (1 - ||omega||_1) / 2. The trials are independent shots, so
the simulation draws their error count at that probability from its exact
law, a binomial, in one step whatever the trial count.
The empirical error rate converges to the analytic minimum at the usual
1/sqrt(N) pace.
"""

from illume import (
    CONVENTIONAL,
    QUANTUM,
    EnvironmentState,
    Scenario,
    optimal_probe_conventional,
    optimal_probe_quantum,
    perr_conventional,
    perr_quantum,
    simulate_measurement,
)

env = EnvironmentState([0.5, 0.3, 0.2])
s = Scenario(0.5, 0.6, env)

print("convergence with trial count (conventional, optimal probe)")
target = perr_conventional(s)
probe = optimal_probe_conventional(s)
print(f"  analytic minimum: {target:.6f}")
# one seed per row: one seed would draw every count at about the same quantile
for i, trials in enumerate((1_000, 10_000, 100_000, 1_000_000)):
    stats = simulate_measurement(s, probe, CONVENTIONAL, trials, seed=42 + i)
    sigmas = abs(stats.empirical_perr - target) / max(stats.std_error, 1e-12)
    print(f"  {trials:>9} trials: empirical {stats.empirical_perr:.6f}"
          f" (+/- {stats.std_error:.6f}, {sigmas:.1f} sigma off)")

print("\nentangled probe, same scenario")
target = perr_quantum(s)
stats = simulate_measurement(s, optimal_probe_quantum(s), QUANTUM, 1_000_000, seed=42)
print(f"  analytic minimum: {target:.6f}")
print(f"  empirical:        {stats.empirical_perr:.6f} (+/- {stats.std_error:.6f})")

print("\nwith no reflectivity the best measurement degenerates to guessing")
s0 = Scenario(0.3, 0.0, env)
stats = simulate_measurement(s0, optimal_probe_conventional(s0), CONVENTIONAL,
                             200_000, seed=7)
print(f"  p0 = 0.3, eta = 0: empirical {stats.empirical_perr:.6f}, analytic 0.3")
print("\nre-running any of the above with the same seed reproduces the")
print("statistics bit for bit.")
