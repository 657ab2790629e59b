#!/usr/bin/env python3
"""Walkthrough: checking the closed forms against the numeric oracle.

Nothing here uses the analytic formulas internally: the oracle builds the
hypothesis-difference operator explicitly, maximizes its trace norm over
pure probe states by a seeded multi-start quasi-Newton search, and
spot-checks the eigenvalue structure the derivations rest on. The search
can never beat a true optimum, so agreement from below is the strongest
evidence a desk check can give.
"""

import numpy as np

from illume import (
    CONVENTIONAL,
    QUANTUM,
    EnvironmentState,
    Scenario,
    SearchConfig,
    check_eigenvalue_lower_bound,
    check_single_negative_eigenvalue,
    haar_random_state,
    maximize_trace_norm,
    perr_conventional,
    perr_quantum,
)
from illume.oracle import random_density

env = EnvironmentState([0.5, 0.3, 0.2])
cfg = SearchConfig(seed=7)

print("oracle search vs closed forms")
for p0, eta in ((0.5, 0.6), (0.3, 0.5), (0.6, 0.08)):
    s = Scenario(p0, eta, env)
    conv = maximize_trace_norm(s, CONVENTIONAL, cfg)
    quant = maximize_trace_norm(s, QUANTUM, cfg)
    print(f"  p0={p0:4.2f} eta={eta:4.2f}:"
          f" conv search {conv.perr:.9f} (formula {perr_conventional(s):.9f}),"
          f" quant search {quant.perr:.9f} (formula {perr_quantum(s):.9f})")

print("\nthe search moves over the unit sphere; the best conventional probe it")
print("finds overlaps the least-weight environment eigenvector:")
s = Scenario(0.5, 0.6, env)
best = maximize_trace_norm(s, CONVENTIONAL, cfg).best_state
overlap = abs(np.vdot(env.eigenvector(2), best)) ** 2
print(f"  |<theta_d|best>|^2 = {overlap:.10f}")

print("\neigenvalue-structure spot checks on random instances")
rng = np.random.default_rng(0)
ok_rank_one = ok_bound = 0
n = 500
for t in range(n):
    d = (2, 3, 4)[t % 3]
    rho = random_density(rng, d)
    ok_rank_one += check_single_negative_eigenvalue(
        rho, float(rng.uniform(0.01, 2.0)), haar_random_state(d, rng)
    )
    e = EnvironmentState(rng.dirichlet(np.ones(2 + t % 2)))
    ok_bound += check_eigenvalue_lower_bound(
        e, float(rng.exponential(0.5)), haar_random_state(e.dim ** 2, rng)
    )
print(f"  rank-one shift leaves at most one negative eigenvalue: {ok_rank_one}/{n}")
print(f"  bipartite ground level respects the harmonic bound:    {ok_bound}/{n}")
