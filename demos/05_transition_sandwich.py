#!/usr/bin/env python3
"""Transition matrices and the two-sided exponential estimate.

For a linear time-varying system the transition matrix W(t, tau)
satisfies

    e^{-int_tau^t mu[-F]} <= ||W(t, tau)|| <= e^{int_tau^t mu[F]}

in any norm.  This script computes the fundamental matrix of a
time-varying system, checks the estimate on random (t, tau) pairs,
and confirms the determinant identity log|det Phi| = int trace F.
"""

import math

import numpy as np

from lognorm_control.analysis import integrate
from lognorm_control.sim import fundamental_matrix, verify_sandwich


def F(t):
    return np.array([[-1.0 + 0.5 * math.sin(3.0 * t), 0.8],
                     [-0.8 * math.cos(t), -0.5]])


tt = fundamental_matrix(F, 0.0, 5.0, tol=1e-10)
print(f"fundamental matrix on [0, 5]: {len(tt.times)} output points, "
      f"{len(tt.step_sizes)} Magnus sub-steps ({tt.n_rejected} cut)")
print("Phi(5) =")
print(tt.phis[-1])

for kind in ("one", "two", "inf"):
    rep = verify_sandwich(tt, F, kind)
    print(f"\n{kind}-norm sandwich over {rep.n_pairs} random pairs: "
          f"{'holds' if rep.passed else 'VIOLATED'}")
    print(f"  worst upper margin {rep.worst_upper_margin:.3e} "
          f"(log units above the norm)")
    print(f"  worst lower margin {rep.worst_lower_margin:.3e}")

# tightest pair in the two norm, spelled out
rep = verify_sandwich(tt, F, "two")
p = min(rep.pairs, key=lambda q: q["upper_margin"])
print(f"\ntightest two-norm pair: tau={p['tau']:.3f}, t={p['t']:.3f}")
print(f"  int mu_lower = {p['int_mu_lower']: .6f}")
print(f"  log ||W||    = {p['log_transition_norm']: .6f}")
print(f"  int mu_upper = {p['int_mu_upper']: .6f}")

sign, logdet = np.linalg.slogdet(tt.phis[-1])
q = integrate(lambda t: float(np.trace(F(t))), 0.0, 5.0, tol=1e-12)
print(f"\nlog|det Phi(5)| = {logdet:.10f}")
print(f"int_0^5 tr F    = {q.value:.10f}  (difference "
      f"{abs(logdet - q.value):.2e})")
