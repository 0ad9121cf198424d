#!/usr/bin/env python3
"""From matrix-of-strings plant data to a stabilizing gain schedule.

Plants are written as expression strings in t, parsed once and then
evaluated as ordinary numpy matrices.  The gain splits the plant into
symmetric and skew parts, cancels the symmetric part, and adds a
diagonal schedule lambda + gamma(t); the skew remainder is invisible
to the Euclidean logarithmic norm, so the closed-loop rate is exactly
max_i(lambda_i + gamma_i(t)) at every time.
"""

import numpy as np

from lognorm_control.expr import eval_expr, format_expr, parse, parse_matrix
from lognorm_control.linalg import lognorm
from lognorm_control.synthesis import auto_gamma, decompose_sym_skew, synthesize
from lognorm_control.system import SystemSpec, closed_loop_matrix

A = parse_matrix([["t", "sin(t)"], ["t^(1/2)", "1"]], ("t",))
spec = SystemSpec(n=2, A=A, B=np.eye(2), t0=0.0,
                  x0=np.array([-5.0, 2.0]),
                  omega_bound=parse("(t^(11/2)+1)^(1/2)"))

print("plant at t=2:")
print(A(2.0))

sym, skew = decompose_sym_skew(A)
print("\nsymmetric part at t=2:")
print(sym(2.0))
print("skew part at t=2 (mu_2-invisible):")
print(skew(2.0))

# the automatic schedule dominates the disturbance envelope with a
# margin that grows like 1 + t - t0
g = auto_gamma(spec.omega_bound, margin=1.0, t0=0.0)
print("\nauto gamma(t) =", format_expr(g))
for t in (0.0, 2.0, 5.0):
    ratio = eval_expr(spec.omega_bound, t=t) / abs(eval_expr(g, t=t))
    print(f"  t={t}: envelope/|gamma| = {ratio:.4f} "
          f"(bound 1/(1+t) = {1.0 / (1.0 + t):.4f})")

ctrl = synthesize(spec, lam=np.array([-1.0, -1.0]))
print("\nsynthesized K(t) = B_inv (adaptive_part(t) + diag(gamma(t))):")
print("B_inv =")
print(ctrl.B_inv)
print("adaptive_part(t) =")
for row in ctrl.adaptive_part.formatted():
    print("  [" + ", ".join(row) + "]")
print("gamma(t) = [" + ", ".join(format_expr(g) for g in ctrl.gamma) + "]")
print("K(2) =")
print(ctrl.K(2.0))

print("\nclosed-loop mu_2 equals the diagonal rate max(lambda_i + gamma_i):")
gmax = ctrl.gamma_max()
for t in (0.0, 1.0, 3.0):
    mu = lognorm(closed_loop_matrix(spec, ctrl, t), "two")
    print(f"  t={t}: mu_2 = {mu:12.6f}   rate = {gmax(t):12.6f}")
