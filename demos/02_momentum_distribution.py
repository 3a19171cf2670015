"""Momentum distribution of the correlated state, two routes at once.

The occupancy deviation at a point xi has a nonnegative pair-excitation
part n_b and a nonpositive exchange part n_ex.  n_b comes out of two
independent computations (a spectral diagonal and a screened
quadrature); their agreement is the built-in correctness check.
"""

import numpy as np

import fermigas as fg
from fermigas.momentum import Observable, n_point, n_weighted

cfg = fg.fermi_ball(1.0)
pot = fg.coulomb(1.0)
policy = fg.TailPolicy(k_max=4, tail_tol=1e-3, max_doublings=2)

# --- one point, both routes ------------------------------------------------
row = n_point((1, 1, 0), cfg, pot, policy, route="both")
print("xi = (1,1,0)  [outside the ball: exactly finite k-support]")
print(f"  n_b (spectral)  = {row.n_b_spectral:.10e}")
print(f"  n_b (integral)  = {row.n_b_integral:.10e}")
print(f"  route mismatch  = {row.discrepancy:.2e}  "
      f"(reported quadrature error {row.quad_error:.2e})")
print(f"  n_ex            = {row.n_ex:.10e}")
print(f"  n_total         = {row.n_total:.10e}")

row0 = n_point((0, 0, 0), cfg, pot, policy, route="both")
print("\nxi = (0,0,0)  [hole probability; truncated k-support]")
print(f"  n_b = {row0.n_b:.6e}   n_ex = {row0.n_ex:.6e}")
print(f"  modes used = {row0.k_modes_used}, tail estimate = "
      f"{row0.tail_estimate:.2e}, converged = {row0.converged}")

# --- a profile along a momentum ray ---------------------------------------
print("\noccupancy profile along (n, 0, 0):")
for n in range(0, 5):
    xi = (n, 0, 0)
    r = n_point(xi, cfg, pot, policy)
    side = "hole" if n <= cfg.k_f else "particle"
    print(f"  xi = {xi}  ({side:8s})  n_b = {r.n_b:.3e}  n_ex = {r.n_ex:.3e}")

# --- collective observables -------------------------------------------------
# The ball indicator counts excited particle-hole pairs.
total, rows = n_weighted(Observable.ball_indicator(cfg), cfg, pot, policy,
                         route="spectral")
print(f"\nexpected number of excited pairs (ball indicator): {total:.6e}")

# A symmetrized point mass is the same thing as twice the single point.
tot_delta, _ = n_weighted(Observable.delta((2, 0, 0)), cfg, pot, policy)
print(f"delta observable at +-(2,0,0): {tot_delta:.6e} "
      f"(= 2 x n_total there)")
