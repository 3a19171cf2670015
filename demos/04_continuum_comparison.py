"""Side-by-side with the continuum high-density formulas.

The discrete response has a continuum counterpart in closed form (a
Lindhard-type function), and the momentum-distribution pieces have
continuum integrals.  The identification is asymptotic (high momenta,
large k_F), so at desk scale the table below is descriptive: the ratios
are finite and positive but not near one.
"""

import numpy as np

import fermigas as fg
from fermigas.dvlimit import (DVParams, compare_table, n_b_dv, n_ex_dv, q_dv,
                              rows_to_csv)

# --- the response function --------------------------------------------------
print("continuum response q(k, s) at k_F = 1:")
for s in (0.0, 0.5, 2.0):
    vals = [q_dv(k, s, 1.0) for k in (0.5, 1.0, 2.0, 4.0)]
    print(f"  s = {s}: " + "  ".join(f"{v:8.4f}" for v in vals))
print(f"  long-wavelength static limit -> {q_dv(1e-4, 0.0, 1.0):.4f} "
      f"(4 pi = {4 * np.pi:.4f})")

# --- continuum momentum-distribution pieces ---------------------------------
params = DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5)
res = n_b_dv(params, quad_tol=1e-7)
print(f"\nn_b continuum at |xi| = 1.5, alpha = 0.4: {res.value:.6e} "
      f"(err {res.abs_error_estimate:.1e})")
val, stderr = n_ex_dv(params, samples=200_000, seed=1)
print(f"n_ex continuum (Monte Carlo):            {val:.6e} +- {stderr:.1e}")

# The exchange integral is exactly quadratic in the coupling: the same
# sample set is reused, so the scaling is exact.
va, _ = n_ex_dv(DVParams(k_f=1.0, alpha=0.2, xi_norm=1.5),
                samples=50_000, seed=7)
vb, _ = n_ex_dv(DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5),
                samples=50_000, seed=7)
print(f"alpha-scaling check: 4 x value(0.2) = {4 * va:.6e} "
      f"vs value(0.4) = {vb:.6e}")

# --- the comparison table ----------------------------------------------------
cfg = fg.fermi_ball(1.0)
rows = compare_table(cfg, fg.coulomb(1.0), [(2, 0, 0), (2, 1, 0), (0, 0, 3)],
                     quad_tol=1e-6, samples=50_000, seed=0)
print("\n" + rows_to_csv(rows))
