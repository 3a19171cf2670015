"""Energy pieces: exact Fermi-state sums and the two correlation terms.

The pair-excitation term integrates F(q(s)) = log(1+q) - q over
imaginary frequency and is negative; the exchange term is an exact
double lattice sum and positive.  Both k-sums are truncated by cutoff
doubling with the last increment reported as the tail.
"""

import math

import fermigas as fg
from fermigas.energy import e_corr_bos, e_corr_ex, e_fs, energy_report

cfg = fg.fermi_ball(2.0)
pot = fg.coulomb(1.0)
policy = fg.TailPolicy(tail_tol=1e-3, max_doublings=3)

kin, inter = e_fs(cfg, pot)
print(f"Fermi state, k_F = 2:  kinetic = {kin}  interaction = {inter:.6f}")

report = energy_report(cfg, pot, policy)
print(f"E_corr (pair excitations) = {report.e_corr_bos:.6e}")
print(f"E_corr (exchange)         = {report.e_corr_ex:.6e}")
print(f"k cutoff reached          = {report.k_cutoff}")
print(f"tails: {report.tail_flags}")

# --- weak coupling ----------------------------------------------------------
# Both q and the integrand shrink linearly with g, so the energy is
# quadratic for small couplings.
print("\nsmall-coupling law E(g)/g^2:")
small = fg.TailPolicy(k_max=5, tail_tol=1e-3, max_doublings=1)
cfg1 = fg.fermi_ball(1.0)
for g in (1e-2, 1e-3, 1e-4):
    val = e_corr_bos(cfg1, fg.coulomb(g), small)[0]
    print(f"  g = {g:.0e}:  {val / g**2:.8f}")

# --- density trend ----------------------------------------------------------
# For Coulomb the pair-excitation energy grows like k_F log k_F.
print("\nE_corr_bos / (k_F log k_F):")
for k_f in (2.0, 3.0, 4.0):
    val = e_corr_bos(fg.fermi_ball(k_f), pot,
                     fg.TailPolicy(tail_tol=1e-3, max_doublings=2),
                     quad_tol=1e-8)[0]
    print(f"  k_F = {k_f:.0f}:  {val / (k_f * math.log(k_f)):.6e}")
