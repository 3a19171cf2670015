"""Geometry of the filled Fermi ball: balls, lunes, gaps, and supports.

Everything on this level is exact integer arithmetic; run it and read
along.
"""

import numpy as np

import fermigas as fg

# --- the Fermi ball -------------------------------------------------------
# N is an exact lattice-point count, not the continuum volume 4 pi k_F^3 / 3.
for k_f in (0.5, 1.0, 2.0, 3.0):
    cfg = fg.fermi_ball(k_f)
    cont = 4.0 * np.pi * k_f**3 / 3.0
    print(f"k_F = {k_f}: N = {cfg.n_particles:4d}   "
          f"(continuum {cont:7.1f})   kappa = {cfg.kappa}")

# The ball is one read-only (N, 3) int64 array in lex order.
# kappa is the midpoint of the squared-norm gap across the Fermi surface;
# every integer point stays at least 1/2 away from it: the weight m(p) is
# 1 / ||p|^2 - kappa|.
cfg = fg.fermi_ball(2.0)
ball = cfg.ball_arr
m_inv = np.abs(np.einsum("ij,ij->i", ball, ball) - cfg.kappa)
print(f"\nball_arr: shape {ball.shape}, writeable {ball.flags.writeable}")
print(f"min over the ball of ||p|^2 - kappa| = {m_inv.min()}, "
      f"largest m = {1.0 / m_inv.min()}")

# --- lunes ----------------------------------------------------------------
# The lune of k holds the momenta reachable by a momentum-k excitation:
# inside the shifted ball, outside the ball itself.
cfg = fg.fermi_ball(1.0)
# A lune is an (n, 3) array of points in lex order and its array of gaps.
points, gaps = fg.lune_points((1, 0, 0), cfg)
print("\nlune of k = (1,0,0) at k_F = 1:")
for p, lam in zip(points.tolist(), gaps.tolist()):
    print(f"  p = {tuple(p)}   gap lambda = {lam}")

# Gaps never drop below 1/2, and far transfers see the whole shifted ball.
ks = fg.lattice.ball_array(4 * 4, 0)    # every k with 0 < |k| <= 4
print("\nmin gap over |k| <= 4:",
      min(fg.lune_points(k, cfg)[1].min() for k in ks))
print("lune size at k = (3,0,0):", len(fg.lune_points((3, 0, 0), cfg)[0]),
      "(= N, the whole shifted ball)")

# --- supports of observable points ---------------------------------------
# Outside the ball only finitely many transfers contribute: xi sits in the
# lune of k iff k lies in the shifted ball xi + B, and -xi iff k is in
# -xi + B.  Inside, the support is infinite and gets truncated by cutoff
# doubling.
xi = np.array([2, 0, 0])
support = np.unique(np.concatenate([cfg.ball_arr + xi, cfg.ball_arr - xi]),
                    axis=0)
print(f"\nsupport of xi = (2,0,0): exact, {len(support)} transfers")
print("support of xi = (0,0,0): infinite, truncated by cutoff doubling")
