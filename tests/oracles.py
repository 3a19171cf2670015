"""Plain-loop reference implementations of the vectorized lattice and energy kernels.

Each function here is the straightforward per-point form of a hot-path
kernel in ``fermigas``: a Python loop over the ball, a dense pair sum
over the lune, one integrand built from the full lune.  Tests compare
the fast kernels against them.
"""

from __future__ import annotations

import math

import numpy as np

from fermigas.energy import stable_log1p_minus_x
from fermigas.lattice import (add, as_vec3, lambda_of, nonzero_k_vectors, norm2,
                              stabilizer_group)
from fermigas.numerics import integrate_semi_infinite
from fermigas.potential import evaluate
from fermigas.quasiboson import TWO_PI_CUBED, build_mode, q_of_s


def lune_loop(k, cfg):
    """(points, gaps) of the lune of k: filter k + q over the ball, one point at a time."""
    kv = as_vec3(k)
    pts = sorted(p for q in cfg.ball if norm2(p := add(kv, q)) > cfg.r2)
    return tuple(pts), np.array([lambda_of(kv, p) for p in pts], dtype=float)


def e_fs_interaction_loop(cfg, pot):
    """Interaction part of e_fs from lune sizes, k by k."""
    total = 0.0
    for k in nonzero_k_vectors(math.isqrt(4 * cfg.r2) + 1):
        if norm2(k) > 4 * cfg.r2:
            continue
        vhat = evaluate(pot, k)
        if vhat == 0.0:
            continue
        total += vhat * (len(lune_loop(k, cfg)[0]) - cfg.n_particles)
    return total / (2.0 * TWO_PI_CUBED)


def ex_term_dense(k, cfg, pot):
    """V_k sum_{p,q in lune(k)} V(p + q - k) / (lam_p + lam_q), pair by pair."""
    vhat = evaluate(pot, k)
    if vhat == 0.0:
        return 0.0
    pts, lam = lune_loop(k, cfg)
    kv = np.array(k, dtype=np.int64)
    arr = np.array(pts, dtype=np.int64)
    vmat = np.empty((len(pts), len(pts)))
    for i in range(len(pts)):
        for j in range(len(pts)):
            vmat[i, j] = evaluate(pot, tuple(int(c) for c in arr[i] + arr[j] - kv))
    return vhat * float(np.sum(vmat / (lam[:, None] + lam[None, :])))


def bos_term_mode(k, cfg, pot, quad_tol):
    """(1/pi) int F(q_k(s)) ds with q_k from the mode's full gap list."""
    mode = build_mode(k, cfg, pot)
    if mode.vhat == 0.0:
        return 0.0, 0.0, True
    lam_min = float(np.min(mode.h))
    res = integrate_semi_infinite(
        lambda s: stable_log1p_minus_x(q_of_s(mode, s)), tol=quad_tol,
        seeds=(lam_min, 10.0 * lam_min))
    return res.value / np.pi, res.abs_error_estimate / np.pi, res.converged


def orbit_reduce_einsum(ks, xi, symmetry):
    """Orbit representatives and weights from explicit images, keyed by digits."""
    group = stabilizer_group(xi, symmetry)
    arr = np.array(ks, dtype=np.int64)
    bound = int(np.max(np.abs(arr))) + 1
    base = 2 * bound + 1

    def encode(pts):
        return ((pts[..., 0] + bound) * base + (pts[..., 1] + bound)) * base \
            + (pts[..., 2] + bound)

    keys = encode(np.einsum("gij,mj->gmi", group, arr))
    keep = encode(arr) == keys.min(axis=0)
    weights = [len(set(col)) for col in keys[:, keep].T.tolist()]
    return [(tuple(k), w) for k, w in zip(arr[keep].tolist(), weights)]
