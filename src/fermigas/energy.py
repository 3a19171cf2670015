"""Ground-state-energy pieces of the mean-field electron gas.

The Fermi-state energy is a finite exact sum.  The two correlation
pieces are

    E_corr,bos = (1/pi) sum_k int_0^inf F(q_k(s)) ds,  F(x) = log(1+x) - x,
    E_corr,ex  = 1 / (4 (2pi)^6 k_F^2)
                 * sum_k sum_{p,q in lune(k)} V_k V_{p+q-k} / (lam_p + lam_q),

with the k-sums truncated by cutoff doubling (``lattice.doubled_sum``).
Each shell k_lo < |k| <= k_hi is enumerated in the fundamental domain of
the potential's group by ``lattice.k_shell``, as (reps, weights) arrays
exact under its symmetry class; both sums walk the same shells and
share each through ``_k_shell``.

Both sums, and the interaction part of the Fermi-state energy, run on
the mode blocks of ``quasiboson``, whose module docstring states the
gap-histogram and response identities:

* E_corr,bos integrates F(q_k(s)) of every row of a chunk of
  ``_CHUNK`` modes as one batched family on the chunk's response
  table, seeded at the rows' smallest gaps.
* E_corr,ex: with p = k + a and q = k + b the exchange summand depends
  on the pair through t = a + b alone: p + q - k = k + t and
  lam_p + lam_q = |k|^2 + k.t.  When the lune is the whole shifted
  ball the pair sum is therefore

      V_k sum_{t in B+B} c(t) V(k + t) / (|k|^2 + k.t),

  with c(t) = #{(a, b) in B^2 : a + b = t} the ball autocorrelation.
  A partial lune, the ball points M_k with k + a outside the ball,
  only swaps c for its pair counts c_k(t) = #{(a, b) in M_k^2 :
  a + b = t}, so every row runs through one (m, |B+B|) kernel; V(k + t)
  is read off the integer norm |k + t|^2 = 2 (|k|^2 + k.t) + |t|^2 -
  |k|^2 for a radial V and by ``Potential.at`` for a table.  Only rows
  with |k| <= 2 k_F can have a partial lune; they count their pairs
  from their lune masks.  The chunk size is taken from |B+B| (829 at
  k_F = 3, growing as k_F^3), so that the kernel's reused float buffers
  stay under glibc's 128 KB mmap threshold.

E_corr,ex and the Fermi-state interaction put their per-k terms back in
shell order and sum them one k at a time, so each is the same float as
its plain per-k sum.  The plain per-k forms, one scalar quadrature and
one pair sum per k, live on as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, ball_array, doubled_sum,
                      k_shell)
from .numerics import check_tol
from .potential import Potential
from .quasiboson import (TWO_PI_6, TWO_PI_CUBED, coupling_sq, gap_response,
                         mode_chunks, response_integrals)

_CHUNK = 128
# floats per E_corr,ex kernel buffer: 128 KB, glibc's mmap threshold
_EX_BUFFER = 1 << 14


def stable_log1p_minus_x(x):
    """log(1+x) - x without cancellation for small x.

    Below 1e-4 the three-term series -x^2/2 + x^3/3 - x^4/4 is used; the
    truncation error is then below x^5 ~ 1e-20.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, x, 0.0)
    series = -0.5 * xs**2 + xs**3 / 3.0 - 0.25 * xs**4
    big = np.log1p(np.where(small, 0.0, x)) - np.where(small, 0.0, x)
    out = np.where(small, series, big)
    return out if out.shape else float(out)


@dataclass
class EnergyReport:
    e_fs_kinetic: float
    e_fs_interaction: float
    e_corr_bos: float
    e_corr_ex: float
    k_cutoff: int
    tail_flags: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "e_fs_kinetic": self.e_fs_kinetic,
            "e_fs_interaction": self.e_fs_interaction,
            "e_corr_bos": self.e_corr_bos,
            "e_corr_ex": self.e_corr_ex,
            "k_cutoff": self.k_cutoff,
            "tail_flags": self.tail_flags,
        }


def e_fs(cfg: LatticeConfig, pot: Potential) -> tuple[float, float]:
    """Kinetic and interaction energy of the filled Fermi state.

    The kinetic part is the integer sum of squared norms over the ball.
    The interaction k-sum is exactly finite: beyond |k| > 2 k_F the lune
    is the whole shifted ball and the summand V_k (|L_k| - N) vanishes.
    """
    ball = cfg.ball_arr
    kinetic = float(np.einsum("ij,ij->", ball, ball))
    # |k|^2 > 4 r2 puts every k + q with |q|^2 <= r2 outside the ball
    ks = ball_array(4 * cfg.r2, 0)
    vhat = pot.at(ks)
    terms = np.zeros(vhat.shape)
    for rows, mask, _ in mode_chunks(ks, vhat, cfg, _CHUNK):
        terms[rows] = vhat[rows] * (np.count_nonzero(mask, axis=1)
                                    - cfg.n_particles)
    # one k at a time in lex order, the order of the per-k form
    return kinetic, sum(terms.tolist()) / (2.0 * TWO_PI_CUBED)


def _bos_chunks(ks, cfg: LatticeConfig, pot: Potential, quad_tol: float):
    """Yield (rows, values, errors, converged) per mode chunk of ``ks``.

    ``rows`` index ``ks``; ``values`` and ``errors`` hold
    int_0^inf F(q_k(s)) ds of each of those rows, all integrated as one
    batched family, each member to ``quad_tol``.  Rows with V_k = 0 are
    left out.
    """
    vhat = pot.at(ks)
    vsq = coupling_sq(vhat, cfg.k_f)
    for rows, mask, lam in mode_chunks(ks, vhat, cfg, _CHUNK):
        g, counts, resp = gap_response(mask, lam, vsq[rows])
        lam_min = g[np.argmax(counts > 0, axis=1)]     # g is ascending
        yield (rows, *response_integrals(
            lambda q, s2: stable_log1p_minus_x(q), resp, g, lam_min, quad_tol))


def _pair_code(cfg: LatticeConfig):
    """(code, side): an additive code of the ball points.

    code(a) is the flat index of a + r in the box [0, 4 r]^3 of the
    given side, r = isqrt(r2), so code(a) + code(b) is the flat index of
    a + b + 2 r: one bin per t in the box |t_i| <= 2 r that holds B + B,
    in lex order of t.
    """
    r = math.isqrt(cfg.r2)
    side = 4 * r + 1
    return np.ravel_multi_index((cfg.ball_arr + r).T, (side,) * 3), side


def _ball_pair_sums(cfg: LatticeConfig):
    """(t, c(t), |t|^2) over the distinct t in B + B, lex-sorted.

    c is the ball autocorrelation, a bincount of the pair codes.
    """
    code, side = _pair_code(cfg)
    counts = np.bincount(np.add.outer(code, code).ravel())
    bins = np.flatnonzero(counts)
    t = np.column_stack(np.unravel_index(bins, (side,) * 3)) - side // 2
    return t, counts[bins].astype(float), np.einsum("ij,ij->i", t, t)


def _ex_terms(ks, cfg: LatticeConfig, pot: Potential,
              pair_sums) -> np.ndarray:
    """Pair sums V_k V_{p+q-k} / (lam_p + lam_q) over the lune of each row.

    ``pair_sums`` is ``_ball_pair_sums(cfg)``.  Every row is one row of
    the (m, |B+B|) kernel V_k sum_t c_k(t) V(k + t) / (|k|^2 + k.t),
    where c_k(t) counts the pairs (a, b) of ball points with k + a and
    k + b in the lune and a + b = t.  Rows with |k|^2 > 4 r2 have a full
    lune and take the ball autocorrelation c; the others get their
    masks from ``mode_chunks`` and bincount their pair codes.  The
    kernel runs in float buffers of ``_EX_BUFFER`` // |B+B| rows, reused
    over the chunks.  Rows with V_k = 0 are 0.
    """
    t, count, tn2 = pair_sums
    vhat = pot.at(ks)
    out = np.zeros(vhat.shape)
    kn2 = np.einsum("mi,mi->m", ks, ks).astype(float)
    size = max(1, _EX_BUFFER // t.shape[0])
    tf = t.T.astype(float)
    den_buf = np.empty((size, t.shape[0]))
    n2_buf = np.empty_like(den_buf)

    def kernel(rows, counts):
        # lam_p + lam_q = |k|^2 + k.t, exact in float
        den = np.matmul(ks[rows].astype(float), tf, out=den_buf[:rows.size])
        den += kn2[rows, None]
        if pot.is_radial:
            n2 = np.multiply(den, 2.0, out=n2_buf[:rows.size])
            n2 += tn2                                      # |k + t|^2
            n2 -= kn2[rows, None]
            vt = pot.from_norm2(n2)
        else:
            vt = pot.at(ks[rows, None] + t)                # V(k + t)
        vt *= counts
        # off the lune (c_k(t) = 0) den may be <= 0
        np.divide(vt, den, out=vt, where=counts > 0)
        out[rows] = vt.sum(axis=1)

    partial = kn2 <= 4 * cfg.r2
    near = np.flatnonzero(partial)
    code, side = _pair_code(cfg)
    bins = np.ravel_multi_index((t + side // 2).T, (side,) * 3)
    for rows, mask, _ in mode_chunks(ks[near], vhat[near], cfg, size):
        counts = np.empty((rows.size, t.shape[0]))
        for i, row in enumerate(mask):
            a = code[row]
            counts[i] = np.bincount(np.add.outer(a, a).ravel(),
                                    minlength=side**3)[bins]
        kernel(near[rows], counts)
    far = np.flatnonzero(~partial & (vhat != 0.0))
    for start in range(0, far.size, size):
        kernel(far[start:start + size], count)
    return vhat * out


@lru_cache(maxsize=16)
def _k_shell(k_hi: int, k_lo: int, symmetry: str):
    """Read-only ``lattice.k_shell`` of k_lo < |k| <= k_hi, shared by both sums."""
    reps, weights = k_shell(k_lo, k_hi, symmetry)
    reps.flags.writeable = weights.flags.writeable = False
    return reps, weights


def e_corr_bos(cfg: LatticeConfig, pot: Potential,
               policy: TailPolicy | None = None, quad_tol: float = 1e-9):
    """Bosonization correlation energy; <= 0 since F <= 0.

    Returns (value, tail_estimate, quad_error, k_cutoff, converged).
    """
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()

    def shell(k_lo, k_hi):
        reps, weights = _k_shell(k_hi, k_lo, pot.symmetry)
        value = qerr = 0.0
        ok = True
        for rows, vals, errs, conv in _bos_chunks(reps, cfg, pot, quad_tol):
            value += float(weights[rows] @ vals) / np.pi
            qerr += float(weights[rows] @ errs) / np.pi
            ok = ok and conv
        return np.array([value]), qerr, ok, int(weights.sum())

    total, tail, qerr, _, k_cut, ok = doubled_sum(shell, cfg, policy)
    return float(total[0]), tail, qerr, k_cut, ok


def e_corr_ex(cfg: LatticeConfig, pot: Potential,
              policy: TailPolicy | None = None):
    """Exchange correlation energy; >= 0 for nonnegative potentials.

    Returns (value, tail_estimate, k_cutoff, converged).
    """
    policy = policy or TailPolicy()
    pref = 1.0 / (4.0 * TWO_PI_6 * cfg.k_f**2)
    pair_sums = _ball_pair_sums(cfg)

    def shell(k_lo, k_hi):
        reps, weights = _k_shell(k_hi, k_lo, pot.symmetry)
        terms = _ex_terms(reps, cfg, pot, pair_sums)
        # one k at a time in shell order, the order of the per-k form
        return (np.array([sum((weights * terms).tolist())]), 0.0, True,
                int(weights.sum()))

    total, tail, _, _, k_cut, ok = doubled_sum(shell, cfg, policy)
    return pref * float(total[0]), pref * tail, k_cut, ok


def energy_report(cfg: LatticeConfig, pot: Potential,
                  policy: TailPolicy | None = None,
                  quad_tol: float = 1e-9) -> EnergyReport:
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    kin, inter = e_fs(cfg, pot)
    bos, bos_tail, bos_qerr, bos_cut, bos_ok = e_corr_bos(
        cfg, pot, policy, quad_tol)
    ex, ex_tail, ex_cut, ex_ok = e_corr_ex(cfg, pot, policy)
    return EnergyReport(
        e_fs_kinetic=kin,
        e_fs_interaction=inter,
        e_corr_bos=bos,
        e_corr_ex=ex,
        k_cutoff=max(bos_cut, ex_cut),
        tail_flags={
            "bos_tail_estimate": bos_tail,
            "bos_quad_error": bos_qerr,
            "bos_converged": bos_ok,
            "ex_tail_estimate": ex_tail,
            "ex_converged": ex_ok,
        },
    )
