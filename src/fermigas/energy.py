"""Ground-state-energy pieces of the mean-field electron gas.

The Fermi-state energy is a finite exact sum.  The two correlation
pieces are

    E_corr,bos = (1/pi) sum_k int_0^inf F(q_k(s)) ds,  F(x) = log(1+x) - x,
    E_corr,ex  = 1 / (4 (2pi)^6 k_F^2)
                 * sum_k sum_{p,q in lune(k)} V_k V_{p+q-k} / (lam_p + lam_q),

with the k-sums truncated by cutoff doubling.  For radial potentials the
k-sum is reduced to octahedral orbit representatives, which is exact;
both sums walk the same shells.

The lune of k enters only through the points k + q, q in the ball B,
with gaps lam = (|k|^2 + 2 k.q)/2 (``lattice.lune_kernel``):

* the response depends on the gap histogram alone, the distinct gaps
  lam_d and their multiplicities m_d:

      q_k(s) = 2 v^2 sum_d m_d lam_d / (s^2 + lam_d^2);

* with p = k + a and q = k + b the exchange summand depends on the
  pair through t = a + b alone: p + q - k = k + t and
  lam_p + lam_q = |k|^2 + k.t.  When the lune is the whole shifted
  ball the pair sum is therefore

      V_k sum_{t in B+B} c(t) V(k + t) / (|k|^2 + k.t),

  with c(t) = #{(a, b) in B^2 : a + b = t} the ball autocorrelation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, ball_array, lune_kernel,
                      orbit_reduce)
from .numerics import integrate_semi_infinite
from .potential import Potential, evaluate
from .quasiboson import TWO_PI_6, TWO_PI_CUBED


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
    interaction = 0.0
    # |k|^2 > 4 r2 puts every k + q with |q|^2 <= r2 outside the ball
    for k in ball_array(4 * cfg.r2, 0).tolist():
        vhat = evaluate(pot, k)
        if vhat == 0.0:
            continue
        lune_size = int(np.count_nonzero(lune_kernel(k, cfg)[0]))
        interaction += vhat * (lune_size - cfg.n_particles)
    return kinetic, interaction / (2.0 * TWO_PI_CUBED)


def _bos_term(k, cfg: LatticeConfig, pot: Potential,
              quad_tol: float) -> tuple[float, float, bool]:
    """(1/pi) int_0^inf F(q_k(s)) ds for one k, with error and flag."""
    vhat = evaluate(pot, k)
    if vhat == 0.0:
        return 0.0, 0.0, True
    mask, gaps = lune_kernel(k, cfg)
    lam, mult = np.unique(gaps[mask], return_counts=True)
    vsq = vhat / (2.0 * TWO_PI_CUBED * cfg.k_f)
    weight = (mult * lam)[:, None]
    lam_sq = lam[:, None] ** 2

    def integrand(s):
        q = 2.0 * vsq * np.sum(weight / (s**2 + lam_sq), axis=0)
        return stable_log1p_minus_x(q)

    lam_min = float(lam[0])
    res = integrate_semi_infinite(integrand, tol=quad_tol,
                                  seeds=(lam_min, 10.0 * lam_min))
    return res.value / np.pi, res.abs_error_estimate / np.pi, res.converged


def _ball_pair_sums(cfg: LatticeConfig):
    """(t, c(t), |t|^2) over the distinct t in B + B, lex-sorted.

    c is the ball autocorrelation.  The code a . (side^2, side, 1) is
    additive and, offset, maps the box |t_i| <= 2 isqrt(r2) onto bins.
    """
    r = math.isqrt(cfg.r2)
    side = 4 * r + 1
    code = cfg.ball_arr @ np.array([side * side, side, 1])
    counts = np.bincount((code[:, None] + code[None, :]).ravel()
                         + 2 * r * (side * side + side + 1))
    bins = np.flatnonzero(counts)
    t = np.column_stack(np.unravel_index(bins, (side, side, side))) - 2 * r
    return t, counts[bins].astype(float), np.einsum("ij,ij->i", t, t)


def _ex_term(k, cfg: LatticeConfig, pot: Potential, pair_sums) -> float:
    """Exact pair sum V_k V_{p+q-k} / (lam_p + lam_q) over one lune squared.

    ``pair_sums`` is ``_ball_pair_sums(cfg)``: for a radial V and a lune
    that is the whole shifted ball the sum runs over t in B + B.
    """
    vhat = evaluate(pot, k)
    if vhat == 0.0:
        return 0.0
    mask, gaps = lune_kernel(k, cfg)
    kv = np.array(k, dtype=np.int64)
    if pot.is_radial and mask.all():
        t, count, tn2 = pair_sums
        kn2 = int(kv @ kv)
        kt = t @ kv
        return vhat * float(np.sum(count * pot.from_norm2(kn2 + 2 * kt + tn2)
                                   / (kn2 + kt)))
    a = cfg.ball_arr[mask]
    vmat = pot.at(kv + a[:, None, :] + a[None, :, :])   # V(p + q - k)
    lam = gaps[mask]
    return vhat * float(np.sum(vmat / (lam[:, None] + lam[None, :])))


@lru_cache(maxsize=16)
def _k_shell(k_hi: int, k_lo: int, symmetry: str) -> tuple:
    """Orbit representatives and weights of k_lo < |k| <= k_hi (both sums)."""
    return tuple(orbit_reduce(ball_array(k_hi * k_hi, k_lo * k_lo),
                              (0, 0, 0), symmetry))


def _truncated_k_sum(term_fn, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy, symmetry: str | None = None):
    """Cutoff-doubled sum of a per-k scalar (plus diagnostics) over k != 0.

    term_fn(k) must return (value, quad_err, converged).  The
    enumeration collapses to orbit representatives with multiplicity
    weights, exact because every per-k summand here is invariant under
    the potential's symmetry class (full point group for radial
    potentials, k -> -k for merely even ones).
    """
    symmetry = pot.symmetry if symmetry is None else symmetry

    def shell(k_hi, k_lo):
        items = _k_shell(k_hi, k_lo, symmetry)
        results = [term_fn(k) for k, _ in items]
        val = sum(w * r[0] for (_, w), r in zip(items, results))
        qerr = sum(w * r[1] for (_, w), r in zip(items, results))
        ok = all(r[2] for r in results)
        count = sum(w for _, w in items)
        return val, qerr, ok, count

    k_cut = policy.initial_k_max(cfg)
    total, qerr, ok, n_k = shell(k_cut, 0)
    tail = np.inf
    converged = False
    for _ in range(policy.max_doublings):
        new_cut = 2 * k_cut
        inc, inc_err, inc_ok, inc_n = shell(new_cut, k_cut)
        total += inc
        qerr += inc_err
        ok = ok and inc_ok
        n_k += inc_n
        k_cut = new_cut
        tail = abs(inc)
        if tail <= policy.tail_tol * max(abs(total), 1e-300):
            converged = True
            break
    return total, tail, qerr, k_cut, n_k, converged and ok


def e_corr_bos(cfg: LatticeConfig, pot: Potential,
               policy: TailPolicy | None = None, quad_tol: float = 1e-9):
    """Bosonization correlation energy; <= 0 since F <= 0.

    Returns (value, tail_estimate, quad_error, k_cutoff, converged).
    """
    policy = policy or TailPolicy()
    total, tail, qerr, k_cut, _, ok = _truncated_k_sum(
        lambda k: _bos_term(k, cfg, pot, quad_tol), cfg, pot, policy)
    return total, tail, qerr, k_cut, ok


def e_corr_ex(cfg: LatticeConfig, pot: Potential,
              policy: TailPolicy | None = None):
    """Exchange correlation energy; >= 0 for nonnegative potentials.

    Returns (value, tail_estimate, k_cutoff, converged).
    """
    policy = policy or TailPolicy()
    pref = 1.0 / (4.0 * TWO_PI_6 * cfg.k_f**2)
    pair_sums = _ball_pair_sums(cfg)
    total, tail, _, k_cut, _, ok = _truncated_k_sum(
        lambda k: (_ex_term(k, cfg, pot, pair_sums), 0.0, True), cfg, pot,
        policy)
    return pref * total, pref * tail, k_cut, ok


def single_k_exchange_term(k, cfg: LatticeConfig, pot: Potential) -> float:
    """One k-term of E_corr,ex including its prefactor (for diagnostics)."""
    return (_ex_term(k, cfg, pot, _ball_pair_sums(cfg))
            / (4.0 * TWO_PI_6 * cfg.k_f**2))


def energy_report(cfg: LatticeConfig, pot: Potential,
                  policy: TailPolicy | None = None,
                  quad_tol: float = 1e-9) -> EnergyReport:
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
