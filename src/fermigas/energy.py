"""Ground-state-energy pieces of the mean-field electron gas.

The Fermi-state energy is a finite exact sum.  The two correlation
pieces are

    E_corr,bos = (1/pi) sum_k int_0^inf F(q_k(s)) ds,  F(x) = log(1+x) - x,
    E_corr,ex  = 1 / (4 (2pi)^6 k_F^2)
                 * sum_k sum_{p,q in lune(k)} V_k V_{p+q-k} / (lam_p + lam_q),

with the k-sums truncated by cutoff doubling (``lattice.doubled_sum``)
over shells k_lo < |k| <= k_hi, each enumerated once in the fundamental
domain of the potential's group (``lattice.k_shell``) and shared by both
sums (``_k_shell``).

The Fermi-state interaction sums V_k (|L_k| - N) = -V_k c(k), c the
ball autocorrelation, as B = -B.  Both correlation sums run on the mode
blocks of ``quasiboson``, whose module docstring states the gap-histogram
and response identities.  Past |k|^2 > 4 r2 every lune is the whole
shifted ball, so both sums take those rows without a lune mask:

* E_corr,bos integrates F(q_k(s)) of every row of a chunk of
  ``_CHUNK`` modes as one batched family on the chunk's response
  table; full-lune chunks bincount their integer doubled gaps into one
  table reused along the shell (``quasiboson.response_chunks``).
* E_corr,ex: with p = k + a and q = k + b, p + q - k = k + t and
  lam_p + lam_q = |k|^2 + k.t depend on t = a + b alone, so a row is
  V_k sum_{t in B+B} c_k(t) V(k + t) / (|k|^2 + k.t), where c_k(t)
  counts the lune pairs (a, b) with a + b = t; on a full lune c_k is
  the ball autocorrelation c.  For a radial V the full-lune rows pair
  t with -t, as c(t) = c(-t): the pair adds c(t) g 2P / ((P - Q)(P + Q))
  with P +- Q = (|k|^2 +- k.t)(|k +- t|^2 + mu^2), integers below 2^53
  for Coulomb while |k|^2 < 2^13, so each row is one contraction over
  half of B + B, rounded only in its divisions and its sum
  (``_ex_terms``).

E_corr,ex puts its per-k terms back in shell order, and the Fermi-state
interaction keeps the lex order of B + B; each sums one k at a time, so
it is the same float as its plain per-k sum.  The plain per-k forms, one
scalar quadrature and one pair sum per k, live on as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import LatticeConfig, TailPolicy, doubled_sum, k_shell
from .numerics import check_tol
from .potential import Potential
from .quasiboson import (TWO_PI_6, TWO_PI_CUBED, mode_chunks,
                         response_chunks, response_integrals)

_CHUNK = 128
# floats per E_corr,ex kernel buffer: 128 KB, glibc's mmap threshold
_EX_BUFFER = 1 << 14


def stable_log1p_minus_x(x):
    """log(1+x) - x without cancellation for small x.

    Below 1e-4 the three-term series -x^2/2 + x^3/3 - x^4/4 is used; the
    truncation error is then below x^5 ~ 1e-20.  Only those entries are
    overwritten; a strided x is copied, as numpy's log1p rounds it apart.
    """
    x = np.asarray(x, dtype=float, order="C")
    out = np.log1p(x, out=np.empty_like(x))
    out -= x
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = -0.5 * xs**2 + xs**3 / 3.0 - 0.25 * xs**4
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
        return asdict(self)


def e_fs(cfg: LatticeConfig, pot: Potential,
         pair_sums=None) -> tuple[float, float]:
    """Kinetic and interaction energy of the filled Fermi state.

    The kinetic part is the integer sum of squared norms over the ball,
    the interaction sum_k V_k (|L_k| - N) / (2 (2pi)^3).  As B = -B,
    |L_k| - N = -c(k), so k runs over B + B, where V_0 = 0.
    ``pair_sums`` is ``_ball_pair_sums(cfg)``, built when not given.
    """
    ball = cfg.ball_arr
    kinetic = float(np.einsum("ij,ij->", ball, ball))
    t, count, _ = _ball_pair_sums(cfg) if pair_sums is None else pair_sums
    # one k at a time in lex order, the order of the per-k form
    return kinetic, sum((pot.at(t) * -count).tolist()) / (2.0 * TWO_PI_CUBED)


def _bos_chunks(ks, cfg: LatticeConfig, pot: Potential, quad_tol: float):
    """Yield (rows, values, errors, converged) per mode chunk of ``ks``.

    ``rows`` index ``ks``; ``values`` and ``errors`` hold
    int_0^inf F(q_k(s)) ds of each of those rows, all integrated as one
    batched family, each member to ``quad_tol``.  Rows with V_k = 0 are
    left out.  Chunks of full-lune rows (|k|^2 > 4 r2) fill their
    response tables with no lune mask, in one buffer sized once per
    call, since the gap axis grows along a shell (``response_chunks``).
    """
    for rows, g, resp, lam_min in response_chunks(ks, pot.at(ks), cfg,
                                                  _CHUNK):
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

    c(t) = #{(a, b) in B^2 : a + b = t} is the FFT square of the ball's
    indicator on the ``_pair_code`` codes; it does not wrap, as each
    code(a) + code(b) is a flat index of the box.  An entry more than
    1e-3 off an integer before rounding raises ``ArithmeticError``.
    """
    code, side = _pair_code(cfg)
    spec = np.fft.rfft(np.bincount(code, minlength=side**3))
    conv = np.fft.irfft(spec * spec, side**3)
    counts = np.rint(conv)
    if np.abs(conv - counts).max() > 1e-3:
        raise ArithmeticError("ball autocorrelation is not integer")
    bins = np.flatnonzero(counts)
    t = np.column_stack(np.unravel_index(bins, (side,) * 3)) - side // 2
    return t, counts[bins], np.einsum("ij,ij->i", t, t)


def _ex_terms(ks, cfg: LatticeConfig, pot: Potential,
              pair_sums) -> np.ndarray:
    """Pair sums V_k V_{p+q-k} / (lam_p + lam_q) over the lune of each row.

    ``pair_sums`` is ``_ball_pair_sums(cfg)``.  Every row is one row of
    the (m, |B+B|) kernel V_k sum_t c_k(t) V(k + t) / (|k|^2 + k.t),
    where c_k(t) counts the pairs (a, b) of ball points with k + a and
    k + b in the lune and a + b = t.  Rows with |k|^2 > 4 r2 have a full
    lune and take the ball autocorrelation c, with no division mask; the
    others get their masks from ``mode_chunks`` and bincount their pair
    codes.  The kernel runs in float buffers of ``_EX_BUFFER`` // |B+B|
    rows, reused over the chunks.  Rows with V_k = 0 are 0.

    A radial V pairs t with -t on full-lune rows, as c(t) = c(-t) and
    t = 0 is the middle of the lex-sorted B + B: with A = |k|^2, x = k.t,
    tau = |t|^2 + mu^2, P = A (A + tau) + 2 x^2 and Q = (3A + tau) x, the
    pair adds c(t) g 2P / ((P - Q)(P + Q)), as (A +- x)(A + tau +- 2x) =
    P +- Q, and t = 0 adds half that.  For Coulomb P +- Q and their
    product are integers below 2^53 while |k|^2 < 2^13, so each row, one
    contraction in ``_paired_rows``, is rounded only in its divisions and
    its sum.
    """
    t, count, tn2 = pair_sums
    vhat = pot.at(ks)
    out = np.zeros(vhat.shape)
    kn2 = np.einsum("mi,mi->m", ks, ks).astype(float)
    size = max(1, _EX_BUFFER // t.shape[0])
    tf = t.T.astype(float)
    den_buf = np.empty((size, t.shape[0]))
    n2_buf = np.empty_like(den_buf)

    def kernel(rows, counts, where=True):
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
        # off a partial lune (c_k(t) = 0) den may be <= 0
        np.divide(vt, den, out=vt, where=where)
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
        kernel(near[rows], counts, counts > 0)
    far = np.flatnonzero(~partial & (vhat != 0.0))
    if pot.is_radial:
        del den_buf, n2_buf  # the paired rows make their own buffers
        _paired_rows(ks, kn2, far, pot, pair_sums, out)
    else:
        for start in range(0, far.size, size):
            kernel(far[start:start + size], count)
    return vhat * out


def _paired_rows(ks, kn2, far, pot: Potential, pair_sums, out) -> None:
    """out[far] = g sum_{t >= 0} c'(t) P / ((P - Q)(P + Q)), as in ``_ex_terms``,
    with c'(0) = c(0) and c'(t) = 2 c(t) beyond."""
    t, count, tn2 = pair_sums
    mid = t.shape[0] // 2                          # t[mid] = 0
    t2, tnh = 2.0 * t[mid:].T, tn2[mid:]
    cw = np.concatenate(([count[mid]], 2.0 * count[mid + 1:]))
    mu2 = pot.mu**2 if pot.kind == "yukawa" else 0.0
    # P +- Q as products (A +- x)(|k +- t|^2 + mu^2): as a difference of
    # P and Q, P - Q would cancel where |k - t| is small.  The three
    # half-width buffers hold at most the floats of the kernel's two
    size = max(1, 2 * _EX_BUFFER // (3 * cw.size))
    x_buf, p_buf, m_buf = (np.empty((size, cw.size)) for _ in range(3))
    for start in range(0, far.size, size):
        rows = far[start:start + size]
        m, a = rows.size, kn2[rows, None]
        x = np.matmul(ks[rows].astype(float), t2, out=x_buf[:m])  # 2 k.t
        plus = np.add(tnh, a, out=p_buf[:m])
        minus = np.subtract(plus, x, out=m_buf[:m])   # |k - t|^2
        plus += x                                     # |k + t|^2
        if mu2:
            plus += mu2
            minus += mu2
        x += 2.0 * a
        plus *= x                                     # 2 (P + Q)
        np.subtract(4.0 * a, x, out=x)
        minus *= x                                    # 2 (P - Q)
        np.add(plus, minus, out=x)                    # 4 P
        plus *= minus
        x /= plus
        out[rows] = pot.g * (x @ cw)


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
              policy: TailPolicy | None = None, pair_sums=None):
    """Exchange correlation energy; >= 0 for nonnegative potentials.

    ``pair_sums`` is ``_ball_pair_sums(cfg)``, built when not given.
    Returns (value, tail_estimate, k_cutoff, converged).
    """
    pair_sums = _ball_pair_sums(cfg) if pair_sums is None else pair_sums
    pref = 1.0 / (4.0 * TWO_PI_6 * cfg.k_f**2)

    def shell(k_lo, k_hi):
        reps, weights = _k_shell(k_hi, k_lo, pot.symmetry)
        terms = _ex_terms(reps, cfg, pot, pair_sums)
        # one k at a time in shell order, the order of the per-k form
        return (np.array([sum((weights * terms).tolist())]), 0.0, True,
                int(weights.sum()))

    total, tail, _, _, k_cut, ok = doubled_sum(shell, cfg,
                                               policy or TailPolicy())
    return pref * float(total[0]), pref * tail, k_cut, ok


def energy_report(cfg: LatticeConfig, pot: Potential,
                  policy: TailPolicy | None = None,
                  quad_tol: float = 1e-9) -> EnergyReport:
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    bos, bos_tail, bos_qerr, bos_cut, bos_ok = e_corr_bos(cfg, pot, policy, quad_tol)
    pair_sums = _ball_pair_sums(cfg)  # one build for both of its sums
    kin, inter = e_fs(cfg, pot, pair_sums)
    ex, ex_tail, ex_cut, ex_ok = e_corr_ex(cfg, pot, policy, pair_sums)
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
