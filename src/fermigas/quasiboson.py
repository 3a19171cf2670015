"""Per-mode pair-excitation objects.

For each momentum transfer k the lune carries a diagonal gap operator h
(entries lambda_{k,p}), a constant coupling vector v with
v_p^2 = V_k / (2 (2pi)^3 k_F), and u = h^{1/2} v.  From these the
correlation kernel

    K = -1/2 log( h^{-1/2} sqrt(h^2 + 2 u u^T) h^{-1/2} )

is symmetric and negative semidefinite, and e^{-2K}, e^{+2K} have the
closed forms

    e^{-2K} = h^{-1/2} (h^2 + 2 u u^T)^{1/2} h^{-1/2},
    e^{+2K} = h^{1/2} (h^2 + 2 u u^T)^{-1/2} h^{1/2},

the reference that ``cosh_minus_one_core`` is tested against.  The
response function q(s) = 2 <u, (h^2 + s^2)^{-1} u> is the lattice
analogue of the Lindhard function and equals the screening denominator
minus one.

The dense per-mode oracles of ``verify`` see a mode as its lune's gap
array ``lam`` (``lattice.lune_points``) and the coupling ``vsq`` = v^2:
``build_K(lam, vsq)`` gives K in the order of ``lam``,
``sandwich_bounds(lam, vsq)`` its elementwise bounds, ``q_of_s(lam, s,
vsq)`` the response, and ``csk_pair(K, tau)`` cosh and sinh of tau K.

Every lattice sum over k (momentum and energies alike) runs on mode
blocks, save the E_corr,ex rows whose lune is the whole shifted ball
and needs no mask: ``mode_chunks`` orders the k rows by |k|^2 and orbit
key, drops V_k = 0, and hands out chunks with one (m, N)
``lune_kernel`` mask and gap table, the lune of k being the points
k + q, q in the ball, whose gaps lam = (|k|^2 + 2 k.q)/2 are exact
half-integers.  The per-mode objects then see a lune only through its
gap histogram, the distinct gaps lam_d and their multiplicities m_d:

* response: q_k(s) = 2 v^2 sum_d m_d lam_d / (s^2 + lam_d^2), so on a
  chunk's shared gap axis g it is one matmul with the table
  C[k, g] = 2 v_k^2 m_g g (``gap_response``), and integrals of
  f(q_k(s), s^2) over s run as one batched family
  (``response_integrals``);
* deflation (Golub 1973): the core h^2 + 2 u u^T acts as lam_d^2 on
  every vector of a gap class orthogonal to u, so it deflates exactly
  to diag(lam_d^2) + 2 w w^T with w_d^2 = m_d lam_d v^2, and
  cosh(-2K) - 1 is the same at every point of one gap
  (``cosh_minus_one_core``, ``cosh_minus_one_per_gap``);
* the histogram is invariant under the 48 signed permutations of k, as
  the ball is, so modes of equal sorted |k| and equal V_k share one
  deflated eigensolve.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeConfig, gap_counts, lune_kernel, orbit_key
from .numerics import (integrate_semi_infinite_batch, sym_eig,
                       sym_matrix_function)

TWO_PI_CUBED = (2.0 * np.pi) ** 3
TWO_PI_6 = (2.0 * np.pi) ** 6


def coupling_sq(vhat, k_f: float):
    """v^2 = V_k / (2 (2pi)^3 k_F), elementwise in V_k."""
    return vhat / (2.0 * TWO_PI_CUBED * k_f)


def build_K(lam: np.ndarray, vsq: float) -> np.ndarray:
    """The correlation kernel K of gaps ``lam`` and coupling v^2 = ``vsq``.

    Symmetric and negative semidefinite, in the order of ``lam``.
    """
    n = lam.size
    if n == 0 or vsq == 0.0:
        return np.zeros((n, n))
    u = np.sqrt(lam * vsq)
    root = sym_matrix_function(np.diag(lam**2) + 2.0 * np.outer(u, u), "sqrt")
    hs = np.sqrt(lam)
    a = root / np.outer(hs, hs)
    a = 0.5 * (a + a.T)
    return -0.5 * sym_matrix_function(a, "log")


def cosh_minus_one_core(lam: np.ndarray, m: np.ndarray,
                        vsq: np.ndarray) -> np.ndarray:
    """cosh(-2K) - 1 at a point of each gap, for a batch of deflated cores.

    ``lam`` and ``m`` are (B, D) gaps and multiplicities, ``vsq`` the (B,)
    couplings: core b is diag(lam^2) + 2 w w^T, w_d^2 = m_d lam_d v^2.
    Row d of its eigen-equation gives (sqrt(mu_j) - lam_d) e_j[d] =
    2 w_d (e_j.w) / (sqrt(mu_j) + lam_d), so the value at gap lam_d is
    2 v^2 sum_j (e_j.w)^2 / (sqrt(mu_j) (sqrt(mu_j) + lam_d)^2), a sum of
    positive terms that does not cancel on far modes.  One batched eigh.
    """
    w = np.sqrt(m * lam * vsq[:, None])
    core = 2.0 * w[:, :, None] * w[:, None, :]
    step = np.arange(lam.shape[1])
    core[:, step, step] += lam**2
    mu, vec = np.linalg.eigh(core)
    root = np.sqrt(mu)[:, None, :]
    weight = np.einsum("bdj,bd->bj", vec, w)[:, None, :] ** 2 / root
    return 2.0 * vsq[:, None] * np.sum(
        weight / (root + lam[:, :, None]) ** 2, axis=2)


def cosh_minus_one_per_gap(g: np.ndarray, counts: np.ndarray,
                           vsq: np.ndarray) -> np.ndarray:
    """(m, G) cosh(-2K) - 1 at a lune point of each gap, on the gap axis g.

    ``g`` and ``counts`` are a chunk's ``gap_counts``; entries at gaps a
    mode lacks are 0.  One ``cosh_minus_one_core`` per histogram size D.
    """
    out = np.zeros(counts.shape)
    sizes = np.count_nonzero(counts, axis=1)
    # not np.unique: without extra outputs it imports numpy.ma (~1 MB)
    for d in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == d)
        nz = np.nonzero(counts[rows])
        out[rows[nz[0]], nz[1]] = cosh_minus_one_core(
            g[nz[1]].reshape(-1, d), counts[rows][nz].reshape(-1, d),
            vsq[rows]).ravel()
    return out


def csk_pair(k_matrix: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(cosh(-tau K) - 1, sinh(-tau K)) from one eigendecomposition of K."""
    n = k_matrix.shape[0]
    if n == 0:
        z = np.zeros((0, 0))
        return z, z
    w, u = sym_eig(k_matrix)
    c = (u * (np.cosh(-tau * w) - 1.0)) @ u.T
    s = (u * np.sinh(-tau * w)) @ u.T
    return 0.5 * (c + c.T), 0.5 * (s + s.T)


def q_of_s(lam: np.ndarray, s, vsq: float) -> float | np.ndarray:
    """Response function q(s) = 2 v^2 sum_p lambda_p / (s^2 + lambda_p^2).

    ``lam`` are the gaps, ``vsq`` is v^2.  Vectorized over s; decreasing
    in s with q(inf) = 0.  Coincides with 2 <u, (h^2 + s^2)^{-1} u>.
    """
    s = np.asarray(s, dtype=float)
    out = 2.0 * vsq * np.sum(
        lam[:, None] / (s.reshape(-1)[None, :] ** 2 + lam[:, None] ** 2), axis=0
    )
    return out.reshape(s.shape) if s.shape else float(out[0])


def sandwich_bounds(lam: np.ndarray,
                    vsq: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Elementwise bounds v_p v_q / (lambda_p + lambda_q) and screening factor.

    Returns (lower, upper, screening) where upper_pq = v^2 /
    (lambda_p + lambda_q), lower = screening * upper, and screening =
    1 / (1 + 2 <v, h^{-1} v>).  -K, and sinh/cosh of tau K, are pinched
    between these (the sinh bounds scale with tau).
    """
    upper = vsq / (lam[:, None] + lam[None, :])
    screening = 1.0 / (1.0 + 2.0 * vsq * float(np.sum(1.0 / lam)))
    return screening * upper, upper, screening


def mode_chunks(ks: np.ndarray, vhat: np.ndarray, cfg: LatticeConfig,
                size: int):
    """Yield (rows, mask, lam) over the k rows of ``ks`` with V_k != 0.

    ``rows`` index ``ks``, at most ``size`` per chunk, in (|k|^2, orbit
    key) order: modes sharing a gap histogram sit together and a
    chunk's gaps stay close.  ``mask`` and ``lam`` are the chunk's (m, N)
    ``lune_kernel``.
    """
    order = np.lexsort((orbit_key(ks), np.einsum("mi,mi->m", ks, ks)))
    order = order[vhat[order] != 0.0]
    for start in range(0, order.size, size):
        rows = order[start:start + size]
        yield (rows, *lune_kernel(ks[rows], cfg))


def gap_response(mask: np.ndarray, lam: np.ndarray, vsq: np.ndarray):
    """(g, counts, C) of a chunk of modes of couplings ``vsq``.

    g holds the chunk's distinct lune gaps, ascending, counts the (m, G)
    multiplicities m_g, and C[k, g] = 2 v_k^2 m_g g, so that
    q_k(s) = sum_g C[k, g] / (s^2 + g^2).
    """
    g, counts = gap_counts(mask, lam)
    return g, counts, 2.0 * vsq[:, None] * counts * g


def response_integrals(f, resp: np.ndarray, g: np.ndarray, scales,
                       tol: float):
    """int_0^inf f(q_k(s), s^2) ds for each of the ``len(scales)`` members.

    ``resp`` and ``g`` are from ``gap_response``; f maps the (rows, nodes)
    responses and the (nodes,) values s^2 to (members, nodes) integrands.
    All members are one batched family, each refined to ``tol``, with
    panels seeded at s = seed and 10 seed, seed the geometric mean of
    the gap ``scales``.  Returns (values, errors, converged).
    """
    def family(s):
        s2 = s * s
        return f(resp @ (1.0 / (s2[None, :] + g[:, None] ** 2)), s2)

    seed = float(np.exp(np.mean(np.log(scales))))
    vals, errs, _, ok = integrate_semi_infinite_batch(
        family, len(scales), tol=tol, seeds=(seed, 10.0 * seed))
    return vals, errs, ok
