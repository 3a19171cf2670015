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
They also take stacks of modes of one lune size (``size_batches``; leading
axes of lam, vsq and K) and give each mode's values bit for bit.

Every lattice sum over k (momentum and energies alike) runs on mode
blocks, save the energy rows whose lune is the whole shifted ball
(|k|^2 > 4 r2) and needs no mask: ``mode_chunks`` orders the k rows by
|k|^2 and orbit key, drops V_k = 0, and hands out chunks with one (m, N)
``lune_kernel`` mask and gap table, the lune of k being the points
k + q, q in the ball, whose gaps lam = (|k|^2 + 2 k.q)/2 are exact
half-integers.  The per-mode objects then see a lune only through its
gap histogram, the distinct gaps lam_d and their multiplicities m_d:

* response: q_k(s) = 2 v^2 sum_d m_d lam_d / (s^2 + lam_d^2), so on a
  chunk's shared gap axis g it is one matmul with the table
  C[k, g] = 2 v_k^2 m_g g (``response_chunks`` from the (m, G) counts,
  ``class_response`` for a range of rows from the block's (mode, gap)
  classes), and integrals of f(q_k(s), s^2) over s run as one batched
  family (``response_integrals``);
* deflation (Golub 1973): the core h^2 + 2 u u^T acts as lam_d^2 on
  every vector of a gap class orthogonal to u, so it deflates exactly
  to diag(lam_d^2) + 2 w w^T with w_d^2 = m_d lam_d v^2, and
  cosh(-2K) - 1 is the same at every point of one gap
  (``cosh_minus_one_core``, and ``cosh_minus_one_classes`` for the
  classes of chosen modes, ``classes_at`` finding the class of a lune
  point);
* the histogram is invariant under the 48 signed permutations of k, as
  the ball is, so modes of equal sorted |k| and equal V_k share one
  deflated eigensolve.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeConfig, gap_classes, lune_kernel, orbit_key
from .numerics import integrate, sym_eig, sym_matrix_function

TWO_PI_CUBED = (2.0 * np.pi) ** 3
TWO_PI_6 = (2.0 * np.pi) ** 6

# matrix entries per batch of deflated cores (128 KB of float64)
_CORE_CELLS = 1 << 14


def coupling_sq(vhat, k_f: float):
    """v^2 = V_k / (2 (2pi)^3 k_F), elementwise in V_k."""
    return vhat / (2.0 * TWO_PI_CUBED * k_f)


def build_K(lam: np.ndarray, vsq) -> np.ndarray:
    """The correlation kernel K of gaps ``lam`` and coupling v^2 = ``vsq``.

    Symmetric and negative semidefinite, in the order of ``lam``, and
    exactly +0.0 on every mode of zero coupling.
    """
    vsq = np.asarray(vsq, dtype=float)
    out = np.zeros(lam.shape + lam.shape[-1:])
    live = vsq != 0.0
    lam, vsq = lam[live], vsq[live]
    u = np.sqrt(lam * vsq[:, None])
    core = 2.0 * (u[:, :, None] * u[:, None, :])
    core += (lam**2)[:, None] * np.eye(lam.shape[1])
    hs = np.sqrt(lam)
    a = sym_matrix_function(core, "sqrt") / (hs[:, :, None] * hs[:, None, :])
    out[live] = -0.5 * sym_matrix_function(0.5 * (a + np.swapaxes(a, 1, 2)), "log")
    return out


def cosh_minus_one_core(lam: np.ndarray, m: np.ndarray,
                        vsq: np.ndarray) -> np.ndarray:
    """cosh(-2K) - 1 at a point of each gap, for a batch of deflated cores.

    ``lam`` and ``m`` are (B, D) gaps and multiplicities, ``vsq`` the (B,)
    couplings: core b is diag(lam^2) + 2 w w^T, w_d^2 = m_d lam_d v^2.
    Row d of its eigen-equation gives (sqrt(mu_j) - lam_d) e_j[d] =
    2 w_d (e_j.w) / (sqrt(mu_j) + lam_d), so the value at gap lam_d is
    2 v^2 sum_j (e_j.w)^2 / (sqrt(mu_j) (sqrt(mu_j) + lam_d)^2), a sum of
    positive terms that does not cancel on far modes.  One batched eigh;
    besides its eigenvectors one (B, D, D) array, reused in place.
    """
    w = np.sqrt(m * lam * vsq[:, None])
    core = 2.0 * w[:, :, None] * w[:, None, :]
    step = np.arange(lam.shape[1])
    core[:, step, step] += lam**2
    mu, vec = np.linalg.eigh(core)
    root = np.sqrt(mu)[:, None, :]
    weight = np.einsum("bdj,bd->bj", vec, w)[:, None, :] ** 2 / root
    del vec
    den = np.add(root, lam[:, :, None], out=core)
    den *= den
    return 2.0 * vsq[:, None] * np.sum(np.divide(weight, den, out=den), axis=2)


def cosh_minus_one_classes(classes, vsq: np.ndarray,
                           modes: np.ndarray) -> np.ndarray:
    """cosh(-2K) - 1 at a lune point of each class of the block rows ``modes``.

    ``classes`` are a block's ``gap_classes`` (rows, gaps, counts),
    ``vsq`` its (m,) couplings and ``modes`` ascending rows.  Returns one
    value per class, NaN at the classes of other rows.  One
    ``cosh_minus_one_core`` per batch of histogram size (``size_batches``).
    """
    rows, gaps, counts = classes
    sizes = np.bincount(rows, minlength=vsq.size)
    start = np.cumsum(sizes) - sizes
    vals = np.full(rows.size, np.nan)
    for d, batch in size_batches(sizes, modes):
        at = start[batch, None] + np.arange(d)
        vals[at] = cosh_minus_one_core(gaps[at], counts[at], vsq[batch])
    return vals


def size_batches(sizes: np.ndarray, modes: np.ndarray, share: int = 1):
    """Yield (d, batch) for the ``modes`` of each size d = ``sizes[mode]``, ascending,
    in batches of at most ``_CORE_CELLS`` // (share d^2) modes (at least one), for
    a caller holding ``share`` times the stacked arrays of ``cosh_minus_one_core``."""
    # not np.unique: without extra outputs it imports numpy.ma (~1 MB)
    for d in sorted(set(sizes[modes].tolist())):
        of_size = modes[sizes[modes] == d]
        step = max(1, _CORE_CELLS // (share * d * d))
        for lo in range(0, of_size.size, step):
            yield d, of_size[lo:lo + step]


def csk_pair(k_matrix: np.ndarray, tau, eig=None) -> tuple[np.ndarray, np.ndarray]:
    """(cosh(-tau K) - 1, sinh(-tau K)) from one eigendecomposition of K.

    ``tau`` may be an array, whose axes lead the result's.  ``eig``, if
    given, is K's ``sym_eig`` pair, which the caller has already computed.
    """
    w, u = sym_eig(k_matrix) if eig is None else eig
    x = -np.multiply.outer(tau, w)[..., None, :]
    c = (u * (np.cosh(x) - 1.0)) @ np.swapaxes(u, -1, -2)
    s = (u * np.sinh(x)) @ np.swapaxes(u, -1, -2)
    return 0.5 * (c + np.swapaxes(c, -1, -2)), 0.5 * (s + np.swapaxes(s, -1, -2))


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


def sandwich_bounds(lam: np.ndarray, vsq) -> tuple[np.ndarray, np.ndarray, float]:
    """Elementwise bounds v_p v_q / (lambda_p + lambda_q) and screening factor.

    Returns (lower, upper, screening) where upper_pq = v^2 /
    (lambda_p + lambda_q), lower = screening * upper, and screening =
    1 / (1 + 2 <v, h^{-1} v>).  -K, and sinh/cosh of tau K, are pinched
    between these (the sinh bounds scale with tau).
    """
    upper = np.expand_dims(vsq, (-2, -1)) / (lam[..., :, None] + lam[..., None, :])
    screening = 1.0 / (1.0 + 2.0 * vsq * np.sum(1.0 / lam, axis=-1))
    return screening[..., None, None] * upper, upper, screening


def _mode_order(ks: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    """Rows of ``ks`` with V_k != 0 in (|k|^2, orbit key) order."""
    order = np.lexsort((orbit_key(ks), np.einsum("mi,mi->m", ks, ks)))
    return order[vhat[order] != 0.0]


def mode_chunks(ks: np.ndarray, vhat: np.ndarray, cfg: LatticeConfig,
                size: int):
    """Yield (rows, mask, lam) over the k rows of ``ks`` with V_k != 0.

    ``rows`` index ``ks``, at most ``size`` per chunk, in (|k|^2, orbit
    key) order: modes sharing a gap histogram sit together and a
    chunk's gaps stay close.  ``mask`` and ``lam`` are the chunk's (m, N)
    ``lune_kernel``.
    """
    order = _mode_order(ks, vhat)
    for start in range(0, order.size, size):
        rows = order[start:start + size]
        yield (rows, *lune_kernel(ks[rows], cfg))


def classes_at(mask: np.ndarray, lam: np.ndarray, col: np.ndarray,
               hit: np.ndarray):
    """A block's ``gap_classes`` and the class of each lune point ``hit``.

    ``col`` is an (m, c) table of ball rows and ``hit`` flat indices into
    it: hit h names the lune point k + q of row h // c, q = ball row
    col[h // c, h % c].  The classes are built before the points are
    looked up, so the two never hold their temporaries at once.  The
    lookup is exact, as the gaps are half-integers.
    """
    classes = gap_classes(mask, lam)
    # row * scale + gap orders (row, gap) once scale exceeds every gap
    scale = float(classes[1].max(initial=0.0)) + 1.0
    rows, j = np.divmod(hit, col.shape[1])
    gaps = lam[rows, col[rows, j]]
    del j
    return classes, np.searchsorted(classes[0] * scale + classes[1],
                                    rows * scale + gaps)


def class_response(classes, vsq: np.ndarray, lo: int, hi: int):
    """(g, C) of the response table of rows lo..hi-1 of a block's ``gap_classes``.

    g holds the distinct gaps of those rows, ascending, and C is their
    (hi - lo, G) table with the same entries as ``response_chunks``'s.
    """
    rows, gaps, counts = classes
    at = slice(*np.searchsorted(rows, [lo, hi]))
    g, col = np.unique(gaps[at], return_inverse=True)
    resp = np.zeros((hi - lo, g.size))
    resp[rows[at] - lo, col] = 2.0 * vsq[rows[at]] * counts[at] * gaps[at]
    return g, resp


def response_chunks(ks: np.ndarray, vhat: np.ndarray, cfg: LatticeConfig,
                    size: int):
    """Yield (rows, g, C, lam_min) over the chunks of ``mode_chunks``.

    g holds a chunk's distinct lune gaps, ascending, lam_min each row's
    smallest, and C[k, g] = 2 v_k^2 m_g g its (m, G) response table, so
    that q_k(s) = sum_g C[k, g] / (s^2 + g^2).  A chunk with a partial
    lune takes C from its (mode, gap) classes.  A chunk whose first row,
    and so every row, has |k|^2 > 4 r2 has full lunes: it bincounts its
    integer doubled gaps |k|^2 + 2 k.q, with no mask, in slices of
    ``_CORE_CELLS`` counts, into one buffer sized once for the widest
    such chunk, as the gap axis grows along a shell; its C is valid
    until the next chunk.
    """
    order = _mode_order(ks, vhat)
    vsq = coupling_sq(vhat, cfg.k_f)
    kn2 = np.einsum("mi,mi->m", ks, ks)
    lo = kn2[order[::size]]
    hi = kn2[np.append(order[size - 1::size], order[-1:])[:lo.size]]
    # 2 |k.q| <= 2 |k| k_F: a full chunk's doubled gaps span at most this
    width = np.max(hi - lo + 4.0 * np.sqrt(hi * cfg.r2), initial=0.0,
                   where=lo > 4 * cfg.r2)
    buf = np.empty(size * (int(width) + 2))
    for start in range(0, order.size, size):
        rows = order[start:start + size]
        if kn2[rows[0]] <= 4 * cfg.r2:
            classes = gap_classes(*lune_kernel(ks[rows], cfg))
            first = np.searchsorted(classes[0], np.arange(rows.size))
            yield (rows, *class_response(classes, vsq[rows], 0, rows.size),
                   classes[1][first])
            continue
        two = ks[rows] @ (2 * cfg.ball_arr.T)
        two += kn2[rows, None]                          # 2 lam = |k|^2 + 2 k.q
        low = two.min()
        two -= low
        seen = np.bincount(two.ravel()) > 0
        g = (np.flatnonzero(seen) + low) / 2.0
        # each lune point's flat index in C: row * G + its gap's column
        two = (np.cumsum(seen) - 1)[two]
        lam_min = g[two.min(axis=1)]
        two += g.size * np.arange(rows.size)[:, None]
        resp = buf[:rows.size * g.size].reshape(rows.size, g.size)
        step = max(1, _CORE_CELLS // g.size)
        for a in range(0, rows.size, step):
            part = resp[a:a + step]
            part[...] = np.bincount(two[a:a + step].ravel() - a * g.size,
                                    minlength=part.size).reshape(part.shape)
        # class_response's products (2 v_k^2 m_g) g, bit for bit
        resp *= 2.0 * vsq[rows, None]
        resp *= g
        yield rows, g, resp, lam_min


def response_integrals(f, resp: np.ndarray, g: np.ndarray, scales,
                       tol: float):
    """int_0^inf f(q_k(s), s^2) ds for each of the ``len(scales)`` members.

    ``resp`` and ``g`` are a response table C and its gaps (as from
    ``response_chunks``); f maps the (rows, nodes) responses and the
    (nodes,) values s^2 to (members, nodes) integrands.
    All members are one batched family, each refined to ``tol``, with
    panels seeded at s = seed and 10 seed, seed the geometric mean of
    the gap ``scales``.  Returns (values, errors, converged).
    """
    def family(s):
        s2 = s * s
        return f(resp @ (1.0 / (s2[None, :] + g[:, None] ** 2)), s2)

    seed = float(np.exp(np.mean(np.log(scales))))
    vals, errs, _, ok = integrate(family, len(scales), tol=tol,
                                  seeds=(seed, 10.0 * seed))
    return vals, errs, ok
