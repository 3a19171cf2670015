"""Plain-loop reference implementations of the vectorized lattice, potential, energy, momentum, continuum and verify kernels.

Each function here is the straightforward per-point form of a hot-path
kernel in ``fermigas``: a Python loop over the ball, a dense pair sum
over the lune, one integrand built from the full lune, one mode at a
time, one scalar inner integral per outer node.  Tests compare the fast
kernels against them.  The thin single-route wrappers of ``n_point``
that only tests read live here too.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from fermigas.dvlimit import q_dv
from fermigas.energy import _CHUNK, _EX_BUFFER, _pair_code, stable_log1p_minus_x
from fermigas.lattice import (as_vec3, ball_array, gap_classes,
                              is_sum_of_three_squares, lune_kernel, lune_points,
                              neg, norm2, point_group)
from fermigas.momentum import n_point
from fermigas.numerics import (QuadratureResult, integrate, sym_eig,
                               sym_matrix_function, uniforms)
from fermigas.potential import ValidationReport, evaluate
from fermigas.quasiboson import (TWO_PI_6, TWO_PI_CUBED, build_K,
                                 cosh_minus_one_classes, cosh_minus_one_core,
                                 coupling_sq, csk_pair, mode_chunks, q_of_s,
                                 response_integrals, sandwich_bounds)
from fermigas.verify import (LATTICE_SEED, MODE_SEED, QUADRUPLES, TAUS,
                             CheckReport, _assert_report, _gap, _is_lune_point,
                             _mode_sample, _normals)

EIGHT_PI4 = 8.0 * np.pi**4


def nonzero_k_vectors(k_max, k_min_excl=0):
    """All k != 0 with k_min_excl < |k| <= k_max as lex-sorted tuples."""
    ks = ball_array(k_max * k_max, max(0, k_min_excl * k_min_excl))
    return list(map(tuple, ks.tolist()))


def mode_of(k, cfg, pot):
    """(points, gaps, V_k, v^2) of the mode k from its own ``lune_points`` call."""
    vhat = evaluate(pot, k)
    return (*lune_points(k, cfg), vhat, coupling_sq(vhat, cfg.k_f))


def exp_pm2K(lam, vsq):
    """(e^{-2K}, e^{+2K}) of gaps ``lam`` and coupling ``vsq`` from the closed forms.

    e^{-2K} = h^{-1/2} M^{1/2} h^{-1/2} and e^{+2K} = h^{1/2} M^{-1/2}
    h^{1/2} with the core M = h^2 + 2 u u^T, u = sqrt(lam vsq), from one
    eigendecomposition of M.
    """
    n = lam.size
    if n == 0 or vsq == 0.0:
        return np.eye(n), np.eye(n)
    u = np.sqrt(lam * vsq)
    w, uvec = sym_eig(np.diag(lam**2) + 2.0 * np.outer(u, u))
    outer = np.outer(np.sqrt(lam), np.sqrt(lam))
    a = ((uvec * np.sqrt(w)) @ uvec.T) / outer
    a_inv = ((uvec / np.sqrt(w)) @ uvec.T) * outer
    return 0.5 * (a + a.T), 0.5 * (a_inv + a_inv.T)


def cosh2k_minus_one_diag(lam, vsq):
    """Diagonal of cosh(-2K) - 1 on the full lune: one core, every multiplicity 1."""
    if lam.size == 0 or vsq == 0.0:
        return np.zeros(lam.size)
    return cosh_minus_one_core(lam[None], np.ones((1, lam.size)),
                               np.array([vsq]))[0]


def row_of(pts, z):
    """Row of the point z in the (n, 3) array ``pts``; IndexError if absent."""
    return int(np.flatnonzero(np.all(pts == np.asarray(z), axis=1))[0])


def add(p, q):
    """Componentwise sum of two integer vectors as a tuple."""
    return tuple(a + b for a, b in zip(p, q))


def lambda_of(k, p):
    """Excitation gap (|p|^2 - |p-k|^2)/2, exact as a dyadic rational."""
    return (norm2(p) - norm2(add(p, neg(k)))) / 2.0


def in_lune(k, p, cfg):
    """Exact test for |p - k| <= k_F < |p|."""
    return norm2(add(p, neg(k))) <= cfg.r2 < norm2(p)


def ball_points(r2):
    """All integer points with |p|^2 <= r2 as lex-sorted tuples, from the cube filter."""
    return tuple(map(tuple, ball_array_cube(r2).tolist()))


def n_and_kappa_loop(r2):
    """(N, kappa) of the ball |p|^2 <= r2: a column count and two scans of
    the integers for the nearest sums of three squares on either side."""
    r = math.isqrt(r2)
    n = sum(2 * math.isqrt(r2 - x * x - y * y) + 1
            for x in range(-r, r + 1) for y in range(-r, r + 1)
            if x * x + y * y <= r2)
    sup_inside = max(m for m in range(r2, -1, -1) if is_sum_of_three_squares(m))
    inf_outside = r2 + 1
    while not is_sum_of_three_squares(inf_outside):
        inf_outside += 1
    return n, (inf_outside + sup_inside) / 2.0


def ball_array_cube(r2, r2_min_excl=-1):
    """Points with r2_min_excl < |p|^2 <= r2, lex-sorted, filtered from the full cube."""
    if r2 < 0:
        return np.zeros((0, 3), dtype=np.int64)
    r = math.isqrt(r2)
    axis = np.arange(-r, r + 1, dtype=np.int64)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    n2 = np.einsum("ij,ij->i", pts, pts)
    pts = pts[(n2 <= r2) & (n2 > r2_min_excl)]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return pts[order]


def stabilizer_group(xi, symmetry):
    """The elements R of ``point_group(symmetry)`` with R xi = +-xi."""
    group = point_group(symmetry)
    xv = np.array(xi, dtype=np.int64)
    images = group @ xv
    keep = np.all(images == xv, axis=1) | np.all(images == -xv, axis=1)
    return group[keep]


def image_keys(ks, group):
    """(n, g) integer keys of R k for every row k of ``ks`` and R in ``group``, and the (n,) row keys.

    Keys are p . digits in balanced base-(2 max|k| + 1) digits, injective
    on the images and ordered as their lex order, so a row's minimum is a
    canonical key of its orbit.
    """
    base = 2 * int(np.max(np.abs(ks), initial=0)) + 1
    digits = np.array([base * base, base, 1])
    # the key of R k for every R at once is k @ codes, codes[:, g] = R_g^T digits
    return ks @ (group.transpose(0, 2, 1) @ digits).T, ks @ digits


def orbit_reduce(ks, xi, symmetry):
    """(reps, weights) of (n, 3) int k-vectors under the stabilizer of xi, by keying every image.

    Representatives keep the order of ``ks``; the int64 weights are the
    orbit sizes, so summing weight * f(rep) equals summing f(k) over
    ``ks`` for every f invariant under the stabilizer, when ``ks`` is
    itself a union of orbits.
    """
    ks = np.asarray(ks, dtype=np.int64).reshape(-1, 3)
    group = stabilizer_group(xi, symmetry)
    if group.shape[0] == 1 or ks.shape[0] == 0:
        return ks, np.ones(ks.shape[0], dtype=np.int64)
    keys, own = image_keys(ks, group)
    keep = own == keys.min(axis=1)
    weights = 1 + np.count_nonzero(np.diff(np.sort(keys[keep], axis=1),
                                           axis=1), axis=1)
    return ks[keep], weights


def k_shell_reduced(k_lo, k_hi, symmetry):
    """(reps, weights) of k_lo < |k| <= k_hi: the cube-filtered shell, orbit-reduced at xi = 0."""
    return orbit_reduce(ball_array_cube(k_hi * k_hi, k_lo * k_lo), (0, 0, 0),
                        symmetry)


def gap_counts_unique(mask, lam):
    """``gap_counts`` by a sort: ``np.unique`` of the lune gaps."""
    g, col = np.unique(lam[mask], return_inverse=True)
    counts = np.bincount(np.nonzero(mask)[0] * g.size + col,
                         minlength=mask.shape[0] * g.size)
    return g, counts.reshape(-1, g.size)


def from_norm2_where(pot, n2):
    """``Potential.from_norm2`` on a guarded copy of the norms, with two ``np.where``."""
    n2 = np.asarray(n2, dtype=float)
    safe = np.where(n2 > 0, n2, 1.0)
    if pot.kind == "coulomb":
        return np.where(n2 > 0, pot.g / safe, 0.0)
    if pot.kind == "yukawa":
        return np.where(n2 > 0, pot.g / (safe + pot.mu**2), 0.0)
    return np.zeros_like(n2)


def stable_log1p_minus_x_where(x):
    """``energy.stable_log1p_minus_x`` with both branches over every entry,
    joined by three ``np.where``."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, x, 0.0)
    series = -0.5 * xs**2 + xs**3 / 3.0 - 0.25 * xs**4
    big = np.log1p(np.where(small, 0.0, x)) - np.where(small, 0.0, x)
    out = np.where(small, series, big)
    return out if out.shape else float(out)


def lune_loop(k, cfg):
    """(points, gaps) of the lune of k: filter k + q over the ball, one point at a time."""
    kv = as_vec3(k)
    pts = sorted(p for q in ball_points(cfg.r2)
                 if norm2(p := add(kv, q)) > cfg.r2)
    return tuple(pts), np.array([lambda_of(kv, p) for p in pts], dtype=float)


def k_support_loop(xi, cfg):
    """Exact k-support of an outside xi: shifted-ball candidates kept by two lune tests."""
    xv = as_vec3(xi)
    ks = {add(base, q) for q in ball_points(cfg.r2) for base in (xv, neg(xv))}
    ks.discard((0, 0, 0))
    return tuple(k for k in sorted(ks)
                 if in_lune(k, xv, cfg) or in_lune(k, neg(xv), cfg))


def truncated_k_vectors(xi, cfg, k_max, k_min_excl=0):
    """k with k_min_excl < |k| <= k_max whose lune meets {k+xi, k-xi}, as sorted tuples.

    The full enumeration of an inside shell, before any orbit reduction;
    empty for xi outside the ball.
    """
    if norm2(xi) > cfg.r2:
        return []
    ks = ball_array(k_max * k_max, max(0, k_min_excl * k_min_excl))
    xv = np.asarray(xi, dtype=np.int64)
    keep = np.zeros(ks.shape[0], dtype=bool)
    for sign in (1, -1):
        zeta = ks + sign * xv
        keep |= np.einsum("ij,ij->i", zeta, zeta) > cfg.r2
    return list(map(tuple, ks[keep].tolist()))


def ball_pair_sums_outer(cfg):
    """(t, c(t), |t|^2) as ``energy._ball_pair_sums``, from an N x N outer sum."""
    code, side = _pair_code(cfg)
    counts = np.bincount(np.add.outer(code, code).ravel())
    bins = np.flatnonzero(counts)
    t = np.column_stack(np.unravel_index(bins, (side,) * 3)) - side // 2
    return t, counts[bins].astype(float), np.einsum("ij,ij->i", t, t)


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


def single_k_exchange_term(k, cfg, pot):
    """One k-term of E_corr,ex with its prefactor: the masked pair sum over the lune."""
    vhat = evaluate(pot, k)
    if vhat == 0.0:
        return 0.0
    mask, gaps = lune_kernel(k, cfg)
    a = cfg.ball_arr[mask]
    vmat = pot.at(np.asarray(k) + a[:, None, :] + a[None, :, :])   # V(p + q - k)
    lam = gaps[mask]
    return (vhat * float(np.sum(vmat / (lam[:, None] + lam[None, :])))
            / (4.0 * TWO_PI_6 * cfg.k_f**2))


def gap_counts(mask, lam):
    """Gap histograms of a block of modes on one shared gap axis.

    ``mask`` and ``lam`` are the (m, N) output of ``lune_kernel``.
    Returns the distinct lune gaps g of the whole block, ascending, and
    the (m, G) counts of lune points of each mode at each gap, from a
    bincount on the integers 2 lam over their range in the block: the
    masked table that ``quasiboson.response_chunks`` builds for
    full-lune chunks without a mask.
    """
    two = (2.0 * lam[mask]).astype(np.int64)
    lo = two.min()
    seen = np.bincount(two - lo) > 0
    g = (np.flatnonzero(seen) + lo) / 2.0
    col = np.cumsum(seen)[two - lo] - 1
    counts = np.bincount(np.nonzero(mask)[0] * g.size + col,
                         minlength=mask.shape[0] * g.size)
    return g, counts.reshape(-1, g.size)


def gap_response(mask, lam, vsq):
    """(g, counts, C) of a chunk from its lune mask: ``gap_counts`` and
    C[k, g] = 2 v_k^2 m_g g, the table of ``quasiboson.response_chunks``."""
    g, counts = gap_counts(mask, lam)
    return g, counts, 2.0 * vsq[:, None] * counts * g


def bos_chunks_masked(ks, cfg, pot, quad_tol):
    """``energy._bos_chunks`` with every chunk's table from its lune mask.

    Full-lune chunks included, each chunk takes ``gap_response`` of its
    ``lune_kernel`` and the first counted gap of each row as its scale.
    """
    vhat = pot.at(ks)
    vsq = coupling_sq(vhat, cfg.k_f)
    for rows, mask, lam in mode_chunks(ks, vhat, cfg, _CHUNK):
        g, counts, resp = gap_response(mask, lam, vsq[rows])
        lam_min = g[np.argmax(counts > 0, axis=1)]
        yield (rows, *response_integrals(
            lambda q, s2: stable_log1p_minus_x(q), resp, g, lam_min, quad_tol))


def ex_terms_masked(ks, cfg, pot, pair_sums):
    """``energy._ex_terms`` with every kernel row divided under its count mask.

    Full-lune rows divide where c(t) > 0 too, which holds on all of B + B.
    """
    t, count, tn2 = pair_sums
    vhat = pot.at(ks)
    out = np.zeros(vhat.shape)
    kn2 = np.einsum("mi,mi->m", ks, ks).astype(float)
    size = max(1, _EX_BUFFER // t.shape[0])
    tf = t.T.astype(float)

    def kernel(rows, counts):
        den = ks[rows].astype(float) @ tf
        den += kn2[rows, None]
        if pot.is_radial:
            vt = pot.from_norm2(2.0 * den + tn2 - kn2[rows, None])
        else:
            vt = pot.at(ks[rows, None] + t)
        vt *= counts
        np.divide(vt, den, out=vt, where=counts > 0)
        out[rows] = vt.sum(axis=1)

    near = np.flatnonzero(kn2 <= 4 * cfg.r2)
    code, side = _pair_code(cfg)
    bins = np.ravel_multi_index((t + side // 2).T, (side,) * 3)
    for rows, mask, _ in mode_chunks(ks[near], vhat[near], cfg, size):
        counts = np.empty((rows.size, t.shape[0]))
        for i, row in enumerate(mask):
            a = code[row]
            counts[i] = np.bincount(np.add.outer(a, a).ravel(),
                                    minlength=side**3)[bins]
        kernel(near[rows], counts)
    far = np.flatnonzero((kn2 > 4 * cfg.r2) & (vhat != 0.0))
    for start in range(0, far.size, size):
        kernel(far[start:start + size], count)
    return vhat * out


def bos_term(k, cfg, pot, quad_tol):
    """(1/pi) int F(q_k(s)) ds for one k from its gap histogram, one scalar quadrature."""
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
        return stable_log1p_minus_x(q)[None, :]

    lam_min = float(lam[0])
    (value,), (error,), _, ok = integrate(integrand, 1, tol=quad_tol,
                                          seeds=(lam_min, 10.0 * lam_min))
    return float(value) / np.pi, float(error) / np.pi, ok


def bos_term_mode(k, cfg, pot, quad_tol):
    """(1/pi) int F(q_k(s)) ds with q_k from the mode's full gap list."""
    _, lam, vhat, vsq = mode_of(k, cfg, pot)
    if vhat == 0.0:
        return 0.0, 0.0, True
    lam_min = float(np.min(lam))
    (value,), (error,), _, ok = integrate(
        lambda s: stable_log1p_minus_x(q_of_s(lam, s, vsq))[None, :], 1,
        tol=quad_tol, seeds=(lam_min, 10.0 * lam_min))
    return float(value) / np.pi, float(error) / np.pi, ok


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


def _bulk_inputs(ks, xi, cfg, pot, signs):
    """Couplings, full (m, N) gap table and per-channel hit data of full-lune modes."""
    arr = np.array(ks, dtype=np.int64)
    kn2 = np.einsum("mi,mi->m", arr, arr).astype(float)
    xv = np.array(xi, dtype=np.int64)
    # lam_{k, k+q} = (|k+q|^2 - |q|^2) / 2 = (|k|^2 + 2 k.q) / 2
    lam = 0.5 * (kn2[:, None] + 2.0 * (arr @ cfg.ball_arr.T))
    channels = [(ball_points(cfg.r2).index(tuple(int(c) for c in s * xv)),
                 np.einsum("mi,mi->m", arr + s * xv, arr + s * xv) > cfg.r2,
                 cfg.ball_arr + s * xv) for s in signs]
    return arr, kn2, pot.from_norm2(kn2), lam, channels


def bulk_chunk(ks, xi, cfg, pot, signs, quad_tol):
    """(spectral, integral, quad error, converged) summed over full-lune modes.

    Each mode gets one eigh of its full N x N core and, per sign
    channel of zeta = k + s xi, one integrand over all N gaps.
    """
    _, _, vhat, lam, channels = _bulk_inputs(ks, xi, cfg, pot, signs)
    vsq = vhat / (2.0 * TWO_PI_CUBED * cfg.k_f)
    n = lam.shape[1]
    u = np.sqrt(lam * vsq[:, None])
    m = np.einsum("ci,cj->cij", u, 2.0 * u)
    step = np.arange(n)
    m[:, step, step] += lam**2
    w, uvec = np.linalg.eigh(m)
    sw = np.sqrt(w)
    spectral = integral = err = 0.0
    ok = True
    pref = vhat / (EIGHT_PI4 * cfg.k_f)
    for idx, mask, _ in channels:
        row2 = uvec[:, idx, :] ** 2
        lz = lam[:, idx]
        a = np.einsum("cj,cj->c", row2, sw) / lz
        ainv = np.einsum("cj,cj->c", row2, 1.0 / sw) * lz
        spectral += float(np.sum(mask * (0.5 * (a + ainv) - 1.0)))
        if not np.any(mask):
            continue
        lz, lam_m, vsq_m = lz[mask], lam[mask], vsq[mask]

        def family(s):
            s2 = s * s
            q = 2.0 * vsq_m[:, None] * np.einsum(
                "cjm->cm", lam_m[:, :, None] / (s2[None, None, :]
                                                + lam_m[:, :, None] ** 2))
            lz2 = lz[:, None] ** 2
            return (s2[None, :] - lz2) / (s2[None, :] + lz2) ** 2 / (1.0 + q)

        seed = float(np.exp(np.mean(np.log(lz))))
        vals, errs, _, conv = integrate(
            family, int(np.count_nonzero(mask)), tol=quad_tol,
            seeds=(seed, 10.0 * seed))
        integral += float(np.sum(pref[mask] * vals))
        err += float(np.sum(pref[mask] * errs))
        ok = ok and conv
    return spectral, integral, err, ok


def bulk_exchange(ks, xi, cfg, pot, signs):
    """Exchange term summed over full-lune modes: a pair sum over the whole ball.

    The second potential argument p + zeta - k equals k + q + s xi, whose
    squared norm is |k|^2 + 2 k.(q + s xi) + |q + s xi|^2.
    """
    arr, kn2, vhat, lam, channels = _bulk_inputs(ks, xi, cfg, pot, signs)
    total = np.zeros(len(ks))
    for idx, mask, qpm in channels:
        arg_n2 = (kn2[:, None] + 2.0 * (arr @ qpm.T)
                  + np.einsum("ni,ni->n", qpm, qpm)[None, :])
        v2 = pot.from_norm2(arg_n2)
        total += mask * np.sum(v2 / (lam + lam[:, idx, None]) ** 2, axis=1)
    return -float(np.sum(vhat * total)) / (8.0 * TWO_PI_6 * cfg.k_f**2)


def _lune_hits(k, xi, r2: int) -> list[tuple[int, int, int]]:
    """Members of {xi, -xi, k + xi, k - xi} in the lune of k != 0, in that
    order; at xi = 0 they coincide pairwise, and a hit appears twice."""
    cands = (xi, [-c for c in xi], [a + b for a, b in zip(k, xi)],
             [a - b for a, b in zip(k, xi)])
    return [tuple(z) for z in cands if _is_lune_point(k, z, r2)]


def _exchange_term(k, pts: np.ndarray, gaps: np.ndarray, vhat: float,
                   k_f: float, zetas: Counter, pot) -> float:
    """-V_k / (8 (2pi)^6 k_F^2) * sum_zeta sum_p V_{p+zeta-k} / (lam_p + lam_zeta)^2."""
    if vhat == 0.0 or not zetas or gaps.size == 0:
        return 0.0
    kv = np.array(k, dtype=np.int64)
    total = 0.0
    for z, mult in sorted(zetas.items()):
        vhat2 = pot.at(pts + (np.array(z, dtype=np.int64) - kv))
        total += mult * float(np.sum(vhat2 / (gaps + _gap(k, z)) ** 2))
    return -vhat * total / (8.0 * TWO_PI_6 * k_f**2)


def _integral_term(k, gaps: np.ndarray, vhat: float, k_f: float,
                   zetas: Counter, quad_tol: float) -> tuple[float, float, bool]:
    """Screened-quadrature route for the hits of mode k, one scalar integral each."""
    if vhat == 0.0 or not zetas:
        return 0.0, 0.0, True
    vsq = coupling_sq(vhat, k_f)
    pref = vhat / (EIGHT_PI4 * k_f)
    total, err, ok = 0.0, 0.0, True
    for z, mult in sorted(zetas.items()):
        lam = _gap(k, z)

        def integrand(s, lam=lam):
            s2 = s * s
            return ((s2 - lam * lam) / (s2 + lam * lam) ** 2
                    / (1.0 + q_of_s(gaps, s, vsq)))[None, :]

        res = integrate(integrand, 1, tol=quad_tol, seeds=(lam, 10.0 * lam))
        total += mult * pref * float(res.value[0])
        err += mult * pref * float(res.abs_error_estimate[0])
        ok = ok and res.converged
    return total, err, ok


def exchange_sum_loop(k, pts, gaps, vhat, cfg, pot):
    """``verify._exchange_sum``: ``_exchange_term`` of each xi of the ball,
    with its ``_lune_hits``, summed by the builtin sum."""
    return sum(_exchange_term(k, pts, gaps, vhat, cfg.k_f,
                              Counter(_lune_hits(k, xi, cfg.r2)), pot)
               for xi in cfg.ball_arr.tolist())


def brute_force_pair_sum(k, cfg, pot) -> float:
    """``verify._pair_sum`` as a plain double loop over the lune of k."""
    pts = lune_points(k, cfg)[0].tolist()
    vk = evaluate(pot, k)
    total = 0.0
    for p in pts:
        for q in pts:
            arg = tuple(pc + qc - kc for pc, qc, kc in zip(p, q, k))
            total += vk * evaluate(pot, arg) / (_gap(k, p) + _gap(k, q)) ** 2
    return total


def spectral_term(pts, lam, vsq, zetas: Counter) -> float:
    """Sum over lune hits of the full-lune diagonal of cosh(-2K) - 1."""
    if vsq == 0.0 or not zetas:
        return 0.0
    diag = cosh2k_minus_one_diag(lam, vsq)
    return float(sum(mult * diag[row_of(pts, z)] for z, mult in zetas.items()))


def per_k(k, xi, cfg, pot, quad_tol):
    """One mode's momentum contributions at xi from its full lune.

    Builds the mode, takes its hits from ``_lune_hits``, and
    runs one scalar quadrature per hit and a point-by-point exchange sum.
    Returns ([n_b spectral, n_b integral, n_ex], quad error, converged).
    """
    zetas = Counter(_lune_hits(as_vec3(k), as_vec3(xi), cfg.r2))
    if not zetas or evaluate(pot, k) == 0.0:
        return np.zeros(3), 0.0, True
    pts, lam, vhat, vsq = mode_of(k, cfg, pot)
    integral, err, ok = _integral_term(k, lam, vhat, cfg.k_f, zetas, quad_tol)
    return (np.array([spectral_term(pts, lam, vsq, zetas), integral,
                      _exchange_term(k, pts, lam, vhat, cfg.k_f, zetas, pot)]),
            err, ok)


def per_k_sum(ks, xi, cfg, pot, quad_tol=1e-9):
    """``per_k`` summed over a k-list, in the shape ``momentum._block_parts`` returns."""
    parts, qerr, ok = np.zeros(3), 0.0, True
    for k in ks:
        term, err, conv = per_k(k, xi, cfg, pot, quad_tol)
        parts, qerr, ok = parts + term, qerr + err, ok and conv
    return parts, qerr, ok


def n_b_dv_nested(params, quad_tol=1e-7):
    """``dvlimit.n_b_dv`` as nested scalar quadratures: one inner s-integral per outer node."""
    kf, alpha, xi = params.k_f, params.alpha, params.xi_norm
    if alpha == 0.0:
        return QuadratureResult(value=0.0, abs_error_estimate=0.0,
                                evaluations=1, converged=True)
    lo, hi = xi - kf, xi + kf
    inner_tol = quad_tol / (10.0 * (hi - lo))
    inner_errs = [0.0]
    evals = [0]
    all_ok = [True]

    def inner(k):
        a = xi - 0.5 * k
        b = (xi * xi - kf * kf) / (2.0 * k)

        def integrand(s):
            s2 = s * s
            first = np.where(a != 0.0, a / (a * a + s2), 0.0)
            bracket = first - b / (b * b + s2)
            screen = k * k + alpha * kf * kf * q_dv(k, s, kf)
            return (bracket / screen)[None, :]

        scale = max(abs(a), 1e-3)
        (value,), (error,), nev, ok = integrate(
            integrand, 1, tol=inner_tol,
            seeds=(scale, abs(b), 10.0 * max(abs(a), abs(b))))
        inner_errs[0] += float(error)
        evals[0] += nev
        all_ok[0] = all_ok[0] and ok
        return float(value)

    def outer(karr):
        return np.array([[k * inner(k) for k in karr]])

    (value,), (error,), nev, ok = integrate(outer, 1, lo, hi, tol=quad_tol,
                                            seeds=(0.5 * (lo + hi),))
    pref = kf * alpha / xi
    err = abs(pref) * (float(error) + inner_errs[0] * (hi - lo))
    return QuadratureResult(value=pref * float(value), abs_error_estimate=err,
                            evaluations=nev + evals[0],
                            converged=ok and all_ok[0])


def validate_loop(pot, cutoff_radius=10):
    """``potential.validate`` as one scalar ``evaluate`` pair per point of the sorted set."""
    if cutoff_radius < 1:
        raise ValueError("cutoff_radius must be >= 1")
    ks = set(ball_points(cutoff_radius * cutoff_radius))
    if pot.kind == "table" and pot.table:
        ks.update(pot.table.keys())
        ks.update(neg(k) for k in pot.table.keys())
    offenders = []
    sq = 0.0
    symmetric = True
    nonnegative = True
    zero_at_origin = True
    if pot.kind == "table" and pot.table and pot.table.get((0, 0, 0), 0.0) != 0.0:
        zero_at_origin = False
        offenders.append((0, 0, 0))
    for k in sorted(ks):
        v = evaluate(pot, k)
        if v < 0:
            nonnegative = False
            offenders.append(k)
        if evaluate(pot, neg(k)) != v:
            symmetric = False
            offenders.append(neg(k))
        sq += v * v
    seen = set()
    uniq = [o for o in offenders if not (o in seen or seen.add(o))]
    return ValidationReport(
        symmetric=symmetric,
        nonnegative=nonnegative,
        zero_at_origin=zero_at_origin,
        partial_l2=float(np.sqrt(sq)),
        offenders=tuple(uniq),
    )


def splitmix64_uniforms(key, n, start=0):
    """``numerics.uniforms`` as a plain Python-int SplitMix64 loop."""
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    seed = mix(mix(key >> 64) ^ (key & mask))
    return [(mix((seed + (i + 1) * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0**-53
            for i in range(start, start + n)]


def ex_shard_columns(params, n, key):
    """``dvlimit._ex_shard`` with (n, 3) vectors and einsum dot products,
    each of its five uniform rows drawn on its own through ``start``."""
    kf, xi = params.k_f, params.xi_norm
    r_lo, r_hi = xi - kf, xi + kf

    def uniform(lo, hi, row):
        return lo + (hi - lo) * uniforms(key, n, start=row * n)

    r = uniform(r_lo, r_hi, 0)
    u_min = (r * r + xi * xi - kf * kf) / (2.0 * r * xi)
    u = uniform(u_min, 1.0, 1)
    # k in the plane of zero azimuth; xi along z
    k = np.column_stack([r * np.sqrt(np.maximum(0.0, 1.0 - u * u)),
                         np.zeros(n), r * u])
    rho = kf * np.cbrt(uniform(0.0, 1.0, 2))
    z = uniform(-1.0, 1.0, 3)
    phi = uniform(0.0, 2.0 * np.pi, 4)
    sxy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    p = np.column_stack([rho * sxy * np.cos(phi), rho * sxy * np.sin(phi), rho * z])

    xi_vec = np.array([0.0, 0.0, xi])
    w = p - xi_vec
    kw = np.einsum("ij,ij->i", k, w)
    wn2 = np.einsum("ij,ij->i", w, w)
    pk = p + k
    outside = np.einsum("ij,ij->i", pk, pk) > kf * kf

    vol_ball = (4.0 / 3.0) * np.pi * kf**3
    weight = 2.0 * np.pi * (r_hi - r_lo) * (1.0 - u_min) * vol_ball
    x = np.zeros(n)
    x[outside] = weight[outside] / (kw[outside] ** 2 * wn2[outside])
    return float(np.sum(x)), float(np.sum(x * x)), n


def n_boson_spectral(xi, cfg, pot, policy=None):
    """Pair-excitation occupancy record at xi by the spectral route."""
    return n_point(xi, cfg, pot, policy, route="spectral")


def n_boson_integral(xi, cfg, pot, policy=None, quad_tol=1e-9):
    """Pair-excitation occupancy record at xi by the screened-quadrature route."""
    return n_point(xi, cfg, pot, policy, route="integral", quad_tol=quad_tol)


def n_exchange(xi, cfg, pot, policy=None):
    """Exchange correction at xi (<= 0 for nonnegative potentials)."""
    return n_point(xi, cfg, pot, policy, route="spectral").n_ex


def ball_trace_n_b(cfg, pot, k_max):
    """2 sum_k sum_d m_d c_d over 0 < |k| <= k_max: the ball total of spectral n_b.

    Every lune point k + q is hit once from xi = q and once from
    xi = -q, so the total is twice the trace of cosh(-2K_k) - 1 per k:
    the full-lune gap histogram (``gap_classes``) against the deflated
    per-gap values, every k of the shell with weight 1.
    """
    ks = ball_array(k_max * k_max, 0)
    vhat = pot.at(ks)
    vsq = coupling_sq(vhat, cfg.k_f)
    total = 0.0
    for rows, mask, lam in mode_chunks(ks, vhat, cfg, 64):
        classes = gap_classes(mask, lam)
        total += float(classes[2] @ cosh_minus_one_classes(
            classes, vsq[rows], np.arange(rows.size)))
    return 2.0 * total


def ball_pair_sum_n_ex(cfg, pot, k_max):
    """The ball total of n_ex over 0 < |k| <= k_max, k by k as a lune pair sum.

    -2 / (8 (2pi)^6 k_F^2) sum_k V_k sum_{p, p' in L_k} V(p + p' - k)
    / (lam_p + lam_p')^2, with p = k + q and p + p' - k = k + q + q'.
    """
    total = 0.0
    for k in ball_array(k_max * k_max, 0):
        vhat = evaluate(pot, tuple(k.tolist()))
        mask, gaps = lune_kernel(k, cfg)
        a = cfg.ball_arr[mask]
        lam = gaps[mask]
        vmat = pot.at(k + a[:, None, :] + a[None, :, :])
        total += vhat * float(np.sum(vmat / (lam[:, None] + lam[None, :]) ** 2))
    return -2.0 * total / (8.0 * TWO_PI_6 * cfg.k_f**2)


def check_mode_values_loop(cfg, pot):
    """(ks, [(values, lam, V_k, K)]) of ``check_mode_loop``, one mode at a
    time: per tau one ``csk_pair`` and exp(+-tau K), every product formed
    where it is used.  ``values`` holds the mode's five check values."""
    ks = _mode_sample(cfg)

    def per_k(k):
        _, lam, vhat, vsq = mode_of(k, cfg, pot)
        dim = lam.size
        kmat = build_K(lam, vsq)
        lower, upper, _ = sandwich_bounds(lam, vsq)
        eye = np.eye(dim)
        vh_inv_v = vsq * float(np.sum(1.0 / lam))
        c_upper = vh_inv_v / (1.0 + 2.0 * vh_inv_v) * upper
        # the conjugations by e^{+-tau K} of a diagonal and a dense
        # symmetric T are decomposed against the exponentials themselves
        key_k = (MODE_SEED << 24) + (k[0] % 64) * 4096 + (k[1] % 64) * 64 + (k[2] % 64)
        z = _normals(key_k, dim * dim + dim)
        t_rand = z[:dim * dim].reshape(dim, dim)
        t_mats = (np.diag(z[dim * dim:]), 0.5 * (t_rand + t_rand.T))
        sw_cs = hyper = dec_dev = 0.0
        for tau in TAUS:
            c, s = csk_pair(kmat, tau)
            hyper = max(hyper, float(np.max(np.abs((c + eye) @ (c + eye) - s @ s - eye))))
            sw_cs = max(sw_cs,
                        float(np.max(s - tau * upper)),
                        float(np.max(tau * lower - s)),
                        float(np.max(-c)),
                        float(np.max(c - c_upper)))
            ep = sym_matrix_function(tau * kmat, "exp")
            em = sym_matrix_function(-tau * kmat, "exp")
            for t_mat in t_mats:
                t1_direct = 0.5 * (ep @ t_mat @ ep + em @ t_mat @ em)
                t2_direct = 0.5 * (ep @ t_mat @ ep - em @ t_mat @ em)
                anti_c = t_mat @ c + c @ t_mat
                anti_s = t_mat @ s + s @ t_mat
                t1 = t_mat + anti_c + c @ t_mat @ c + s @ t_mat @ s
                t2 = -anti_s - s @ t_mat @ c - c @ t_mat @ s
                dec_dev = max(dec_dev,
                              float(np.max(np.abs(t1 - t1_direct))),
                              float(np.max(np.abs(t2 - t2_direct))))
        # every lune of a k != 0 is nonempty, so dim >= 1
        out = {"nsd": float(np.max(np.linalg.eigvalsh(kmat))),
               "sw_K": float(max(np.max(-kmat - upper), np.max(lower + kmat))),
               "sw_CS": sw_cs, "hyperbolic": hyper, "decomposition": dec_dev}
        return out, lam, vhat, kmat

    return ks, [per_k(k) for k in ks]


def check_mode_loop(cfg, pot):
    """``verify.check_mode`` from the per-mode values of
    ``check_mode_values_loop``."""
    ks, results = check_mode_values_loop(cfg, pot)
    slack = 1e-10
    reports = []

    def collect(key, tol, label):
        worst = -math.inf
        worst_k = None
        for k, (vals, *_) in zip(ks, results):
            if vals[key] > worst:
                worst, worst_k = vals[key], k
        rep = {"k": list(worst_k), "k_f": cfg.k_f, "potential": pot.spec_string()}
        reports.append(_assert_report(
            f"mode.{label}", worst, tol, f"worst at k={list(worst_k)}",
            {"k_f": cfg.k_f, "potential": pot.spec_string(), "taus": list(TAUS)},
            rep))

    collect("nsd", slack, "kernel_nsd")
    collect("sw_K", slack, "sandwich_K")
    collect("sw_CS", slack, "sandwich_CS")
    collect("hyperbolic", slack, "hyperbolic_identity")
    collect("decomposition", 1e-9, "conjugation_decomposition")

    # kernel reflection between k and -k: the mode -k is row -1 - i, and
    # its lune is the mirrored lune in reverse order
    worst = -1.0
    worst_k = None
    for k, (_, _, _, kmat), (_, _, _, mkmat) in zip(ks, results,
                                                    reversed(results)):
        dev = float(np.max(np.abs(kmat - mkmat[::-1, ::-1])))
        if dev > worst:
            worst, worst_k = dev, k
    reports.append(_assert_report(
        "mode.kernel_reflection", worst, slack,
        f"worst at k={list(worst_k)}",
        {"k_f": cfg.k_f, "potential": pot.spec_string()},
        {"k": list(worst_k), "k_f": cfg.k_f}))

    # product-entry bound trend (constants unknown: diagnostic only)
    diag_rows = []
    for k, (_, lam, vhat, kmat) in zip(ks[:4], results):
        if vhat == 0.0:
            continue
        c, s = csk_pair(kmat, 1.0)
        denom = lam[:, None] + lam[None, :]
        kn2 = norm2(k)
        scale = cfg.k_f / min(1.0, cfg.k_f**2 / kn2)
        for label, prod in (("KK", kmat @ kmat), ("KS", kmat @ s), ("SC", s @ c),
                            ("KKK", kmat @ kmat @ kmat), ("SKC", s @ kmat @ c)):
            m_order = len(label)
            sup = float(np.max(np.abs(prod) * denom)) * scale
            diag_rows.append({
                "k": list(k), "factors": label, "m": m_order, "sup": sup,
                "sup_over_vhat_m": sup / vhat**m_order,
                "sup_over_vhat_1": sup / vhat,
            })
    reports.append(CheckReport(
        name="mode.product_entry_bound_trend", status="diagnostic",
        measured=max((r["sup_over_vhat_m"] for r in diag_rows), default=0.0),
        tolerance=None,
        worst_case="sup |entry| (lam_p+lam_q) k_F / min(1, k_F^2/|k|^2), "
                   "normalized by V_k^m and V_k^1 to record which exponent fits",
        params={"k_f": cfg.k_f, "potential": pot.spec_string(),
                "rows": diag_rows}))
    return reports


def check_lattice_loop(cfg):
    """``verify.check_lattice`` one lune at a time: a ``lune_points`` call per
    k of the k_max ball and per four-point draw."""
    k_max = int(math.ceil(2.0 * cfg.k_f)) + 2
    ks = ball_array(k_max * k_max, 0).tolist()
    lunes = [(k, *lune_points(k, cfg)) for k in ks]
    worst, worst_at = math.inf, None
    for k, pts, gaps in lunes:
        i = int(np.argmin(gaps))
        if gaps[i] < worst:
            worst = float(gaps[i])
            worst_at = {"k": list(k), "p": pts[i].tolist(), "lambda": worst,
                        "k_f": cfg.k_f}
    reports = [_assert_report(
        "lattice.gap_lower_bound", 0.5 - worst, 0.0,
        f"min lambda = {worst} at k={worst_at['k']}",
        {"k_f": cfg.k_f, "lunes": len(lunes)}, worst_at)]

    # reflection: the k run over a symmetric lex-sorted ball, so -k is row -1 - i
    worst, worst_rep = 0.0, None
    for (k, pts, gaps), (_, m_pts, m_gaps) in zip(lunes, reversed(lunes)):
        if not np.array_equal(m_pts, -pts[::-1]):
            worst, worst_rep = math.inf, {"k": list(k), "k_f": cfg.k_f}
            break
        dev = float(np.max(np.abs(m_gaps - gaps[::-1])))
        if dev > worst:
            worst, worst_rep = dev, {"k": list(k), "k_f": cfg.k_f}
    reports.append(_assert_report(
        "lattice.reflection", worst, 0.0, "L(-k) = -L(k) with equal gaps",
        {"k_f": cfg.k_f, "k_max": k_max}, worst_rep))

    # four-point gap identity, one lune_points call and five uniforms per draw
    worst, worst_rep, tested, guard = 0.0, None, 0, 0
    while tested < QUADRUPLES and guard < 50 * QUADRUPLES:
        u = uniforms(LATTICE_SEED, 5, start=5 * guard).tolist()
        guard += 1
        k = [int(c * (2 * k_max + 1)) - k_max for c in u[:3]]
        if not any(k):
            continue
        pts, _ = lune_points(k, cfg)
        if len(pts) < 2:
            continue
        p, q = pts[int(u[3] * len(pts))].tolist(), pts[int(u[4] * len(pts))].tolist()
        l = [a + b - c for a, b, c in zip(p, q, k)]
        if not (any(l) and _is_lune_point(l, p, cfg.r2)
                and _is_lune_point(l, q, cfg.r2)):
            continue
        dev = abs((_gap(k, p) + _gap(k, q)) - (_gap(l, p) + _gap(l, q)))
        tested += 1
        if dev > worst:
            worst, worst_rep = dev, {"k": k, "l": l, "p": p, "q": q, "k_f": cfg.k_f}
    reports.append(_assert_report(
        "lattice.four_point_gap_identity", worst, 0.0,
        f"{tested} admissible quadruples tested",
        {"k_f": cfg.k_f, "seed": LATTICE_SEED}, worst_rep))

    shell = ball_array(cfg.r2 + 16, cfg.r2)
    xi = shell[np.argmin(np.einsum("ij,ij->i", shell, shell))].tolist()
    ks_xi = sorted(k for q in cfg.ball_arr.tolist()
                   if any(k := [a - b for a, b in zip(xi, q)])
                   and _is_lune_point(k, xi, cfg.r2))
    reports.append(CheckReport(
        name="lattice.outside_gap_sum_finite", status="pass",
        measured=float(sum(1.0 / _gap(k, xi) for k in ks_xi)), tolerance=math.inf,
        worst_case=f"sum over {len(ks_xi)} modes at xi={xi}",
        params={"k_f": cfg.k_f, "xi": xi}))

    # one np.sum per lune
    for beta in (-1.0, -0.5):
        ratios = []
        for k, _, gaps in lunes:
            kn = math.sqrt(norm2(k))
            if kn <= 2.0 * cfg.k_f:
                bound = cfg.k_f ** (2.0 + beta) * kn ** (1.0 + beta)
                ratios.append(float(np.sum(gaps ** beta)) / bound)
        reports.append(CheckReport(
            name=f"lattice.gap_power_sum_trend_beta_{beta:g}",
            status="diagnostic", measured=max(ratios), tolerance=None,
            worst_case=f"fitted c over {len(ratios)} modes "
                       f"(median ratio {np.median(ratios):.3g})",
            params={"k_f": cfg.k_f, "beta": beta}))

    far = ball_array(4 * k_max * k_max, 0)
    n2 = np.einsum("ij,ij->i", far, far)
    acc = float(np.add.accumulate(1.0 / (n2[n2 > cfg.r2] / 2.0) ** 2)[-1])
    reports.append(CheckReport(
        name="lattice.inside_gap_sum_trend", status="diagnostic",
        measured=float(acc * cfg.kappa / cfg.k_f ** 1.1), tolerance=None,
        worst_case=f"truncated at |k| <= {2 * k_max}, xi=[0, 0, 0]",
        params={"k_f": cfg.k_f, "delta": 0.1}))
    return reports
