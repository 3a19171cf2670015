"""Machine checks of the exact identities and inequality trends.

Every check that tests an exact identity or a proven inequality is an
assert-class check (status "pass"/"fail", with a reproducer on
failure).  Bounds that involve unnamed constants are demoted to
diagnostics: the fitted constant is reported, never asserted.

The checks are reproducible: every draw comes from the SplitMix64
stream ``numerics.uniforms`` of a fixed key.  The four-point identity
draws its quadruples from key 7, the per-mode checks take tau in
(0, 1/2, 1) and their conjugation matrices from keys derived from 11,
and the screening check draws s from key 23.  The per-mode checks
sample every mode with 0 < |k| <= 2 k_F, so the suite needs
k_F >= 1/2 and raises ValueError below it.  They run on half batches of modes of one lune size
(``size_batches``, share 2), one tau at a time, and take products with
the diagonal conjugation matrix as broadcasts; each value is bit for
bit that of the per-mode loop in tests/oracles.py, and each exp(+-tau K)
that of an eigh per tau, as each nonzero tau is 2^n.  Both sides of the
exchange aggregation are array forms of plain loops there, summed in
their order.  Every lune comes from ``lattice.lune_block``: the lattice
checks read the cube |k_i| <= k_max in chunks of mirrored row pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .lattice import LatticeConfig, ball_array, lune_block, lune_points, norm2
from .momentum import EIGHT_PI4
from .numerics import integrate, rank1_resolvent_diag, sym_eig, uniforms
from .potential import Potential, evaluate
from .quasiboson import (TWO_PI_6, build_K, cosh_minus_one_core, coupling_sq,
                         csk_pair, q_of_s, sandwich_bounds, size_batches)


# Keys of the uniform streams.  Draw g of the four-point identity reads
# uniforms 5g .. 5g + 4 of key 7 (k, then its two lune columns), in
# blocks of QUADRUPLES draws; mode k reads Box-Muller normals of key
# (11 << 24) + its components mod 64 in base 64, first the dense T row
# by row, then the diagonal T; mode j of the screening check reads s as
# 8 U over uniforms 5j .. 5j + 4 of key 23.
LATTICE_SEED = 7             # four-point quadruples
QUADRUPLES = 200
TAUS = (0.0, 0.5, 1.0)       # tau of the per-mode hyperbolic checks
MODE_SEED = 11               # per-mode conjugation matrices
CROSS_SEED = 23              # screening-identity s values
CROSS_QUAD_TOL = 1e-10       # integral route of the cross checks
BETAS = (-1.0, -0.5)         # exponents of the gap power-sum trend
_CHUNK = 1 << 12             # ball entries per lune_block call of check_lattice


@dataclass
class CheckReport:
    name: str
    status: str                  # "pass" | "fail" | "diagnostic"
    measured: float              # worst deviation (asserts) or fitted value
    tolerance: float | None      # None for diagnostics
    worst_case: str = ""
    params: dict = field(default_factory=dict)
    reproducer: dict | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if self.reproducer is None:
            del out["reproducer"]
        return out


def _assert_report(name, measured, tolerance, worst_case, params, reproducer=None):
    status = "pass" if measured <= tolerance else "fail"
    return CheckReport(name, status, float(measured), float(tolerance), worst_case,
                       params, reproducer if status == "fail" else None)


def _require_modes(cfg: LatticeConfig) -> None:
    """Raise ValueError unless some mode has 0 < |k| <= 2 k_F."""
    if cfg.k_f < 0.5:
        raise ValueError(f"verify needs k_F >= 1/2, below which no mode has "
                         f"0 < |k| <= 2 k_F; got k_F = {cfg.k_f}")


# ---------------------------------------------------------------------------
# lattice checks


def _gap(k, p) -> float:
    """Excitation gap (|p|^2 - |p - k|^2)/2 of integer vectors, exact."""
    return (norm2(p) - norm2([a - b for a, b in zip(p, k)])) / 2.0


def _is_lune_point(k, p, r2: int) -> bool:
    """Exact test for |p - k| <= k_F < |p|."""
    return norm2([a - b for a, b in zip(p, k)]) <= r2 < norm2(p)


def check_gap_bound(ks, counts, pts, gaps, k_f: float) -> CheckReport:
    """Every gap of the flat lunes (counts, pts, gaps) of the rows of ks is
    >= 1/2 (exact); the reproducer is the first least gap."""
    i = int(np.argmin(gaps))
    k = [int(c) for c in ks[int(np.count_nonzero(np.cumsum(counts) <= i))]]
    worst = float(gaps[i])
    return _assert_report(
        "lattice.gap_lower_bound", 0.5 - worst, 0.0,  # > 0 means violation
        f"min lambda = {worst} at k={k}", {"k_f": k_f, "lunes": len(counts)},
        {"k": k, "p": pts[i].tolist(), "lambda": worst, "k_f": k_f})


def _cube_lunes(cube: np.ndarray, near: np.ndarray, cfg: LatticeConfig):
    """Per row k of the lex-sorted ``cube`` |k_i| <= k_max: its lune mask over
    the ball, first least gap and its point, and gap power sums for ``BETAS``
    where ``near``, each one pairwise sum as np.sum makes it; and the worst
    reflection deviation with its reproducer.  Rows i and m - 1 - i (k and
    -k) share ``lune_block`` calls of about ``_CHUNK`` ball entries; the
    middle row, k = 0, is left out and its mask empty."""
    m, step = len(cube), max(1, _CHUNK // (2 * cfg.n_particles))
    in_lune = np.zeros((m, cfg.n_particles), dtype=bool)
    min_gaps, min_pts, sums = np.empty(m), np.empty((m, 3), np.int64), np.empty((2, m))
    refl, refl_rep = 0.0, None
    for lo in range(0, m // 2, step):
        hi = min(lo + step, m // 2)
        rows = np.r_[lo:hi, m - hi:m - lo]
        counts, pts, gaps, q = lune_block(cube[rows], cfg)
        starts = np.cumsum(counts) - counts
        in_lune[np.repeat(rows, counts), q] = True
        min_gaps[rows] = np.minimum.reduceat(gaps, starts)
        at = np.where(gaps == np.repeat(min_gaps[rows], counts), np.arange(gaps.size), gaps.size)
        min_pts[rows] = pts[np.minimum.reduceat(at, starts)]
        for c in set(counts[near[rows]].tolist()):
            sel = np.flatnonzero((counts == c) & near[rows])
            lam = gaps[starts[sel, None] + np.arange(c)]
            sums[:, rows[sel]] = [np.sum(lam ** beta, axis=1) for beta in BETAS]
        # the low rows against the high rows reversed, on points, so that
        # no symmetry of the ball is assumed; the first failure is kept
        h, n = hi - lo, int(counts[:hi - lo].sum())
        mirror = -pts[n:][::-1]
        if np.array_equal(counts[:h], counts[h:][::-1]) and np.array_equal(pts[:n], mirror):
            dev = np.maximum.reduceat(np.abs(gaps[:n] - gaps[n:][::-1]), starts[:h])
            if dev[j := int(np.argmax(dev))] > refl:
                refl, refl_rep = float(dev[j]), {"k": cube[lo + j].tolist(), "k_f": cfg.k_f}
        elif refl < math.inf:  # the first row whose lune is not mirrored
            pairs = zip(np.split(pts[:n], np.cumsum(counts[:h])[:-1]),
                        np.split(mirror, np.cumsum(counts[h:][::-1])[:-1]))
            j = next(j for j, (a, b) in enumerate(pairs) if not np.array_equal(a, b))
            refl, refl_rep = math.inf, {"k": cube[lo + j].tolist(), "k_f": cfg.k_f}
    return in_lune, min_pts, min_gaps, sums, refl, refl_rep


def _median(xs: list[float]) -> float:
    """np.median of a nonempty list, without the numpy.ma import it makes."""
    xs, h = sorted(xs), len(xs) // 2
    return xs[h] if len(xs) % 2 else (xs[h - 1] + xs[h]) / 2.0


def check_lattice(cfg: LatticeConfig) -> list[CheckReport]:
    _require_modes(cfg)
    k_max = int(math.ceil(2.0 * cfg.k_f)) + 2
    side = 2 * k_max + 1
    # the lex-sorted cube |k_i| <= k_max: the four-point draws read its lune
    # masks, the other checks its rows 0 < |k| <= k_max
    cube = np.indices((side,) * 3).reshape(3, -1).T - k_max
    kn = np.sqrt(np.einsum("ij,ij->i", cube, cube))
    ball, near = (0 < kn) & (kn <= k_max), (0 < kn) & (kn <= 2.0 * cfg.k_f)
    in_lune, min_pts, min_gaps, sums, refl, refl_rep = _cube_lunes(cube, near, cfg)
    reports = [check_gap_bound(cube[ball], np.ones(ball.sum()), min_pts[ball],
                               min_gaps[ball], cfg.k_f),
               _assert_report("lattice.reflection", refl, 0.0,
                              "L(-k) = -L(k) with equal gaps",
                              {"k_f": cfg.k_f, "k_max": k_max}, refl_rep)]

    # four-point gap identity on random admissible quadruples: each draw
    # takes a cube row floor(U side) per axis and two columns of its lune
    worst, worst_rep, tested, guard = 0.0, None, 0, 0
    while tested < QUADRUPLES and guard < 50 * QUADRUPLES:
        if guard % QUADRUPLES == 0:  # the next block of draws
            u = uniforms(LATTICE_SEED, 5 * QUADRUPLES, start=5 * guard).reshape(-1, 5)
            rows = ((u[:, :3] * side).astype(np.int64) @ [side * side, side, 1]).tolist()
        row, pick = rows[guard % QUADRUPLES], u[guard % QUADRUPLES, 3:]
        guard += 1
        cols = np.flatnonzero(in_lune[row])
        if len(cols) < 2:  # k = 0 too: its row is empty
            continue
        k = cube[row].tolist()
        p, q = (cfg.ball_arr[cols[(pick * len(cols)).astype(np.int64)]] + k).tolist()
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

    # gap-sum over modes seeing xi, lex-first on the first outer shell: finite
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

    # lattice-sum trend: sum lambda^beta <= c * k_F^(2+beta) |k|^(1+beta)
    for beta, row_sums in zip(BETAS, sums):
        ratios = [s / (cfg.k_f ** (2.0 + beta) * x ** (1.0 + beta))
                  for s, x in zip(row_sums[near].tolist(), kn[near].tolist())]
        reports.append(CheckReport(
            name=f"lattice.gap_power_sum_trend_beta_{beta:g}",
            status="diagnostic", measured=max(ratios), tolerance=None,
            worst_case=f"fitted c over {len(ratios)} modes "
                       f"(median ratio {_median(ratios):.3g})",
            params={"k_f": cfg.k_f, "beta": beta}))

    # truncated hole-side gap sum at the centre xi = 0 of the ball, where
    # 1 / m(xi) = |kappa - |xi|^2| = kappa, reported against k_F^(1+delta) m(xi)
    # (k in the lune of k when |k| > k_F, gap |k|^2 / 2), summed left to right
    far = ball_array(4 * k_max * k_max, 0)
    n2 = np.einsum("ij,ij->i", far, far)
    acc = float(np.add.accumulate(1.0 / (n2[n2 > cfg.r2] / 2.0) ** 2)[-1])
    reports.append(CheckReport(
        name="lattice.inside_gap_sum_trend", status="diagnostic",
        measured=float(acc * cfg.kappa / cfg.k_f ** 1.1), tolerance=None,
        worst_case=f"truncated at |k| <= {2 * k_max}, xi=[0, 0, 0]",
        params={"k_f": cfg.k_f, "delta": 0.1}))
    return reports


# ---------------------------------------------------------------------------
# per-mode checks


def _mode_sample(cfg: LatticeConfig) -> list[list[int]]:
    """All k != 0 with |k| <= floor(2 k_F), lex-sorted: -k is row -1 - i."""
    _require_modes(cfg)
    return ball_array(int(math.floor(2.0 * cfg.k_f)) ** 2, 0).tolist()


def _modes(ks, cfg: LatticeConfig, pot: Potential):
    """(points, gaps, V_k, v^2) of each mode of ks, the lunes from one lune_block."""
    counts, pts, gaps, _ = lune_block(ks, cfg)
    cuts = np.cumsum(counts)[:-1]
    return [(p, lam, v := evaluate(pot, k), coupling_sq(v, cfg.k_f))
            for k, p, lam in zip(ks, np.split(pts, cuts), np.split(gaps, cuts))]


def _normals(key: int, n: int) -> np.ndarray:
    """n standard normals by Box-Muller from key's uniform stream: uniforms
    2j and 2j + 1 give normals 2j and 2j + 1 as r cos(theta) and r sin(theta),
    with r = sqrt(-2 ln(1 - U_2j)) and theta = 2 pi U_2j+1."""
    u = uniforms(key, n + n % 2).reshape(-1, 2)
    r, theta = np.sqrt(-2.0 * np.log1p(-u[:, 0])), 2.0 * np.pi * u[:, 1]
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)]).ravel()[:n]


def _conjugands(k, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(Diagonal of the diagonal T, dense symmetric T) of mode k, from its own key."""
    key_k = (MODE_SEED << 24) + (k[0] % 64) * 4096 + (k[1] % 64) * 64 + (k[2] % 64)
    z = _normals(key_k, dim * dim + dim)
    t_rand = z[:dim * dim].reshape(dim, dim)
    return z[dim * dim:], 0.5 * (t_rand + t_rand.T)


def _peaks(x: np.ndarray) -> list[float]:
    """The largest entry of each matrix in a stack (a float for one matrix)."""
    return x.max(axis=(-2, -1)).tolist()


def _exp_taus(w, u):
    """Yield exp(tau A) for tau in TAUS from A's ``sym_eig`` pair (w, U); I at 0."""
    yield np.broadcast_to(np.eye(w.shape[-1]), u.shape)
    for tau in TAUS[1:]:
        b = (u * np.exp(tau * w)[..., None, :]) @ np.swapaxes(u, -1, -2)
        yield (b := 0.5 * (b + np.swapaxes(b, -1, -2)))  # holds no unsymmetrized b


def _conjugation_devs(ep, em, c, s, diag, t_mat) -> list[list[float]]:
    """Per-mode peaks of |direct - decomposed| of the conjugations by e^{+-tau K}
    of the diagonal T of ``diag`` (broadcasts: the matmuls up to the sign of
    zeros) and of the dense ``t_mat``.  ``ep`` is e^{tau K} from eigh(K), ``em``
    e^{-tau K} from eigh(-K) (not (-w, U) to the last bit): eigh(tau A) is
    (tau w, U) exactly, tau being 2^n."""
    devs, at = [], np.arange(diag.shape[-1])

    def plus_diag(a):
        a[..., at, at] += diag
        return a

    # (T a, a T, a + T in place) of the diagonal T and of the dense T
    for left, right, plus in ((lambda a: diag[..., :, None] * a,
                               lambda a: a * diag[..., None, :], plus_diag),
                              (lambda a: t_mat @ a, lambda a: a @ t_mat,
                               lambda a: np.add(a, t_mat, out=a))):
        # T + {T, C} + C T C + S T S and -{T, S} - S T C - C T S, left to right
        ct, st = right(c), right(s)
        t1, t2 = plus(left(c) + ct), -left(s)  # -(a + b) is -a - b exactly
        t1 += ct @ c
        t1 += st @ s
        t2 -= st
        t2 -= st @ c
        t2 -= ct @ s
        del ct, st
        ept, emt = right(ep) @ ep, right(em) @ em
        diff = ept - emt
        ept += emt
        del emt
        t1 -= np.multiply(ept, 0.5, out=ept)
        t2 -= np.multiply(diff, 0.5, out=diff)
        devs += [_peaks(np.abs(t1)), _peaks(np.abs(t2))]
        del t1, t2, ept, diff
    return devs


def _trend_sups(kmat, c, s, lam) -> list[float]:
    """sup |entry| (lam_p + lam_q) of KK, KS, SC, KKK and SKC of one mode."""
    return [float(np.max(np.abs(prod) * (lam[:, None] + lam))) for prod in
            (kmat @ kmat, kmat @ s, s @ c, kmat @ kmat @ kmat, s @ kmat @ c)]


def _mode_values(cfg: LatticeConfig, pot: Potential):
    """(ks, modes, check values, reflection deviations, trend) per sampled mode."""
    ks = _mode_sample(cfg)
    modes = [mode[1:] for mode in _modes(ks, cfg, pot)]  # (gaps, V_k, v^2)
    n = len(ks)
    vals, refl, pending, trend = [None] * n, [None] * n, {}, {}
    # k and -k (rows i and n - 1 - i) side by side, so no K outlives its
    # mirror's batch; a batch holds at most about 13 (B, D, D) arrays, one
    # tau at a time: half batches keep a per-mode loop's memory
    sizes = np.array([lam.size for lam, _, _ in modes])
    pairs = np.ravel([np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)], order="F")
    for dim, batch in size_batches(sizes, pairs, share=2):
        lam, vsq = (np.array([modes[i][m] for i in batch]) for m in (0, 2))
        kmat = build_K(lam, vsq)
        nsd = np.max(np.linalg.eigvalsh(kmat), axis=-1).tolist()
        lower, upper, _ = sandwich_bounds(lam, vsq)
        sw_k = _peaks(-kmat - upper), _peaks(lower + kmat)
        vh_inv_v = (vsq * np.sum(1.0 / lam, axis=1))[:, None, None]
        c_scr = vh_inv_v / (1.0 + 2.0 * vh_inv_v)  # c_upper = c_scr upper
        diag, t_mat = (np.array(t) for t in zip(*(_conjugands(ks[i], dim) for i in batch)))
        eig = sym_eig(kmat)  # K's, for cosh, sinh and every exp(+tau K)
        sw_cs, hyper, dec, eye = [], [], [], np.eye(dim)
        for tau, ep, em in zip(TAUS, _exp_taus(*eig), _exp_taus(*sym_eig(-kmat))):
            c, s = csk_pair(kmat, tau, eig)
            hyper.append(_peaks(np.abs((c + eye) @ (c + eye) - s @ s - eye)))
            lower, upper, _ = sandwich_bounds(lam, vsq)  # rebuilt, not held
            sw_cs += [_peaks(s - tau * upper), _peaks(tau * lower - s),
                      _peaks(-c), _peaks(c - c_scr * upper)]
            del lower, upper
            dec += _conjugation_devs(ep, em, c, s, diag, t_mat)
            if tau == 1.0:  # the product-entry trend's modes, at tau = 1
                trend.update((i, _trend_sups(kmat[j], c[j], s[j], lam[j]))
                             for j, i in enumerate(batch.tolist()) if i < 4)
            del ep, em, c, s  # before the next tau's
        for j, i in enumerate(batch.tolist()):
            vals[i] = {"nsd": nsd[j], "sw_K": max(sw_k[0][j], sw_k[1][j]),
                       "sw_CS": max(0.0, *(v[j] for v in sw_cs)),
                       "hyperbolic": max(0.0, *(v[j] for v in hyper)),
                       "decomposition": max(0.0, *(v[j] for v in dec))}
            if (mate := pending.pop(n - 1 - i, None)) is None:
                pending[i] = kmat[j].copy()
            else:  # max |K_k - K_-k reversed| is the same from either side
                refl[i] = refl[n - 1 - i] = _peaks(np.abs(kmat[j] - mate[::-1, ::-1]))
        del kmat, t_mat, eig  # before the next batch's
    return ks, modes, vals, refl, trend


def check_mode(cfg: LatticeConfig, pot: Potential) -> list[CheckReport]:
    ks, modes, vals, refl, trend = _mode_values(cfg, pot)
    slack = 1e-10
    reports = []

    for key, tol, label in (("nsd", slack, "kernel_nsd"), ("sw_K", slack, "sandwich_K"),
                            ("sw_CS", slack, "sandwich_CS"),
                            ("hyperbolic", slack, "hyperbolic_identity"),
                            ("decomposition", 1e-9, "conjugation_decomposition")):
        # the first k of the largest value, as max keeps the first
        worst_k, worst = max(zip(ks, (v[key] for v in vals)), key=lambda kv: kv[1])
        reports.append(_assert_report(
            f"mode.{label}", worst, tol, f"worst at k={list(worst_k)}",
            {"k_f": cfg.k_f, "potential": pot.spec_string(), "taus": list(TAUS)},
            {"k": list(worst_k), "k_f": cfg.k_f, "potential": pot.spec_string()}))

    # kernel reflection: the lune of -k is the mirrored lune of k, reversed
    worst_k, worst = max(zip(ks, refl), key=lambda kv: kv[1])
    reports.append(_assert_report(
        "mode.kernel_reflection", worst, slack, f"worst at k={list(worst_k)}",
        {"k_f": cfg.k_f, "potential": pot.spec_string()},
        {"k": list(worst_k), "k_f": cfg.k_f}))

    # product-entry bound trend (constants unknown: diagnostic only)
    diag_rows = []
    for i, (k, (_, vhat, _)) in enumerate(zip(ks[:4], modes)):
        if vhat == 0.0:
            continue
        scale = cfg.k_f / min(1.0, cfg.k_f**2 / norm2(k))
        for label, sup in zip(("KK", "KS", "SC", "KKK", "SKC"), trend[i]):
            sup *= scale
            diag_rows.append({"k": list(k), "factors": label, "m": len(label), "sup": sup,
                              "sup_over_vhat_m": sup / vhat**len(label),
                              "sup_over_vhat_1": sup / vhat})
    reports.append(CheckReport(
        name="mode.product_entry_bound_trend", status="diagnostic",
        measured=max((r["sup_over_vhat_m"] for r in diag_rows), default=0.0),
        tolerance=None,
        worst_case="sup |entry| (lam_p+lam_q) k_F / min(1, k_F^2/|k|^2), "
                   "normalized by V_k^m and V_k^1 to record which exponent fits",
        params={"k_f": cfg.k_f, "potential": pot.spec_string(),
                "rows": diag_rows}))
    return reports


# ---------------------------------------------------------------------------
# cross-route checks


def _exchange_sum(k, pts: np.ndarray, gaps: np.ndarray, vhat: float,
                  cfg: LatticeConfig, pot: Potential) -> float:
    """Sum over xi in the ball of -V_k / (8 (2pi)^6 k_F^2) * sum_zeta sum_p
    V_{p+zeta-k} / (lam_p + lam_zeta)^2 over the hits zeta of xi in the lune:
    only k +- xi can hit, xi lying in the ball, and one or two hits (equal at
    xi = 0) add up in either order to the same float."""
    total = np.zeros(cfg.n_particles)
    n2 = np.einsum("ij,ij->i", cfg.ball_arr, cfg.ball_arr)
    for xi in (cfg.ball_arr, -cfg.ball_arr):
        z2 = np.sum((xi + k) ** 2, axis=1)
        hit = z2 > cfg.r2  # |z - k| = |xi| <= k_F for z = k + xi
        lam = (z2[hit] - n2[hit]) / 2.0
        total[hit] += np.sum(pot.at(pts + xi[hit, None]) / (gaps + lam[:, None]) ** 2, axis=1)
    # a xi without hits adds -0.0, which leaves the running sum as 0.0 would
    return sum((-vhat * total / (8.0 * TWO_PI_6 * cfg.k_f**2)).tolist())


def _pair_sum(k, cfg: LatticeConfig, pot: Potential) -> float:
    """sum_{p,q} V_k V_{p+q-k} / (lam_p + lam_q)^2 over the lune of k from its
    own ``lune_points`` call, added left to right in a double loop's order."""
    pts, gaps = lune_points(k, cfg)
    terms = evaluate(pot, k) * pot.at(pts[:, None] + (pts - k)) / (gaps[:, None] + gaps) ** 2
    return float(np.add.accumulate(terms.ravel())[-1])


def check_cross(cfg: LatticeConfig, pot: Potential) -> list[CheckReport]:
    ks = _mode_sample(cfg)[:6]
    modes = _modes(ks, cfg, pot)
    reports = []

    # spectral vs integral route, per mode and lune point
    worst, worst_rep = 0.0, None
    for k, (pts, lam, vhat, vsq) in zip(ks, modes):
        if vhat == 0.0:
            continue
        # the full lune is a deflated core with every multiplicity 1
        diag = cosh_minus_one_core(lam[None], np.ones((1, lam.size)), np.array([vsq]))[0]
        pref = vhat / (EIGHT_PI4 * cfg.k_f)
        for i in (0, lam.size // 2, lam.size - 1):  # one scalar integral each
            g, spec = float(lam[i]), float(diag[i])
            res = integrate(lambda s: ((s * s - g * g) / (s * s + g * g) ** 2
                                       / (1.0 + q_of_s(lam, s, vsq)))[None, :],
                            1, tol=CROSS_QUAD_TOL, seeds=(g, 10.0 * g))
            integ, err = pref * float(res.value[0]), pref * float(res.abs_error_estimate[0])
            dev = abs(spec - integ) - 10.0 * (err + 1e-13 * max(1.0, abs(spec)))
            if dev > worst:
                worst, worst_rep = dev, {"k": list(k), "zeta": pts[i].tolist(), "k_f": cfg.k_f,
                                         "potential": pot.spec_string()}
    reports.append(_assert_report(
        "cross.route_equivalence_per_mode", worst, 0.0,
        "spectral diagonal vs screened quadrature, slack minus 10x reported error",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))

    # rank-one resolvent diagonal vs dense inverse
    worst, worst_rep = 0.0, None
    for k, (_, h, _, vsq) in zip(ks[:4], modes):
        u = np.sqrt(h * vsq)
        for s in (0.0, 0.7, 5.0):
            dense = np.linalg.inv(np.diag(h**2) + 2.0 * np.outer(u, u) + s * s * np.eye(h.size))
            for i in range(h.size):
                got = rank1_resolvent_diag(h, u, s, i)
                dev = abs(got - dense[i, i]) / abs(dense[i, i])
                if dev > worst:
                    worst, worst_rep = dev, {"k": list(k), "s": s, "index": i, "k_f": cfg.k_f,
                                             "potential": pot.spec_string()}
    reports.append(_assert_report(
        "cross.rank1_resolvent_vs_dense", worst, 1e-10,
        "relative deviation of the updated resolvent diagonal",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))

    # screening identity 1 + 2<u, (h^2+s^2)^-1 u> = 1 + q(s)
    worst, worst_rep = 0.0, None
    draws = (8.0 * uniforms(CROSS_SEED, 5 * len(modes))).reshape(-1, 5).tolist()
    for k, (_, h, _, vsq), row in zip(ks, modes, draws):
        u = np.sqrt(h * vsq)
        for s in row:
            lhs = 1.0 + 2.0 * float(np.dot(u, u / (h**2 + s * s)))
            rhs = 1.0 + float(q_of_s(h, s, vsq))
            dev = abs(lhs - rhs) / rhs
            if dev > worst:
                worst, worst_rep = dev, {"k": list(k), "s": s, "k_f": cfg.k_f}
    reports.append(_assert_report(
        "cross.screening_identity", worst, 1e-12,
        "resolvent pairing equals the response function",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))

    # per-k exchange aggregation over the ball
    worst, worst_rep = 0.0, None
    for k, (pts, lam, vhat, _) in zip(ks[:3], modes):
        if vhat == 0.0:
            continue
        lhs = _exchange_sum(k, pts, lam, vhat, cfg, pot)
        rhs = -_pair_sum(k, cfg, pot) / (4.0 * TWO_PI_6 * cfg.k_f**2)
        dev = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        if dev > worst:
            worst, worst_rep = dev, {"k": list(k), "k_f": cfg.k_f,
                                     "potential": pot.spec_string()}
    reports.append(_assert_report(
        "cross.exchange_aggregation_identity", worst, 1e-12,
        "ball-summed per-mode exchange vs brute-force pair sum",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))
    return reports


def run_all(cfg: LatticeConfig, pot: Potential) -> list[CheckReport]:
    return check_lattice(cfg) + check_mode(cfg, pot) + check_cross(cfg, pot)


def any_failed(reports) -> bool:
    return any(r.status == "fail" for r in reports)


def reports_to_json(reports) -> str:
    def default(x):
        if hasattr(x, "item"):
            return x.item()
        raise TypeError(f"not JSON serializable: {type(x)}")

    return json.dumps([r.to_json_dict() for r in sorted(reports, key=lambda r: r.name)],
                      indent=2, sort_keys=True, default=default)
