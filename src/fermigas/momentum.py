"""Momentum distribution of the correlated trial state.

For an observable point xi the occupancy deviation splits into a
nonnegative pair-excitation (bosonization) part n_b and a nonpositive
exchange part n_ex.  n_b is computed by two mutually checking routes:

* spectral: sum_k sum_zeta <e_zeta, (cosh(-2K_k) - 1) e_zeta>, with
  zeta running over the lune hits of {xi, -xi, k+xi, k-xi};
* integral: per (k, zeta) the equivalent screened quadrature

      V_k / (8 pi^4 k_F) * int_0^inf (s^2 - lam^2) (s^2 + lam^2)^-2
                                      / (1 + q_k(s)) ds.

The two are equal per (k, zeta): resolving the rank-one update by
partial fractions turns the diagonal entry of cosh(-2K) - 1 into
exactly that screened integral (scalar case: both sides reduce to
c^2 lam / ((sqrt(M) + lam)^2 sqrt(M)) / 2 with c = 2 v^2 and
M = lam^2 + c lam).

Outside the Fermi ball the k-support is exactly finite; inside it the
k-sum is truncated with a cutoff-doubling policy and the last increment
is reported as the tail estimate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, Vec3, as_vec3,
                      d_intersection, k_support, neg, norm2, orbit_reduce,
                      truncated_k_vectors)
from .numerics import integrate_semi_infinite, integrate_semi_infinite_batch
from .potential import Potential, evaluate, load_table
from .quasiboson import (TWO_PI_6, TWO_PI_CUBED, Mode, build_mode,
                         cosh2k_minus_one_diag, q_of_s)

_BULK_CHUNK = 384

EIGHT_PI4 = 8.0 * np.pi**4


@dataclass
class MomentumBreakdown:
    """Per-point record of the occupancy deviation and its diagnostics."""

    xi: Vec3
    n_b: float
    n_ex: float
    route: str
    quad_error: float = 0.0
    tail_estimate: float = 0.0
    k_modes_used: int = 0
    converged: bool = True
    n_b_spectral: float | None = None
    n_b_integral: float | None = None
    discrepancy: float | None = None

    @property
    def n_total(self) -> float:
        return self.n_b + self.n_ex

    def to_json_dict(self) -> dict:
        out = {
            "xi": list(self.xi),
            "n_b": self.n_b,
            "n_ex": self.n_ex,
            "n_total": self.n_total,
            "quad_error": self.quad_error,
            "tail_estimate": self.tail_estimate,
            "k_modes_used": self.k_modes_used,
            "route": self.route,
            "converged": self.converged,
        }
        if self.route == "both":
            out["n_b_spectral"] = self.n_b_spectral
            out["n_b_integral"] = self.n_b_integral
            out["discrepancy"] = self.discrepancy
        return out


def _spectral_term(mode: Mode, zetas: Counter) -> float:
    """Sum over lune hits of the diagonal of cosh(-2K) - 1."""
    if mode.vhat == 0.0 or not zetas:
        return 0.0
    diag = cosh2k_minus_one_diag(mode)
    return float(sum(mult * diag[mode.lune.index_of(z)]
                     for z, mult in zetas.items()))


def _integral_term(mode: Mode, zetas: Counter,
                   quad_tol: float) -> tuple[float, float, bool]:
    """Screened-quadrature route for the same per-mode contribution."""
    if mode.vhat == 0.0 or not zetas:
        return 0.0, 0.0, True
    pref = mode.vhat / (EIGHT_PI4 * mode.k_f)
    total = 0.0
    err = 0.0
    ok = True
    for z, mult in sorted(zetas.items()):
        lam = mode.lune.lambdas[mode.lune.index_of(z)]

        def integrand(s, lam=lam):
            s2 = s * s
            return (s2 - lam * lam) / (s2 + lam * lam) ** 2 / (1.0 + q_of_s(mode, s))

        res = integrate_semi_infinite(integrand, tol=quad_tol,
                                      seeds=(lam, 10.0 * lam))
        total += mult * pref * res.value
        err += mult * pref * res.abs_error_estimate
        ok = ok and res.converged
    return total, err, ok


def _exchange_term(mode: Mode, zetas: Counter, pot: Potential) -> float:
    """-V_k / (8 (2pi)^6 k_F^2) * sum_zeta sum_p V_{p+zeta-k} / (lam_p + lam_zeta)^2."""
    if mode.vhat == 0.0 or not zetas or mode.dim == 0:
        return 0.0
    pts = np.array(mode.lune.points, dtype=np.int64)
    lam = mode.lune.lambdas
    kv = np.array(mode.k, dtype=np.int64)
    total = 0.0
    for z, mult in sorted(zetas.items()):
        zi = mode.lune.index_of(z)
        shift = np.array(z, dtype=np.int64) - kv
        args = pts + shift
        n2 = np.einsum("ij,ij->i", args, args).astype(float)
        if pot.is_radial:
            vhat2 = pot.from_norm2(n2)
        else:
            vhat2 = np.array([evaluate(pot, tuple(int(c) for c in a)) for a in args])
        total += mult * float(np.sum(vhat2 / (lam + lam[zi]) ** 2))
    return -mode.vhat * total / (8.0 * TWO_PI_6 * mode.k_f**2)


@dataclass
class _PerK:
    nb_spectral: float = 0.0
    nb_integral: float = 0.0
    n_ex: float = 0.0
    quad_error: float = 0.0
    converged: bool = True

    def __add__(self, other):
        return _PerK(self.nb_spectral + other.nb_spectral,
                     self.nb_integral + other.nb_integral,
                     self.n_ex + other.n_ex,
                     self.quad_error + other.quad_error,
                     self.converged and other.converged)


def _per_k(k: Vec3, xi: Vec3, cfg: LatticeConfig, pot: Potential,
           quad_tol: float, collapse: bool,
           want_spectral: bool, want_integral: bool) -> _PerK:
    zetas = Counter(d_intersection(k, xi, cfg, collapse_coincident=collapse))
    if not zetas:
        return _PerK()
    if evaluate(pot, k) == 0.0:
        return _PerK()
    mode = build_mode(k, cfg, pot)
    out = _PerK()
    if want_spectral:
        out.nb_spectral = _spectral_term(mode, zetas)
    if want_integral:
        out.nb_integral, out.quad_error, out.converged = _integral_term(
            mode, zetas, quad_tol)
    out.n_ex = _exchange_term(mode, zetas, pot)
    return out


def _bulk_chunk(lam: np.ndarray, vhat: np.ndarray, signs_idx, signs_mask,
                k_f: float, quad_tol: float, want_spectral: bool,
                want_integral: bool, weights: np.ndarray) -> _PerK:
    """Spectral/integral contributions for a chunk of full-lune modes.

    lam is the (c, N) gap table of the modes and vhat their couplings;
    signs_idx/signs_mask give, per sign channel of zeta = k +- xi, the
    lune index of zeta (constant: the lune of a full-lune mode is the
    shifted ball in ball order) and the per-mode hit mask |k +- xi| > k_F.
    """
    out = _PerK()
    vsq = vhat / (2.0 * TWO_PI_CUBED * k_f)
    c, n = lam.shape
    if want_spectral:
        u = np.sqrt(lam * vsq[:, None])
        m = np.einsum("ci,cj->cij", u, 2.0 * u)
        step = np.arange(n)
        m[:, step, step] += lam**2
        w, uvec = np.linalg.eigh(m)
        sw = np.sqrt(w)
        for idx, mask in zip(signs_idx, signs_mask):
            row2 = uvec[:, idx, :] ** 2
            lz = lam[:, idx]
            a = np.einsum("cj,cj->c", row2, sw) / lz
            ainv = np.einsum("cj,cj->c", row2, 1.0 / sw) * lz
            dval = 0.5 * (a + ainv) - 1.0
            out.nb_spectral += float(np.sum(weights * mask * dval))
    if want_integral:
        pref = vhat / (EIGHT_PI4 * k_f)
        for idx, mask in zip(signs_idx, signs_mask):
            if not np.any(mask):
                continue
            lz = lam[mask, idx]
            lam_m = lam[mask]
            vsq_m = vsq[mask]

            def family(s):
                s2 = s * s
                q = 2.0 * vsq_m[:, None] * np.einsum(
                    "cjm->cm", lam_m[:, :, None] / (s2[None, None, :]
                                                    + lam_m[:, :, None] ** 2))
                lz2 = lz[:, None] ** 2
                return (s2[None, :] - lz2) / (s2[None, :] + lz2) ** 2 / (1.0 + q)

            seed = float(np.exp(np.mean(np.log(lz))))
            vals, errs, _, ok = integrate_semi_infinite_batch(
                family, int(np.count_nonzero(mask)), tol=quad_tol,
                seeds=(seed, 10.0 * seed))
            out.nb_integral += float(np.sum(weights[mask] * pref[mask] * vals))
            out.quad_error += float(np.sum(weights[mask] * pref[mask] * errs))
            out.converged = out.converged and ok
    return out


def _bulk_exchange(lam, vhat, kn2, kdq, qpm_n2, signs_idx, signs_mask,
                   pot: Potential, k_f: float, weights) -> float:
    """Vectorized exchange sum for full-lune modes (radial potentials).

    The second potential argument p + zeta - k equals k + q +- xi, whose
    squared norm is |k|^2 + 2 k.(q +- xi) + |q +- xi|^2; kdq and qpm_n2
    carry those inner products and norms per sign channel.
    """
    total = np.zeros(lam.shape[0])
    for (idx, mask), kd, qn2 in zip(zip(signs_idx, signs_mask), kdq, qpm_n2):
        if not np.any(mask):
            continue
        arg_n2 = kn2[:, None] + 2.0 * kd + qn2[None, :]
        v2 = pot.from_norm2(arg_n2)
        lz = lam[:, idx]
        total += mask * np.sum(v2 / (lam + lz[:, None]) ** 2, axis=1)
    return -float(np.sum(weights * vhat * total)) / (8.0 * TWO_PI_6 * k_f**2)


def _eval_k_block(ks: list, xi: Vec3, cfg: LatticeConfig, pot: Potential,
                  quad_tol: float, collapse: bool, want_spectral: bool,
                  want_integral: bool) -> _PerK:
    """Evaluate a lex-sorted block of k vectors, orbit-reduced and batched.

    Modes whose lune is the full shifted ball (all of them once
    |k| > 2 k_F) go through the vectorized bulk path; the remaining few
    near the origin take the generic per-k path.  Orbit reduction under
    the stabilizer of xi is exact for the potential's symmetry class.
    """
    if not ks:
        return _PerK()
    pairs = orbit_reduce(ks, xi, pot.symmetry)

    bulk_ok = (pot.is_radial and norm2(xi) <= cfg.r2
               and not (collapse and xi != (0, 0, 0)))
    channels = [1, -1]
    if collapse and xi == (0, 0, 0):
        channels = [1]
    smalls = []
    bulk = []
    if bulk_ok:
        arr = np.array([k for k, _ in pairs], dtype=np.int64)
        ball = np.array(cfg.ball, dtype=np.int64)
        kq2 = (np.einsum("mi,ni->mn", arr, ball) * 2
               + np.einsum("mi,mi->m", arr, arr)[:, None]
               + np.einsum("ni,ni->n", ball, ball)[None, :])
        full = np.min(kq2, axis=1) > cfg.r2
        for i, (k, w) in enumerate(pairs):
            (bulk if full[i] else smalls).append(i)
        bulk_sel = np.array(bulk, dtype=int)
    else:
        smalls = list(range(len(pairs)))
        bulk_sel = np.array([], dtype=int)

    def small_work(i):
        k, w = pairs[i]
        part = _per_k(k, xi, cfg, pot, quad_tol, collapse,
                      want_spectral, want_integral)
        part.nb_spectral *= w
        part.nb_integral *= w
        part.n_ex *= w
        part.quad_error *= w
        return part

    total = sum((small_work(i) for i in smalls), _PerK())

    if bulk_sel.size:
        xv = np.array(xi, dtype=np.int64)
        ball = np.array(cfg.ball, dtype=np.int64)
        ball_list = list(cfg.ball)
        signs_idx = [ball_list.index(tuple(int(c) for c in (s * xv)))
                     for s in channels]
        qpm = [ball + s * xv for s in channels]
        qpm_n2 = [np.einsum("ni,ni->n", q, q).astype(float) for q in qpm]

        def bulk_work(sel):
            arr_b = np.array([pairs[i][0] for i in sel], dtype=np.int64)
            wts_b = np.array([pairs[i][1] for i in sel], dtype=float)
            kn2 = np.einsum("mi,mi->m", arr_b, arr_b).astype(float)
            vhat = pot.from_norm2(kn2)
            kq = np.einsum("mi,ni->mn", arr_b, ball).astype(float)
            # lam_{k, k+q} = (|k+q|^2 - |q|^2) / 2 = (|k|^2 + 2 k.q) / 2
            lam = 0.5 * (kn2[:, None] + 2.0 * kq)
            kdq = [np.einsum("mi,ni->mn", arr_b, q).astype(float) for q in qpm]
            masks = []
            for s, qn2, kd in zip(channels, qpm_n2, kdq):
                zn2 = kn2 + 2.0 * np.einsum("mi,i->m", arr_b,
                                            (s * xv).astype(float)) + norm2(xv)
                masks.append(zn2 > cfg.r2)
            part = _bulk_chunk(lam, vhat, signs_idx, masks, cfg.k_f,
                               quad_tol, want_spectral, want_integral, wts_b)
            part.n_ex = _bulk_exchange(lam, vhat, kn2, kdq, qpm_n2, signs_idx,
                                       masks, pot, cfg.k_f, wts_b)
            return part

        chunks = [bulk_sel[i:i + _BULK_CHUNK]
                  for i in range(0, bulk_sel.size, _BULK_CHUNK)]
        total = total + sum((bulk_work(c) for c in chunks), _PerK())
    return total


def _sum_over_support(xi: Vec3, cfg: LatticeConfig, pot: Potential,
                      policy: TailPolicy, quad_tol: float, collapse: bool,
                      want_spectral: bool, want_integral: bool):
    """Accumulate per-k contributions over the k-support of xi.

    Exact supports are summed outright (tail 0); truncated supports are
    doubled until every tracked component moves by less than the
    relative tail tolerance.  Reduction order is sorted-k.
    """
    def work(k):
        return _per_k(k, xi, cfg, pot, quad_tol, collapse,
                      want_spectral, want_integral)

    support = k_support(xi, cfg, policy)
    if support.exact:
        total = sum((work(k) for k in support.finite_part), _PerK())
        return total, 0.0, len(support.finite_part), total.converged

    k_cut = policy.initial_k_max(cfg)
    ks = truncated_k_vectors(xi, cfg, k_cut)
    total = _eval_k_block(ks, xi, cfg, pot, quad_tol, collapse,
                          want_spectral, want_integral)
    n_k = len(ks)
    tail = np.inf
    converged = False
    for _ in range(policy.max_doublings):
        new_cut = 2 * k_cut
        shell = truncated_k_vectors(xi, cfg, new_cut, k_min_excl=k_cut)
        inc = _eval_k_block(shell, xi, cfg, pot, quad_tol, collapse,
                            want_spectral, want_integral)
        new_total = total + inc
        n_k += len(shell)
        deltas = []
        for name in ("nb_spectral", "nb_integral", "n_ex"):
            if name == "nb_spectral" and not want_spectral:
                continue
            if name == "nb_integral" and not want_integral:
                continue
            new_v = getattr(new_total, name)
            deltas.append((abs(getattr(inc, name)), abs(new_v)))
        tail = max(d for d, _ in deltas)
        total, k_cut = new_total, new_cut
        if all(d <= policy.tail_tol * max(v, 1e-300) for d, v in deltas):
            converged = True
            break
    return total, float(tail), n_k, converged and total.converged


def n_boson_spectral(xi, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy | None = None,
                     collapse_coincident: bool = False) -> MomentumBreakdown:
    """Pair-excitation occupancy at xi by the spectral route."""
    policy = policy or TailPolicy()
    xv = as_vec3(xi)
    total, tail, n_k, ok = _sum_over_support(
        xv, cfg, pot, policy, 1e-9, collapse_coincident, True, False)
    return MomentumBreakdown(xi=xv, n_b=total.nb_spectral, n_ex=total.n_ex,
                             route="spectral", tail_estimate=tail,
                             k_modes_used=n_k, converged=ok)


def n_boson_integral(xi, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy | None = None, quad_tol: float = 1e-9,
                     collapse_coincident: bool = False) -> MomentumBreakdown:
    """Pair-excitation occupancy at xi by the screened-quadrature route."""
    policy = policy or TailPolicy()
    xv = as_vec3(xi)
    total, tail, n_k, ok = _sum_over_support(
        xv, cfg, pot, policy, quad_tol, collapse_coincident, False, True)
    return MomentumBreakdown(xi=xv, n_b=total.nb_integral, n_ex=total.n_ex,
                             route="integral", quad_error=total.quad_error,
                             tail_estimate=tail, k_modes_used=n_k, converged=ok)


def n_exchange(xi, cfg: LatticeConfig, pot: Potential,
               policy: TailPolicy | None = None,
               collapse_coincident: bool = False) -> float:
    """Exchange correction at xi (always <= 0 for nonnegative potentials)."""
    policy = policy or TailPolicy()
    total, _, _, _ = _sum_over_support(
        as_vec3(xi), cfg, pot, policy, 1e-9, collapse_coincident,
        False, False)
    return total.n_ex


def n_point(xi, cfg: LatticeConfig, pot: Potential,
            policy: TailPolicy | None = None, route: str = "auto",
            quad_tol: float = 1e-9,
            collapse_coincident: bool = False) -> MomentumBreakdown:
    """Full occupancy record n_b + n_ex at xi.

    route "auto" picks spectral outside the Fermi ball (finite support,
    no quadrature) and integral inside (the screening sum is shared
    across lune hits).  route "both" evaluates the two routes on the
    same k enumeration and reports their discrepancy; n_b is then taken
    from the spectral route.  The trial-state error term is not
    computable in closed form and is dropped throughout.
    """
    policy = policy or TailPolicy()
    xv = as_vec3(xi)
    if route == "auto":
        route = "spectral" if norm2(xv) > cfg.r2 else "integral"
    if route == "spectral":
        return n_boson_spectral(xv, cfg, pot, policy, collapse_coincident)
    if route == "integral":
        return n_boson_integral(xv, cfg, pot, policy, quad_tol,
                                collapse_coincident)
    if route != "both":
        raise ValueError(f"unknown route {route!r}")
    total, tail, n_k, ok = _sum_over_support(
        xv, cfg, pot, policy, quad_tol, collapse_coincident, True, True)
    return MomentumBreakdown(
        xi=xv, n_b=total.nb_spectral, n_ex=total.n_ex, route="both",
        quad_error=total.quad_error, tail_estimate=tail, k_modes_used=n_k,
        converged=ok, n_b_spectral=total.nb_spectral,
        n_b_integral=total.nb_integral,
        discrepancy=abs(total.nb_spectral - total.nb_integral))


@dataclass(frozen=True)
class Observable:
    """Finitely supported even weight f on momentum space."""

    values: Mapping[Vec3, float]

    def __post_init__(self):
        for xi, val in self.values.items():
            mirror = self.values.get(neg(xi))
            if mirror is None or mirror != val:
                raise ValueError(
                    f"observable must satisfy f(-xi) = f(xi); broken at {xi}")

    @staticmethod
    def ball_indicator(cfg: LatticeConfig) -> "Observable":
        """Indicator of the Fermi ball; its expectation counts excited pairs."""
        return Observable(values={p: 1.0 for p in cfg.ball})

    @staticmethod
    def delta(xi0) -> "Observable":
        """Symmetrized point mass at +-xi0."""
        xv = as_vec3(xi0)
        return Observable(values={xv: 1.0, neg(xv): 1.0})

    @staticmethod
    def from_mapping(values: Mapping[Sequence[int], float]) -> "Observable":
        return Observable(values={as_vec3(k): float(v) for k, v in values.items()})

    @staticmethod
    def load_table(path) -> "Observable":
        """Read "kx ky kz value" lines (same format as table potentials)."""
        return Observable(values=dict(load_table(path).table))

    def support(self) -> list[Vec3]:
        return sorted(xi for xi, v in self.values.items() if v != 0.0)


def n_weighted(f: Observable, cfg: LatticeConfig, pot: Potential,
               policy: TailPolicy | None = None, route: str = "auto",
               quad_tol: float = 1e-9) -> tuple[float, list[MomentumBreakdown]]:
    """Weighted sum over the support of f of f(xi) * (n_b + n_ex)(xi).

    The sum runs in sorted-xi order.  Returns the total and the
    per-point records.
    """
    policy = policy or TailPolicy()
    support = f.support()
    rows = [n_point(xi, cfg, pot, policy, route=route, quad_tol=quad_tol)
            for xi in support]
    total = sum(f.values[xi] * row.n_total for xi, row in zip(support, rows))
    return total, rows
