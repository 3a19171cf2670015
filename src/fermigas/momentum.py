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

Outside the Fermi ball the k-support is exactly finite: one lex-sorted
(n, 3) array from ``k_support``, weight 1 per k.  Inside it the k-sum
runs over shells k_lo < |k| <= k_hi doubled by ``lattice.doubled_sum``,
and the largest last increment of n_b and n_ex is the tail estimate.
A shell is the ``orbit_reduce`` of its points under the stabilizer of
xi, less the representatives whose lune misses k +- xi; no shell is
kept across points.

The k-sum of every potential runs over masked mode blocks: one (m, N)
lune mask and gap table per chunk, with per mode and sign s one ball
column q_z of the candidate hit zeta = k + q_z.  Inside the ball the
hits are k +- xi, at the fixed columns +-xi, and near and full lunes
share the block; outside it they are +-xi, at the column of s xi - k
where that point is in the ball, and each support k hits one.  n_b
sees a lune only through its gap histogram (gaps lam_d, multiplicities
m_d).  Spectral: the core h^2 + 2 u u^T deflates exactly to
diag(lam_d^2) + 2 w w^T, w_d^2 = m_d lam_d v^2 (Golub 1973), and
cosh(-2K) - 1 at a point of gap d is c_d / m_d, c the deflated diagonal;
the histogram is invariant under the 48 signed permutations of k, as
the ball is, so modes with equal sorted |k| and equal V_k share one
eigensolve.  Integral: q_k(s) = sum_g C[k, g] / (s^2 + g^2) is one
matmul over the block's distinct gaps g, with C[k, g] = 2 v^2 m_g g.
The exchange part is no histogram function and stays a masked pair
sum.  The plain per-k form, one full lune and one scalar quadrature per
hit, lives on as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, Vec3, as_vec3, ball_array,
                      doubled_sum, gap_counts, k_support, lune_kernel, neg,
                      norm2, orbit_key, orbit_reduce)
from .numerics import check_tol, integrate_semi_infinite_batch
from .potential import Potential, load_table
from .quasiboson import TWO_PI_6, TWO_PI_CUBED

_CHUNK = 384

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


def _cosh_minus_one_per_gap(g: np.ndarray, counts: np.ndarray,
                            vsq: np.ndarray) -> np.ndarray:
    """(cosh(-2K) - 1)_pp at a lune point p of each gap, on the gap axis g.

    Deflated to the gap histogram (module docstring): one batched eigh
    per histogram size D.
    """
    out = np.zeros(counts.shape)
    sizes = np.count_nonzero(counts, axis=1)
    # not np.unique: without extra outputs it imports numpy.ma (~1 MB)
    for d in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == d)
        nz = np.nonzero(counts[rows])
        m = counts[rows][nz].reshape(-1, d)
        lam = g[nz[1]].reshape(-1, d)
        w = np.sqrt(m * lam * vsq[rows, None])
        core = 2.0 * w[:, :, None] * w[:, None, :]
        step = np.arange(d)
        core[:, step, step] += lam**2
        ev, vec = np.linalg.eigh(core)
        sw = np.sqrt(ev)[:, None, :]
        a = np.sum(vec**2 * sw, axis=2) / lam
        ainv = np.sum(vec**2 / sw, axis=2) * lam
        out[rows[nz[0]], nz[1]] = ((0.5 * (a + ainv) - 1.0) / m).ravel()
    return out


def _mode_chunk(arr, wts, vhat, cols, cfg: LatticeConfig, pot: Potential,
                quad_tol: float, want_spectral: bool,
                want_integral: bool) -> _PerK:
    """Spectral, integral and exchange sums over one chunk of modes.

    ``cols`` is (m, channels): per mode and channel the ball column q of
    the candidate hit zeta = k + q, -1 for none; the lune mask at that
    column says whether zeta hits.
    """
    out = _PerK()
    mask, lam = lune_kernel(arr, cfg)
    g, counts = gap_counts(mask, lam)
    vsq = vhat / (2.0 * TWO_PI_CUBED * cfg.k_f)
    rows = np.arange(arr.shape[0])
    hits = [(col, (col >= 0) & mask[rows, col], lam[rows, col])
            for col in cols.T]
    if want_spectral:
        # the eigensolve depends on k through the gap histogram, fixed by
        # the orbit key, and through V_k, fixed by it too when V is radial
        _, vcode = np.unique(vhat, return_inverse=True)
        key = orbit_key(arr) * (vcode.max(initial=0) + 1) + vcode
        _, rep, inv = np.unique(key, return_index=True, return_inverse=True)
        per_gap = _cosh_minus_one_per_gap(g, counts[rep], vsq[rep])
        for _, hit, lz in hits:
            val = per_gap[inv[hit], np.searchsorted(g, lz[hit])]
            out.nb_spectral += float(wts[hit] @ val)
    if want_integral:
        # q_k(s) = sum_g C[k, g] / (s^2 + g^2) with C[k, g] = 2 v_k^2 m_g g
        resp = 2.0 * vsq[:, None] * counts * g
        pref = vhat / (EIGHT_PI4 * cfg.k_f)
        for _, hit, lz in hits:
            if not np.any(hit):
                continue
            resp_h, lz2 = resp[hit], lz[hit, None] ** 2

            def family(s):
                s2 = s * s
                q = resp_h @ (1.0 / (s2[None, :] + g[:, None] ** 2))
                return (s2 - lz2) / (s2 + lz2) ** 2 / (1.0 + q)

            seed = float(np.exp(np.mean(np.log(lz[hit]))))
            vals, errs, _, ok = integrate_semi_infinite_batch(
                family, int(np.count_nonzero(hit)), tol=quad_tol,
                seeds=(seed, 10.0 * seed))
            out.nb_integral += float(np.sum((wts * pref)[hit] * vals))
            out.quad_error += float(np.sum((wts * pref)[hit] * errs))
            out.converged = out.converged and ok
    # exchange: sum over p = k + q in the lune of V(p + zeta - k) / t^2
    # with t = lam_p + lam_zeta, zeta = k + q_z, and p + zeta - k =
    # k + q + q_z; a radial V reads |k + q + q_z|^2 = 2 t - |k|^2 +
    # |q + q_z|^2 (exact in integers)
    ex = 0.0
    kn2 = np.einsum("mi,mi->m", arr, arr)
    ball = cfg.ball_arr
    for col, hit, lz in hits:
        qz = ball[col[hit]]
        t = lam[hit] + lz[hit, None]
        if pot.is_radial:
            v2 = pot.from_norm2(2.0 * t - kn2[hit, None]
                                + (np.einsum("ni,ni->n", ball, ball)
                                   + np.einsum("hi,hi->h", qz, qz)[:, None]
                                   + 2 * qz @ ball.T))
        else:
            v2 = pot.at(arr[hit, None] + ball + qz[:, None])
        terms = np.divide(v2, t**2, out=np.zeros(t.shape), where=mask[hit])
        ex += float((vhat * wts)[hit] @ np.sum(terms, axis=1))
    out.n_ex = -ex / (8.0 * TWO_PI_6 * cfg.k_f**2)
    return out


def _eval_k_block(arr: np.ndarray, wts: np.ndarray, xi: Vec3,
                  cfg: LatticeConfig, pot: Potential, quad_tol: float,
                  want_spectral: bool, want_integral: bool) -> _PerK:
    """Evaluate (m, 3) k vectors of weights ``wts`` at xi, for every potential.

    Inside the ball the hits are k + s xi and the modes run in chunks
    sorted by |k|^2 and orbit key, so modes sharing a gap histogram sit
    together; outside it the hits are s xi and the chunks keep the order
    of ``arr``.
    """
    inside = norm2(xi) <= cfg.r2
    kn2 = np.einsum("mi,mi->m", arr, arr)
    vhat = pot.at(arr)
    # ball column of zeta - k per sign s = +-1: k + s xi - k inside,
    # s xi - k outside (off the ball, -1, where s xi misses the lune of k)
    cols = cfg.ball_index(np.array([xi, neg(xi)])
                          - (0 if inside else arr[:, None]))
    cols = np.broadcast_to(cols, (arr.shape[0], 2))
    order = (np.lexsort((orbit_key(arr), kn2)) if inside
             else np.arange(arr.shape[0]))
    order = order[vhat[order] != 0.0]
    total = _PerK()
    for start in range(0, order.size, _CHUNK):
        sel = order[start:start + _CHUNK]
        total = total + _mode_chunk(arr[sel], wts[sel], vhat[sel], cols[sel],
                                    cfg, pot, quad_tol, want_spectral,
                                    want_integral)
    return total


def _inside_shell(xi: Vec3, cfg: LatticeConfig, symmetry: str, k_lo: int,
                  k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, weights) of the k, k_lo < |k| <= k_hi, whose lune meets k +- xi.

    The shell is orbit-reduced under the stabilizer of xi first; the
    lune test is invariant under it, so it keeps or drops whole orbits.
    """
    reps, wts = orbit_reduce(ball_array(k_hi * k_hi, k_lo * k_lo), xi,
                             symmetry)
    keep = np.zeros(reps.shape[0], dtype=bool)
    for zeta in (reps + xi, reps - xi):
        keep |= np.einsum("ij,ij->i", zeta, zeta) > cfg.r2
    return reps[keep], wts[keep]


def _sum_over_support(xi: Vec3, cfg: LatticeConfig, pot: Potential,
                      policy: TailPolicy, quad_tol: float,
                      want_spectral: bool, want_integral: bool):
    """Accumulate per-k contributions over the k-support of xi.

    Exact supports (xi outside the ball) are one block in the support's
    lex order (tail 0); truncated supports are orbit-reduced shells,
    doubled until n_b and n_ex each move by less than the relative tail
    tolerance.  Returns (total, tail, n_k, converged).
    """
    def block(arr, wts):
        return _eval_k_block(arr, wts, xi, cfg, pot, quad_tol, want_spectral,
                             want_integral)

    support = k_support(xi, cfg)
    if support.exact:
        ks = support.finite_part
        total = block(ks, np.ones(ks.shape[0]))
        return total, 0.0, ks.shape[0], total.converged

    def shell(k_lo, k_hi):
        reps, wts = _inside_shell(xi, cfg, pot.symmetry, k_lo, k_hi)
        t = block(reps, wts)
        return (np.array([t.nb_spectral, t.nb_integral, t.n_ex]),
                t.quad_error, t.converged, int(wts.sum()))

    # a part the route leaves at 0 meets the stopping rule at every shell
    parts, tail, qerr, n_k, _, ok = doubled_sum(shell, cfg, policy)
    return _PerK(*parts.tolist(), qerr, ok), tail, n_k, ok


def n_boson_spectral(xi, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy | None = None) -> MomentumBreakdown:
    """Pair-excitation occupancy at xi by the spectral route."""
    policy = policy or TailPolicy()
    xv = as_vec3(xi)
    total, tail, n_k, ok = _sum_over_support(xv, cfg, pot, policy, 1e-9,
                                             True, False)
    return MomentumBreakdown(xi=xv, n_b=total.nb_spectral, n_ex=total.n_ex,
                             route="spectral", tail_estimate=tail,
                             k_modes_used=n_k, converged=ok)


def n_boson_integral(xi, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy | None = None,
                     quad_tol: float = 1e-9) -> MomentumBreakdown:
    """Pair-excitation occupancy at xi by the screened-quadrature route."""
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    xv = as_vec3(xi)
    total, tail, n_k, ok = _sum_over_support(xv, cfg, pot, policy, quad_tol,
                                             False, True)
    return MomentumBreakdown(xi=xv, n_b=total.nb_integral, n_ex=total.n_ex,
                             route="integral", quad_error=total.quad_error,
                             tail_estimate=tail, k_modes_used=n_k, converged=ok)


def n_exchange(xi, cfg: LatticeConfig, pot: Potential,
               policy: TailPolicy | None = None) -> float:
    """Exchange correction at xi (always <= 0 for nonnegative potentials)."""
    policy = policy or TailPolicy()
    total, _, _, _ = _sum_over_support(as_vec3(xi), cfg, pot, policy, 1e-9,
                                       False, False)
    return total.n_ex


def n_point(xi, cfg: LatticeConfig, pot: Potential,
            policy: TailPolicy | None = None, route: str = "auto",
            quad_tol: float = 1e-9) -> MomentumBreakdown:
    """Full occupancy record n_b + n_ex at xi.

    route "auto" picks spectral outside the Fermi ball (finite support,
    no quadrature) and integral inside (the screening sum is shared
    across lune hits).  route "both" evaluates the two routes on the
    same k enumeration and reports their discrepancy; n_b is then taken
    from the spectral route.  The trial-state error term is not
    computable in closed form and is dropped throughout.
    """
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    xv = as_vec3(xi)
    if route == "auto":
        route = "spectral" if norm2(xv) > cfg.r2 else "integral"
    if route == "spectral":
        return n_boson_spectral(xv, cfg, pot, policy)
    if route == "integral":
        return n_boson_integral(xv, cfg, pot, policy, quad_tol)
    if route != "both":
        raise ValueError(f"unknown route {route!r}")
    total, tail, n_k, ok = _sum_over_support(xv, cfg, pot, policy, quad_tol,
                                             True, True)
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
            if not np.isfinite(val):
                raise ValueError(f"observable weight at {xi} must be finite, "
                                 f"got {val}")
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
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    support = f.support()
    rows = [n_point(xi, cfg, pot, policy, route=route, quad_tol=quad_tol)
            for xi in support]
    total = sum(f.values[xi] * row.n_total for xi, row in zip(support, rows))
    return total, rows
