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
A shell is ``lattice.k_shell`` under the potential's group G, less the
representatives whose lune meets no hit column: with O the orbit of xi,

    n(xi) = sum_{reps k} (w_k / |O|) sum_{x' in O + (-O)} h(k, k + x')

for the G-invariant summand h at a hit, O + (-O) the multiset union.
So the points of an orbit share every term, and a weighted sum over an
observable (``n_weighted``) runs one point per orbit of its support.

Every k-sum runs on the mode blocks of ``quasiboson`` (its module
docstring states the gap-histogram, deflation and response identities),
chunks in (|k|^2, orbit key) order of at most ``_CHUNK`` candidate hits.
Per mode the candidate hit zeta = k + q_z has one ball column q_z:
inside the ball the columns are the points of O + (-O), and near and
full lunes share the block; outside it they are +-xi, at the column of
s xi - k where that point is in the ball, and each support k hits one.
All hits of a chunk share one spectral lookup (the deflated value at
the hit's gap, one eigensolve per orbit key and V_k), one batched
integral family on the response table and one masked exchange pair
sum.  The plain per-k form, one full lune and one scalar quadrature per
hit, lives on as a test oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, Vec3, as_vec3, doubled_sum,
                      k_shell, k_support, neg, norm2, orbit, orbit_key)
from .numerics import check_tol
from .potential import Potential, load_table
from .quasiboson import (TWO_PI_6, coupling_sq, cosh_minus_one_per_gap,
                         gap_response, mode_chunks, response_integrals)

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


def _block_parts(ks: np.ndarray, wts: np.ndarray, cols: np.ndarray,
                 colw: np.ndarray, cfg: LatticeConfig, pot: Potential,
                 quad_tol: float, want_spectral: bool, want_integral: bool):
    """[n_b spectral, n_b integral, n_ex], quad error and ok over k rows.

    ``ks`` is (m, 3) with weights ``wts``; ``cols`` holds the ball row of
    each candidate hit's column (module docstring; -1 for none), (m, c)
    or (c,) for all rows, and ``colw`` the (c,) column weights.  A route
    left out stays 0.
    """
    vhat = pot.at(ks)
    vsq = coupling_sq(vhat, cfg.k_f)
    cols = np.broadcast_to(cols, (ks.shape[0], colw.size))
    ball = cfg.ball_arr
    ball_n2 = np.einsum("ni,ni->n", ball, ball)
    parts, qerr, ok = np.zeros(3), 0.0, True
    # at most _CHUNK candidate hits (columns in the ball) per chunk
    per_row = int(np.max(np.count_nonzero(cols >= 0, axis=1), initial=1))
    for rows, mask, lam in mode_chunks(ks, vhat, cfg, _CHUNK // per_row):
        kc, col = ks[rows], cols[rows]
        r, j = np.nonzero((col >= 0)
                          & mask[np.arange(rows.size)[:, None], col])
        qrow = col[r, j]
        lz = lam[r, qrow]
        w = wts[rows][r] * colw[j]
        wv = w * vhat[rows][r]
        g, counts, resp = gap_response(mask, lam, vsq[rows])
        if want_spectral:
            # one eigensolve per gap histogram (fixed by the orbit key) and V_k
            _, vcode = np.unique(vhat[rows], return_inverse=True)
            key = orbit_key(kc) * (vcode.max(initial=0) + 1) + vcode
            _, rep, inv = np.unique(key, return_index=True, return_inverse=True)
            per_gap = cosh_minus_one_per_gap(g, counts[rep], vsq[rows][rep])
            parts[0] += float(w @ per_gap[inv[r], np.searchsorted(g, lz)])
        if want_integral and r.size:
            lz2 = lz[:, None] ** 2
            vals, errs, conv = response_integrals(
                lambda q, s2: (s2 - lz2) / (s2 + lz2) ** 2 / (1.0 + q[r]),
                resp, g, lz, quad_tol)
            parts[1] += float(wv @ vals) / (EIGHT_PI4 * cfg.k_f)
            qerr += float(wv @ errs) / (EIGHT_PI4 * cfg.k_f)
            ok = ok and conv
        # exchange: sum over p = k + q in the lune of V(p + zeta - k) / t^2
        # with t = lam_p + lam_zeta, zeta = k + q_z, and p + zeta - k =
        # k + q + q_z; a radial V reads |k + q + q_z|^2 = 2 t - |k|^2 +
        # |q + q_z|^2 (exact in integers)
        qz = ball[qrow]
        t = lam[r] + lz[:, None]
        if pot.is_radial:
            kn2 = np.einsum("mi,mi->m", kc, kc)
            v2 = pot.from_norm2(2.0 * t - kn2[r, None]
                                + (ball_n2 + np.einsum("hi,hi->h", qz, qz)[:, None]
                                   + 2 * qz @ ball.T))
        else:
            v2 = pot.at(kc[r, None] + ball + qz[:, None])
        terms = np.divide(v2, t**2, out=np.zeros(t.shape), where=mask[r])
        parts[2] -= float(wv @ np.sum(terms, axis=1)) / (8.0 * TWO_PI_6
                                                         * cfg.k_f**2)
    return parts, qerr, ok


def _columns(xi: Vec3, symmetry: str) -> tuple[np.ndarray, np.ndarray]:
    """Hit columns of an inside point: the points x' of O + (-O), O the orbit of xi.

    Returns the distinct x' as an (c, 3) array and their (c,) weights
    mult / |O|, mult the multiplicity of x' in the multiset union.
    """
    orb = orbit(xi, symmetry)
    both = Counter(map(tuple, np.concatenate([orb, -orb]).tolist()))
    return (np.array(list(both), dtype=np.int64).reshape(-1, 3),
            np.array(list(both.values())) / orb.shape[0])


def _hit_shell(xi: Vec3, cfg: LatticeConfig, symmetry: str, k_lo: int,
               k_hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``k_shell`` of k_lo < |k| <= k_hi less the k whose lune misses O + (-O).

    Returns the kept representatives, their weights and the number of
    shell k whose lune meets k +- xi: a representative of weight w whose
    lune meets k +- x' at h of the x' in O counts w h / |O| of them.
    """
    reps, wts = k_shell(k_lo, k_hi, symmetry)
    orb = orbit(xi, symmetry)
    kn2 = np.einsum("mi,mi->m", reps, reps)
    # |k + x'|^2 + |k - x'|^2 = 2 |k|^2 + 2 |xi|^2 > 2 r2 once |k|^2 > r2,
    # so each x' in O then hits at x' or at -x'
    near = np.flatnonzero(kn2 <= cfg.r2)
    hits = np.full(reps.shape[0], orb.shape[0])
    hits[near] = np.count_nonzero(
        kn2[near, None] + 2 * np.abs(reps[near] @ orb.T) > cfg.r2 - norm2(xi),
        axis=1)
    keep = hits > 0
    return reps[keep], wts[keep], int(np.sum(wts * hits // orb.shape[0]))


def _sum_over_support(xi: Vec3, cfg: LatticeConfig, pot: Potential,
                      policy: TailPolicy, quad_tol: float,
                      want_spectral: bool, want_integral: bool):
    """Accumulate per-k contributions over the k-support of xi.

    Exact supports (xi outside the ball) are one block (tail 0);
    truncated supports are ``_hit_shell`` shells at the columns
    ``_columns``, doubled until n_b and n_ex each move by less than the
    relative tail tolerance.  Returns (parts, tail, quad_err, n_k,
    converged), parts as ``_block_parts``.
    """
    support = k_support(xi, cfg)
    if support.exact:
        ks = support.finite_part
        cols = cfg.ball_index(np.array([xi, neg(xi)]) - ks[:, None])
        parts, qerr, ok = _block_parts(ks, np.ones(ks.shape[0]), cols,
                                       np.ones(2), cfg, pot, quad_tol,
                                       want_spectral, want_integral)
        return parts, 0.0, qerr, ks.shape[0], ok
    pts, colw = _columns(xi, pot.symmetry)
    cols = cfg.ball_index(pts)

    def shell(k_lo, k_hi):
        reps, wts, n_k = _hit_shell(xi, cfg, pot.symmetry, k_lo, k_hi)
        return (*_block_parts(reps, wts, cols, colw, cfg, pot, quad_tol,
                              want_spectral, want_integral), n_k)

    # a part the route leaves at 0 meets the stopping rule at every shell
    parts, tail, qerr, n_k, _, ok = doubled_sum(shell, cfg, policy)
    return parts, tail, qerr, n_k, ok


def n_boson_spectral(xi, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy | None = None) -> MomentumBreakdown:
    """Pair-excitation occupancy at xi by the spectral route."""
    return n_point(xi, cfg, pot, policy, route="spectral")


def n_boson_integral(xi, cfg: LatticeConfig, pot: Potential,
                     policy: TailPolicy | None = None,
                     quad_tol: float = 1e-9) -> MomentumBreakdown:
    """Pair-excitation occupancy at xi by the screened-quadrature route."""
    return n_point(xi, cfg, pot, policy, route="integral", quad_tol=quad_tol)


def n_exchange(xi, cfg: LatticeConfig, pot: Potential,
               policy: TailPolicy | None = None) -> float:
    """Exchange correction at xi (always <= 0 for nonnegative potentials)."""
    parts = _sum_over_support(as_vec3(xi), cfg, pot, policy or TailPolicy(),
                              1e-9, False, False)[0]
    return float(parts[2])


_ROUTES = {"spectral": (True, False), "integral": (False, True),
           "both": (True, True)}


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
    xv = as_vec3(xi)
    if route == "auto":
        route = "spectral" if norm2(xv) > cfg.r2 else "integral"
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}")
    parts, tail, qerr, n_k, ok = _sum_over_support(
        xv, cfg, pot, policy or TailPolicy(), quad_tol, *_ROUTES[route])
    spectral, integral, n_ex = parts.tolist()
    both = {"n_b_spectral": spectral, "n_b_integral": integral,
            "discrepancy": abs(spectral - integral)} if route == "both" else {}
    return MomentumBreakdown(
        xi=xv, n_b=integral if route == "integral" else spectral, n_ex=n_ex,
        route=route, quad_error=qerr, tail_estimate=tail, k_modes_used=n_k,
        converged=ok, **both)


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

    One ``n_point`` runs per orbit of the support under the potential's
    group (``lattice.point_group``: the 48 signed permutations when
    radial, +-1 when even, the identity otherwise), at the orbit's first
    point in sorted order; its other points reuse that record with their
    own xi.  Points are keyed by the first point of their ``orbit``.  The
    reuse is exact for every truncated sum, not only in the limit: every
    point of an orbit sums the same shells over the same hit columns.
    The sum runs in sorted-xi order.  Returns the total and the
    per-point records.
    """
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    support = f.support()
    by_orbit: dict[Vec3, MomentumBreakdown] = {}
    rows = []
    for xi in support:
        key = tuple(orbit(xi, pot.symmetry)[0].tolist())
        row = by_orbit.get(key)
        if row is None:
            row = by_orbit[key] = n_point(xi, cfg, pot, policy, route=route,
                                          quad_tol=quad_tol)
        rows.append(replace(row, xi=xi))
    total = sum(f.values[xi] * row.n_total for xi, row in zip(support, rows))
    return total, rows
