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
kept across points.  A weighted sum over an observable (``n_weighted``)
runs one point per orbit of its support under the potential's group.

Every k-sum runs on the mode blocks of ``quasiboson`` (its module
docstring states the gap-histogram, deflation and response identities),
chunks of up to ``_CHUNK`` modes in (|k|^2, orbit key) order.  Per mode
and sign s the candidate hit zeta = k + q_z has one ball column q_z:
inside the ball the hits are k +- xi, at the fixed columns +-xi, and
near and full lunes share the block; outside it they are +-xi, at the
column of s xi - k where that point is in the ball, and each support k
hits one.  Spectral: the deflated value at the hit's gap, one
eigensolve per orbit key and V_k in a chunk.  Integral: one batched
family per sign and chunk on the response table.  The exchange part is
no histogram function and stays a masked pair sum.  The plain per-k
form, one full lune and one scalar quadrature per hit, lives on as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, Vec3, as_vec3, ball_array,
                      doubled_sum, image_keys, k_support, neg, norm2,
                      orbit_key, orbit_reduce, stabilizer_group)
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


def _block_parts(ks: np.ndarray, wts: np.ndarray, xi: Vec3,
                 cfg: LatticeConfig, pot: Potential, quad_tol: float,
                 want_spectral: bool, want_integral: bool):
    """[n_b spectral, n_b integral, n_ex], quad error and ok over k rows.

    ``ks`` is (m, 3) with weights ``wts``; a route left out stays 0.  The
    lune mask at the ball column of each candidate hit (module docstring;
    -1 for none) says whether it hits.
    """
    inside = norm2(xi) <= cfg.r2
    vhat = pot.at(ks)
    vsq = coupling_sq(vhat, cfg.k_f)
    wpref, wvhat = wts * (vhat / (EIGHT_PI4 * cfg.k_f)), wts * vhat
    cols = np.broadcast_to(cfg.ball_index(np.array([xi, neg(xi)])
                                          - (0 if inside else ks[:, None])),
                           (ks.shape[0], 2))
    ball = cfg.ball_arr
    parts, qerr, ok = np.zeros(3), 0.0, True
    for rows, mask, lam in mode_chunks(ks, vhat, cfg, _CHUNK):
        kc, at = ks[rows], np.arange(rows.size)
        hits = [(col, (col >= 0) & mask[at, col], lam[at, col])
                for col in cols[rows].T]
        chunk, chunk_err = np.zeros(3), 0.0
        g, counts, resp = gap_response(mask, lam, vsq[rows])
        if want_spectral:
            # one eigensolve per gap histogram (fixed by the orbit key) and V_k
            _, vcode = np.unique(vhat[rows], return_inverse=True)
            key = orbit_key(kc) * (vcode.max(initial=0) + 1) + vcode
            _, rep, inv = np.unique(key, return_index=True, return_inverse=True)
            per_gap = cosh_minus_one_per_gap(g, counts[rep], vsq[rows][rep])
            for _, hit, lz in hits:
                val = per_gap[inv[hit], np.searchsorted(g, lz[hit])]
                chunk[0] += float(wts[rows][hit] @ val)
        if want_integral:
            for _, hit, lz in hits:
                if not np.any(hit):
                    continue
                lz2 = lz[hit, None] ** 2
                vals, errs, conv = response_integrals(
                    lambda q, s2: (s2 - lz2) / (s2 + lz2) ** 2 / (1.0 + q),
                    resp[hit], g, lz[hit], quad_tol)
                chunk[1] += float(np.sum(wpref[rows][hit] * vals))
                chunk_err += float(np.sum(wpref[rows][hit] * errs))
                ok = ok and conv
        # exchange: sum over p = k + q in the lune of V(p + zeta - k) / t^2
        # with t = lam_p + lam_zeta, zeta = k + q_z, and p + zeta - k =
        # k + q + q_z; a radial V reads |k + q + q_z|^2 = 2 t - |k|^2 +
        # |q + q_z|^2 (exact in integers)
        ex = 0.0
        kn2 = np.einsum("mi,mi->m", kc, kc)
        for col, hit, lz in hits:
            qz = ball[col[hit]]
            t = lam[hit] + lz[hit, None]
            if pot.is_radial:
                v2 = pot.from_norm2(2.0 * t - kn2[hit, None]
                                    + (np.einsum("ni,ni->n", ball, ball)
                                       + np.einsum("hi,hi->h", qz, qz)[:, None]
                                       + 2 * qz @ ball.T))
            else:
                v2 = pot.at(kc[hit, None] + ball + qz[:, None])
            terms = np.divide(v2, t**2, out=np.zeros(t.shape), where=mask[hit])
            ex += float(wvhat[rows][hit] @ np.sum(terms, axis=1))
        chunk[2] = -ex / (8.0 * TWO_PI_6 * cfg.k_f**2)
        parts += chunk
        qerr += chunk_err
    return parts, qerr, ok


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

    Exact supports (xi outside the ball) are one block (tail 0);
    truncated supports are orbit-reduced shells, doubled until n_b and
    n_ex each move by less than the relative tail tolerance.  Returns
    (parts, tail, quad_err, n_k, converged), parts as ``_block_parts``.
    """
    support = k_support(xi, cfg)
    if support.exact:
        ks = support.finite_part
        parts, qerr, ok = _block_parts(ks, np.ones(ks.shape[0]), xi, cfg, pot,
                                       quad_tol, want_spectral, want_integral)
        return parts, 0.0, qerr, ks.shape[0], ok

    def shell(k_lo, k_hi):
        reps, wts = _inside_shell(xi, cfg, pot.symmetry, k_lo, k_hi)
        return (*_block_parts(reps, wts, xi, cfg, pot, quad_tol, want_spectral,
                              want_integral), int(wts.sum()))

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
    group (``stabilizer_group`` of 0: the 48 signed permutations when
    radial, +-1 when even, the identity otherwise), at the orbit's first
    point in sorted order; its other points reuse that record with their
    own xi.  The reuse is exact for every truncated sum, not only in the
    limit: the ball, each shell k_lo < |k| <= k_hi, the lune test and V
    are invariant under the group, so an orbit's points share the same
    terms, summed in another order (they differ at rounding level, up
    to the quadrature tolerance for the integral route).  The sum runs
    in sorted-xi order.  Returns the total and the per-point records.
    """
    check_tol(quad_tol, "quad_tol")
    policy = policy or TailPolicy()
    support = f.support()
    keys, _ = image_keys(np.array(support, dtype=np.int64).reshape(-1, 3),
                         stabilizer_group((0, 0, 0), pot.symmetry))
    by_orbit: dict[int, MomentumBreakdown] = {}
    rows = []
    for xi, key in zip(support, keys.min(axis=1).tolist()):
        row = by_orbit.get(key)
        if row is None:
            row = by_orbit[key] = n_point(xi, cfg, pot, policy, route=route,
                                          quad_tol=quad_tol)
        rows.append(replace(row, xi=xi))
    total = sum(f.values[xi] * row.n_total for xi, row in zip(support, rows))
    return total, rows
