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

Outside the Fermi ball the k-support is exactly finite: the 2N points
+-xi - B, weight 1 per k.  Outside points share one pass over the
lex-sorted union of their supports, so a (sorted |k|, V_k) core that
several supports hold is solved once.  Inside it the k-sum
runs over shells k_lo < |k| <= k_hi doubled by ``lattice.doubled_sum``,
and the largest last increment of n_b and n_ex is the tail estimate.
A shell is ``lattice.k_shell`` under the potential's group G, less the
representatives whose lune meets no hit column: with O the orbit of xi,

    n(xi) = sum_{reps k} (w_k / |O|) sum_{x' in O + (-O)} h(k, k + x')

for the G-invariant summand h at a hit, O + (-O) the multiset union.
So the points of an orbit share every term, and as h does not depend
on xi, ``n_weighted`` runs all inside orbits as the rows of one doubled
sum (an inside ``n_point`` is its one-row case).  ``n_points`` runs
any list of points this way, and ``n_point`` is its one-point case.

Every k-sum runs on the mode blocks of ``quasiboson`` (its module
docstring states the gap-histogram, deflation and response identities),
in (|k|^2, orbit key) order.  A block holds at most ``_CHUNK`` rows and
``_LUNES`` lune-kernel entries (rows times N), however many points and
columns share it.  Per mode the candidate hit zeta = k + q_z has one
ball column q_z: inside the ball the columns are the points of every
O + (-O), and near and full lunes share the block; outside it they are
+-xi of each point, at the column of s xi - k where that point is in
the ball, and each support k hits one column of every point whose
support holds it.  A hit's spectral value and screened integral
depend only on its mode and its gap, so each runs once per distinct
(mode, gap) pair that some hit of the block reads: the deflated values
come from the block's eigensolves, one per orbit key and V_k (a group
cut by a block boundary is solved once, its values carried to the next
block), batched per histogram size, and the integrals from families of
at most ``_CHUNK`` pairs on the response table.  The point weights and the
masked exchange pair sum, which depends on the hit's column, run in
slices of at most as many hits as the block may hold rows, each hit
once for all points.  The plain per-k form, one full lune and one
scalar quadrature per hit, lives on as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping

import numpy as np

from .lattice import (LatticeConfig, TailPolicy, Vec3, as_vec3, doubled_sum,
                      k_shell, neg, norm2, orbit, orbit_key)
from .numerics import check_tol
from .potential import Potential, load_table
from .quasiboson import (TWO_PI_6, class_response, classes_at,
                         cosh_minus_one_classes, coupling_sq, mode_chunks,
                         response_integrals)

# rows per mode block, classes per integral family and hits per slice
_CHUNK = 384
# lune-kernel entries (rows x N) per mode block
_LUNES = 1 << 15
# column-table cells (support k x 2P columns) per group of outside points
_COLUMNS = 1 << 18

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
        """Every field and n_total; the two-route fields only for "both"."""
        out = asdict(self) | {"xi": list(self.xi), "n_total": self.n_total}
        if self.route != "both":
            for key in ("n_b_spectral", "n_b_integral", "discrepancy"):
                del out[key]
        return out


def _block_parts(ks: np.ndarray, wts: np.ndarray, cols: np.ndarray,
                 colw: np.ndarray, cfg: LatticeConfig, pot: Potential,
                 quad_tol: float, want_spectral: bool, want_integral: bool):
    """(P, 3) [n_b spectral, n_b integral, n_ex], (P,) quad errors and ok.

    ``ks`` is (m, 3) with weights ``wts``; ``cols`` holds the ball row of
    each candidate hit's column (module docstring; -1 for none), (m, c)
    or (c,) for all rows, and ``colw`` the (P, c) column weights of P
    points.  Every row has a hit: ``_hit_shell`` keeps only rows that
    meet a column, and each outside support row hits its own +-xi column.
    The k rows run in mode blocks of at most ``size`` rows (``_CHUNK``,
    and ``_LUNES`` lune-kernel entries).  A block's hits read their
    values per (mode, gap) pair (``_class_values``), which do not depend
    on the point; the point weights and the exchange sum, which depends
    on the hit's column, run after in slices of at most ``size`` hits,
    so that a slice's (hits, N) arrays stay within ``_LUNES`` entries.
    A route left out stays 0.
    """
    vhat = pot.at(ks)
    _, vcode = np.unique(vhat, return_inverse=True)
    # (orbit key, V_k) ids: < base^3 * #V_k, base = max |k_i| + 1, in int64
    gid = orbit_key(ks) * (vcode.max(initial=0) + 1) + vcode
    parts, qerr, ok = (np.zeros((colw.shape[0], 3)), np.zeros(colw.shape[0]),
                       np.ones(colw.shape[0], dtype=bool))
    size = max(1, min(_CHUNK, _LUNES // cfg.n_particles))
    carry = {}
    for rows, mask, lam in mode_chunks(ks, vhat, cfg, size):
        kc, vc = ks[rows], vhat[rows]
        # columns shared by all rows stay one (c,) array, broadcast
        col = np.broadcast_to(cols if cols.ndim == 1 else cols[rows],
                              (rows.size, colw.shape[1]))
        hit = np.flatnonzero((col >= 0)
                             & mask[np.arange(rows.size)[:, None], col])
        pair, spec, val, err, conv = _class_values(
            gid[rows], coupling_sq(vc, cfg.k_f), mask, lam, col, hit, quad_tol,
            want_spectral, want_integral, carry)
        for lo in range(0, hit.size, size):
            r, j = np.divmod(hit[lo:lo + size], col.shape[1])
            at = pair[lo:lo + size]
            w = wts[rows[r]] * colw[:, j]
            wv = w * vc[r]
            parts[:, 0] += w @ spec[at]
            parts[:, 1] += wv @ val[at] / (EIGHT_PI4 * cfg.k_f)
            qerr += wv @ err[at] / (EIGHT_PI4 * cfg.k_f)
            ok &= ~np.any(w[:, ~conv[at]], axis=1)
            parts[:, 2] -= wv @ _exchange_sums(
                kc[r], lam[r], mask[r], col[r, j], cfg, pot) / (
                    8.0 * TWO_PI_6 * cfg.k_f**2)
    return parts, qerr, ok


def _class_values(gid, vsq, mask, lam, col, hit, quad_tol, want_spectral,
                  want_integral, carry):
    """(pair, spec, val, err, conv) of the hits ``hit``, flat indices of ``col``.

    A hit's spectral value and screened integral depend only on its mode
    and its gap, so both run once per pair: per distinct (mode, gap)
    class of the block (``gap_classes``) that some hit reads.  ``pair``
    is each hit's pair; the rest are per pair: the spectral value, and
    the integral with its error and its family's converged flag.  The
    integrals run as families of at most ``_CHUNK`` pairs.  A route left
    out reads 0 and converged.  ``gid`` and ``vsq`` are per block row.
    """
    classes, cls = classes_at(mask, lam, col, hit)
    crows, cgaps, _ = classes
    read = np.zeros(crows.size, dtype=bool)
    read[cls] = True
    pairs = np.flatnonzero(read)
    pair = (np.cumsum(read) - 1)[cls]
    del cls, read
    spec = val = err = np.zeros(pairs.size)
    conv = np.ones(pairs.size, dtype=bool)
    if want_spectral:
        spec = _spectral_values(gid, vsq, classes, pairs, carry)
    if want_integral:
        val, err = np.empty(pairs.size), np.empty(pairs.size)
        for lo in range(0, pairs.size, _CHUNK):
            at = slice(lo, lo + _CHUNK)
            prow, lz = crows[pairs[at]], cgaps[pairs[at]]
            g, resp = class_response(classes, vsq, prow[0], prow[-1] + 1)
            lz2 = lz[:, None] ** 2
            qrow = prow - prow[0]
            val[at], err[at], conv[at] = response_integrals(
                lambda q, s2: (s2 - lz2) / (s2 + lz2) ** 2 / (1.0 + q[qrow]),
                resp, g, lz, quad_tol)
    return pair, spec, val, err, conv


def _spectral_values(gid, vsq, classes, pairs, carry) -> np.ndarray:
    """cosh(-2K) - 1 of the block rows at the classes ``pairs``.

    Modes of one group id ``gid`` (one gap histogram, fixed by the orbit
    key, and one V_k) share their values, so each pair reads its group's
    first mode, whose classes come in the same order.  Rows come in
    (|k|^2, orbit key) order, so a group cut by the block's end goes on
    at the next block's start: ``carry`` maps the id of each group of
    the previous block to its per-class values, and is replaced by this
    block's.  Every block row has a hit (``_block_parts``), so every
    group of the block is read, and solved or carried.
    """
    crows = classes[0]
    _, first, inv = np.unique(gid, return_index=True, return_inverse=True)
    head = first[inv]
    start = np.searchsorted(crows, np.arange(gid.size + 1))
    prow = crows[pairs]
    solve = np.zeros(gid.size, dtype=bool)
    solve[head[prow]] = True
    ids = gid.tolist()
    heads = np.flatnonzero(solve).tolist()
    known = [h for h in heads if ids[h] in carry]
    solve[known] = False
    vals = cosh_minus_one_classes(classes, vsq, np.flatnonzero(solve))
    for h in known:
        vals[start[h]:start[h + 1]] = carry[ids[h]]
    carry.clear()
    carry.update((ids[h], vals[start[h]:start[h + 1]].copy()) for h in heads)
    return vals[start[head[prow]] + pairs - start[prow]]


def _exchange_sums(kc, t, inside, qrow, cfg: LatticeConfig,
                   pot: Potential) -> np.ndarray:
    """(H,) exchange sums of H hits zeta = k + q_z, before weights.

    ``kc`` holds each hit's k, ``t`` and ``inside`` its lune gaps and
    mask on the ball (``t`` is overwritten) and ``qrow`` the ball row of
    q_z.  A hit sums V(p + zeta - k) / t^2 over p = k + q in the lune,
    with t = lam_p + lam_zeta and p + zeta - k = k + q + q_z; a radial V
    reads |k + q + q_z|^2 = 2 t - |k|^2 + |q + q_z|^2 (exact in
    integers).
    """
    ball = cfg.ball_arr
    qz = ball[qrow]
    t += t[np.arange(qrow.size), qrow][:, None]
    if pot.is_radial:
        arg = qz @ ball.T
        arg *= 2
        arg += np.einsum("ni,ni->n", ball, ball)
        arg += np.einsum("hi,hi->h", qz, qz)[:, None]
        v2 = 2.0 * t
        v2 -= np.einsum("hi,hi->h", kc, kc)[:, None]
        v2 += arg
        del arg
        v2 = pot.from_norm2(v2)
    else:
        arg = kc[:, None] + ball
        arg += qz[:, None]
        v2 = pot.at(arg)
        del arg
    t *= t
    np.divide(v2, t, out=v2, where=inside)
    v2[~inside] = 0.0
    return np.sum(v2, axis=1)


def _columns(orbs: list[np.ndarray],
             cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hit columns of inside points: the x' of O + (-O), O each point's orbit.

    Returns the ball rows of the distinct x' of all points, ascending,
    as a (c,) array, and the (P, c) weights mult / |O| of each point,
    mult the multiplicity of x' in its multiset union (0 off it).
    """
    sizes = np.array([orb.shape[0] for orb in orbs])
    both = cfg.ball_index(np.concatenate([np.concatenate([orb, -orb])
                                          for orb in orbs]))
    cols, col = np.unique(both, return_inverse=True)
    owner = np.repeat(np.arange(len(orbs)), 2 * sizes)
    mult = np.bincount(owner * cols.size + col,
                       minlength=len(orbs) * cols.size)
    return cols, mult.reshape(len(orbs), cols.size) / sizes[:, None]


def _hit_shell(orbs: list[np.ndarray], cfg: LatticeConfig, symmetry: str,
               k_lo: int, k_hi: int):
    """``k_shell`` of k_lo < |k| <= k_hi less the k whose lune misses every O + (-O).

    ``orbs`` are the orbits O of P inside points.  Returns the kept
    representatives, their weights and the (P,) number of shell k whose
    lune meets k +- xi: a representative of weight w whose lune meets
    k +- x' at h of the x' in O counts w h / |O| of them.
    """
    reps, wts = k_shell(k_lo, k_hi, symmetry)
    sizes = np.array([orb.shape[0] for orb in orbs])
    every = np.concatenate(orbs)
    kn2 = np.einsum("mi,mi->m", reps, reps)
    # |k + x'|^2 + |k - x'|^2 = 2 |k|^2 + 2 |xi|^2 > 2 r2 once |k|^2 > r2,
    # so each x' in O then hits at x' or at -x'
    near = np.flatnonzero(kn2 <= cfg.r2)
    hits = np.repeat(sizes[:, None], reps.shape[0], axis=1)
    meet = (kn2[near, None] + 2 * np.abs(reps[near] @ every.T)
            > cfg.r2 - np.einsum("ni,ni->n", every, every))
    hits[:, near] = np.add.reduceat(meet.astype(np.int64),
                                    np.cumsum(sizes) - sizes, axis=1).T
    keep = np.any(hits > 0, axis=0)
    return reps[keep], wts[keep], np.sum(wts * hits // sizes[:, None], axis=1)


_ROUTES = {"spectral": (True, False), "integral": (False, True),
           "both": (True, True)}


def _record(xi: Vec3, route: str, parts, tail, qerr, n_k,
            ok) -> MomentumBreakdown:
    """A point's record from its [n_b spectral, n_b integral, n_ex] parts."""
    spectral, integral, n_ex = map(float, parts)
    both = {"n_b_spectral": spectral, "n_b_integral": integral,
            "discrepancy": abs(spectral - integral)} if route == "both" else {}
    return MomentumBreakdown(
        xi=xi, n_b=integral if route == "integral" else spectral, n_ex=n_ex,
        route=route, quad_error=float(qerr), tail_estimate=float(tail),
        k_modes_used=int(n_k), converged=bool(ok), **both)


def _inside_rows(xis: list[Vec3], cfg: LatticeConfig, pot: Potential,
                 policy: TailPolicy, route: str,
                 quad_tol: float) -> list[MomentumBreakdown]:
    """Records of the inside points ``xis``: the rows of one doubled sum.

    Each shell and chunk is built once for all points (module docstring).
    """
    orbs = [orbit(xi, pot.symmetry) for xi in xis]
    cols, colw = _columns(orbs, cfg)

    def shell(k_lo, k_hi):
        reps, wts, n_k = _hit_shell(orbs, cfg, pot.symmetry, k_lo, k_hi)
        return (*_block_parts(reps, wts, cols, colw, cfg, pot, quad_tol,
                              *_ROUTES[route]), n_k)

    # a part the route leaves at 0 meets the stopping rule at every shell
    parts, tail, qerr, n_k, _, ok = doubled_sum(shell, cfg, policy)
    return [_record(xi, route, *row)
            for xi, *row in zip(xis, parts, tail, qerr, n_k, ok)]


def _route(route: str, outside: bool) -> str:
    """``route`` with "auto" resolved; ValueError on an unknown one."""
    route = {"auto": "spectral" if outside else "integral"}.get(route, route)
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return route


def _outside_rows(xs: list[Vec3], cfg: LatticeConfig, pot: Potential,
                  route: str, quad_tol: float) -> list[MomentumBreakdown]:
    """Records of the outside points ``xs``: the rows of one exact-support pass.

    The k rows are the lex-sorted union of the supports +-xi - B, weight
    1 each, and the columns are xi and -xi of each point, at 2i and
    2i + 1.  k = s xi - q hits the column s xi at the ball row q.  The
    two balls of one point are disjoint and miss 0, as |xi| > k_F, so
    every point has 2N support k.
    """
    pts = np.array([v for xv in xs for v in (xv, neg(xv))])
    ks = (pts[:, None] - cfg.ball_arr).reshape(-1, 3)
    _, first, at = np.unique(
        np.ravel_multi_index((ks - ks.min(0)).T, np.ptp(ks, axis=0) + 1),
        return_index=True, return_inverse=True)
    ks = ks[first]                    # lex-sorted, as the codes are
    n = cfg.n_particles
    cols = np.full((ks.shape[0], pts.shape[0]), -1)
    cols[at.reshape(-1, n), np.arange(pts.shape[0])[:, None]] = np.arange(n)
    parts, qerr, ok = _block_parts(ks, np.ones(ks.shape[0]), cols,
                                   np.repeat(np.eye(len(xs)), 2, axis=1), cfg,
                                   pot, quad_tol, *_ROUTES[route])
    return [_record(xv, route, row, 0.0, err, 2 * n, conv)
            for xv, row, err, conv in zip(xs, parts, qerr, ok)]


def n_points(xis, cfg: LatticeConfig, pot: Potential,
             policy: TailPolicy | None = None, route: str = "auto",
             quad_tol: float = 1e-9) -> list[MomentumBreakdown]:
    """Full occupancy records n_b + n_ex at the points ``xis``, in order.

    route "auto" picks spectral outside the Fermi ball (finite support,
    no quadrature) and integral inside (the screening sum is shared
    across lune hits).  route "both" evaluates the two routes on the
    same k enumeration and reports their discrepancy; n_b is then taken
    from the spectral route.  The trial-state error term is not
    computable in closed form and is dropped throughout.

    All inside points are the rows of one doubled sum.  The outside
    points, in (|xi|^2, sorted |xi|) order, run in groups of at most
    ``_COLUMNS`` column-table cells (``_outside_rows``), so that a
    core their supports share is solved once per group.  A record
    depends on the other points only through rounding; a repeated point
    runs once and gets copies of its record.
    """
    check_tol(quad_tol, "quad_tol")
    out_route = _route(route, True)
    xvs = [as_vec3(xi) for xi in xis]
    uniq = list(dict.fromkeys(xvs))
    outside = sorted((xv for xv in uniq if norm2(xv) > cfg.r2),
                     key=lambda xv: (norm2(xv), sorted(map(abs, xv))))
    inside = [xv for xv in uniq if norm2(xv) <= cfg.r2]
    records = {}
    if inside:
        records.update(zip(inside, _inside_rows(
            inside, cfg, pot, policy or TailPolicy(), _route(route, False),
            quad_tol)))
    # a group of P points has at most 2 P N support k and 2 P columns
    step = max(1, math.isqrt(_COLUMNS // (4 * cfg.n_particles)))
    for lo in range(0, len(outside), step):
        group = outside[lo:lo + step]
        records.update(zip(group, _outside_rows(group, cfg, pot, out_route,
                                                quad_tol)))
    return [replace(records[xv]) for xv in xvs]


def n_point(xi, cfg: LatticeConfig, pot: Potential,
            policy: TailPolicy | None = None, route: str = "auto",
            quad_tol: float = 1e-9) -> MomentumBreakdown:
    """Full occupancy record at xi: ``n_points`` of the one point."""
    return n_points([xi], cfg, pot, policy, route, quad_tol)[0]


@dataclass(frozen=True)
class Observable:
    """Finitely supported even weight f on momentum space."""

    values: Mapping[Vec3, float]

    def __post_init__(self):
        for xi, val in self.values.items():
            as_vec3(xi)
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
        ball = map(tuple, cfg.ball_arr.tolist())
        return Observable(values=dict.fromkeys(ball, 1.0))

    @staticmethod
    def delta(xi0) -> "Observable":
        """Symmetrized point mass at +-xi0."""
        xv = as_vec3(xi0)
        return Observable(values={xv: 1.0, neg(xv): 1.0})

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

    One record serves each orbit of the support under the potential's
    group (``lattice.point_group``), keyed by the first point of its
    ``orbit``: its points sum the same shells at the same hit columns,
    exactly at every cutoff.  The first points of the orbits, in sorted
    order, run through one ``n_points`` call.  The sum runs in sorted-xi
    order.
    Returns the total and the per-point records, each with its own xi.
    """
    support = f.support()
    keys = [tuple(orbit(xi, pot.symmetry)[0].tolist()) for xi in support]
    first = dict(zip(keys[::-1], support[::-1]))   # orbit key -> first point
    reps = list(first.values())
    by_point = dict(zip(reps, n_points(reps, cfg, pot, policy, route,
                                       quad_tol)))
    rows = [replace(by_point[first[key]], xi=xi)
            for xi, key in zip(support, keys)]
    total = sum(f.values[xi] * row.n_total for xi, row in zip(support, rows))
    return total, rows
