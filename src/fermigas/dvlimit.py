"""Continuum high-density comparison formulas.

These are the thermodynamic-limit counterparts of the discrete results,
for side-by-side tables at momenta outside the Fermi ball: a
Lindhard-type response q_dv in closed form, the screened two-variable
quadrature n_b_dv, and the second-order exchange integral n_ex_dv done
by importance-sampled Monte Carlo.  Both take the points of one k_F
together.  The points of one n_b_dv call are the members of one outer
family, and the inner s-integrals at all their nodes of one outer panel
are one shared-panel family: each point's value differs from its lone
run by less than the two error estimates, and a lone point is a family
of one.  The points of one n_ex_dv call share one sample set: each
point's estimate equals its lone run, and the estimates at different
points are correlated.

The exchange integral

    -(k_F^2 a^2 / 4) int dk/|k|^2 int_{|p|<k_F} dp
        [k.(p-xi)]^-2 |p-xi|^-2   over |p+k| > k_F

is taken over the k-region |k - xi| <= k_F carried over from the
discrete support.  That region does not keep k.(p-xi) from 0: the sheet
k.(p-xi) = 0 meets it, so the integrand is unbounded, the sampled weight
heavy-tailed, and neither the estimate nor its standard error is to be
trusted (nor is the integral shown to be finite).

Sampling reduces the six dimensions analytically by the common azimuth
about xi (a factor 2pi); |k| is drawn uniformly on its interval, which
folds the 1/|k|^2 kernel into the radial volume factor |k|^2 d|k|.  The
samples come in a fixed number of shards (``_SHARDS``).  Shard i of n
samples reads draws 0 .. 5n - 1 of the counter-based SplitMix64 stream
``numerics.uniforms`` of key (seed << 8) + i, as five rows of n in the
order r, u, rho, z, phi; the shards are reduced in index order, so
results are reproducible on every platform.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .numerics import QuadratureResult, check_tol, integrate, uniforms

# Monte-Carlo shards of one n_ex_dv call; shard i has the key (seed << 8) + i.
_SHARDS = 16


@dataclass(frozen=True)
class DVParams:
    k_f: float
    alpha: float
    xi_norm: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k_f, self.alpha, self.xi_norm))):
            raise ValueError("k_f, alpha and xi_norm must be finite")
        if self.k_f <= 0 or self.alpha < 0:  # alpha = g / (4 pi k_F), g >= 0
            raise ValueError("k_f must be positive and alpha nonnegative")
        if self.xi_norm <= self.k_f:
            raise ValueError("the comparison formulas require |xi| > k_F")


def q_dv(k_norm, s, k_f: float):
    """Closed-form Lindhard-type response, broadcast over k_norm and s.

    q_dv = 2 pi [ 1 + (k_F^2 - k^2/4 + s^2)/(2 k k_F)
                      * ln( ((k_F + k/2)^2 + s^2) / ((k_F - k/2)^2 + s^2) )
                  - (s/k_F) (arctan((k_F + k/2)/s) + arctan((k_F - k/2)/s)) ]

    The s = 0 limit takes arctan(inf) = pi/2 through arctan2; the
    0 * log(0) product at k = 2 k_F, s = 0 is removable and evaluates
    to 0.  Scalar k_norm and s give a float.
    """
    k = np.asarray(k_norm, dtype=float)
    if not np.all(k > 0.0):
        raise ValueError("k_norm must be positive")
    s = np.asarray(s, dtype=float)
    a = k_f + 0.5 * k
    b = k_f - 0.5 * k
    w = k_f * k_f - 0.25 * k * k + s * s
    den = b * b + s * s
    # ln(num/den) with num - den = 2 k k_F exact: at large s num/den rounds to 1
    log_term = np.where(den > 0.0,
                        np.log1p(2.0 * k * k_f / np.where(den > 0.0, den, 1.0)),
                        0.0)  # w vanishes with den, removable
    bracket = 1.0 + w * log_term / (2.0 * k * k_f)
    at = np.arctan2(a, s) + np.arctan2(b, s)  # finite at s = 0, where s * at = 0
    bracket = bracket - s * at / k_f
    out = 2.0 * np.pi * bracket
    return out if out.shape else float(out)


def n_b_dv(params, quad_tol: float = 1e-7) -> QuadratureResult:
    """Screened bosonization quadrature over |k| in [|xi|-k_F, |xi|+k_F], s in [0, inf).

    ``params`` is one ``DVParams``, giving float fields, or a sequence of
    them with one k_F, a family giving (P,) values and error estimates
    with shared counts, as ``integrate`` does.  The integrand bracket has
    two Lorentzian-type poles; it vanishes at both radial endpoints.
    Every point's interval has width 2 k_F, so the points are the members
    of one outer family on the first point's interval, each at its nodes
    shifted by its |xi| less the first one's.  The inner s-integrals at
    the nodes of every member of one outer panel run as one family on
    shared panels, each at a tighter tolerance, so the reported error is
    dominated by the outer estimate.  ``evaluations`` counts outer nodes
    and inner values per member.  A point with alpha = 0 reads 0.  A
    repeated point is one member, whose value and error each repeat reads.
    """
    check_tol(quad_tol, "quad_tol")
    single = isinstance(params, DVParams)
    points = [params] if single else list(params)
    if len({p.k_f for p in points}) > 1:
        raise ValueError("the points of one n_b_dv call must share k_f")
    row = {p: j for j, p in enumerate(dict.fromkeys(points))}  # each point once
    values, errors = np.zeros(len(row)), np.zeros(len(row))
    evals, ok = 1, True
    live = [j for p, j in row.items() if p.alpha != 0.0]
    if live:
        values[live], errors[live], evals, ok = _n_b_family(
            [p for p in row if p.alpha != 0.0], quad_tol)
    at = [row[p] for p in points]
    values, errors = values[at], errors[at]
    if single:
        return QuadratureResult(value=float(values[0]),
                                abs_error_estimate=float(errors[0]),
                                evaluations=evals, converged=ok)
    return QuadratureResult(values, errors, evals, ok)


def _n_b_family(points, quad_tol: float):
    """(values, errors, evaluations, converged) of ``n_b_dv`` at points of
    one k_F and nonzero alpha, as one family."""
    kf = points[0].k_f
    xi = np.array([p.xi_norm for p in points])
    alpha = np.array([p.alpha for p in points])
    lo, hi = points[0].xi_norm - kf, points[0].xi_norm + kf
    inner_tol = quad_tol / (10.0 * (hi - lo))
    inner_err, inner_evals, inner_ok = np.zeros(xi.size), 0, True
    xc, screen = xi[:, None], (alpha * kf * kf)[:, None]

    def outer(k):
        nonlocal inner_err, inner_evals, inner_ok
        k = k + (xc - xi[0])  # each member's nodes on its own interval
        a = xc - 0.5 * k  # a, b > 0, as k < |xi| + k_F < 2 |xi|
        b = (xc * xc - kf * kf) / (2.0 * k)
        ac, bc, kc = a.reshape(-1, 1), b.reshape(-1, 1), k.reshape(-1, 1)
        cc = np.repeat(screen, k.shape[1], axis=0)

        def family(s):
            s2 = s * s
            bracket = ac / (ac * ac + s2) - bc / (bc * bc + s2)
            return bracket / (kc * kc + cc * q_dv(kc, s, kf))

        scales = [np.maximum(a, 1e-3), b, 10.0 * np.maximum(a, b)]
        values, errors, nev, ok = integrate(
            family, k.size, tol=inner_tol,
            seeds=np.exp(np.mean(np.log(scales), axis=(1, 2))))  # geometric means
        inner_err = inner_err + np.sum(errors.reshape(k.shape), axis=1)
        inner_evals += nev * k.shape[1]
        inner_ok = inner_ok and ok
        return k * values.reshape(k.shape)

    values, errors, evals, ok = integrate(outer, xi.size, lo, hi, tol=quad_tol,
                                          seeds=(0.5 * (lo + hi),))
    pref = kf * alpha / xi
    return (pref * values, np.abs(pref) * (errors + inner_err * (hi - lo)),
            evals + inner_evals, ok and inner_ok)


def _ex_shard(points, n: int, key: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One Monte-Carlo shard for points of one k_F: (P,) sums, (P,) squares, count.

    The five uniform rows of key's stream and the p geometry are drawn
    once and read by every point, each uniform U mapped to [lo, hi) as
    lo + (hi - lo) U, so each point's sums are those of its lone run.
    """
    kf = points[0].k_f
    u_r, u_u, u_rho, u_z, u_phi = uniforms(key, 5 * n).reshape(5, n)
    rho = kf * np.cbrt(u_rho)
    z = -1.0 + 2.0 * u_z
    phi = 2.0 * np.pi * u_phi
    sxy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    px, py, pz = rho * sxy * np.cos(phi), rho * sxy * np.sin(phi), rho * z
    pxx, pyy = px * px, py * py
    vol_ball = (4.0 / 3.0) * np.pi * kf**3

    sums, squares = np.empty(len(points)), np.empty(len(points))
    for j, params in enumerate(points):
        xi = params.xi_norm
        r_lo, r_hi = xi - kf, xi + kf
        r = r_lo + (r_hi - r_lo) * u_r
        u_min = (r * r + xi * xi - kf * kf) / (2.0 * r * xi)
        u = u_min + (1.0 - u_min) * u_u  # uniform on [u_min, 1)
        # k in the plane of zero azimuth (k_y = 0); xi along z
        kx = r * np.sqrt(np.maximum(0.0, 1.0 - u * u))
        kz = r * u
        wz = pz - xi  # p - xi differs from p only in z

        # sums in numpy einsum's order x, z, y: bit-identical to the (n, 3) form
        kw = kx * px + kz * wz
        wn2 = pxx + wz * wz + pyy
        outside = (px + kx) ** 2 + (pz + kz) ** 2 + pyy > kf * kf

        weight = 2.0 * np.pi * (r_hi - r_lo) * (1.0 - u_min) * vol_ball
        # the accepted set meets the sheet k.(p-xi) = 0, so x is unbounded there
        x = np.divide(weight, kw * kw * wn2, out=np.zeros(n), where=outside)
        sums[j], squares[j] = np.sum(x), np.sum(x * x)
    return sums, squares, n


def n_ex_dv(params, samples: int = 100_000, seed: int = 0):
    """Monte-Carlo value and standard error of the exchange integral.

    ``params`` is one ``DVParams``, giving one ``(value, stderr)``, or a
    sequence of them with one k_F, giving one pair per point.  The points
    share one sample set: each point's estimate equals its lone run, and
    the estimates at different points are correlated.

    Exactly quadratic in alpha (the samples do not depend on it), never
    positive, and reproducible: the shard keys (seed << 8) + i derive
    from ``seed`` and the reduction order is fixed by shard index.
    """
    single = isinstance(params, DVParams)
    points = [params] if single else list(params)
    if not all(isinstance(v, (int, np.integer)) and type(v) is not bool
               for v in (samples, seed)):
        raise ValueError(f"samples and seed must be integers, got {samples!r}, {seed!r}")
    samples, seed = int(samples), int(seed)  # numpy ints would wrap seed << 8
    if samples < 10_000:
        raise ValueError("use at least 10^4 samples")
    if seed < 0 or (seed << 8) + _SHARDS - 1 >= 2**128:
        raise ValueError(f"seed must be >= 0 with shard keys (seed << 8) + i "
                         f"below 2**128, got seed={seed}")
    if len({p.k_f for p in points}) > 1:
        raise ValueError("the points of one n_ex_dv call must share k_f")
    out = [(0.0, 0.0)] * len(points)
    live = [j for j, p in enumerate(points) if p.alpha != 0.0]
    if not live:
        return out[0] if single else out
    parts = [_ex_shard([points[j] for j in live],
                       samples // _SHARDS + (i < samples % _SHARDS),
                       key=(seed << 8) + i) for i in range(_SHARDS)]
    total, total_sq, count = map(sum, zip(*parts))
    for j, s, sq in zip(live, total.tolist(), total_sq.tolist()):
        mean = s / count
        var = max(0.0, sq / count - mean * mean)
        stderr = math.sqrt(var / count)
        pref = points[j].k_f**2 * points[j].alpha**2 / 4.0
        out[j] = (-pref * mean, pref * stderr)
    return out[0] if single else out


@dataclass
class CompareRow:
    xi: tuple
    n_b_disc: float
    n_ex_disc: float
    n_b_dv: float
    n_ex_dv: float
    ratio_b: float
    ratio_ex: float


CSV_HEADER = ",".join(f.name for f in fields(CompareRow))


def compare_table(cfg, pot, xi_list, quad_tol: float = 1e-7,
                  samples: int = 100_000, seed: int = 0) -> list[CompareRow]:
    """Discrete vs continuum rows for points outside the Fermi ball.

    The coupling map is alpha = g / (4 pi k_F), from identifying the
    scaled Coulomb mode g/(k_F |k|^2) with 4 pi alpha / |k|^2.  Ratios
    are descriptive only; the identification is asymptotic in the
    high-momentum regime.  Every point is checked before any work.  The
    discrete columns come from one ``n_points`` call (spectral route),
    whose points share their cores, and each continuum column from one
    call over all points.
    """
    from .lattice import as_vec3, norm2
    from .momentum import n_points

    if pot.kind != "coulomb":
        raise ValueError("the continuum comparison is defined for coulomb potentials")
    alpha = pot.g / (4.0 * np.pi * cfg.k_f)
    points = [as_vec3(xi) for xi in xi_list]
    for xv in points:
        if norm2(xv) <= cfg.r2:
            raise ValueError(f"comparison point {xv} must lie outside the Fermi ball")
    params = [DVParams(k_f=cfg.k_f, alpha=alpha, xi_norm=math.sqrt(norm2(xv)))
              for xv in points]
    ex_dv = n_ex_dv(params, samples=samples, seed=seed)
    discs = n_points(points, cfg, pot, route="spectral")
    b_dv = n_b_dv(params, quad_tol=quad_tol).value.tolist()
    rows = []
    for xv, disc, nb_dv, (nex_dv, _) in zip(points, discs, b_dv, ex_dv):
        rows.append(CompareRow(
            xi=xv,
            n_b_disc=disc.n_b,
            n_ex_disc=disc.n_ex,
            n_b_dv=nb_dv,
            n_ex_dv=nex_dv,
            ratio_b=disc.n_b / nb_dv if nb_dv != 0.0 else math.inf,
            ratio_ex=disc.n_ex / nex_dv if nex_dv != 0.0 else math.inf,
        ))
    return rows


def rows_to_csv(rows: list[CompareRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        xi, *vals = astuple(r)
        lines.append(",".join([" ".join(map(str, xi)), *map(repr, vals)]))
    return "\n".join(lines) + "\n"
