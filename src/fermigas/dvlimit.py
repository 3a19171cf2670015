"""Continuum high-density comparison formulas.

These are the thermodynamic-limit counterparts of the discrete results,
for side-by-side tables at momenta outside the Fermi ball: a
Lindhard-type response q_dv in closed form, the screened two-variable
quadrature n_b_dv, and the second-order exchange integral n_ex_dv done
by importance-sampled Monte Carlo.

The exchange integral

    -(k_F^2 a^2 / 4) int dk/|k|^2 int_{|p|<k_F} dp
        [k.(p-xi)]^-2 |p-xi|^-2   over |p+k| > k_F

is taken over the k-region |k - xi| <= k_F carried over from the
discrete support; there the energy denominator k.(xi-p) is bounded below
by (|xi|^2 - k_F^2)/2 > 0, so the integrand is bounded and the
Monte-Carlo variance is finite.  Dropping that region constraint (as the
bare continuum formula suggests) would expose the non-integrable sheet
k.(p-xi) = 0.

Sampling reduces the six dimensions analytically by the common azimuth
about xi (a factor 2pi); |k| is drawn uniformly on its interval, which
folds the 1/|k|^2 kernel into the radial volume factor |k|^2 d|k|.  The
generator is counter-based (Philox) with per-shard keys, and shards are
reduced in index order, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureResult, integrate_interval, integrate_semi_infinite


@dataclass(frozen=True)
class DVParams:
    k_f: float
    alpha: float
    xi_norm: float

    def __post_init__(self):
        if self.k_f <= 0:
            raise ValueError("k_f must be positive")
        if self.xi_norm <= self.k_f:
            raise ValueError("the comparison formulas require |xi| > k_F")


def q_dv(k_norm: float, s, k_f: float):
    """Closed-form Lindhard-type response, vectorized over s.

    q_dv = 2 pi [ 1 + (k_F^2 - k^2/4 + s^2)/(2 k k_F)
                      * ln( ((k_F + k/2)^2 + s^2) / ((k_F - k/2)^2 + s^2) )
                  - (s/k_F) (arctan((k_F + k/2)/s) + arctan((k_F - k/2)/s)) ]

    The s = 0 limit is handled by the arctan(inf) = pi/2 branch; the
    0 * log(0) product at k = 2 k_F, s = 0 is removable and evaluates
    to 0.
    """
    k = float(k_norm)
    if k <= 0:
        raise ValueError("k_norm must be positive")
    s = np.asarray(s, dtype=float)
    a = k_f + 0.5 * k
    b = k_f - 0.5 * k
    w = k_f * k_f - 0.25 * k * k + s * s
    num = a * a + s * s
    den = b * b + s * s
    log_term = np.where(den > 0.0,
                        np.log(num / np.where(den > 0.0, den, 1.0)),
                        0.0)  # w vanishes with den, removable
    bracket = 1.0 + w * log_term / (2.0 * k * k_f)
    pos = s > 0.0
    s_safe = np.where(pos, s, 1.0)
    at = np.arctan(a / s_safe) + np.arctan(b / s_safe)
    bracket = bracket - np.where(pos, s * at / k_f, 0.0)
    out = 2.0 * np.pi * bracket
    return out if out.shape else float(out)


def n_b_dv(params: DVParams, quad_tol: float = 1e-7) -> QuadratureResult:
    """Screened bosonization quadrature over |k| in [|xi|-k_F, |xi|+k_F], s in [0, inf).

    The integrand bracket has two Lorentzian-type poles; it vanishes at
    both radial endpoints.  Inner s-integrals run at a tighter tolerance
    so the reported error is dominated by the outer estimate.
    """
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
            return bracket / screen

        scale = max(abs(a), 1e-3)
        res = integrate_semi_infinite(integrand, tol=inner_tol,
                                      seeds=(scale, abs(b), 10.0 * max(abs(a), abs(b))))
        inner_errs[0] += res.abs_error_estimate
        evals[0] += res.evaluations
        all_ok[0] = all_ok[0] and res.converged
        return res.value

    def outer(karr):
        return np.array([k * inner(k) for k in np.atleast_1d(karr)])

    out = integrate_interval(outer, lo, hi, tol=quad_tol,
                             seeds=(0.5 * (lo + hi),))
    pref = kf * alpha / xi
    err = abs(pref) * (out.abs_error_estimate + inner_errs[0] * (hi - lo))
    return QuadratureResult(value=pref * out.value, abs_error_estimate=err,
                            evaluations=out.evaluations + evals[0],
                            converged=out.converged and all_ok[0])


def _ex_shard(params: DVParams, n: int, key: int) -> tuple[float, float, int]:
    """One Monte-Carlo shard: returns (sum, sum of squares, count)."""
    kf, xi = params.k_f, params.xi_norm
    rng = np.random.Generator(np.random.Philox(key=key))
    r_lo, r_hi = xi - kf, xi + kf

    r = rng.uniform(r_lo, r_hi, size=n)
    u_min = (r * r + xi * xi - kf * kf) / (2.0 * r * xi)
    u = rng.uniform(u_min, 1.0)
    # k in the plane of zero azimuth; xi along z
    k = np.column_stack([r * np.sqrt(np.maximum(0.0, 1.0 - u * u)),
                         np.zeros(n), r * u])
    rho = kf * np.cbrt(rng.uniform(0.0, 1.0, size=n))
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
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
    # on the accepted set |k.(p-xi)| >= (xi^2 - k_F^2)/2 > 0
    x[outside] = weight[outside] / (kw[outside] ** 2 * wn2[outside])
    return float(np.sum(x)), float(np.sum(x * x)), n


def n_ex_dv(params: DVParams, samples: int = 100_000, seed: int = 0,
            shards: int = 16) -> tuple[float, float]:
    """Monte-Carlo value and standard error of the exchange integral.

    Exactly quadratic in alpha (the samples do not depend on it), never
    positive, and reproducible: the shard keys derive from ``seed`` and
    the reduction order is fixed by shard index.
    """
    if samples < 10_000:
        raise ValueError("use at least 10^4 samples")
    if params.alpha == 0.0:
        return 0.0, 0.0
    base = samples // shards
    sizes = [base + (1 if i < samples % shards else 0) for i in range(shards)]

    parts = [_ex_shard(params, n, key=(seed << 8) + i)
             for i, n in enumerate(sizes)]
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    count = sum(p[2] for p in parts)
    mean = total / count
    var = max(0.0, total_sq / count - mean * mean)
    stderr = math.sqrt(var / count)
    pref = params.k_f**2 * params.alpha**2 / 4.0
    return -pref * mean, pref * stderr


@dataclass
class CompareRow:
    xi: tuple
    n_b_disc: float
    n_ex_disc: float
    n_b_dv: float
    n_ex_dv: float
    ratio_b: float
    ratio_ex: float


CSV_HEADER = "xi,n_b_disc,n_ex_disc,n_b_dv,n_ex_dv,ratio_b,ratio_ex"


def compare_table(cfg, pot, xi_list, quad_tol: float = 1e-7,
                  samples: int = 100_000, seed: int = 0) -> list[CompareRow]:
    """Discrete vs continuum rows for points outside the Fermi ball.

    The coupling map is alpha = g / (4 pi k_F), from identifying the
    scaled Coulomb mode g/(k_F |k|^2) with 4 pi alpha / |k|^2.  Ratios
    are descriptive only; the identification is asymptotic in the
    high-momentum regime.
    """
    from .lattice import as_vec3, norm2
    from .momentum import n_point

    if pot.kind != "coulomb":
        raise ValueError("the continuum comparison is defined for coulomb potentials")
    alpha = pot.g / (4.0 * np.pi * cfg.k_f)
    rows = []
    for xi in xi_list:
        xv = as_vec3(xi)
        if norm2(xv) <= cfg.r2:
            raise ValueError(f"comparison point {xv} must lie outside the Fermi ball")
        disc = n_point(xv, cfg, pot, route="spectral")
        ex_disc = disc.n_ex
        params = DVParams(k_f=cfg.k_f, alpha=alpha, xi_norm=math.sqrt(norm2(xv)))
        nb_dv = n_b_dv(params, quad_tol=quad_tol).value
        nex_dv, _ = n_ex_dv(params, samples=samples, seed=seed)
        rows.append(CompareRow(
            xi=xv,
            n_b_disc=disc.n_b,
            n_ex_disc=ex_disc,
            n_b_dv=nb_dv,
            n_ex_dv=nex_dv,
            ratio_b=disc.n_b / nb_dv if nb_dv != 0.0 else math.inf,
            ratio_ex=ex_disc / nex_dv if nex_dv != 0.0 else math.inf,
        ))
    return rows


def rows_to_csv(rows: list[CompareRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        xi_str = " ".join(str(c) for c in r.xi)
        lines.append(f"{xi_str},{r.n_b_disc!r},{r.n_ex_disc!r},"
                     f"{r.n_b_dv!r},{r.n_ex_dv!r},{r.ratio_b!r},{r.ratio_ex!r}")
    return "\n".join(lines) + "\n"
