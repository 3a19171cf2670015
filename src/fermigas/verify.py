"""Machine checks of the exact identities and inequality trends.

Every check that tests an exact identity or a proven inequality is an
assert-class check (status "pass"/"fail", with a reproducer on
failure).  Bounds that involve unnamed constants are demoted to
diagnostics: the fitted constant is reported, never asserted.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .lattice import (LatticeConfig, Vec3, ball_points, d_intersection,
                      lambda_of, lune, neg, nonzero_k_vectors, norm2, sub)
from .momentum import EIGHT_PI4
from .numerics import (integrate_semi_infinite, rank1_resolvent_diag,
                       sym_matrix_function)
from .potential import Potential, evaluate
from .quasiboson import (TWO_PI_6, Mode, build_K, build_mode,
                         cosh2k_minus_one_diag, csk_pair, q_of_s,
                         sandwich_bounds)


@dataclass
class CheckReport:
    name: str
    status: str                  # "pass" | "fail" | "diagnostic"
    measured: float              # worst deviation (asserts) or fitted value
    tolerance: float | None      # None for diagnostics
    worst_case: str = ""
    params: dict = field(default_factory=dict)
    reproducer: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "worst_case": self.worst_case,
            "params": self.params,
        }
        if self.reproducer is not None:
            out["reproducer"] = self.reproducer
        return out


def _assert_report(name, measured, tolerance, worst_case, params, reproducer=None):
    status = "pass" if measured <= tolerance else "fail"
    return CheckReport(name=name, status=status, measured=float(measured),
                       tolerance=float(tolerance), worst_case=worst_case,
                       params=params,
                       reproducer=reproducer if status == "fail" else None)


# ---------------------------------------------------------------------------
# lattice checks


def check_gap_bound(lunes, k_f: float) -> CheckReport:
    """Every gap in every supplied lune is >= 1/2 (exact arithmetic)."""
    worst = math.inf
    worst_at = None
    for basis in lunes:
        if basis.dim == 0:
            continue
        i = int(np.argmin(basis.lambdas))
        if basis.lambdas[i] < worst:
            worst = float(basis.lambdas[i])
            worst_at = {"k": list(basis.k), "p": list(basis.points[i]),
                        "lambda": float(basis.lambdas[i]), "k_f": k_f}
    measured = 0.5 - worst  # > 0 means violation
    return _assert_report(
        "lattice.gap_lower_bound", measured, 0.0,
        f"min lambda = {worst} at k={worst_at['k'] if worst_at else None}",
        {"k_f": k_f, "lunes": len(list(lunes))}, worst_at)


def check_lattice(cfg: LatticeConfig, seed: int = 7,
                  quadruples: int = 200) -> list[CheckReport]:
    k_max = int(math.ceil(2.0 * cfg.k_f)) + 2
    ks = nonzero_k_vectors(k_max)
    lunes = [lune(k, cfg) for k in ks]
    reports = [check_gap_bound(lunes, cfg.k_f)]

    # reflection: the lune of -k is the mirrored lune with equal gaps
    worst = 0.0
    worst_rep = None
    by_k = {b.k: b for b in lunes}
    for b in lunes:
        mirror = by_k[neg(b.k)]
        mirrored = tuple(sorted(neg(p) for p in b.points))
        if mirrored != mirror.points:
            worst = math.inf
            worst_rep = {"k": list(b.k), "k_f": cfg.k_f}
            break
        lam = {p: l for p, l in zip(b.points, b.lambdas)}
        dev = max(abs(lam[neg(p)] - l)
                  for p, l in zip(mirror.points, mirror.lambdas))
        if dev > worst:
            worst, worst_rep = dev, {"k": list(b.k), "k_f": cfg.k_f}
    reports.append(_assert_report(
        "lattice.reflection", worst, 0.0, "L(-k) = -L(k) with equal gaps",
        {"k_f": cfg.k_f, "k_max": k_max}, worst_rep))

    # four-point gap identity on random admissible quadruples
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    worst_rep = None
    tested = 0
    guard = 0
    while tested < quadruples and guard < 50 * quadruples:
        guard += 1
        k = tuple(int(c) for c in rng.integers(-k_max, k_max + 1, size=3))
        if k == (0, 0, 0):
            continue
        basis = by_k.get(k) or lune(k, cfg)
        if basis.dim < 2:
            continue
        i, j = rng.integers(0, basis.dim, size=2)
        p, q = basis.points[int(i)], basis.points[int(j)]
        l = sub(tuple(a + b for a, b in zip(p, q)), k)
        if l == (0, 0, 0):
            continue
        if not (cfg.in_lune(l, p) and cfg.in_lune(l, q)):
            continue
        lhs = lambda_of(k, p) + lambda_of(k, q)
        rhs = lambda_of(l, p) + lambda_of(l, q)
        dev = abs(lhs - rhs)
        tested += 1
        if dev > worst:
            worst = dev
            worst_rep = {"k": list(k), "l": list(l), "p": list(p), "q": list(q),
                         "k_f": cfg.k_f}
    reports.append(_assert_report(
        "lattice.four_point_gap_identity", worst, 0.0,
        f"{tested} admissible quadruples tested",
        {"k_f": cfg.k_f, "seed": seed}, worst_rep))

    # gap-sum over modes seeing a fixed outside point: exactly finite
    first_shell_n2 = min(norm2(p) for p in ball_points(cfg.r2 + 16)
                         if norm2(p) > cfg.r2)
    xi = next(p for p in ball_points(first_shell_n2)
              if norm2(p) == first_shell_n2)
    ks_xi = [k for q in cfg.ball if (k := sub(xi, q)) != (0, 0, 0)
             and cfg.in_lune(k, xi)]
    gap_sum = sum(1.0 / lambda_of(k, xi) for k in sorted(ks_xi))
    reports.append(CheckReport(
        name="lattice.outside_gap_sum_finite", status="pass",
        measured=float(gap_sum), tolerance=math.inf,
        worst_case=f"sum over {len(ks_xi)} modes at xi={list(xi)}",
        params={"k_f": cfg.k_f, "xi": list(xi)}))

    # lattice-sum trend: sum lambda^beta <= c * k_F^(2+beta) |k|^(1+beta)
    for beta in (-1.0, -0.5):
        ratios = []
        for b in lunes:
            kn = math.sqrt(norm2(b.k))
            if kn > 2.0 * cfg.k_f:
                continue
            bound = cfg.k_f ** (2.0 + beta) * kn ** (1.0 + beta)
            ratios.append(float(np.sum(b.lambdas ** beta)) / bound)
        reports.append(CheckReport(
            name=f"lattice.gap_power_sum_trend_beta_{beta:g}",
            status="diagnostic", measured=max(ratios), tolerance=None,
            worst_case=f"fitted c over {len(ratios)} modes "
                       f"(median ratio {np.median(ratios):.3g})",
            params={"k_f": cfg.k_f, "beta": beta}))

    # truncated hole-side gap sum, reported against k_F^(1+delta) m(xi)
    xi_in = cfg.ball[0]
    for cand in ((0, 0, 0), cfg.ball[-1]):
        if cfg.in_ball(cand):
            xi_in = cand
            break
    m_inv = abs(norm2(xi_in) - cfg.kappa)
    acc = 0.0
    for k in nonzero_k_vectors(2 * k_max):
        kxi = tuple(a + b for a, b in zip(k, xi_in))
        if cfg.in_lune(k, kxi):
            acc += 1.0 / lambda_of(k, kxi) ** 2
    fitted = acc * m_inv / cfg.k_f ** 1.1
    reports.append(CheckReport(
        name="lattice.inside_gap_sum_trend", status="diagnostic",
        measured=float(fitted), tolerance=None,
        worst_case=f"truncated at |k| <= {2 * k_max}, xi={list(xi_in)}",
        params={"k_f": cfg.k_f, "delta": 0.1}))
    return reports


# ---------------------------------------------------------------------------
# per-mode checks


def _mode_sample(cfg: LatticeConfig) -> list[Vec3]:
    return nonzero_k_vectors(int(math.floor(2.0 * cfg.k_f)))


def check_mode(cfg: LatticeConfig, pot: Potential,
               taus=(0.0, 0.5, 1.0), seed: int = 11) -> list[CheckReport]:
    ks = _mode_sample(cfg)
    slack = 1e-10

    def per_k(k):
        mode = build_mode(k, cfg, pot)
        kmat = build_K(mode)
        lower, upper, _ = sandwich_bounds(mode)
        out = {}
        out["nsd"] = float(np.max(np.linalg.eigvalsh(kmat))) if mode.dim else 0.0
        negk = -kmat
        out["sw_K"] = float(max(np.max(negk - upper), np.max(lower - negk))) \
            if mode.dim else 0.0
        sw_cs = 0.0
        hyper = 0.0
        eye = np.eye(mode.dim)
        vh_inv_v = mode.vsq * float(np.sum(1.0 / mode.h))
        c_upper = vh_inv_v / (1.0 + 2.0 * vh_inv_v) * upper
        for tau in taus:
            c, s = csk_pair(kmat, tau)
            hyper = max(hyper, float(np.max(np.abs((c + eye) @ (c + eye) - s @ s - eye))))
            sw_cs = max(sw_cs,
                        float(np.max(s - tau * upper)),
                        float(np.max(tau * lower - s)),
                        float(np.max(-c)),
                        float(np.max(c - c_upper)))
        out["sw_CS"] = sw_cs
        out["hyperbolic"] = hyper
        # decomposition of the symmetric conjugations against expm
        key_k = (seed << 24) + (k[0] % 64) * 4096 + (k[1] % 64) * 64 + (k[2] % 64)
        rng = np.random.Generator(np.random.Philox(key=key_k))
        t_rand = rng.standard_normal((mode.dim, mode.dim))
        dec_dev = 0.0
        for t_mat in (np.diag(rng.standard_normal(mode.dim)),
                      0.5 * (t_rand + t_rand.T)):
            for tau in taus:
                ep = sym_matrix_function(tau * kmat, "exp")
                em = sym_matrix_function(-tau * kmat, "exp")
                t1_direct = 0.5 * (ep @ t_mat @ ep + em @ t_mat @ em)
                t2_direct = 0.5 * (ep @ t_mat @ ep - em @ t_mat @ em)
                c, s = csk_pair(kmat, tau)
                anti_c = t_mat @ c + c @ t_mat
                anti_s = t_mat @ s + s @ t_mat
                t1 = t_mat + anti_c + c @ t_mat @ c + s @ t_mat @ s
                t2 = -anti_s - s @ t_mat @ c - c @ t_mat @ s
                dec_dev = max(dec_dev,
                              float(np.max(np.abs(t1 - t1_direct))),
                              float(np.max(np.abs(t2 - t2_direct))))
        out["decomposition"] = dec_dev
        return out, mode, kmat

    results = [per_k(k) for k in ks]
    reports = []

    def collect(key, tol, label):
        worst = -math.inf
        worst_k = None
        for k, (vals, _, _) in zip(ks, results):
            if vals[key] > worst:
                worst, worst_k = vals[key], k
        rep = {"k": list(worst_k), "k_f": cfg.k_f, "potential": pot.spec_string()}
        reports.append(_assert_report(
            f"mode.{label}", worst, tol, f"worst at k={list(worst_k)}",
            {"k_f": cfg.k_f, "potential": pot.spec_string(), "taus": list(taus)},
            rep))

    collect("nsd", slack, "kernel_nsd")
    collect("sw_K", slack, "sandwich_K")
    collect("sw_CS", slack, "sandwich_CS")
    collect("hyperbolic", slack, "hyperbolic_identity")
    collect("decomposition", 1e-9, "conjugation_decomposition")

    # kernel reflection between k and -k
    worst = -1.0
    worst_k = None
    kmats = {k: (m, km) for k, (_, m, km) in zip(ks, results)}
    for k in ks:
        mode, kmat = kmats[k]
        mmode, mkmat = kmats[neg(k)]
        perm = [mmode.lune.index_of(neg(p)) for p in mode.lune.points]
        dev = float(np.max(np.abs(kmat - mkmat[np.ix_(perm, perm)]))) \
            if mode.dim else 0.0
        if dev > worst:
            worst, worst_k = dev, k
    reports.append(_assert_report(
        "mode.kernel_reflection", worst, slack,
        f"worst at k={list(worst_k)}",
        {"k_f": cfg.k_f, "potential": pot.spec_string()},
        {"k": list(worst_k), "k_f": cfg.k_f}))

    # product-entry bound trend (constants unknown: diagnostic only)
    diag_rows = []
    for k in ks[: min(4, len(ks))]:
        mode, kmat = kmats[k]
        if mode.dim == 0 or mode.vhat == 0.0:
            continue
        c, s = csk_pair(kmat, 1.0)
        lam = mode.h
        denom = lam[:, None] + lam[None, :]
        kn2 = norm2(k)
        scale = cfg.k_f / min(1.0, cfg.k_f**2 / kn2)
        for label, prod in (("KK", kmat @ kmat), ("KS", kmat @ s), ("SC", s @ c),
                            ("KKK", kmat @ kmat @ kmat), ("SKC", s @ kmat @ c)):
            m_order = len(label)
            sup = float(np.max(np.abs(prod) * denom)) * scale
            diag_rows.append({
                "k": list(k), "factors": label, "m": m_order, "sup": sup,
                "sup_over_vhat_m": sup / mode.vhat**m_order,
                "sup_over_vhat_1": sup / mode.vhat,
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


# ---------------------------------------------------------------------------
# cross-route checks


def _integral_term(mode: Mode, zetas: Counter,
                   quad_tol: float) -> tuple[float, float, bool]:
    """Screened-quadrature route for one mode's hits, one scalar integral each."""
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
        vhat2 = pot.at(pts + (np.array(z, dtype=np.int64) - kv))
        total += mult * float(np.sum(vhat2 / (lam + lam[zi]) ** 2))
    return -mode.vhat * total / (8.0 * TWO_PI_6 * mode.k_f**2)


def _brute_force_pair_sum(k, cfg: LatticeConfig, pot: Potential) -> float:
    """Plain-loop oracle for sum_{p,q} V_k V_{p+q-k} / (lam_p + lam_q)^2."""
    basis = lune(k, cfg)
    vk = evaluate(pot, k)
    total = 0.0
    for p in basis.points:
        for q in basis.points:
            arg = tuple(pc + qc - kc for pc, qc, kc in zip(p, q, k))
            total += vk * evaluate(pot, arg) / (lambda_of(k, p) + lambda_of(k, q)) ** 2
    return total


def check_cross(cfg: LatticeConfig, pot: Potential, seed: int = 23,
                quad_tol: float = 1e-10) -> list[CheckReport]:
    ks = _mode_sample(cfg)
    reports = []

    # spectral vs integral route, per mode and lune point
    worst = 0.0
    worst_rep = None
    for k in ks[: min(6, len(ks))]:
        mode = build_mode(k, cfg, pot)
        if mode.vhat == 0.0:
            continue
        diag = cosh2k_minus_one_diag(mode)
        for i in (0, mode.dim // 2, mode.dim - 1):
            z = mode.lune.points[i]
            spec = float(diag[i])
            integ, err, _ = _integral_term(mode, Counter([z]), quad_tol)
            dev = abs(spec - integ) - 10.0 * (err + 1e-13 * max(1.0, abs(spec)))
            if dev > worst:
                worst = dev
                worst_rep = {"k": list(k), "zeta": list(z), "k_f": cfg.k_f,
                             "potential": pot.spec_string()}
    reports.append(_assert_report(
        "cross.route_equivalence_per_mode", worst, 0.0,
        "spectral diagonal vs screened quadrature, slack minus 10x reported error",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))

    # rank-one resolvent diagonal vs dense inverse
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    worst_rep = None
    for k in ks[: min(4, len(ks))]:
        mode = build_mode(k, cfg, pot)
        if mode.dim == 0:
            continue
        h, u = mode.h, mode.u
        for s in (0.0, 0.7, 5.0):
            dense = np.linalg.inv(np.diag(h**2) + 2.0 * np.outer(u, u)
                                  + s * s * np.eye(mode.dim))
            for i in range(mode.dim):
                got = rank1_resolvent_diag(h, u, s, i)
                dev = abs(got - dense[i, i]) / abs(dense[i, i])
                if dev > worst:
                    worst = dev
                    worst_rep = {"k": list(k), "s": s, "index": i,
                                 "k_f": cfg.k_f, "potential": pot.spec_string()}
    reports.append(_assert_report(
        "cross.rank1_resolvent_vs_dense", worst, 1e-10,
        "relative deviation of the updated resolvent diagonal",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))

    # screening identity 1 + 2<u, (h^2+s^2)^-1 u> = 1 + q(s)
    worst = 0.0
    worst_rep = None
    for k in ks[: min(6, len(ks))]:
        mode = build_mode(k, cfg, pot)
        if mode.dim == 0:
            continue
        for s in rng.uniform(0.0, 8.0, size=5):
            lhs = 1.0 + 2.0 * float(np.dot(mode.u, mode.u / (mode.h**2 + s * s)))
            rhs = 1.0 + float(q_of_s(mode, float(s)))
            dev = abs(lhs - rhs) / rhs
            if dev > worst:
                worst = dev
                worst_rep = {"k": list(k), "s": float(s), "k_f": cfg.k_f}
    reports.append(_assert_report(
        "cross.screening_identity", worst, 1e-12,
        "resolvent pairing equals the response function",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))

    # per-k exchange aggregation over the ball
    worst = 0.0
    worst_rep = None
    for k in ks[: min(3, len(ks))]:
        if evaluate(pot, k) == 0.0:
            continue
        mode = build_mode(k, cfg, pot)
        lhs = 0.0
        for xi in cfg.ball:
            zetas = Counter(d_intersection(k, xi, cfg))
            lhs += _exchange_term(mode, zetas, pot)
        rhs = -_brute_force_pair_sum(k, cfg, pot) / (4.0 * TWO_PI_6 * cfg.k_f**2)
        dev = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        if dev > worst:
            worst = dev
            worst_rep = {"k": list(k), "k_f": cfg.k_f,
                         "potential": pot.spec_string()}
    reports.append(_assert_report(
        "cross.exchange_aggregation_identity", worst, 1e-12,
        "ball-summed per-mode exchange vs brute-force pair sum",
        {"k_f": cfg.k_f, "potential": pot.spec_string()}, worst_rep))
    return reports


def run_all(cfg: LatticeConfig, pot: Potential) -> list[CheckReport]:
    reports = check_lattice(cfg)
    reports += check_mode(cfg, pot)
    reports += check_cross(cfg, pot)
    return reports


def any_failed(reports) -> bool:
    return any(r.status == "fail" for r in reports)


def reports_to_json(reports) -> str:
    def default(x):
        if hasattr(x, "item"):
            return x.item()
        raise TypeError(f"not JSON serializable: {type(x)}")

    return json.dumps([r.to_json_dict() for r in sorted(reports, key=lambda r: r.name)],
                      indent=2, sort_keys=True, default=default)
