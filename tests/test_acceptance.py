"""Acceptance criteria for the whole package.

Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output).  Desk scale: k_F <= 3 for the momentum grid, k_F <= 6
for the correlation-energy trend, minutes of total runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

import fermigas as fg
from fermigas.dvlimit import DVParams, n_b_dv, n_ex_dv, q_dv
from fermigas.energy import e_corr_bos, e_corr_ex
from fermigas.lattice import TailPolicy, norm2
from fermigas.momentum import n_point
from fermigas.verify import any_failed, check_cross, check_lattice, check_mode

INSIDE_POLICY = TailPolicy(k_max=4, tail_tol=1e-3, max_doublings=1)

# (k_f, g, xi) with points inside and outside the Fermi ball
CROSS_ROUTE_GRID = [
    (1.0, 1.0, (1, 1, 0)),
    (1.0, 0.5, (1, 1, 0)),
    (1.0, 1.0, (2, 0, 0)),
    (1.0, 1.0, (1, 0, 0)),
    (1.0, 1.0, (0, 0, 0)),
    (1.0, 0.5, (0, 0, 0)),
    (2.0, 1.0, (2, 1, 0)),
    (2.0, 0.5, (1, 1, 0)),
    (2.0, 1.0, (0, 0, 3)),
    (2.0, 1.0, (1, 0, 0)),
]


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def grid_rows():
    rows = []
    for k_f, g, xi in CROSS_ROUTE_GRID:
        cfg = fg.fermi_ball(k_f)
        rows.append((k_f, g, xi, n_point(xi, cfg, fg.coulomb(g), INSIDE_POLICY,
                                         route="both")))
    return rows


def test_criterion_1_cross_route_agreement():
    t0 = time.monotonic()
    rows = grid_rows()
    inside = outside = 0
    worst = worst_rel = 0.0
    for k_f, g, xi, row in rows:
        cfg = fg.fermi_ball(k_f)
        if norm2(xi) > cfg.r2:
            outside += 1
        else:
            inside += 1
        allowance = 10.0 * (row.quad_error + row.tail_estimate)
        worst = max(worst, row.discrepancy - allowance)
        worst_rel = max(worst_rel, row.discrepancy / abs(row.n_b_spectral))
        assert row.discrepancy <= allowance, (k_f, g, xi)
        # the allowance is loose (quad_error overstates the real error by
        # orders of magnitude); the routes must also agree in relative terms
        assert row.discrepancy <= 1e-10 * abs(row.n_b_spectral), (k_f, g, xi)
    elapsed = time.monotonic() - t0
    report("criterion 1 (cross-route oracle)",
           len(rows) >= 8 and inside >= 2 and outside >= 2
           and worst <= 0.0 and worst_rel <= 1e-10 and elapsed < 300.0,
           f"{len(rows)} combos ({inside} inside, {outside} outside), "
           f"worst slack {worst:.2e}, worst relative gap {worst_rel:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_exact_identity_suite():
    ok = True
    names = set()
    for k_f in (1.0, 2.0):
        cfg = fg.fermi_ball(k_f)
        pot = fg.coulomb(1.0)
        reports = check_lattice(cfg) + check_mode(cfg, pot) \
            + check_cross(cfg, pot)
        ok = ok and not any_failed(reports)
        names |= {r.name for r in reports}
    required = {
        "lattice.gap_lower_bound", "lattice.reflection",
        "lattice.four_point_gap_identity", "mode.hyperbolic_identity",
        "cross.rank1_resolvent_vs_dense", "cross.screening_identity",
        "mode.conjugation_decomposition",
        "cross.exchange_aggregation_identity",
    }
    report("criterion 2 (exact-identity suite)",
           ok and required <= names, f"{len(names)} checks")


def test_criterion_3_sandwich_bounds():
    ok = True
    for k_f in (1.0, 2.0):
        for g in (0.1, 1.0, 10.0):
            reports = check_mode(fg.fermi_ball(k_f), fg.coulomb(g))
            bad = [r for r in reports if r.status == "fail"
                   and r.name.startswith("mode.sandwich")]
            ok = ok and not bad
    report("criterion 3 (sandwich bounds, slack 1e-10)", ok,
           "k_F in {1,2} x g in {0.1,1,10}, all |k| <= 2 k_F")


def test_criterion_4_zero_coupling_triviality():
    worst = 0.0
    for pot in (fg.coulomb(0.0), fg.zero()):
        cfg = fg.fermi_ball(1.0)
        for xi in ((1, 1, 0), (0, 0, 0)):
            row = n_point(xi, cfg, pot, INSIDE_POLICY, route="both")
            worst = max(worst, abs(row.n_b), abs(row.n_ex),
                        abs(row.n_b_integral))
        worst = max(worst, abs(e_corr_bos(cfg, pot, INSIDE_POLICY)[0]),
                    abs(e_corr_ex(cfg, pot, INSIDE_POLICY)[0]))
    report("criterion 4 (zero-coupling triviality)", worst <= 1e-12,
           f"largest magnitude {worst:.1e}")


def test_criterion_5_signs_and_symmetry():
    ok = True
    detail = []
    for k_f, g, xi, row in grid_rows():
        cfg = fg.fermi_ball(k_f)
        ok = ok and row.n_b >= -1e-10 and row.n_ex <= 1e-10
        mirror = n_point(tuple(-c for c in xi), cfg, fg.coulomb(g),
                         INSIDE_POLICY, route="both")
        sym = abs(row.n_total - mirror.n_total)
        scale = max(1.0, abs(row.n_total))
        ok = ok and sym <= 1e-12 * scale
        detail.append(sym)
    for k_f in (1.0, 2.0):
        for g in (0.5, 1.0):
            val = e_corr_bos(fg.fermi_ball(k_f), fg.coulomb(g),
                             INSIDE_POLICY)[0]
            ok = ok and val <= 0.0
    report("criterion 5 (signs and reflection symmetry)", ok,
           f"worst |n(xi)-n(-xi)| = {max(detail):.2e}")


def test_criterion_6_small_coupling_law():
    cfg = fg.fermi_ball(1.0)
    pol = TailPolicy(k_max=5, tail_tol=1e-3, max_doublings=1)
    r1 = e_corr_bos(cfg, fg.coulomb(1e-3), pol)[0] / 1e-6
    r2 = e_corr_bos(cfg, fg.coulomb(1e-4), pol)[0] / 1e-8
    dev = abs(r1 / r2 - 1.0)
    report("criterion 6 (small-coupling quadratic law)", dev < 0.01,
           f"E/g^2 ratio deviation {dev:.2e}")


def test_criterion_7_truncation_robustness():
    cfg = fg.fermi_ball(1.0)
    pot = fg.coulomb(1.0)
    # outside: exactly finite support, any cutoff gives identical results
    a = n_point((2, 0, 0), cfg, pot, TailPolicy(k_max=2), route="spectral")
    b = n_point((2, 0, 0), cfg, pot, TailPolicy(k_max=16), route="spectral")
    exact_ok = a.n_b == b.n_b and a.n_ex == b.n_ex and a.tail_estimate == 0.0
    # inside: the next doubling moves the result by less than the tail
    r1 = n_point((0, 0, 0), cfg, pot, TailPolicy(k_max=3, max_doublings=1),
                 route="spectral")
    r2 = n_point((0, 0, 0), cfg, pot, TailPolicy(k_max=6, max_doublings=1),
                 route="spectral")
    inside_ok = abs(r2.n_b - r1.n_b) <= r1.tail_estimate
    # correlation-energy sums obey the same contract
    e1, t1, _, _ = e_corr_ex(cfg, pot, TailPolicy(k_max=4, max_doublings=1))
    e2 = e_corr_ex(cfg, pot, TailPolicy(k_max=8, max_doublings=1))[0]
    b1, bt1 = e_corr_bos(cfg, pot, TailPolicy(k_max=4, max_doublings=1))[:2]
    b2 = e_corr_bos(cfg, pot, TailPolicy(k_max=8, max_doublings=1))[0]
    energy_ok = abs(e2 - e1) <= t1 and abs(b2 - b1) <= bt1
    report("criterion 7 (truncation robustness)",
           exact_ok and inside_ok and energy_ok,
           f"outside exact, inside delta {abs(r2.n_b - r1.n_b):.2e} "
           f"<= tail {r1.tail_estimate:.2e}")


def q_dv_oracle(k, s, kf):
    def integrand(u, p):
        a = p * k * u + 0.5 * k * k
        return 2.0 * np.pi * p * p * 2.0 * a / (a * a + s * s * k * k)

    val, _ = integrate.dblquad(integrand, 0.0, kf, -1.0, 1.0,
                               epsabs=1e-11, epsrel=1e-11)
    return val / kf


def test_criterion_8_dv_internal_consistency():
    kf = 1.0
    worst = 0.0
    for k in (0.3, 0.8, 1.5, 2.5, 4.0):
        for s in (0.2, 0.5, 1.0, 2.0, 5.0):
            got = q_dv(k, s, kf)
            want = q_dv_oracle(k, s, kf)
            worst = max(worst, abs(got - want) / abs(want))
    va, _ = n_ex_dv(DVParams(k_f=1.0, alpha=0.25, xi_norm=1.5),
                    samples=20_000, seed=3)
    vb, _ = n_ex_dv(DVParams(k_f=1.0, alpha=0.5, xi_norm=1.5),
                    samples=20_000, seed=3)
    quad_dev = abs(vb - 4.0 * va) / abs(vb)
    report("criterion 8 (continuum response and MC consistency)",
           worst <= 1e-4 and quad_dev <= 1e-12,
           f"closed form vs integral {worst:.2e}, alpha-scaling {quad_dev:.1e}")


def test_criterion_9_scaling_trend_diagnostics():
    print("\n  n_b * k_F / m(xi), first shell outside the ball:")
    entries = []
    for k_f, xi in ((1.0, (1, 1, 0)), (2.0, (2, 1, 0)), (3.0, (3, 1, 0))):
        cfg = fg.fermi_ball(k_f)
        row = n_point(xi, cfg, fg.coulomb(1.0), route="spectral")
        m = 1.0 / abs(norm2(xi) - cfg.kappa)
        entry = row.n_b * k_f / m
        entries.append(entry)
        print(f"    k_F={k_f:.0f} xi={xi}: {entry:.6e}")
    nb_ok = all(np.isfinite(e) and e > 0.0 for e in entries) and all(
        0.5 <= b / a <= 2.0 for a, b in zip(entries, entries[1:]))

    print("  E_corr_bos / (k_F log k_F):")
    trend = []
    for k_f in (2.0, 3.0, 4.0, 5.0, 6.0):
        pol = TailPolicy(tail_tol=1e-3, max_doublings=2)
        val = e_corr_bos(fg.fermi_ball(k_f), fg.coulomb(1.0), pol,
                         quad_tol=1e-8)[0]
        entry = val / (k_f * math.log(k_f))
        trend.append(entry)
        print(f"    k_F={k_f:.0f}: {entry:.6e}")
    e_ok = all(np.isfinite(e) and e < 0.0 for e in trend) and all(
        0.5 <= b / a <= 2.0 for a, b in zip(trend, trend[1:]))
    report("criterion 9 (scaling trend diagnostics)", nb_ok and e_ok,
           "tables above")
