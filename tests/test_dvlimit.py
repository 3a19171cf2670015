import numpy as np
import pytest
from scipy import integrate

from fermigas.dvlimit import (CSV_HEADER, DVParams, compare_table, n_b_dv,
                              n_ex_dv, q_dv, rows_to_csv)
from fermigas.lattice import fermi_ball
from fermigas.potential import coulomb


def q_dv_oracle(k, s, kf):
    """Direct 2-D quadrature of the ball integral defining the response.

    q(s) = (1/k_F) int_{|p|<=k_F} 2 a / (a^2 + s^2 |k|^2) dp
    with a = p.k + |k|^2/2, reduced to radius and polar angle.
    """
    def integrand(u, p):
        a = p * k * u + 0.5 * k * k
        return 2.0 * np.pi * p * p * 2.0 * a / (a * a + s * s * k * k)

    val, err = integrate.dblquad(integrand, 0.0, kf, -1.0, 1.0,
                                 epsabs=1e-11, epsrel=1e-11)
    return val / kf


def test_q_dv_against_integral_oracle_grid():
    kf = 1.0
    for k in (0.3, 0.8, 1.5, 2.5, 4.0):
        for s in (0.2, 0.5, 1.0, 2.0, 5.0):
            got = q_dv(k, s, kf)
            want = q_dv_oracle(k, s, kf)
            assert got == pytest.approx(want, rel=1e-4), (k, s)


def test_q_dv_long_wavelength_static_limit():
    # s = 0, k -> 0 tends to 4 pi
    assert q_dv(1e-4, 0.0, 1.0) == pytest.approx(4.0 * np.pi, rel=1e-4)


def test_q_dv_vanishes_at_large_s():
    kf = 1.0
    assert abs(q_dv(1.0, 1e3 * kf, kf)) < 1e-2
    assert abs(q_dv(0.5, 1e4 * kf, kf)) < 1e-4


def test_q_dv_removable_point():
    # k = 2 k_F, s = 0: the 0 * log(0) product is removable
    val = q_dv(2.0, 0.0, 1.0)
    assert np.isfinite(val)
    assert val == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_q_dv_nonnegative_on_grid():
    kf = 1.0
    for k in np.linspace(0.1, 5.0, 12):
        s = np.linspace(0.0, 10.0, 23)
        assert np.all(q_dv(float(k), s, kf) >= -1e-12)


def test_dv_params_validation():
    with pytest.raises(ValueError):
        DVParams(k_f=1.0, alpha=0.1, xi_norm=0.9)
    with pytest.raises(ValueError):
        DVParams(k_f=-1.0, alpha=0.1, xi_norm=2.0)


def test_n_b_dv_finite_and_tolerance_contract():
    p = DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5)
    loose = n_b_dv(p, quad_tol=1e-5)
    tight = n_b_dv(p, quad_tol=1e-7)
    assert np.isfinite(loose.value) and loose.converged
    assert abs(loose.value - tight.value) <= max(loose.abs_error_estimate, 1e-10)


def test_n_b_dv_regression():
    # frozen after verifying the integrand against the closed-form response
    p = DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5)
    assert n_b_dv(p, quad_tol=1e-7).value == pytest.approx(0.0373771420, rel=1e-6)


def test_n_b_dv_alpha_zero_and_small_coupling_law():
    res = n_b_dv(DVParams(k_f=1.0, alpha=0.0, xi_norm=1.5))
    assert res.value == 0.0
    # with the bare 1/|k|^2 kernel the s-integral of the bracket vanishes
    # identically, so the small-coupling law is quadratic; the coefficient
    # is a frozen regression value
    c1 = n_b_dv(DVParams(k_f=1.0, alpha=1e-5, xi_norm=1.5),
                quad_tol=1e-10).value / 1e-10
    c2 = n_b_dv(DVParams(k_f=1.0, alpha=1e-6, xi_norm=1.5),
                quad_tol=1e-10).value / 1e-12
    assert c1 == pytest.approx(c2, rel=1e-3)
    assert c2 == pytest.approx(1.1656430, rel=1e-5)


def test_n_ex_dv_alpha_zero():
    assert n_ex_dv(DVParams(k_f=1.0, alpha=0.0, xi_norm=1.5),
                   samples=10_000, seed=0) == (0.0, 0.0)


def test_n_ex_dv_sign_and_reproducibility():
    p = DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5)
    v1, s1 = n_ex_dv(p, samples=50_000, seed=9)
    v2, s2 = n_ex_dv(p, samples=50_000, seed=9)
    assert (v1, s1) == (v2, s2)
    assert v1 < 0.0 and s1 > 0.0


def test_n_ex_dv_two_seeds_agree():
    p = DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5)
    v1, s1 = n_ex_dv(p, samples=200_000, seed=1)
    v2, s2 = n_ex_dv(p, samples=200_000, seed=2)
    assert abs(v1 - v2) <= 3.0 * (s1 + s2)


def test_n_ex_dv_exactly_quadratic_in_alpha():
    a = DVParams(k_f=1.0, alpha=0.25, xi_norm=1.5)
    b = DVParams(k_f=1.0, alpha=0.5, xi_norm=1.5)
    va, _ = n_ex_dv(a, samples=20_000, seed=3)
    vb, _ = n_ex_dv(b, samples=20_000, seed=3)
    assert vb == pytest.approx(4.0 * va, rel=1e-12)


def test_n_ex_dv_min_samples_enforced():
    with pytest.raises(ValueError):
        n_ex_dv(DVParams(k_f=1.0, alpha=0.1, xi_norm=1.5), samples=100)


def test_n_ex_dv_against_cartesian_sampler():
    # independent geometry: plain rejection sampling in Cartesian coordinates
    kf, alpha, xi = 1.0, 0.4, 1.5
    rng = np.random.default_rng(42)
    xiv = np.array([0.0, 0.0, xi])
    k = rng.uniform(-kf, kf, size=(1_600_000, 3))
    k = k[np.einsum("ij,ij->i", k, k) <= kf * kf] + xiv
    p = rng.uniform(-kf, kf, size=(k.shape[0], 3))
    keep = np.einsum("ij,ij->i", p, p) <= kf * kf
    k, p = k[keep], p[keep]
    pk = p + k
    ok = np.einsum("ij,ij->i", pk, pk) > kf * kf
    w = p - xiv
    kw = np.einsum("ij,ij->i", k, w)
    wn2 = np.einsum("ij,ij->i", w, w)
    kn2 = np.einsum("ij,ij->i", k, k)
    x = np.zeros(k.shape[0])
    x[ok] = 1.0 / (kn2[ok] * kw[ok] ** 2 * wn2[ok])
    vol = (4.0 / 3.0 * np.pi * kf**3) ** 2
    pref = kf**2 * alpha**2 / 4.0
    oracle = -pref * vol * float(np.mean(x))
    oracle_se = pref * vol * float(np.std(x)) / np.sqrt(x.size)

    val, se = n_ex_dv(DVParams(k_f=kf, alpha=alpha, xi_norm=xi),
                      samples=400_000, seed=5)
    assert abs(val - oracle) <= 4.0 * np.sqrt(se**2 + oracle_se**2)


def test_compare_table_rows_and_csv():
    cfg = fermi_ball(1.0)
    rows = compare_table(cfg, coulomb(1.0), [(2, 0, 0), (2, 1, 0)],
                         quad_tol=1e-6, samples=20_000, seed=0)
    assert len(rows) == 2
    for r in rows:
        assert np.isfinite(r.ratio_b) and r.ratio_b > 0.0
        assert np.isfinite(r.ratio_ex) and r.ratio_ex > 0.0
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == CSV_HEADER
    assert len(csv.splitlines()) == 3
    # deterministic given fixed seed and tolerances
    again = compare_table(cfg, coulomb(1.0), [(2, 0, 0), (2, 1, 0)],
                          quad_tol=1e-6, samples=20_000, seed=0)
    assert rows_to_csv(again) == csv


def test_compare_table_rejects_inside_points():
    with pytest.raises(ValueError):
        compare_table(fermi_ball(1.0), coulomb(1.0), [(1, 0, 0)])
