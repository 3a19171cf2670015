import math

import numpy as np
import pytest
from scipy import integrate

from fermigas import dvlimit, numerics, quasiboson
from fermigas.dvlimit import (CSV_HEADER, DVParams, compare_table, n_b_dv,
                              n_ex_dv, q_dv, rows_to_csv)
from fermigas.lattice import fermi_ball
from fermigas.potential import coulomb
from oracles import ex_shard_columns, n_b_dv_nested


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


def test_q_dv_broadcasts_over_k():
    kf = 1.5
    k = np.array([0.2, 1.0, 2.0 * kf, 4.5])
    s = np.array([0.0, 0.3, 1.0, 7.0, 1e3])
    got = q_dv(k[:, None], s[None, :], kf)
    assert got.shape == (k.size, s.size)
    for i, ki in enumerate(k):
        assert np.array_equal(got[i], q_dv(float(ki), s, kf))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="k_norm must be positive"):
            q_dv(np.array([[1.0], [bad], [2.0]]), s, kf)
    assert type(q_dv(1.0, 0.5, kf)) is float


def test_q_dv_large_s_limit():
    # q(s) -> (1/k_F) int 2 a dp / (s^2 |k|^2) = 4 pi k_F^2 / (3 s^2)
    for kf in (1.0, 3.0):
        for k in (0.01, 0.5, 2.0 * kf, 5.0):
            for s in (1e3, 1e4, 1e5):
                limit = 4.0 * np.pi * kf**2 / (3.0 * s * s)
                assert q_dv(k, s, kf) == pytest.approx(limit, rel=1e-4), (kf, k, s)


def test_dv_params_validation():
    with pytest.raises(ValueError):
        DVParams(k_f=1.0, alpha=0.1, xi_norm=0.9)
    with pytest.raises(ValueError):
        DVParams(k_f=-1.0, alpha=0.1, xi_norm=2.0)
    for bad in (math.nan, math.inf, -math.inf):
        for kwargs in (dict(k_f=bad, alpha=0.1, xi_norm=2.0),
                       dict(k_f=1.0, alpha=bad, xi_norm=2.0),
                       dict(k_f=1.0, alpha=0.1, xi_norm=bad)):
            with pytest.raises(ValueError, match="must be finite"):
                DVParams(**kwargs)


def test_dv_params_reject_negative_alpha():
    # alpha = g / (4 pi k_F) and g >= 0; at alpha = -0.4 the screening
    # denominator of n_b_dv passes through 0 and the value reads nan
    for alpha in (-0.4, -1e-300, -math.inf):
        with pytest.raises(ValueError, match="alpha nonnegative|finite"):
            DVParams(k_f=1.0, alpha=alpha, xi_norm=1.5)
    assert DVParams(k_f=1.0, alpha=-0.0, xi_norm=1.5).alpha == 0.0


@pytest.mark.parametrize("kwargs", [
    dict(samples=2e4), dict(samples=20_000.0), dict(samples=True),
    dict(samples="20000"), dict(seed=True), dict(seed=False), dict(seed=1.0),
    dict(seed=np.float64(3.0)), dict(seed=np.bool_(True)),
])
def test_n_ex_dv_rejects_non_integral_samples_and_seed(kwargs):
    for alpha in (0.0, 0.1):
        with pytest.raises(ValueError, match="samples and seed must be integers"):
            n_ex_dv(DVParams(k_f=1.0, alpha=alpha, xi_norm=1.5),
                    **{"samples": 10_000, **kwargs})
    # numpy integers pass, and a uint8 seed keys its shards as 3 does
    p = DVParams(k_f=1.0, alpha=0.1, xi_norm=1.5)
    assert (n_ex_dv(p, samples=np.int64(10_000), seed=np.uint8(3))
            == n_ex_dv(p, samples=10_000, seed=3))


@pytest.mark.parametrize("quad_tol", [0.0, -1e-7, math.inf, math.nan])
def test_n_b_dv_rejects_bad_quad_tol(quad_tol):
    with pytest.raises(ValueError, match="quad_tol must be positive and finite"):
        n_b_dv(DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5), quad_tol=quad_tol)


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=-1), "seed must be >= 0"),
    (dict(seed=2**120), "seed must be >= 0"),
    (dict(seed=2**128), "seed must be >= 0"),
])
def test_n_ex_dv_rejects_bad_seed_and_shards(kwargs, message):
    for alpha in (0.0, 0.1):
        with pytest.raises(ValueError, match=message):
            n_ex_dv(DVParams(k_f=1.0, alpha=alpha, xi_norm=1.5),
                    **{"samples": 10_000, **kwargs})


def test_n_ex_dv_largest_seed():
    # the last shard key is (seed << 8) + 15 = 2**128 - 1
    val, se = n_ex_dv(DVParams(k_f=1.0, alpha=0.1, xi_norm=1.5),
                      samples=10_000, seed=2**120 - 1)
    assert val < 0.0 and se > 0.0


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


def test_n_b_dv_matches_nested_oracle():
    # The two forms evaluate the same outer nodes; they differ only in
    # the panels of the inner s-integrals, each within its per-member
    # tolerance.
    for kf in (1.0, 2.0, 3.0):
        for alpha in (0.05, 0.4, 1.0 / (4.0 * np.pi * kf)):
            for ratio in (1.05, 1.7, 2.35, 3.0):
                for quad_tol in (1e-5, 1e-7):
                    p = DVParams(k_f=kf, alpha=alpha, xi_norm=ratio * kf)
                    got = n_b_dv(p, quad_tol=quad_tol)
                    want = n_b_dv_nested(p, quad_tol=quad_tol)
                    case = (kf, alpha, ratio, quad_tol)
                    assert got.converged and want.converged, case
                    assert got.value == pytest.approx(want.value, rel=1e-8), case
                    assert (abs(got.value - want.value)
                            <= got.abs_error_estimate + want.abs_error_estimate), case


def _n_b_dv_families(monkeypatch, params):
    """Run ``n_b_dv(params)``; return its result, its integrate ranges
    (members, a, b) and the outer-node and inner-family counts."""
    counts = {"outer": 0, "families": 0}
    ranges = []

    def counted(f, n, a=0.0, b=math.inf, **kwargs):
        ranges.append((n, a, b))
        if b < math.inf:
            def outer(k):
                counts["outer"] += 1
                return f(k)
            return numerics.integrate(outer, n, a, b, **kwargs)
        counts["families"] += 1
        return numerics.integrate(f, n, a, b, **kwargs)

    monkeypatch.setattr(dvlimit, "integrate", counted)
    res = n_b_dv(params)
    monkeypatch.undo()
    return res, ranges, counts


def test_n_b_dv_runs_one_family_per_outer_panel(monkeypatch):
    # a lone point and a sequence of P: the distinct points are the members
    # of one outer family on the first point's interval (the second 3.5
    # repeats the first), and the inner family of one outer panel holds
    # the s-integrals at the 15 nodes of every member
    lone = DVParams(k_f=3.0, alpha=0.4, xi_norm=3.5)
    points = [lone] + [DVParams(k_f=3.0, alpha=0.4, xi_norm=x)
                       for x in (4.0, 3.5, 5.8)]
    for params, members in ((lone, 1), (points, 3)):
        res, ranges, counts = _n_b_dv_families(monkeypatch, params)
        assert res.converged
        assert ranges[0] == (members, 0.5, 6.5)  # one outer |k| integral
        assert sum(b < math.inf for _, _, b in ranges) == 1
        assert {n for n, _, b in ranges if b == math.inf} == {
            numerics._GK_NODES.size * members}
        assert counts["outer"] > 1
        assert counts["families"] == counts["outer"]


def test_n_b_dv_sequence_within_errors_of_lone_and_nested():
    # mixed |xi| and alpha, a repeated |xi| and alpha = 0 in one family:
    # each value lies within its own error plus that of its lone run, and
    # plus that of the nested oracle
    for kf in (1.0, 2.0, 3.0):
        points = [DVParams(k_f=kf, alpha=a, xi_norm=r * kf) for a, r in (
            (0.4, 1.05), (1.0 / (4.0 * np.pi * kf), 1.7), (0.0, 2.0),
            (0.05, 3.0), (0.4, 1.7))]
        for quad_tol in (1e-5, 1e-7):
            got = n_b_dv(points, quad_tol=quad_tol)
            assert got.converged
            assert got.value.shape == got.abs_error_estimate.shape == (5,)
            for p, value, error in zip(points, got.value.tolist(),
                                       got.abs_error_estimate.tolist()):
                case = (kf, p, quad_tol)
                if p.alpha == 0.0:
                    assert value == error == 0.0, case
                    continue
                lone = n_b_dv(p, quad_tol=quad_tol)
                nested = n_b_dv_nested(p, quad_tol=quad_tol)
                assert abs(value - lone.value) <= error + lone.abs_error_estimate, case
                assert (abs(value - nested.value)
                        <= error + nested.abs_error_estimate), case


def test_n_b_dv_sequence_edges():
    # a family of one is the lone run, bit for bit
    p = DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5)
    lone, (value,), (error,), evals, ok = n_b_dv(p), *n_b_dv([p])
    assert (value, error, evals, ok) == tuple(lone)
    empty = n_b_dv([])
    assert empty.value.shape == empty.abs_error_estimate.shape == (0,)
    assert empty.converged
    zero = n_b_dv([DVParams(k_f=1.0, alpha=0.0, xi_norm=2.0)])
    assert (zero.value.tolist(), zero.abs_error_estimate.tolist()) == ([0.0], [0.0])
    with pytest.raises(ValueError, match="must share k_f"):
        n_b_dv([p, DVParams(k_f=2.0, alpha=0.4, xi_norm=2.5)])
    with pytest.raises(ValueError, match="quad_tol"):
        n_b_dv([], quad_tol=0.0)


def test_n_b_dv_repeated_point_is_one_member():
    # a repeat runs once: the family equals the one without the repeats,
    # member for member, and both copies read the same bits
    for kf in (2.0, 3.0):
        a, b, c = (DVParams(k_f=kf, alpha=0.3, xi_norm=x * kf)
                   for x in (1.5, 1.2, 2.0))
        zero = DVParams(k_f=kf, alpha=0.0, xi_norm=1.5 * kf)
        ref = n_b_dv([a, b, c], quad_tol=1e-7)
        got = n_b_dv([a, b, a, zero, c, b, a], quad_tol=1e-7)
        at = [0, 1, 0, None, 2, 1, 0]
        for field in ("value", "abs_error_estimate"):
            want = [0.0 if j is None else getattr(ref, field)[j] for j in at]
            assert getattr(got, field).tolist() == want
        assert (got.evaluations, got.converged) == (ref.evaluations, ref.converged)


SHARD_SEEDS = (0, 5, 2**20)


def _columns_shard(points, n, key):
    """``dvlimit._ex_shard`` from one ``ex_shard_columns`` run per point."""
    sums, squares, counts = zip(*(ex_shard_columns(p, n, key) for p in points))
    assert set(counts) == {n}
    return np.array(sums), np.array(squares), n


def test_ex_shard_matches_column_oracle():
    points = [DVParams(k_f=3.0, alpha=0.1, xi_norm=math.sqrt(10.0)),
              DVParams(k_f=3.0, alpha=0.4, xi_norm=4.0),
              DVParams(k_f=3.0, alpha=0.1, xi_norm=math.sqrt(18.0))]
    for seed in SHARD_SEEDS:
        for i, n in ((0, 1), (3, 7), (7, 1000), (15, 12_500)):
            key = (seed << 8) + i
            sums, squares, count = dvlimit._ex_shard(points, n, key)
            assert sums.shape == squares.shape == (len(points),)
            assert count == n
            for j, p in enumerate(points):
                want = ex_shard_columns(p, n, key)
                assert sums[j] == want[0], (seed, i, n, j)
                assert squares[j] == pytest.approx(want[1], rel=1e-13), (seed, i, n, j)
                assert want[2] == n


def test_n_ex_dv_matches_column_oracle(monkeypatch):
    # 50_001 samples split unevenly over the shards
    cases = [(DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5), 20_000),
             (DVParams(k_f=3.0, alpha=0.03, xi_norm=4.0), 50_001)]
    got = [n_ex_dv(p, samples=n, seed=seed)
           for p, n in cases for seed in SHARD_SEEDS]
    monkeypatch.setattr(dvlimit, "_ex_shard", _columns_shard)
    want = [n_ex_dv(p, samples=n, seed=seed)
            for p, n in cases for seed in SHARD_SEEDS]
    for (v, se), (v0, se0) in zip(got, want):
        assert v == pytest.approx(v0, rel=1e-13)
        assert se == pytest.approx(se0, rel=1e-13)


def test_n_ex_dv_sequence_equals_lone_runs():
    # mixed alpha, a repeated |xi| and a point with alpha = 0, on one sample set
    points = [DVParams(k_f=3.0, alpha=0.4, xi_norm=math.sqrt(10.0)),
              DVParams(k_f=3.0, alpha=0.0, xi_norm=4.0),
              DVParams(k_f=3.0, alpha=1.0 / (12.0 * np.pi), xi_norm=math.sqrt(18.0)),
              DVParams(k_f=3.0, alpha=0.05, xi_norm=math.sqrt(10.0))]
    for seed in SHARD_SEEDS:
        for samples in (20_000, 50_001):
            got = n_ex_dv(points, samples=samples, seed=seed)
            lone = [n_ex_dv(p, samples=samples, seed=seed) for p in points]
            assert got == lone
            assert got[1] == (0.0, 0.0)
            assert all(type(x) is float for pair in got for x in pair)
    assert n_ex_dv(points[1:2], samples=10_000) == [(0.0, 0.0)]
    assert n_ex_dv([], samples=10_000) == []


def test_n_ex_dv_sequence_shares_one_sample_set(monkeypatch):
    keys = []
    shard = dvlimit._ex_shard

    def counted(points, n, key):
        keys.append(key)
        return shard(points, n, key)

    monkeypatch.setattr(dvlimit, "_ex_shard", counted)
    points = [DVParams(k_f=1.0, alpha=0.4, xi_norm=x) for x in (1.2, 1.5, 2.0)]
    n_ex_dv(points, samples=10_000, seed=3)
    assert keys == [(3 << 8) + i for i in range(dvlimit._SHARDS)]


def test_n_ex_dv_rejects_mixed_k_f():
    points = [DVParams(k_f=1.0, alpha=0.4, xi_norm=1.5),
              DVParams(k_f=2.0, alpha=0.0, xi_norm=2.5)]
    with pytest.raises(ValueError, match="must share k_f"):
        n_ex_dv(points, samples=10_000)


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


def test_compare_table_checks_every_point_before_any_work(monkeypatch):
    import fermigas.momentum

    def no_work(*args, **kwargs):
        raise AssertionError("compare_table did work before checking its points")

    monkeypatch.setattr(fermigas.momentum, "n_points", no_work)
    monkeypatch.setattr(dvlimit, "n_ex_dv", no_work)
    monkeypatch.setattr(dvlimit, "n_b_dv", no_work)
    with pytest.raises(ValueError, match=r"comparison point \(0, 1, 0\) must lie "
                                         "outside the Fermi ball"):
        compare_table(fermi_ball(1.0), coulomb(1.0), [(2, 0, 0), (0, 2, 1), (0, 1, 0)])


# the benchmark's outside points at k_F = 3
BENCH_POINTS = ((3, 1, 0), (3, 2, 1), (4, 0, 0), (4, 1, 1))


def _core_groups(points, cfg, pot) -> set:
    """Distinct (sorted |k|, V_k) over the union of the supports +-xi - B."""
    ks = {tuple(s * x - q for x, q in zip(xi, p))
          for xi in points for s in (1, -1) for p in cfg.ball_arr.tolist()}
    return {(*sorted(map(abs, k)), pot(k)) for k in ks}


def test_compare_table_solves_each_shared_core_once(monkeypatch):
    # the points' supports share one exact-support pass, so each
    # deflated core of the union is solved once: 57 rows, where one pass
    # per point solved the 162 groups of the points' own supports
    cfg, pot = fermi_ball(3.0), coulomb(1.0)
    core, rows = quasiboson.cosh_minus_one_core, []
    monkeypatch.setattr(quasiboson, "cosh_minus_one_core", lambda lam, m, vsq: (
        rows.append(lam.shape[0]) or core(lam, m, vsq)))
    compare_table(cfg, pot, BENCH_POINTS, samples=10_000)
    assert sum(rows) == len(_core_groups(BENCH_POINTS, cfg, pot)) == 57
    assert sum(len(_core_groups([xi], cfg, pot)) for xi in BENCH_POINTS) == 162
