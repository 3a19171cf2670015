import json
import math
import tracemalloc

import numpy as np
import pytest

from fermigas import lattice, verify
from fermigas.lattice import ball_array, fermi_ball, lune_points
from fermigas.numerics import sym_eig, sym_matrix_function, uniforms
from fermigas.potential import coulomb, from_table, yukawa, zero
from fermigas.quasiboson import build_K, csk_pair, sandwich_bounds, size_batches
from fermigas.verify import (TAUS, _mode_sample, any_failed, check_cross,
                             check_gap_bound, check_lattice, check_mode,
                             reports_to_json, run_all)
from oracles import (brute_force_pair_sum, check_lattice_loop, check_mode_loop,
                     check_mode_values_loop, exchange_sum_loop)


def by_name(reports):
    return {r.name: r for r in reports}


def test_check_lattice_passes_unit_ball():
    reports = by_name(check_lattice(fermi_ball(1.0)))
    for name in ("lattice.gap_lower_bound", "lattice.reflection",
                 "lattice.four_point_gap_identity",
                 "lattice.outside_gap_sum_finite"):
        assert reports[name].status == "pass", name
    assert reports["lattice.gap_power_sum_trend_beta_-1"].status == "diagnostic"
    assert np.isfinite(reports["lattice.inside_gap_sum_trend"].measured)


@pytest.mark.parametrize("k_f", [2.0, 3.0])
def test_check_lattice_passes_larger_balls(k_f):
    assert not any_failed(check_lattice(fermi_ball(k_f)))


def test_gap_check_negative_control_carries_reproducer():
    # two flat lunes of k = (1, 0, 0), the second with a gap below 1/2
    cfg = fermi_ball(1.0)
    pts, gaps = lune_points((1, 0, 0), cfg)
    bad_gaps = np.array([0.5, 0.5, 0.3, 0.5, 1.5])
    report = check_gap_bound(np.array([[1, 0, 0], [1, 0, 0]]), [5, 5],
                             np.concatenate([pts, pts]),
                             np.concatenate([gaps, bad_gaps]), cfg.k_f)
    assert report.status == "fail"
    assert report.reproducer is not None
    assert report.reproducer["lambda"] == pytest.approx(0.3)
    assert report.reproducer["k"] == [1, 0, 0]
    assert report.reproducer["p"] == [1, 0, 1]
    assert report.params["lunes"] == 2


@pytest.mark.parametrize("k_f", [0.5, 1.0, math.sqrt(3.0), 2.0, math.sqrt(7.0), 3.0])
def test_check_lattice_equals_per_lune_loop(k_f):
    cfg = fermi_ball(k_f)
    assert reports_to_json(check_lattice(cfg)) == reports_to_json(check_lattice_loop(cfg))


def test_verify_lunes_come_from_the_block_form(monkeypatch):
    # only the brute-force pair-sum oracle of check_cross reads lune_points
    calls = []

    def counting(k, cfg):
        calls.append(tuple(k))
        return lune_points(k, cfg)

    monkeypatch.setattr(lattice, "lune_points", counting)
    monkeypatch.setattr(verify, "lune_points", counting)
    cfg, pot = fermi_ball(2.0), coulomb(1.0)
    check_lattice(cfg)
    verify._mode_values(cfg, pot)
    assert calls == []
    check_cross(cfg, pot)
    assert len(calls) == 3


@pytest.mark.parametrize("k_f, bound", [(2.0, 1_400_000), (3.0, 3_000_000)])
def test_check_lattice_peak_memory(k_f, bound):
    # the lunes of the cube |k_i| <= k_max are read one chunk at a time
    cfg = fermi_ball(k_f)
    check_lattice(cfg)
    tracemalloc.start()
    try:
        check_lattice(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 10.0])
def test_check_mode_green_across_couplings(g):
    pot = coulomb(g) if g else zero()
    reports = check_mode(fermi_ball(1.0), pot)
    assert not any_failed(reports)
    names = {r.name for r in reports}
    assert "mode.sandwich_K" in names and "mode.hyperbolic_identity" in names


def test_check_mode_product_trend_records_exponent_readings():
    reports = by_name(check_mode(fermi_ball(1.0), coulomb(1.0)))
    trend = reports["mode.product_entry_bound_trend"]
    assert trend.status == "diagnostic"
    rows = trend.params["rows"]
    assert rows and all("sup_over_vhat_m" in r and "sup_over_vhat_1" in r
                        for r in rows)


def test_check_mode_eigensolves_each_distinct_input_once(monkeypatch):
    # per mode: 2 in build_K, 1 for K (csk_pair, every exp(+tau K) and the
    # product-entry trend) and 1 for -K (every exp(-tau K)); one batched
    # call each per size batch
    eigh = np.linalg.eigh
    for k_f in (1.0, 2.0):
        calls, matrices, batches = [], [], []

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            matrices.append(math.prod(np.shape(a)[:-2]))
            return eigh(a, *args, **kwargs)

        def counting_batches(*args, **kwargs):
            for dim, batch in size_batches(*args, **kwargs):
                batches.append(batch.size)
                yield dim, batch

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(verify, "size_batches", counting_batches)
        cfg = fermi_ball(k_f)
        n_modes = len(_mode_sample(cfg))
        assert not any_failed(check_mode(cfg, coulomb(1.0)))
        assert sum(batches) == n_modes and len(batches) < n_modes
        assert sum(matrices) == 4 * n_modes
        assert len(calls) <= 4 * len(batches)


def test_check_mode_peak_memory():
    # k and -k meet in one pass, so no kernel is held past its mirror's
    # batch: 1.16 MB, against 1.32 MB with k and -k in separate batches and
    # 2.08 MB for a per-mode loop that holds every K
    cfg, pot = fermi_ball(2.0), coulomb(1.0)
    check_mode(cfg, pot)
    tracemalloc.start()
    try:
        check_mode(cfg, pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_250_000


def _even_table_with_zero_modes():
    # V_k = 0 wherever 3 divides |k|^2, e.g. at k = (1, 1, 1)
    return from_table({k: 1.0 / (n + 0.5 * k[0] ** 2)
                       for k in map(tuple, ball_array(25, 0).tolist())
                       if (n := sum(c * c for c in k)) % 3})


def _table_without_symmetry():
    # V(-k) != V(k) wherever k_0 != 0, and 0 past |k|^2 = 25
    return from_table({k: (1.5 if k[0] > 0 else 1.0) / sum(c * c for c in k)
                       for k in map(tuple, ball_array(25, 0).tolist())})


def test_table_potentials_have_their_symmetry():
    assert _even_table_with_zero_modes().symmetry == "even"
    assert _table_without_symmetry().symmetry == "none"


@pytest.mark.parametrize("k_f", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("pot", [coulomb(1.0), yukawa(1.0, 0.5),
                                 _even_table_with_zero_modes(),
                                 _table_without_symmetry()],
                         ids=["coulomb", "yukawa", "even_table", "none_table"])
def test_exchange_aggregation_sides_equal_plain_loops(k_f, pot):
    # both sides of cross.exchange_aggregation_identity, bit for bit, on
    # its three modes (the largest |k|) and on two of the smallest |k|
    cfg = fermi_ball(k_f)
    sample = _mode_sample(cfg)
    ks = sample[:3] + sample[len(sample) // 2 - 2:len(sample) // 2]
    for k, (pts, lam, vhat, _) in zip(ks, verify._modes(ks, cfg, pot)):
        assert verify._pair_sum(k, cfg, pot) == brute_force_pair_sum(k, cfg, pot)
        assert (verify._exchange_sum(k, pts, lam, vhat, cfg, pot)
                == exchange_sum_loop(k, pts, lam, vhat, cfg, pot))


def test_median_equals_numpy_median():
    rng = np.random.Generator(np.random.Philox(key=3))
    for n in range(1, 40):
        xs = rng.lognormal(size=n).tolist()
        assert verify._median(xs) == np.median(xs)


@pytest.mark.parametrize("k_f", [1.0, 2.0])
@pytest.mark.parametrize("pot", [coulomb(1.0), yukawa(1.0, 0.5), zero(),
                                 _even_table_with_zero_modes()],
                         ids=["coulomb", "yukawa", "zero", "even_table"])
def test_check_mode_is_byte_identical_to_per_mode_loop(k_f, pot):
    cfg = fermi_ball(k_f)
    assert (reports_to_json(check_mode(cfg, pot))
            == reports_to_json(check_mode_loop(cfg, pot)))


@pytest.mark.parametrize("k_f", [1.0, 2.0])
@pytest.mark.parametrize("pot", [coulomb(1.0), yukawa(1.0, 0.5), zero(),
                                 _even_table_with_zero_modes(), coulomb(1e4)],
                         ids=["coulomb", "yukawa", "zero", "even_table",
                              "coulomb_strong"])
def test_check_mode_values_equal_per_mode_loop_per_mode(k_f, pot):
    # the printed values are maxima over the modes, blind to a last-bit
    # change in any one mode; compare every mode's five values.  At g = 1
    # C = cosh(-tau K) - 1 is O(K^2), so the rounding of C T C is lost in
    # T + ... + C T C: only a strong coupling lets it reach the values
    cfg = fermi_ball(k_f)
    ks, _, vals, _, _ = verify._mode_values(cfg, pot)
    ks_loop, results = check_mode_values_loop(cfg, pot)
    assert ks == ks_loop and len(vals) == len(results) > 0
    for got, (want, *_) in zip(vals, results):
        assert got.keys() == want.keys() and len(got) == 5
        assert all(got[key] == want[key] for key in got)


def test_stacked_oracles_equal_per_matrix_calls():
    rng = np.random.Generator(np.random.Philox(key=5))
    taus = np.array(TAUS)
    for dim in range(1, 41):
        lam = 0.5 * rng.integers(1, 4 * dim + 2, size=(3, dim))
        vsq = np.array([0.3, 0.0, 2.5]) / dim
        kmat = build_K(lam, vsq)
        assert np.array_equal(kmat[1], np.zeros((dim, dim)))
        assert not np.signbit(kmat[1]).any()
        cs, ss = csk_pair(kmat, taus)
        for b in range(3):
            one = build_K(lam[b], vsq[b])
            assert np.array_equal(kmat[b], one)
            for bound, single in zip(sandwich_bounds(lam, vsq),
                                     sandwich_bounds(lam[b], vsq[b])):
                assert np.array_equal(bound[b], single)
            for t, tau in enumerate(TAUS):
                c, s = csk_pair(one, tau)
                assert np.array_equal(cs[t, b], c) and np.array_equal(ss[t, b], s)
        spd = np.diag(lam[0] / lam[0].max()) + np.full((dim, dim), 0.5 / dim)
        stack = np.array([spd, 2.0 * spd, spd + np.eye(dim)])
        for fn in ("sqrt", "log", "exp"):
            out = sym_matrix_function(stack, fn)
            assert all(np.array_equal(out[b], sym_matrix_function(stack[b], fn))
                       for b in range(3))


def test_shared_eigenpair_exponentials_equal_per_tau_eigensolves():
    # the premise of verify._exp_taus: each nonzero tau of TAUS is a power
    # of two, so eigh(tau A) is (tau w, U) to the last bit, and exp(0 A) is I
    assert all(math.frexp(tau)[0] == 0.5 for tau in TAUS if tau)
    rng = np.random.Generator(np.random.Philox(key=9))
    for dim in range(1, 41):
        lam = 0.5 * rng.integers(1, 4 * dim + 2, size=(4, dim))
        kmat = build_K(lam, np.array([0.3, 0.0, 2.5, 1e4]) / dim)
        assert np.array_equal(kmat[1], np.zeros((dim, dim)))
        for a, sign in ((kmat, 1.0), (-kmat, -1.0)):
            shared = list(verify._exp_taus(*sym_eig(a)))
            assert len(shared) == len(TAUS)
            for tau, got in zip(TAUS, shared):
                want = sym_matrix_function(sign * tau * kmat, "exp")
                assert np.array_equal(got, want), (dim, sign, tau)


def test_checks_below_half_kf_raise():
    cfg, pot = fermi_ball(0.3), coulomb(1.0)
    for call in (lambda: check_lattice(cfg), lambda: check_mode(cfg, pot),
                 lambda: check_cross(cfg, pot), lambda: run_all(cfg, pot)):
        with pytest.raises(ValueError, match="k_F >= 1/2"):
            call()


def test_check_cross_green():
    for g in (0.5, 1.0, 10.0):
        assert not any_failed(check_cross(fermi_ball(1.0), coulomb(g)))


@pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 10.0])
def test_full_suite_green_kf2(g):
    pot = coulomb(g) if g else zero()
    assert not any_failed(run_all(fermi_ball(2.0), pot))


def test_run_all_green_and_json_round_trips():
    reports = run_all(fermi_ball(1.0), coulomb(1.0))
    assert not any_failed(reports)
    parsed = json.loads(reports_to_json(reports))
    assert len(parsed) == len(reports)
    assert all(p["status"] in ("pass", "fail", "diagnostic") for p in parsed)
    names = [p["name"] for p in parsed]
    assert names == sorted(names)


def test_normals_are_box_muller_pairs_with_normal_moments():
    z = verify._normals(11, 10**6)
    # standard errors at 10^6 draws: 1e-3, 1.4e-3, 3.9e-3 and 9.8e-3
    assert abs(z.mean()) < 5e-3
    assert abs(z.var() - 1.0) < 7e-3
    assert abs(np.mean(z**3)) < 2e-2
    assert abs(np.mean(z**4) - 3.0) < 5e-2
    # an odd count is the head of the next even one, pairs in stream order
    assert verify._normals(11, 5).tolist() == z[:5].tolist()
    u = uniforms(11, 2)
    r = math.sqrt(-2.0 * math.log1p(-u[0]))
    assert z[:2] == pytest.approx([r * math.cos(2.0 * math.pi * u[1]),
                                   r * math.sin(2.0 * math.pi * u[1])], rel=1e-15)
