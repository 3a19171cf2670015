import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import fermigas.momentum as momentum
from fermigas.lattice import (TailPolicy, ball_array, fermi_ball, gap_classes,
                              k_support, lune_kernel, lune_points, neg, norm2,
                              orbit, orbit_key, point_group)
from fermigas.momentum import (MomentumBreakdown, Observable, _block_parts,
                               n_point, n_weighted)
from fermigas.potential import coulomb, evaluate, from_table, yukawa, zero
from fermigas.quasiboson import (TWO_PI_CUBED, cosh_minus_one_classes,
                                 mode_chunks, q_of_s, response_chunks)

from oracles import (_exchange_term, _integral_term, _lune_hits,
                     ball_pair_sum_n_ex, ball_points, ball_trace_n_b,
                     bulk_chunk, bulk_exchange, cosh2k_minus_one_diag,
                     gap_counts, lambda_of, mode_of, n_boson_integral,
                     n_boson_spectral, n_exchange, nonzero_k_vectors,
                     per_k_sum, spectral_term, truncated_k_vectors)

TWO_PI_6 = (2.0 * np.pi) ** 6
FAST = TailPolicy(k_max=4, tail_tol=1e-3, max_doublings=2)


@lru_cache(maxsize=None)
def _table(kind: str, radius: int):
    """Table potential on 0 < |k| <= radius: Coulomb's values, or uneven ones."""
    if kind == "table_even":
        return from_table({k: 1.0 / norm2(k) for k in nonzero_k_vectors(radius)})
    return from_table({k: 1.0 / (norm2(k) + 0.3 * k[0] + 0.2 * k[1]
                                 + 0.1 * k[2] + 1.0)
                       for k in nonzero_k_vectors(radius)})


def _potential(name: str, radius: int):
    """A named potential; tables cover |k| <= radius."""
    if name == "coulomb":
        return coulomb(1.0)
    if name == "yukawa":
        return yukawa(2.0, 0.5)
    return _table(name, radius)


def _block_inputs(xi, cfg, pot, k_hi):
    """``_block_parts``'s k rows, weights, columns and column weights at xi.

    Outside the ball the exact support; inside the shell 0 < |k| <= k_hi
    on the potential's group with the hit columns of xi's orbit.  The
    column weights are one (1, c) row.  Also returns the mode count.
    """
    support = k_support(xi, cfg)
    if support.exact:
        ks = support.finite_part
        return (ks, np.ones(ks.shape[0]),
                cfg.ball_index(np.array([xi, neg(xi)]) - ks[:, None]),
                np.ones((1, 2)), ks.shape[0])
    orbs = [orbit(xi, pot.symmetry)]
    reps, wts, n_k = momentum._hit_shell(orbs, cfg, pot.symmetry, 0, k_hi)
    return (reps, wts, *momentum._columns(orbs, cfg), int(n_k[0]))


def test_zero_potential_gives_exact_zero():
    cfg = fermi_ball(1.0)
    for xi in ((1, 1, 0), (0, 0, 0)):
        row = n_point(xi, cfg, zero(), FAST, route="both")
        assert row.n_b == 0.0 and row.n_ex == 0.0 and row.quad_error == 0.0


def test_dim1_synthetic_mode_contribution():
    # lam = 1, v^2 = 1: the per-hit spectral weight is cosh(-2K) - 1 at K = -log(3)/4
    cfg = fermi_ball(0.5)
    vhat = 2.0 * (2.0 * np.pi) ** 3 * cfg.k_f
    k = (1, 1, 0)
    pts, lam, _, vsq = mode_of(k, cfg,
                             from_table({k: vhat, (-1, -1, 0): vhat}))
    assert lam.size == 1 and lam[0] == 1.0 and vsq == 1.0
    diag = cosh2k_minus_one_diag(lam, vsq)
    expected = (np.sqrt(3.0) + 1.0 / np.sqrt(3.0)) / 2.0 - 1.0
    assert diag[0] == pytest.approx(expected, rel=1e-13)
    assert diag[0] == pytest.approx(0.154701, abs=1e-6)
    zeta = tuple(pts[0].tolist())
    assert spectral_term(pts, lam, vsq, Counter([zeta])) == pytest.approx(
        expected, rel=1e-13)
    # the screened quadrature gives the same per-hit weight
    integ, err, ok = _integral_term(k, lam, vhat, cfg.k_f, Counter([zeta]),
                                    1e-11)
    assert ok and integ == pytest.approx(expected, abs=max(1e-10, 10 * err))


def test_single_mode_cross_route():
    cfg = fermi_ball(1.0)
    pts, lam, vhat, vsq = mode_of((1, 0, 0), cfg, coulomb(1.0))
    zetas = Counter(_lune_hits((1, 0, 0), (1, 1, 0), cfg.r2))
    spec = spectral_term(pts, lam, vsq, zetas)
    integ, err, ok = _integral_term((1, 0, 0), lam, vhat, cfg.k_f, zetas, 1e-10)
    assert ok
    assert abs(spec - integ) <= 1e-6 * abs(spec)


def test_full_cross_route_outside():
    cfg = fermi_ball(1.0)
    row = n_point((1, 1, 0), cfg, coulomb(1.0), route="both")
    assert row.tail_estimate == 0.0
    assert row.discrepancy <= 10.0 * (row.quad_error + 1e-13)
    assert row.n_b > 0.0 and row.n_ex < 0.0 and abs(row.n_ex) < row.n_b


def test_regression_point_outside():
    # frozen after the two routes were verified to agree
    cfg = fermi_ball(1.0)
    row = n_point((1, 1, 0), cfg, coulomb(1.0), route="both")
    assert row.n_b_spectral == pytest.approx(1.5225653274120177e-04, rel=1e-9)
    assert row.n_ex == pytest.approx(-2.541346328525346e-05, rel=1e-10)
    assert row.k_modes_used == 14


def test_finite_support_dichotomy():
    cfg = fermi_ball(1.0)
    rows = [n_point((9, 9, 9), cfg, coulomb(1.0),
                    TailPolicy(k_max=k), route="spectral")
            for k in (2, 4, 16)]
    assert rows[0].n_b > 0.0
    assert rows[0].n_b == rows[1].n_b == rows[2].n_b
    assert rows[0].n_ex == rows[1].n_ex == rows[2].n_ex
    assert all(r.tail_estimate == 0.0 for r in rows)


def test_exchange_sign_and_zero():
    cfg = fermi_ball(1.0)
    assert n_exchange((1, 1, 0), cfg, zero(), FAST) == 0.0
    for xi in ((1, 1, 0), (2, 0, 0), (0, 0, 0)):
        assert n_exchange(xi, cfg, coulomb(1.0), FAST) <= 0.0


def test_per_k_exchange_aggregation_identity():
    # summing the k-term over the ball collapses to a pair sum over the lune
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    k = (1, 0, 0)
    pts, lam, vhat, _ = mode_of(k, cfg, pot)
    lhs = sum(_exchange_term(k, pts, lam, vhat, cfg.k_f,
                             Counter(_lune_hits(k, xi, cfg.r2)), pot)
              for xi in ball_points(cfg.r2))
    rhs = 0.0
    for p in pts.tolist():
        for q in pts.tolist():
            arg = tuple(pc + qc - kc for pc, qc, kc in zip(p, q, k))
            rhs += evaluate(pot, k) * evaluate(pot, arg) / (
                lambda_of(k, p) + lambda_of(k, q)) ** 2
    rhs *= -1.0 / (4.0 * TWO_PI_6 * cfg.k_f**2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_reflection_symmetry_of_n_point():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    for xi in ((1, 1, 0), (2, 0, 0)):
        a = n_boson_spectral(xi, cfg, pot)
        b = n_boson_spectral(tuple(-c for c in xi), cfg, pot)
        assert a.n_b == pytest.approx(b.n_b, rel=1e-12)
        assert a.n_ex == pytest.approx(b.n_ex, rel=1e-12)


def test_inside_point_routes_agree():
    cfg = fermi_ball(1.0)
    row = n_point((0, 0, 0), cfg, coulomb(1.0), FAST, route="both")
    assert row.n_b_spectral > 0.0
    assert row.discrepancy <= 10.0 * (row.quad_error + 1e-13)
    assert row.tail_estimate > 0.0 and row.k_modes_used > 100


def test_inside_point_truncation_robustness():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    a = n_point((0, 0, 0), cfg, pot, TailPolicy(k_max=3, max_doublings=1),
                route="spectral")
    b = n_point((0, 0, 0), cfg, pot, TailPolicy(k_max=6, max_doublings=1),
                route="spectral")
    assert abs(b.n_b - a.n_b) <= a.tail_estimate


def test_orbit_and_bulk_path_match_plain_per_k():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    xi = (1, 0, 0)
    ks = truncated_k_vectors(xi, cfg, 5)
    plain, _, _ = per_k_sum(ks, xi, cfg, pot)
    *inputs, n_k = _block_inputs(xi, cfg, pot, 5)
    (fast,), _, _ = _block_parts(*inputs, cfg, pot, 1e-9, True, True)
    assert n_k == len(ks)
    assert fast[0] == pytest.approx(plain[0], rel=1e-10)
    assert fast[1] == pytest.approx(plain[1], rel=1e-10)
    assert fast[2] == pytest.approx(plain[2], rel=1e-12)


def _per_gap(ks, cfg, vsq):
    """(g, counts, values): ``cosh_minus_one_classes`` of every mode on the (m, G) table."""
    mask, lam = lune_kernel(ks, cfg)
    g, counts = gap_counts(mask, lam)
    values = np.zeros(counts.shape)
    values[np.nonzero(counts)] = cosh_minus_one_classes(
        gap_classes(mask, lam), vsq, np.arange(len(ks)))
    return g, counts, values


# near (partial-lune, |k| <= 2 k_F) and far (full-lune) transfers
BLOCK_KS = {
    2.0: [(1, 0, 0), (1, 1, 1), (2, 1, 0), (3, 1, 1), (0, 4, 0),
          (5, 2, 1), (3, 3, 3), (8, 3, 2), (-11, 4, 1)],
    3.0: [(1, 0, 0), (2, 2, 1), (4, 1, 0), (0, 3, -3), (7, 2, 2),
          (6, 6, 0), (11, 5, 3)],
}


@pytest.mark.parametrize("kf", sorted(BLOCK_KS))
def test_deflated_diag_matches_full_lune(kf):
    cfg = fermi_ball(kf)
    modes = [mode_of(k, cfg, coulomb(1.0)) for k in BLOCK_KS[kf]]
    g, counts, per_gap = _per_gap(np.array(BLOCK_KS[kf]), cfg,
                                  np.array([m[3] for m in modes]))
    for row, (_, lam, _, vsq) in enumerate(modes):
        col = np.searchsorted(g, lam)
        assert np.array_equal(g[col], lam)
        assert counts[row].sum() == lam.size
        # both sum positive terms, so they agree in relative terms even on
        # far modes (measured: 2.6e-14 at most)
        np.testing.assert_allclose(per_gap[row, col],
                                   cosh2k_minus_one_diag(lam, vsq), rtol=1e-13)


def test_gap_table_response_matches_q_of_s():
    s = np.array([0.0, 0.05, 0.5, 1.0, 3.0, 10.0, 1e3])
    for kf, pot in ((2.0, coulomb(1.0)), (3.0, yukawa(2.0, 0.5))):
        cfg = fermi_ball(kf)
        modes = [mode_of(k, cfg, pot) for k in BLOCK_KS[kf]]
        ks = np.array(BLOCK_KS[kf])
        # one masked chunk of all rows; then one chunk per row, so that
        # the full-lune rows take the unmasked path
        for size in (len(ks), 1):
            seen = []
            for rows, g, resp, lam_min in response_chunks(ks, pot.at(ks),
                                                          cfg, size):
                q = resp @ (1.0 / (s[None, :] ** 2 + g[:, None] ** 2))
                for row, q_row, low in zip(rows, q, lam_min):
                    _, lam, _, vsq_k = modes[row]
                    np.testing.assert_allclose(q_row, q_of_s(lam, s, vsq_k),
                                               rtol=1e-13)
                    assert low == lam.min()
                seen.extend(rows.tolist())
            assert sorted(seen) == list(range(len(ks)))


@settings(max_examples=60, deadline=None)
@given(k=st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
       .filter(lambda k: k != (0, 0, 0)),
       kf=st.sampled_from([1.0, 2**0.5, 2.0, 2.5, 3.0]))
def test_gap_histogram_is_point_group_invariant(k, kf):
    cfg = fermi_ball(kf)
    images = point_group("radial") @ np.array(k)
    g, counts = gap_counts(*lune_kernel(images, cfg))
    lam_d, m_d = np.unique(lune_points(k, cfg)[1], return_counts=True)
    assert np.array_equal(g, lam_d)
    assert np.array_equal(counts, np.broadcast_to(m_d, (48, lam_d.size)))
    assert np.all(orbit_key(images) == orbit_key(images)[0])


@pytest.mark.parametrize("pot_name", ["coulomb", "yukawa", "table_even",
                                      "table_uneven"])
def test_mode_chunks_cover_nonzero_rows_in_order(pot_name):
    cfg = fermi_ball(2.0)
    # the tables stop at |k| = 5, so the rows out to 7 include V_k = 0
    pot = _potential(pot_name, 5)
    ks = ball_array(49, 0)
    ks = ks[np.random.default_rng(7).permutation(len(ks))]
    vhat = pot.at(ks)
    chunks = list(mode_chunks(ks, vhat, cfg, 50))
    assert [len(rows) for rows, _, _ in chunks[:-1]] == [50] * (len(chunks) - 1)
    rows = np.concatenate([rows for rows, _, _ in chunks])
    assert sorted(rows.tolist()) == np.flatnonzero(vhat).tolist()
    # (|k|^2, sorted |k_i| from the largest) ascending is the orbit-key order
    keys = [(norm2(k), sorted(map(abs, k), reverse=True))
            for k in ks[rows].tolist()]
    assert keys == sorted(keys)
    for rows, mask, lam in chunks:
        for row, mask_k, lam_k in zip(rows, mask, lam):
            want_mask, want_lam = lune_kernel(tuple(ks[row]), cfg)
            assert np.array_equal(mask_k, want_mask)
            assert np.array_equal(lam_k, want_lam)


@pytest.mark.parametrize("xi, pot_name", [
    ((0, 0, 0), "coulomb"), ((1, 0, 0), "coulomb"), ((1, 1, 0), "coulomb"),
    ((2, 0, 0), "coulomb"),
    ((0, 0, 0), "table_even"), ((1, 0, 0), "table_even"),
    ((1, 1, 0), "table_even"),
    ((0, 0, 0), "table_uneven"), ((1, 0, 0), "table_uneven"),
    ((1, 1, 0), "table_uneven")])
def test_mode_block_matches_plain_per_k_kf2(xi, pot_name):
    cfg = fermi_ball(2.0)
    # exchange arguments k + q + q_z reach |k| + 2 k_F <= 9
    pot = _potential(pot_name, 10)
    ks = truncated_k_vectors(xi, cfg, 5)
    plain, _, plain_ok = per_k_sum(ks, xi, cfg, pot)
    *inputs, n_k = _block_inputs(xi, cfg, pot, 5)
    (fast,), _, (ok,) = _block_parts(*inputs, cfg, pot, 1e-9, True, True)
    assert n_k == len(ks)
    assert fast[0] == pytest.approx(plain[0], rel=1e-10)
    assert fast[1] == pytest.approx(plain[1], rel=1e-10)
    assert fast[2] == pytest.approx(plain[2], rel=1e-12)
    assert ok and plain_ok


@pytest.mark.parametrize("xi", [(0, 0, 0), (1, 0, 0), (1, 1, 1)])
def test_mode_chunk_matches_full_lune_bulk_oracle(xi):
    cfg = fermi_ball(2.0)
    pot = coulomb(1.0)
    ks = truncated_k_vectors(xi, cfg, 7, k_min_excl=4)
    # the plain k list at the columns +-xi, each of weight 1
    (fast,), _, (fast_ok,) = _block_parts(
        np.array(ks), np.ones(len(ks)), cfg.ball_index(np.array([xi, neg(xi)])),
        np.ones((1, 2)), cfg, pot, 1e-9, True, True)
    spectral, integral, _, ok = bulk_chunk(ks, xi, cfg, pot, (1, -1), 1e-9)
    assert fast[0] == pytest.approx(spectral, rel=1e-9)
    assert fast[1] == pytest.approx(integral, rel=1e-9)
    assert fast[2] == pytest.approx(bulk_exchange(ks, xi, cfg, pot, (1, -1)),
                                    rel=1e-12)
    assert fast_ok and ok


OUTSIDE = [(1.0, (1, 1, 0)), (1.0, (2, 0, 0)), (1.0, (9, 9, 9)),
           (2.0, (3, 0, 0)), (2.0, (2, 2, 1)), (3.0, (3, 1, 0)), (3.0, (4, 1, 1))]


@pytest.mark.parametrize("pot_name", ["coulomb", "yukawa", "table_even",
                                      "table_uneven"])
@pytest.mark.parametrize("kf, xi", OUTSIDE)
def test_outside_block_matches_plain_per_k(kf, xi, pot_name):
    cfg = fermi_ball(kf)
    # exchange arguments k + q + q_z, k in +-xi + B, reach |xi| + 3 k_F
    pot = _potential(pot_name, math.isqrt(norm2(xi)) + 1 + 3 * math.ceil(kf))
    ks = k_support(xi, cfg).finite_part
    plain, _, plain_ok = per_k_sum(ks, xi, cfg, pot)
    row = n_point(xi, cfg, pot, route="both")
    assert row.k_modes_used == len(ks) and row.tail_estimate == 0.0
    assert row.converged and plain_ok
    assert row.n_b_integral == pytest.approx(plain[1], rel=1e-10)
    assert row.n_ex == pytest.approx(plain[2], rel=1e-12)
    # the deflated and the full-lune spectral sums, both exact on far modes
    assert row.n_b_spectral == pytest.approx(plain[0], rel=1e-13)


def test_table_potential_outside_point_runs_block(monkeypatch):
    cfg = fermi_ball(1.0)
    pot_t = _table("table_even", 11)
    xi = (1, 1, 0)
    ks = k_support(xi, cfg).finite_part
    plain, _, _ = per_k_sum(ks, xi, cfg, pot_t)
    # frozen from this per-k sum when it was the library's table path
    assert plain[0] == pytest.approx(1.5225653274120177e-04, rel=1e-12)
    assert plain[1] == pytest.approx(1.5225653274261963e-04, rel=1e-12)
    assert plain[2] == pytest.approx(-2.541346328525346e-05, rel=1e-12)
    chunks = []
    driver = momentum.mode_chunks
    monkeypatch.setattr(momentum, "mode_chunks", lambda *args: (
        chunks.append(chunk) or chunk for chunk in driver(*args)))
    row = n_point(xi, cfg, pot_t, route="both")
    assert len(chunks) == 1 and len(chunks[0][0]) == len(ks)
    assert row.n_b_integral == pytest.approx(plain[1], rel=1e-10)
    assert row.n_ex == pytest.approx(plain[2], rel=1e-12)
    assert row.n_b_spectral == pytest.approx(plain[0], rel=1e-13)
    # a table of Coulomb's values on every argument reached is Coulomb
    assert row.to_json_dict() == n_point(xi, cfg, coulomb(1.0),
                                         route="both").to_json_dict()


def _cosh_minus_one_mp(lam, m, vsq):
    """cosh(-2K) - 1 at a point of each gap, by a 40-digit deflated eigensolve."""
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(x)) for x in lam]
        w = [mpmath.sqrt(int(c) * x * mpmath.mpf(float(vsq)))
             for c, x in zip(m, lam)]
        d = len(lam)
        core = mpmath.matrix([[2 * w[i] * w[j] + (lam[i] ** 2 if i == j else 0)
                               for j in range(d)] for i in range(d)])
        ev, vec = mpmath.eigsy(core)
        sw = [mpmath.sqrt(e) for e in ev]
        return [float((sum(vec[i, j] ** 2 * (sw[j] / lam[i] + lam[i] / sw[j])
                           for j in range(d)) / 2 - 1) / int(m[i]))
                for i in range(d)]


def test_deflated_hit_value_against_mpmath_kf3():
    """Per-mode spectral value at k_F = 3, xi = (4, 0, 0) against 40 digits.

    Summing the 40-digit value over all 246 support modes (one solve per
    orbit key) gives 2.77162373083240e-06.  The spectral route, a sum of
    positive terms per gap, is 9.2e-16 relative off it and the integral
    route 7.8e-14.  Per mode the value at the hit was measured 3.1e-15
    off at k = (6, 2, 1) and 1.1e-15 at k = (+-7, 0, 0); the earlier
    form (A + A^-1)/2 - 1 was 1.3e-6 and 2.1e-6 off there, and its
    spectral total 3.7e-9.
    """
    cfg = fermi_ball(3.0)
    xi = np.array((4, 0, 0))
    ks = np.array(k_support(tuple(xi), cfg).finite_part)
    kn2 = np.einsum("mi,mi->m", ks, ks)
    ks = ks[np.lexsort((*ks.T[::-1], kn2))[-3:]]
    assert ks.tolist() == [[6, 2, 1], [-7, 0, 0], [7, 0, 0]]
    vsq = coulomb(1.0).from_norm2(np.einsum("mi,mi->m", ks, ks)) / (
        2.0 * TWO_PI_CUBED * cfg.k_f)
    g, counts, per_gap = _per_gap(ks, cfg, vsq)
    for row, k in enumerate(ks):
        # the hit is s xi with s xi - k in the ball
        s = 1 if norm2(xi - k) <= cfg.r2 else -1
        lz = (norm2(k) + 2 * int(k @ (s * xi - k))) / 2.0
        nz = np.flatnonzero(counts[row])
        exact = _cosh_minus_one_mp(g[nz], counts[row, nz], vsq[row])
        got = per_gap[row, np.searchsorted(g, lz)]
        want = exact[int(np.searchsorted(g[nz], lz))]
        assert abs(got - want) <= 1e-13 * want
    row_total = n_point(tuple(xi), cfg, coulomb(1.0), route="spectral")
    assert row_total.n_b == pytest.approx(2.77162373083240e-06, rel=1e-13)


def test_deflated_far_modes_against_mpmath_kf2():
    """Every per-gap value of near and far modes at k_F = 2 against 40 digits.

    The earlier form (A + A^-1)/2 - 1 was 4.4e-8, 9.4e-4, 1.2e-2 and
    1.7e2 relative off at these k, and went negative at (40, 11, 5);
    the sum of positive terms is within 1.2e-15 at each.
    """
    cfg = fermi_ball(2.0)
    ks = np.array([(2, 1, 0), (8, 3, 2), (11, 4, 1), (40, 11, 5)])
    vsq = coulomb(1.0).at(ks) / (2.0 * TWO_PI_CUBED * cfg.k_f)
    g, counts, per_gap = _per_gap(ks, cfg, vsq)
    for row in range(len(ks)):
        nz = np.flatnonzero(counts[row])
        exact = np.array(_cosh_minus_one_mp(g[nz], counts[row, nz], vsq[row]))
        assert np.all(per_gap[row, nz] >= 0.0)
        np.testing.assert_allclose(per_gap[row, nz], exact, rtol=1e-13)


def test_table_potential_inside_point_matches_coulomb():
    # an even table is orbit-reduced by k -> -k only, Coulomb by all 48
    # signed permutations: the two agree up to summation order
    cfg = fermi_ball(1.0)
    # cover every argument the exchange sum can reach: |k + q +- xi| <= 10
    pot_t = _table("table_even", 11)
    assert not pot_t.is_radial and pot_t.is_even
    pol = TailPolicy(k_max=4, tail_tol=1e-3, max_doublings=1)
    a = n_point((0, 0, 0), cfg, pot_t, pol, route="spectral")
    b = n_point((0, 0, 0), cfg, coulomb(1.0), pol, route="spectral")
    assert a.k_modes_used == b.k_modes_used
    assert a.n_b == pytest.approx(b.n_b, rel=1e-12)
    assert a.n_ex == pytest.approx(b.n_ex, rel=1e-12)


def test_uneven_table_potential_not_pair_reduced():
    uneven = from_table({(1, 0, 0): 1.0, (-1, 0, 0): 2.0})
    assert uneven.symmetry == "none"
    even = from_table({(1, 0, 0): 1.0, (-1, 0, 0): 1.0})
    assert even.symmetry == "even"
    # the tables of the block-vs-oracle tests
    assert _table("table_even", 3).symmetry == "even"
    assert _table("table_uneven", 3).symmetry == "none"


def test_coupling_monotonicity_of_spectral_summand():
    cfg = fermi_ball(1.0)
    for k in ((1, 0, 0), (2, 0, 0), (1, 1, 1)):
        prev = None
        for g in (0.1, 0.5, 1.0, 2.0, 10.0):
            _, lam, _, vsq = mode_of(k, cfg, coulomb(g))
            diag = cosh2k_minus_one_diag(lam, vsq)
            if prev is not None:
                assert np.all(diag >= prev - 1e-15)
            prev = diag


def test_positivity_of_spectral_diag():
    cfg = fermi_ball(2.0)
    for k in nonzero_k_vectors(4):
        _, lam, _, vsq = mode_of(k, cfg, coulomb(1.0))
        diag = cosh2k_minus_one_diag(lam, vsq)
        assert np.all(diag > 0.0)


def test_observable_symmetry_enforced():
    with pytest.raises(ValueError):
        Observable(values={(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        Observable(values={(1, 0, 0): 1.0, (-1, 0, 0): 2.0})
    Observable(values={(1, 0, 0): 1.0, (-1, 0, 0): 1.0})


@pytest.mark.parametrize("quad_tol", [0.0, -1e-9, np.inf, np.nan])
def test_entry_points_reject_bad_quad_tol(quad_tol):
    # checked up front: none of these calls would reach the engine
    cfg = fermi_ball(1.0)
    calls = (lambda: n_boson_integral((0, 0, 0), cfg, zero(), FAST, quad_tol),
             lambda: n_point((2, 0, 0), cfg, coulomb(1.0), FAST,
                             route="spectral", quad_tol=quad_tol),
             lambda: n_weighted(Observable(values={}), cfg, coulomb(1.0),
                                FAST, quad_tol=quad_tol))
    for call in calls:
        with pytest.raises(ValueError, match="quad_tol must be positive"):
            call()


def test_points_must_be_three_integers():
    cfg, pot = fermi_ball(1.0), coulomb(1.0)
    # before, each of these was truncated to the origin
    with pytest.raises(ValueError, match="three integral components"):
        n_point((0.5, 0, 0), cfg, pot)
    with pytest.raises(ValueError, match="three integral components"):
        Observable.delta((0.9, 0, 0))
    with pytest.raises(ValueError, match="three integral components"):
        Observable(values={(0.5, 0, 0): 1.0, (-0.5, 0, 0): 1.0})
    assert Observable.delta(np.array([2, 0, 0])).support() == [(-2, 0, 0),
                                                               (2, 0, 0)]
    assert n_point(np.array([2, 0, 0]), cfg, pot).xi == (2, 0, 0)


def test_observable_rejects_non_finite_weights():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="must be finite"):
            Observable(values={(1, 0, 0): bad, (-1, 0, 0): bad})


def test_observable_presets():
    cfg = fermi_ball(1.0)
    ball = Observable.ball_indicator(cfg)
    assert len(ball.support()) == 7
    delta = Observable.delta((2, 0, 0))
    assert sorted(delta.support()) == [(-2, 0, 0), (2, 0, 0)]
    assert Observable.delta((0, 0, 0)).support() == [(0, 0, 0)]


def test_observable_table_roundtrip(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("1 0 0 2.0\n-1 0 0 2.0\n# comment\n")
    obs = Observable.load_table(path)
    assert obs.values[(1, 0, 0)] == 2.0


def test_weighted_delta_is_twice_the_point():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    xi0 = (2, 0, 0)
    total, rows = n_weighted(Observable.delta(xi0), cfg, pot, route="spectral")
    point = n_point(xi0, cfg, pot, route="spectral")
    assert total == pytest.approx(2.0 * point.n_total, rel=1e-12)
    assert len(rows) == 2


def test_weighted_zero_observable():
    cfg = fermi_ball(1.0)
    obs = Observable(values={(2, 0, 0): 0.0, (-2, 0, 0): 0.0})
    total, rows = n_weighted(obs, cfg, coulomb(1.0))
    assert total == 0.0 and rows == []


def test_weighted_ball_indicator_positive():
    # counts excited particle-hole pairs: finite and positive
    cfg = fermi_ball(1.0)
    total, rows = n_weighted(Observable.ball_indicator(cfg), cfg, coulomb(1.0),
                             FAST, route="spectral")
    assert np.isfinite(total) and total > 0.0
    assert len(rows) == 7


def _count_calls(monkeypatch) -> Counter:
    """Count the n_point and doubled_sum calls of momentum, and the rows summed."""
    count = Counter()
    summed = momentum.doubled_sum

    def counted_point(xi, *args, **kwargs):
        count["n_point"] += 1
        return n_point(xi, *args, **kwargs)

    def counted_sum(*args):
        count["doubled_sum"] += 1
        result = summed(*args)
        count["rows"] += result[0].shape[0]
        return result

    monkeypatch.setattr(momentum, "n_point", counted_point)
    monkeypatch.setattr(momentum, "doubled_sum", counted_sum)
    return count


@pytest.mark.parametrize("pot_name, orbits", [
    ("coulomb", 5), ("yukawa", 5), ("table_even", 17), ("table_uneven", 33)])
def test_weighted_ball_runs_one_point_per_orbit(monkeypatch, pot_name, orbits):
    # the 33 ball points at k_F = 2 fall into 5 orbits of the 48 signed
    # permutations, 17 of +-1 ({0} and 16 pairs) and 33 of the identity:
    # one doubled sum with one row per orbit, and no n_point
    cfg = fermi_ball(2.0)
    pot = _potential(pot_name, 6)
    obs = Observable.ball_indicator(cfg)
    policy = TailPolicy(k_max=4, max_doublings=0)
    count = _count_calls(monkeypatch)
    total, rows = n_weighted(obs, cfg, pot, policy, route="both")
    assert count == Counter(doubled_sum=1, rows=orbits)
    assert [row.xi for row in rows] == obs.support()
    assert total == sum(row.n_total for row in rows)
    for row in rows:
        want = n_point(row.xi, cfg, pot, policy, route="both")
        assert row.n_b == pytest.approx(want.n_b, rel=1e-12)
        assert row.n_ex == pytest.approx(want.n_ex, rel=1e-12)
        assert row.n_b_integral == pytest.approx(want.n_b_integral, rel=1e-11)
        assert row.k_modes_used == want.k_modes_used
        assert row.converged == want.converged


def test_weighted_rows_keep_their_own_tail(monkeypatch):
    # at k_F = 1 the shell 2 < |k| <= 4 moves the orbit of (1, 0, 0) by at
    # most 0.146 of its total and {0} by 0.192: at tail_tol 0.17 the first
    # meets the rule a shell before the second, which the shared sum runs
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    policy = TailPolicy(k_max=2, tail_tol=0.17, max_doublings=3)
    count = _count_calls(monkeypatch)
    _, rows = n_weighted(Observable.ball_indicator(cfg), cfg, pot, policy,
                         route="both")
    assert count == Counter(doubled_sum=1, rows=2)
    # both rows run to the cutoff 8, as from 4 with one doubling
    same_shells = replace(policy, k_max=4, max_doublings=1)
    for row in rows:
        alone = n_point(row.xi, cfg, pot, policy, route="both")
        own = n_point(row.xi, cfg, pot, same_shells, route="both")
        assert row.converged and own.converged and alone.converged
        assert row.tail_estimate == pytest.approx(own.tail_estimate, rel=1e-12)
        assert row.n_b == pytest.approx(own.n_b, rel=1e-12)
        assert row.n_ex == pytest.approx(own.n_ex, rel=1e-12)
        assert abs(row.n_b - alone.n_b) <= row.tail_estimate
        assert abs(row.n_ex - alone.n_ex) <= row.tail_estimate
    early = next(row for row in rows if row.xi == (1, 0, 0))
    late = next(row for row in rows if row.xi == (0, 0, 0))
    # (1, 0, 0) alone stops a shell earlier, {0} alone runs the same shells
    assert n_point(early.xi, cfg, pot, policy).k_modes_used < early.k_modes_used
    assert n_point(late.xi, cfg, pot, policy).k_modes_used == late.k_modes_used
    assert early.tail_estimate != late.tail_estimate


def test_weighted_delta_outside_shares_its_row(monkeypatch):
    # +-xi are one orbit: one n_points call with one row, and no n_point
    cfg = fermi_ball(2.0)
    count = _count_calls(monkeypatch)
    points, rows = momentum.n_points, []
    monkeypatch.setattr(momentum, "n_points", lambda xis, *args: (
        rows.append(len(xis)) or points(xis, *args)))
    _, (minus, plus) = n_weighted(Observable.delta((2, 1, 0)), cfg,
                                  coulomb(1.0), route="both")
    assert rows == [1]
    assert count == Counter()
    assert (minus.xi, plus.xi) == ((-2, -1, 0), (2, 1, 0))
    assert replace(minus, xi=plus.xi) == plus


# an outside point per k_F; the cases name lists of points built from it
N_POINTS_XI = {1.0: (2, 1, 0), 2.0: (2, 2, 1), 3.0: (3, 2, 1)}


def _n_points_case(case: str, xi) -> list:
    x, y, z = xi
    return {
        "pair": [xi, neg(xi)],
        "images": [xi, (y, -x, z), (-z, y, x), (x, -z, -y)],
        "duplicates": [xi, (x + 1, y, 0), xi, (1, 0, 0), (x + 1, y, 0)],
        "one": [xi],
        "empty": [],
    }[case]


@pytest.mark.parametrize("case", ["pair", "images", "duplicates", "one",
                                  "empty"])
@pytest.mark.parametrize("pot_name", ["coulomb", "yukawa", "table_even",
                                      "table_uneven"])
@pytest.mark.parametrize("kf", [1.0, 2.0, 3.0])
def test_n_points_match_lone_runs(kf, pot_name, case):
    # the outside points of one call share one pass over the union of
    # their supports; each record is its lone n_point's up to rounding
    cfg = fermi_ball(kf)
    pot = _potential(pot_name, 10)
    policy = TailPolicy(k_max=3, max_doublings=0)
    xis = _n_points_case(case, N_POINTS_XI[kf])
    rows = momentum.n_points(xis, cfg, pot, policy, route="both")
    assert [row.xi for row in rows] == xis
    assert len({id(row) for row in rows}) == len(rows)
    for xi, row in zip(xis, rows):
        alone = n_point(xi, cfg, pot, policy, route="both")
        assert row.n_b_spectral == pytest.approx(alone.n_b_spectral, rel=1e-13)
        assert row.n_ex == pytest.approx(alone.n_ex, rel=1e-13)
        assert (abs(row.n_b_integral - alone.n_b_integral)
                <= row.quad_error + alone.quad_error)
        assert row.k_modes_used == alone.k_modes_used
        assert row.converged == alone.converged
        if norm2(xi) > cfg.r2:
            assert row.k_modes_used == 2 * cfg.n_particles


def test_n_points_outside_groups_bound_the_column_table(monkeypatch):
    # the outside points run in groups of P with 4 P^2 N <= _COLUMNS, in
    # (|xi|^2, sorted |xi|) order; each group is one exact-support pass
    cfg = fermi_ball(2.0)
    monkeypatch.setattr(momentum, "_COLUMNS", 4 * 2**2 * cfg.n_particles)
    rows, groups = momentum._outside_rows, []
    monkeypatch.setattr(momentum, "_outside_rows", lambda xs, *args: (
        groups.append(list(xs)) or rows(xs, *args)))
    xis = [(4, 0, 0), (0, 3, 0), (1, 0, 0), (2, 2, 1), (-3, 0, 0), (0, 0, 4)]
    momentum.n_points(xis, cfg, coulomb(1.0),
                      TailPolicy(k_max=3, max_doublings=0))
    assert groups == [[(0, 3, 0), (-3, 0, 0)], [(2, 2, 1), (4, 0, 0)],
                      [(0, 0, 4)]]


def test_n_points_checks_route_and_tolerance_before_any_work():
    cfg = fermi_ball(1.0)
    with pytest.raises(ValueError, match="unknown route"):
        momentum.n_points([], cfg, coulomb(1.0), route="fast")
    with pytest.raises(ValueError, match="quad_tol"):
        momentum.n_points([], cfg, coulomb(1.0), quad_tol=0.0)
    assert momentum.n_points([], cfg, coulomb(1.0)) == []


@pytest.mark.parametrize("kf", [1.0, 2.0])
@pytest.mark.parametrize("pot_name", ["coulomb", "yukawa", "table_even"])
def test_ball_totals_are_one_trace_per_mode(kf, pot_name):
    # particle-hole balance at a fixed cutoff: each lune point k + q is hit
    # from xi = q and xi = -q, so the ball totals are k-sums of traces
    cfg = fermi_ball(kf)
    # exchange arguments k + q + q' reach 5 + 2 k_F
    pot = _potential(pot_name, 10)
    policy = TailPolicy(k_max=5, max_doublings=0)
    _, rows = n_weighted(Observable.ball_indicator(cfg), cfg, pot, policy,
                         route="spectral")
    assert len(rows) == cfg.n_particles
    n_b = math.fsum(row.n_b for row in rows)
    n_ex = math.fsum(row.n_ex for row in rows)
    assert n_b == pytest.approx(ball_trace_n_b(cfg, pot, 5), rel=1e-12)
    assert n_ex == pytest.approx(ball_pair_sum_n_ex(cfg, pot, 5), rel=1e-12)


@pytest.mark.parametrize("pot_name", ["coulomb", "yukawa"])
@pytest.mark.parametrize("xi", [(1, 0, 0), (2, 1, 0)], ids=["inside", "outside"])
def test_block_sign_laws_per_mode(xi, pot_name):
    # every k row of the first shell on its own: spectral n_b >= 0,
    # n_ex <= 0, and the integral n_b >= 0 up to its quadrature error
    cfg = fermi_ball(2.0)
    pot = _potential(pot_name, 6)
    ks, wts, cols, colw, _ = _block_inputs(xi, cfg, pot,
                                           FAST.initial_k_max(cfg))
    cols = np.broadcast_to(cols, (ks.shape[0], colw.shape[1]))
    assert ks.shape[0] > 0
    for i in range(ks.shape[0]):
        (parts,), (qerr,), _ = _block_parts(ks[i:i + 1], wts[i:i + 1],
                                            cols[i:i + 1], colw, cfg, pot,
                                            1e-9, True, True)
        assert parts[0] >= 0.0, ks[i]
        assert parts[2] <= 0.0, ks[i]
        assert parts[1] >= -qerr, ks[i]


def _chunk_sizes(monkeypatch) -> list[int]:
    """Record the row count of every chunk that momentum's blocks run."""
    sizes = []
    chunks = momentum.mode_chunks
    monkeypatch.setattr(momentum, "mode_chunks", lambda *args: (
        sizes.append(len(chunk[0])) or chunk for chunk in chunks(*args)))
    return sizes


BENCH_POLICY = TailPolicy(tail_tol=1e-3, max_doublings=1)


def _block_sizes(monkeypatch) -> dict[str, list[int]]:
    """Record the rows of each mode block, the members of each integral
    family and the hits of each exchange slice that momentum's blocks run."""
    sizes = {"rows": _chunk_sizes(monkeypatch), "members": [], "hits": []}
    integrals, sums = momentum.response_integrals, momentum._exchange_sums
    monkeypatch.setattr(momentum, "response_integrals",
                        lambda f, resp, g, lz, tol: (
                            sizes["members"].append(lz.size)
                            or integrals(f, resp, g, lz, tol)))
    monkeypatch.setattr(momentum, "_exchange_sums", lambda kc, *args: (
        sizes["hits"].append(kc.shape[0]) or sums(kc, *args)))
    return sizes


def test_chunks_bound_candidate_hits(monkeypatch):
    # mode blocks hold at most min(_CHUNK, _LUNES // N) rows, so the lune
    # kernel and every per-hit array of a block stay within _LUNES entries
    # whatever the column count; the exchange runs in slices of at most as
    # many hits, the integrals in families of at most _CHUNK (mode, gap)
    # pairs.  xi = (3, 2, 1) at k_F = 4 (N = 257) has 48 hit columns
    cfg = fermi_ball(4.0)
    xi = (3, 2, 1)
    cols, _ = momentum._columns([orbit(xi, "radial")], cfg)
    assert cols.size == 48
    sizes = _block_sizes(monkeypatch)
    row = n_point(xi, cfg, coulomb(1.0), TailPolicy(max_doublings=0),
                  route="both")
    bound = momentum._LUNES // cfg.n_particles
    assert bound == 127 and row.k_modes_used > 0
    assert max(sizes["rows"]) == bound and len(sizes["rows"]) > 1
    assert max(sizes["hits"]) == bound
    assert max(sizes["members"]) == momentum._CHUNK
    # the shared pass bounds the blocks of all points together: the
    # k_F = 3 ball's 10 orbits have all 123 ball points as columns
    cfg = fermi_ball(3.0)
    obs = Observable.ball_indicator(cfg)
    orbs = {tuple(orbit(xi, "radial")[0].tolist()) for xi in obs.support()}
    cols, colw = momentum._columns([orbit(xi, "radial") for xi in orbs], cfg)
    assert len(orbs) == 10 and cols.size == 123 and colw.shape == (10, 123)
    for chunk, lunes in ((momentum._CHUNK, momentum._LUNES), (100, 2000)):
        monkeypatch.setattr(momentum, "_CHUNK", chunk)
        monkeypatch.setattr(momentum, "_LUNES", lunes)
        for recorded in sizes.values():
            recorded.clear()
        n_weighted(obs, cfg, coulomb(1.0), BENCH_POLICY, route="both")
        bound = min(chunk, lunes // cfg.n_particles)
        assert len(sizes["rows"]) > 1 and max(sizes["rows"]) == bound
        assert max(sizes["hits"]) == bound
        assert max(sizes["members"]) == chunk


def _traced_peak(call) -> int:
    """tracemalloc peak of ``call()`` in bytes, after one untraced warm-up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_pass_peak_memory():
    # bounded by the peaks of the pass that bounded candidate hits per
    # chunk, measured on CPython 3.11 and numpy 2.4: 0.786 MB for the
    # k_F = 2 ball at the benchmark's policy (0.71 MB on mode blocks) and
    # 4.86 MB for xi = (3, 2, 1) at k_F = 4 (1.36 MB)
    cfg = fermi_ball(2.0)
    ball = _traced_peak(lambda: n_weighted(
        Observable.ball_indicator(cfg), cfg, coulomb(1.0), BENCH_POLICY,
        route="both"))
    assert ball <= 786_000
    cfg = fermi_ball(4.0)
    point = _traced_peak(lambda: n_point(
        (3, 2, 1), cfg, coulomb(1.0), TailPolicy(max_doublings=0),
        route="both"))
    assert point <= 4_860_000


def _outside_table(cfg, top: int) -> Observable:
    """Weight 1 at +-xi for every outside xi with 0 <= x <= y <= z < top."""
    return Observable(values={
        q: 1.0 for p in itertools.combinations_with_replacement(range(top), 3)
        if norm2(p) > cfg.r2 for q in (p, neg(p))})


def test_outside_column_table_peak_memory(monkeypatch):
    # 115 outside orbits at k_F = 2 run as one n_points call, in groups of
    # 44 points (_COLUMNS = 2^18).  Measured on CPython 3.11 and numpy
    # 2.4: a peak of 1.66 MB, against 4.62 MB when all 115 share one
    # column table
    cfg = fermi_ball(2.0)
    obs = _outside_table(cfg, 8)
    assert len(obs.support()) == 230
    run = lambda: n_weighted(obs, cfg, coulomb(1.0))  # noqa: E731
    assert _traced_peak(run) <= 1_800_000
    monkeypatch.setattr(momentum, "_COLUMNS", 1 << 40)
    assert _traced_peak(run) > 1_800_000


def test_block_pass_counts_at_bench_policy(monkeypatch):
    # the k_F = 2 ball at the benchmark's policy: 225 modes in two blocks
    # (one per shell); the pass that bounded candidate hits ran 21 chunks
    # with 128 eigh calls and integrated 7,335 hits one by one
    cfg = fermi_ball(2.0)
    pot = coulomb(1.0)
    obs = Observable.ball_indicator(cfg)
    sizes = _block_sizes(monkeypatch)
    eigh, cores = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (
        cores.append(a.shape) or eigh(a)))
    n_weighted(obs, cfg, pot, BENCH_POLICY, route="both")
    assert sum(sizes["rows"]) == 225 and len(sizes["rows"]) == 2
    assert len(cores) <= len(sizes["rows"]) * len({d for _, d, _ in cores})
    assert len(cores) < 128
    assert sum(b for b, _, _ in cores) == 225
    # one integral per distinct (mode, gap) that some hit reads, counted
    # here from the hits of each shell: k + x' in the lune, gap
    # (|k|^2 + 2 k.x')/2
    orbs = [orbit(xi, pot.symmetry) for xi in obs.support()]
    cols, _ = momentum._columns(orbs, cfg)
    x = cfg.ball_arr[cols]
    pairs = 0
    k_cut = BENCH_POLICY.initial_k_max(cfg)
    for lo, hi in ((0, k_cut), (k_cut, 2 * k_cut)):
        reps, _, _ = momentum._hit_shell(orbs, cfg, pot.symmetry, lo, hi)
        zeta = reps[:, None] + x
        two_gap = np.einsum("mi,mi->m", reps, reps)[:, None] + 2 * reps @ x.T
        hits = np.einsum("mci,mci->mc", zeta, zeta) > cfg.r2
        pairs += sum(len(set(row[hit].tolist()))
                     for row, hit in zip(two_gap, hits))
    assert sum(sizes["members"]) == pairs == 3920


@pytest.mark.parametrize("pot_name", ["coulomb", "table_even"])
def test_split_orbit_groups_share_one_eigensolve(monkeypatch, pot_name):
    # an outside support holds up to 16 rows per (sorted |k|, V_k) group;
    # small blocks cut groups, and the values carried from one block to
    # the next keep one eigensolve per group, as in a single block
    cfg = fermi_ball(3.0)
    pot = _potential(pot_name, 12)
    eigh, cores = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (
        cores.append(a.shape[0]) or eigh(a)))
    one = n_point((4, 1, 1), cfg, pot, route="spectral")
    solves = sum(cores)
    cores.clear()
    monkeypatch.setattr(momentum, "_LUNES", 5 * cfg.n_particles)
    sizes = _chunk_sizes(monkeypatch)
    cut = n_point((4, 1, 1), cfg, pot, route="spectral")
    assert len(sizes) == 50 and sum(cores) == solves
    assert cut.n_b == pytest.approx(one.n_b, rel=1e-14)
    assert cut.n_ex == pytest.approx(one.n_ex, rel=1e-14)


def test_split_inside_groups_share_one_eigensolve(monkeypatch):
    # the inside twin: with one row per block every (sorted |k|, V_k)
    # group of more than one row is cut, and the carried values keep the
    # eigensolved matrices of the one-block run
    cfg = fermi_ball(2.0)
    pot = _potential("table_even", 6)
    policy = TailPolicy(k_max=6, max_doublings=0)
    eigh, cores = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (
        cores.append(a.shape[0]) or eigh(a)))
    one = n_point((1, 0, 0), cfg, pot, policy, route="both")
    solves = sum(cores)
    cores.clear()
    monkeypatch.setattr(momentum, "_LUNES", cfg.n_particles)
    sizes = _chunk_sizes(monkeypatch)
    cut = n_point((1, 0, 0), cfg, pot, policy, route="both")
    assert len(sizes) == 457 and set(sizes) == {1}
    assert sum(cores) == solves
    assert cut.n_b_spectral == pytest.approx(one.n_b_spectral, rel=1e-14)
    assert cut.n_ex == pytest.approx(one.n_ex, rel=1e-14)
    assert cut.n_b_integral == pytest.approx(one.n_b_integral, rel=1e-10)


PASS_POINTS = {1.0: [(0, 0, 0), (1, 0, 0)],
               2.0: [(0, 0, 0), (1, 0, 0), (1, 1, 0)],
               3.0: [(0, 0, 0), (1, 1, 0), (2, 1, 0)]}


@pytest.mark.parametrize("pot_name", ["coulomb", "yukawa", "table_even",
                                      "table_uneven"])
@pytest.mark.parametrize("kf", sorted(PASS_POINTS))
def test_block_pass_matches_per_hit_oracles(monkeypatch, kf, pot_name):
    # small blocks, families and slices, so that each splits: the inside
    # points run as the rows of one pass against the plain per-k sums on
    # |k| <= 3, and every eighth full-lune mode 2 k_F < |k| <= 2 k_F + 1 at
    # the columns +-xi against them and (radial V) the dense full-lune
    # oracle
    cfg = fermi_ball(kf)
    monkeypatch.setattr(momentum, "_CHUNK", 8)
    monkeypatch.setattr(momentum, "_LUNES", 6 * cfg.n_particles)
    far = int(2 * kf) + 1
    # exchange arguments k + q + q_z reach |k| + 2 k_F
    pot = _potential(pot_name, far + 2 * math.ceil(kf))
    xis = PASS_POINTS[kf]
    orbs = [orbit(xi, pot.symmetry) for xi in xis]
    reps, wts, _ = momentum._hit_shell(orbs, cfg, pot.symmetry, 0, 3)
    sizes = _block_sizes(monkeypatch)
    parts, _, ok = _block_parts(reps, wts, *momentum._columns(orbs, cfg),
                                cfg, pot, 1e-9, True, True)
    assert min(len(recorded) for recorded in sizes.values()) > 1
    for xi, fast, fast_ok in zip(xis, parts, ok):
        plain, _, plain_ok = per_k_sum(truncated_k_vectors(xi, cfg, 3), xi,
                                       cfg, pot)
        assert fast[0] == pytest.approx(plain[0], rel=1e-12)
        assert fast[1] == pytest.approx(plain[1], rel=1e-10)
        assert fast[2] == pytest.approx(plain[2], rel=1e-12)
        assert fast_ok and plain_ok
    xi = xis[-1]
    ks = truncated_k_vectors(xi, cfg, far, k_min_excl=int(2 * kf))
    ks = [k for k in ks if norm2(k) > 4 * cfg.r2][::8]
    (fast,), _, (fast_ok,) = _block_parts(
        np.array(ks), np.ones(len(ks)), cfg.ball_index(np.array([xi, neg(xi)])),
        np.ones((1, 2)), cfg, pot, 1e-9, True, True)
    plain, _, plain_ok = per_k_sum(ks, xi, cfg, pot)
    assert fast[0] == pytest.approx(plain[0], rel=1e-12)
    assert fast[1] == pytest.approx(plain[1], rel=1e-10)
    assert fast[2] == pytest.approx(plain[2], rel=1e-12)
    assert fast_ok and plain_ok
    if pot.is_radial:
        spectral, integral, _, _ = bulk_chunk(ks, xi, cfg, pot, (1, -1), 1e-9)
        assert fast[0] == pytest.approx(spectral, rel=1e-12)
        assert fast[1] == pytest.approx(integral, rel=1e-10)
        assert fast[2] == pytest.approx(
            bulk_exchange(ks, xi, cfg, pot, (1, -1)), rel=1e-12)


def test_cross_route_desk_scale_boundary():
    # k_F = 3 outside points, one per |xi|^2 class of the benchmark's
    # outside workload: exact support, both routes, held to the gate's
    # criterion-1 allowance 10 (quad_error + tail_estimate)
    cfg = fermi_ball(3.0)
    for xi in ((3, 1, 0), (3, 2, 1), (4, 0, 0), (4, 1, 1)):
        row = n_point(xi, cfg, coulomb(1.0), route="both")
        assert row.n_b > 0.0
        assert row.tail_estimate == 0.0 and row.k_modes_used == 246
        assert row.discrepancy <= 10.0 * row.quad_error


def test_route_auto_defaults():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    assert n_point((1, 1, 0), cfg, pot, FAST).route == "spectral"
    assert n_point((0, 0, 0), cfg, pot, FAST).route == "integral"
    with pytest.raises(ValueError):
        n_point((1, 1, 0), cfg, pot, FAST, route="bogus")


def test_breakdown_json_keys():
    cfg = fermi_ball(1.0)
    row = n_point((1, 1, 0), cfg, coulomb(1.0), route="both")
    d = row.to_json_dict()
    for key in ("xi", "n_b", "n_ex", "n_total", "quad_error", "tail_estimate",
                "k_modes_used", "n_b_spectral", "n_b_integral", "discrepancy"):
        assert key in d
    assert d["n_total"] == d["n_b"] + d["n_ex"]
