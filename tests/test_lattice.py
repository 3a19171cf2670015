import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermigas.momentum as momentum
from fermigas.lattice import (TailPolicy, as_vec3, ball_array, doubled_sum,
                              fermi_ball, gap_classes, is_sum_of_three_squares,
                              k_shell, k_support, lune_block, lune_kernel,
                              lune_points, neg, norm2, orbit, point_group)
from fermigas.quasiboson import mode_chunks
from fermigas.verify import _gap, _lune_hits
from oracles import (ball_array_cube, ball_points, gap_counts,
                     gap_counts_unique, in_lune, k_shell_reduced,
                     k_support_loop, lambda_of, lune_loop, n_and_kappa_loop,
                     nonzero_k_vectors, orbit_reduce, orbit_reduce_einsum,
                     truncated_k_vectors)


def brute_ball(r2):
    r = math.isqrt(r2) if r2 >= 0 else -1
    out = []
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if x * x + y * y + z * z <= r2:
                    out.append((x, y, z))
    return sorted(out)


def lune_tuples(k, cfg):
    """The lune points of k as a tuple of integer tuples."""
    return tuple(map(tuple, lune_points(k, cfg)[0].tolist()))


def brute_lune(k, cfg):
    kf2 = cfg.r2
    out = []
    rng = int(math.ceil(cfg.k_f)) + max(abs(c) for c in k) + 1
    for x in range(-rng, rng + 1):
        for y in range(-rng, rng + 1):
            for z in range(-rng, rng + 1):
                p = (x, y, z)
                pk = (x - k[0], y - k[1], z - k[2])
                if norm2(pk) <= kf2 < norm2(p):
                    out.append(p)
    return sorted(out)


def test_fermi_ball_counts():
    cfg = fermi_ball(1.0)
    assert cfg.n_particles == 7
    assert cfg.kappa == 1.5
    cfg = fermi_ball(2.0)
    assert cfg.n_particles == 33
    assert cfg.kappa == 4.5
    cfg = fermi_ball(0.5)
    assert cfg.n_particles == 1
    assert cfg.kappa == 0.5


@pytest.mark.parametrize("k_f", [0.5, 1.0, 1.5, 2.0, 2.7, 3.0])
def test_ball_matches_brute_force(k_f):
    cfg = fermi_ball(k_f)
    assert list(map(tuple, cfg.ball_arr.tolist())) == brute_ball(cfg.r2)
    assert cfg.n_particles == len(cfg.ball_arr)


@pytest.mark.parametrize("n", [3, 6, 12, 13, 18, 23, 24])
def test_fermi_ball_takes_the_shell_of_sqrt_n(n):
    # for these n, sqrt(n)**2 rounds to just below n
    cfg = fermi_ball(math.sqrt(n))
    assert cfg.r2 == n
    assert cfg.n_particles == len(ball_points(n))


def test_fermi_ball_n_and_kappa_match_loop_oracle():
    # 7, 15, 23, 28, ... (4^a (8b + 7)) are no sums of three squares
    for r2 in range(1, 301):
        cfg = fermi_ball(math.sqrt(r2))
        assert cfg.r2 == r2
        assert (cfg.n_particles, cfg.kappa) == n_and_kappa_loop(r2)


def test_fermi_ball_equality_ignores_the_array():
    a, b = fermi_ball(2.0), fermi_ball(2.0)
    assert a == b and hash(a) == hash(b) and a.ball_arr is not b.ball_arr
    assert a != fermi_ball(3.0)
    assert not a.ball_arr.flags.writeable
    with pytest.raises(ValueError):
        a.ball_arr[0, 0] = 5
    assert "ball_arr" not in repr(a)


def test_fermi_ball_peak_memory():
    # one (N, 3) array and the transients of its build: 2.6 MB at k_F = 24;
    # a tuple of N tuples beside the array would peak at 11.1 MB
    tracemalloc.start()
    try:
        cfg = fermi_ball(24.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.ball_arr.nbytes == 24 * cfg.n_particles
    assert peak < 4 * 2**20


def test_fermi_ball_rejects_nonpositive():
    with pytest.raises(ValueError):
        fermi_ball(0.0)


def test_kappa_skips_unattainable_norms():
    # for k_f^2 = 7 the extremes are 6 and 8 (7 is not a sum of 3 squares)
    cfg = fermi_ball(math.sqrt(7.0))
    assert not is_sum_of_three_squares(7)
    assert cfg.kappa == 7.0
    for p in nonzero_k_vectors(4):
        assert abs(norm2(p) - cfg.kappa) >= 0.5


def test_lune_example_unit_ball():
    cfg = fermi_ball(1.0)
    pts, gaps = lune_points((1, 0, 0), cfg)
    assert pts.dtype == np.int64 and pts.shape == (5, 3)
    assert pts.tolist() == [[1, -1, 0], [1, 0, -1], [1, 0, 1], [1, 1, 0], [2, 0, 0]]
    assert gaps.tolist() == [0.5, 0.5, 0.5, 0.5, 1.5]
    pts2, gaps2 = lune_points((2, 0, 0), cfg)
    assert len(pts2) == 6
    assert sorted(gaps2) == [2.0, 2.0, 2.0, 2.0, 2.0, 4.0]


def test_lune_far_k_is_whole_shifted_ball():
    cfg = fermi_ball(1.0)
    for k in ((3, 0, 0), (2, 2, 1), (0, 0, 5)):
        assert len(lune_points(k, cfg)[0]) == cfg.n_particles


@pytest.mark.parametrize("k_f", [1.0, 2.0])
def test_lune_matches_brute_force(k_f):
    cfg = fermi_ball(k_f)
    for k in ((1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 0, 3)):
        pts, gaps = lune_points(k, cfg)
        assert list(map(tuple, pts.tolist())) == brute_lune(k, cfg)
        for p, lam in zip(pts.tolist(), gaps):
            assert lam == (norm2(p) - norm2(tuple(a - b for a, b in zip(p, k)))) / 2


@pytest.mark.parametrize("k_f", [0.5, 1.0, 2.0, 3.0])
def test_lune_block_equals_lune_points_row_by_row(k_f):
    # the k_max ball of verify.check_lattice, as one block
    cfg = fermi_ball(k_f)
    ks = ball_array((math.ceil(2 * k_f) + 2) ** 2, 0)
    counts, pts, gaps, cols = lune_block(ks, cfg)
    assert counts.shape == (len(ks),) and pts.shape == (counts.sum(), 3)
    assert np.array_equal(cfg.ball_arr[cols] + np.repeat(ks, counts, axis=0), pts)
    ends = np.cumsum(counts)
    for k, start, end in zip(ks.tolist(), ends - counts, ends):
        want_pts, want_gaps = lune_points(k, cfg)
        assert np.array_equal(pts[start:end], want_pts)
        assert np.array_equal(gaps[start:end], want_gaps)


def test_lune_block_rejects_a_zero_row():
    cfg = fermi_ball(1.0)
    with pytest.raises(ValueError, match="k = 0"):
        lune_block(np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0]]), cfg)
    counts, pts, gaps, cols = lune_block(np.zeros((0, 3), dtype=np.int64), cfg)
    assert counts.size == pts.shape[0] == gaps.size == cols.size == 0
    ks = np.array([[1, 0, 0], [0, -2, 1]])
    counts, pts, gaps, cols = lune_block(ks, cfg)
    assert np.array_equal(cfg.ball_arr[cols] + np.repeat(ks, counts, axis=0), pts)


@pytest.mark.parametrize("k_f", [1.0, math.sqrt(3.0), 2.5])
def test_lune_matches_point_loop_exhaustive(k_f):
    cfg = fermi_ball(k_f)
    for k in nonzero_k_vectors(int(math.ceil(2 * k_f)) + 2):
        pts, lam = lune_points(k, cfg)
        points, gaps = lune_loop(k, cfg)
        assert tuple(map(tuple, pts.tolist())) == points
        assert np.array_equal(lam, gaps)
        assert [lambda_of(k, p) for p in points] == lam.tolist()
        mask, all_gaps = lune_kernel(k, cfg)
        assert np.count_nonzero(mask) == len(pts)
        assert all_gaps.tolist() == [lambda_of(k, tuple(a + b for a, b in zip(k, q)))
                                     for q in ball_points(cfg.r2)]


@pytest.mark.parametrize("k_f", [1.0, 2.0, 3.0, 12.0])
def test_gap_counts_bincount_matches_sort(k_f):
    # a shell across |k| = 2 k_F holds near (partial-lune) and far rows,
    # with odd |k|^2 (half-integer gaps) and even |k|^2 (integer gaps)
    cfg = fermi_ball(k_f)
    ks, _ = k_shell(max(0, int(2 * k_f) - 2), int(2 * k_f) + 2, "radial")
    kn2 = np.einsum("mi,mi->m", ks, ks)
    assert np.any(kn2 <= 4 * cfg.r2) and np.any(kn2 > 4 * cfg.r2)
    assert np.any(kn2 % 2 == 0) and np.any(kn2 % 2 == 1)
    for _, mask, lam in mode_chunks(ks, np.ones(len(ks)), cfg, 128):
        g, counts = gap_counts(mask, lam)
        g_ref, counts_ref = gap_counts_unique(mask, lam)
        assert g.dtype == g_ref.dtype and counts.dtype == counts_ref.dtype
        assert np.array_equal(g, g_ref) and np.array_equal(counts, counts_ref)
        # the class list is the same histogram without the (m, G) table
        rows, gaps, class_counts = gap_classes(mask, lam)
        nz = np.nonzero(counts_ref)
        assert np.array_equal(rows, nz[0]) and np.array_equal(gaps, g_ref[nz[1]])
        assert np.array_equal(class_counts, counts_ref[nz])


def test_lune_rejects_zero_k():
    with pytest.raises(ValueError):
        lune_points((0, 0, 0), fermi_ball(1.0))


def test_lambda_of_examples():
    # verify's scalar gap, which its loops read in place of lune_points
    assert _gap((1, 0, 0), (2, 0, 0)) == 1.5
    assert _gap((1, 0, 0), (1, 1, 0)) == 0.5
    for k in ((1, 2, 3), (2, 0, 0)):
        assert _gap(k, k) == norm2(k) / 2 == lambda_of(k, k)


def test_gap_lower_bound_exhaustive():
    for k_f in (1.0, 2.0, 3.0):
        cfg = fermi_ball(k_f)
        for k in nonzero_k_vectors(int(math.ceil(2 * k_f)) + 2):
            gaps = lune_points(k, cfg)[1]
            assert gaps.size > 0
            assert gaps.min() >= 0.5


def test_reflection_symmetry_exhaustive():
    for k_f in (1.0, 2.0, 3.0):
        cfg = fermi_ball(k_f)
        for k in nonzero_k_vectors(int(math.ceil(2 * k_f))):
            points = lune_tuples(k, cfg)
            mirror = lune_tuples(neg(k), cfg)
            assert tuple(sorted(neg(p) for p in points)) == mirror
            lam = dict(zip(points, lune_points(k, cfg)[1]))
            for p, l in zip(mirror, lune_points(neg(k), cfg)[1]):
                assert lam[neg(p)] == l


@pytest.mark.parametrize("k_f", [1.0, 2.0, 3.0])
def test_mirror_lune_is_reversed_negated_lune(k_f):
    # the ball is symmetric and lex-sorted, so negating reverses the order
    cfg = fermi_ball(k_f)
    for k in nonzero_k_vectors(int(math.ceil(2 * k_f)) + 2):
        pts, gaps = lune_points(k, cfg)
        m_pts, m_gaps = lune_points(neg(k), cfg)
        assert np.array_equal(m_pts, -pts[::-1])
        assert np.array_equal(m_gaps, gaps[::-1])


def test_four_point_identity_random():
    cfg = fermi_ball(2.0)
    rng = np.random.Generator(np.random.Philox(key=5))
    tested = 0
    while tested < 300:
        k = tuple(int(c) for c in rng.integers(-4, 5, size=3))
        if k == (0, 0, 0):
            continue
        points = lune_tuples(k, cfg)
        i, j = rng.integers(0, len(points), size=2)
        p, q = points[int(i)], points[int(j)]
        l = tuple(pc + qc - kc for pc, qc, kc in zip(p, q, k))
        if l == (0, 0, 0) or not (in_lune(l, p, cfg) and in_lune(l, q, cfg)):
            continue
        assert lambda_of(k, p) + lambda_of(k, q) == lambda_of(l, p) + lambda_of(l, q)
        tested += 1


def test_d_intersection_examples():
    cfg = fermi_ball(1.0)
    assert _lune_hits((1, 0, 0), (1, 1, 0), cfg.r2) == [(1, 1, 0)]
    # xi = 0: +-xi and k+-xi coincide pairwise, multiplicity 2 kept
    assert _lune_hits((2, 0, 0), (0, 0, 0), cfg.r2) == [(2, 0, 0), (2, 0, 0)]
    assert _lune_hits((1, 0, 0), (0, 0, 0), cfg.r2) == []
    # xi inside, both k+-xi inside the ball: nothing clears |zeta| > k_F
    assert _lune_hits((1, 0, 0), (0, 0, 1), fermi_ball(2.0).r2) == []


def test_d_intersection_membership_is_exact():
    cfg = fermi_ball(2.0)
    for k in ((1, 0, 0), (2, 1, 0)):
        points = set(lune_tuples(k, cfg))
        for xi in ((1, 1, 0), (2, 0, 0), (0, 0, 0), (3, 1, 0)):
            got = _lune_hits(k, xi, cfg.r2)
            cands = [xi, neg(xi),
                     tuple(a + b for a, b in zip(k, xi)),
                     tuple(a - b for a, b in zip(k, xi))]
            assert got == [z for z in cands if z in points]


def test_k_support_outside_is_exactly_finite():
    cfg = fermi_ball(1.0)
    sup = k_support((2, 0, 0), cfg)
    assert sup.exact
    assert len(sup.finite_part) == 14
    assert sup.finite_part.dtype == np.int64
    assert not sup.finite_part.flags.writeable
    for k in sup.finite_part:
        assert in_lune(k, (2, 0, 0), cfg) or in_lune(k, (-2, 0, 0), cfg)


@pytest.mark.parametrize("k_f", [0.5, 1.0, 2**0.5, 2.0, 3.0])
def test_k_support_outside_matches_loop_oracle(k_f):
    cfg = fermi_ball(k_f)
    r = math.isqrt(cfg.r2)
    for xi in ((r + 1, 0, 0), (r, 1, 0), (-r, r, 1), (0, -r - 2, 3), (9, 9, 9)):
        if norm2(xi) > cfg.r2:
            got = k_support(xi, cfg).finite_part.tolist()
            assert tuple(map(tuple, got)) == k_support_loop(xi, cfg)


def test_ball_index_matches_tuple_index():
    for k_f in (0.5, 1.0, 2.0, 3.0):
        cfg = fermi_ball(k_f)
        r = math.isqrt(cfg.r2) + 2
        axis = np.arange(-r, r + 1)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        ball = ball_points(cfg.r2)
        want = [ball.index(p) if p in ball else -1
                for p in map(tuple, pts.reshape(-1, 3).tolist())]
        got = cfg.ball_index(pts)
        assert got.shape == pts.shape[:-1]
        assert got.ravel().tolist() == want


def test_k_support_inside_is_truncated():
    cfg = fermi_ball(1.0)
    sup = k_support((0, 0, 0), cfg)
    assert not sup.exact and sup.finite_part.shape == (0, 3)
    ks = truncated_k_vectors((0, 0, 0), cfg, 3)
    assert ks == [k for k in nonzero_k_vectors(3) if norm2(k) > 1]
    # shell split covers the ball exactly once
    lo = truncated_k_vectors((0, 0, 0), cfg, 2)
    hi = truncated_k_vectors((0, 0, 0), cfg, 3, k_min_excl=2)
    assert sorted(lo + hi) == sorted(ks)


def test_k_support_far_outside_sits_near_xi():
    cfg = fermi_ball(1.0)
    xi = (7, 0, 0)
    sup = k_support(xi, cfg)
    assert sup.exact
    for k in sup.finite_part:
        assert min(norm2(tuple(a - b for a, b in zip(k, xi))),
                   norm2(tuple(a + b for a, b in zip(k, xi)))) <= cfg.r2


def test_kappa_and_weight_examples():
    # m(p)^-1 = ||p|^2 - kappa| and its inverse m(p), from the array fields
    cfg = fermi_ball(1.0)
    m_inv = np.abs(np.einsum("ij,ij->i", cfg.ball_arr, cfg.ball_arr) - cfg.kappa)
    assert m_inv[cfg.ball_index((0, 0, 0))] == 1.5 and m_inv.min() == 0.5
    assert abs(norm2((1, 1, 0)) - cfg.kappa) == 0.5


def test_orbit_reduce_reconstructs_full_sum():
    cfg = fermi_ball(1.0)
    ks = np.array(truncated_k_vectors((1, 0, 0), cfg, 4))
    for symmetry in ("radial", "even", "none"):
        reps, weights = orbit_reduce(ks, (1, 0, 0), symmetry)
        assert weights.dtype == np.int64 and weights.sum() == len(ks)
        # weighted sum of an invariant function matches the plain sum
        def f(k):
            return np.einsum("mi,mi->m", k, k) ** -1.5
        assert float(weights @ f(reps)) == pytest.approx(float(np.sum(f(ks))),
                                                         rel=1e-13)
    assert np.array_equal(orbit_reduce(ks, (1, 0, 0), "none")[0], ks)
    empty = orbit_reduce(np.zeros((0, 3), dtype=np.int64), (1, 0, 0), "radial")
    assert empty[0].shape == (0, 3) and empty[1].shape == (0,)
    with pytest.raises(ValueError):
        orbit_reduce(ks, (1, 0, 0), "bogus")


def test_orbit_reduce_matches_explicit_images():
    cfg = fermi_ball(2.0)
    for xi in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0)):
        ks = truncated_k_vectors(xi, cfg, 9, k_min_excl=2)
        for symmetry in ("radial", "even"):
            reps, weights = orbit_reduce(np.array(ks), xi, symmetry)
            assert (list(zip(map(tuple, reps.tolist()), weights.tolist()))
                    == orbit_reduce_einsum(ks, xi, symmetry))


# one inside point per stabilizer type: the pattern of zero and equal |xi_i|
_STABILIZER_TYPES = ((0, 0, 0), (0, -2, 0), (1, 1, 0), (-1, 1, 1),
                     (2, 0, -1), (1, 2, 2), (3, -2, 1))


def _summand(symmetry):
    """A test summand f(k, zeta) invariant under ``point_group(symmetry)`` only."""
    a = np.array([3, 2, 1])

    def f(k, z):
        kk, zz = np.sum(k * k, axis=-1), np.sum(z * z, axis=-1)
        out = 1.0 / (1.0 + kk + 2 * zz + np.sum(k * z, axis=-1))
        if symmetry != "radial":
            out = out + (k @ a) * (z @ a) / (1.0 + kk * zz)
        if symmetry == "none":
            out = out + (k @ a + 2 * (z @ a)) / (1.0 + kk * zz)
        return out
    return f


def _check_inside_shell(xi, symmetry, k_lo, k_hi):
    # k_F = 4 holds an inside xi of every type, |(3, 2, 1)|^2 = 14 <= 16
    cfg = fermi_ball(4.0)
    f = _summand(symmetry)
    ks = np.array(truncated_k_vectors(xi, cfg, k_hi, k_min_excl=k_lo),
                  dtype=np.int64).reshape(-1, 1, 3)
    zeta = ks + np.array([xi, neg(xi)])
    want = np.sum(np.where(np.sum(zeta * zeta, axis=-1) > cfg.r2,
                           f(ks, zeta), 0.0))
    # the weighted sum over G-representatives and the columns O + (-O)
    orbs = [orbit(xi, symmetry)]
    reps, weights, (n_k,) = momentum._hit_shell(orbs, cfg, symmetry, k_lo,
                                                k_hi)
    cols, (colw,) = momentum._columns(orbs, cfg)
    pts = cfg.ball_arr[cols]
    reps = reps[:, None]
    zeta = reps + pts
    got = np.sum(weights[:, None] * colw
                 * np.where(np.sum(zeta * zeta, axis=-1) > cfg.r2,
                            f(reps, zeta), 0.0))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert n_k == ks.shape[0]
    assert weights.dtype == np.int64


@pytest.mark.parametrize("symmetry", ["radial", "even", "none"])
@pytest.mark.parametrize("xi", _STABILIZER_TYPES)
def test_inside_shell_every_stabilizer_type(xi, symmetry):
    assert norm2(xi) <= 16
    for k_lo, k_hi in ((0, 5), (5, 10)):
        _check_inside_shell(xi, symmetry, k_lo, k_hi)


@settings(max_examples=40, deadline=None)
@given(xi=st.tuples(*[st.integers(-3, 3)] * 3)
       .filter(lambda xi: norm2(xi) <= 16),
       symmetry=st.sampled_from(["radial", "even", "none"]),
       k_lo=st.integers(0, 5), width=st.integers(1, 5))
def test_inside_shell_matches_filtered_full_enumeration(xi, symmetry, k_lo,
                                                        width):
    _check_inside_shell(xi, symmetry, k_lo, k_lo + width)


def test_ball_array_matches_cube_filter():
    for r2 in range(-2, 61):
        for r2_min_excl in {-5, -1, 0, 1, 2, 3, 8, r2 // 2, r2 - 1, r2, r2 + 4}:
            got = ball_array(r2, r2_min_excl)
            want = ball_array_cube(r2, r2_min_excl)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(symmetry=st.sampled_from(["radial", "even", "none"]),
       k_lo=st.integers(0, 8), width=st.integers(0, 5))
def test_k_shell_matches_orbit_reduced_shell(symmetry, k_lo, width):
    reps, weights = k_shell(k_lo, k_lo + width, symmetry)
    want_reps, want_weights = k_shell_reduced(k_lo, k_lo + width, symmetry)
    assert reps.dtype == weights.dtype == np.int64
    assert reps.shape == want_reps.shape and np.array_equal(reps, want_reps)
    assert (weights.shape == want_weights.shape
            and np.array_equal(weights, want_weights))


def test_k_shell_radial_weights_closed_form():
    # 48 / |Stab k| by the pattern of zero and equal components
    reps, weights = k_shell(0, 8, "radial")
    weight_of = dict(zip(map(tuple, reps.tolist()), weights.tolist()))
    for k, w in (((-3, 0, 0), 6), ((-3, -3, 0), 12), ((-3, -3, -3), 8),
                 ((-3, -1, 0), 24), ((-3, -3, -1), 24), ((-3, -1, -1), 24),
                 ((-4, -2, -1), 48)):
        assert weight_of[k] == w
    assert weights.sum() == len(nonzero_k_vectors(8))
    with pytest.raises(ValueError):
        k_shell(0, 3, "bogus")


def test_k_shell_memory_stays_near_its_output():
    # a cube-then-reduce shell peaks at about 220x its output here
    tracemalloc.start()
    try:
        reps, weights = k_shell(32, 64, "radial")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (reps.nbytes + weights.nbytes)


def _synthetic_shells(incs, ok=None):
    """A shell function whose j-th call returns incs[j], counting its calls."""
    calls = []

    def shell(k_lo, k_hi):
        j = len(calls)
        calls.append((k_lo, k_hi))
        good = True if ok is None else ok[j]
        return np.array(incs[j], dtype=float), 0.5 * j, good, 10 * (j + 1)
    return shell, calls


def test_doubled_sum_stops_when_every_part_settles():
    cfg = fermi_ball(1.0)
    pol = TailPolicy(k_max=3, tail_tol=1e-2, max_doublings=5)
    # part 0 settles at the first doubling, part 1 only at the third
    incs = [[1.0, 1.0], [1e-3, 0.5], [1e-4, 0.1], [-2e-3, 5e-3], [9.0, 9.0]]
    shell, calls = _synthetic_shells(incs)
    total, tail, qerr, n_k, k_cut, converged = doubled_sum(shell, cfg, pol)
    assert calls == [(0, 3), (3, 6), (6, 12), (12, 24)]
    assert total.tolist() == pytest.approx([1.0 + 1e-3 + 1e-4 - 2e-3,
                                            1.0 + 0.5 + 0.1 + 5e-3])
    assert tail == 5e-3                 # the largest last increment
    assert qerr == 0.0 + 0.5 + 1.0 + 1.5
    assert n_k == 10 + 20 + 30 + 40
    assert k_cut == 24 and converged


def test_doubled_sum_flags_exhausted_or_failed_shells():
    cfg = fermi_ball(1.0)
    incs = [[1.0, 1.0], [0.5, 1e-3], [0.2, 1e-4]]
    shell, calls = _synthetic_shells(incs)
    total, tail, _, n_k, k_cut, converged = doubled_sum(
        shell, cfg, TailPolicy(k_max=2, tail_tol=1e-2, max_doublings=2))
    assert len(calls) == 3 and k_cut == 8 and n_k == 60
    assert tail == 0.2 and not converged
    # the rule is met, but one shell did not converge
    shell, _ = _synthetic_shells([[1.0], [1e-4]], ok=[False, True])
    assert not doubled_sum(shell, cfg, TailPolicy(k_max=2, tail_tol=1e-2))[5]
    shell, _ = _synthetic_shells([[1.0], [1e-4]], ok=[True, False])
    assert not doubled_sum(shell, cfg, TailPolicy(k_max=2, tail_tol=1e-2))[5]
    # no doubling: no tail is observed, and the default start is ceil(2 k_F) + 2
    shell, calls = _synthetic_shells([[1.0]])
    total, tail, _, n_k, k_cut, converged = doubled_sum(
        shell, cfg, TailPolicy(tail_tol=1e-2, max_doublings=0))
    assert calls == [(0, 4)] and k_cut == 4 and n_k == 10
    assert tail == math.inf and not converged and total.tolist() == [1.0]


def test_doubled_sum_keeps_each_rows_tail_and_flag():
    cfg = fermi_ball(1.0)
    # two rows of two parts: row 0 settles at the first doubling, row 1 at
    # the second, where row 0's increment 4e-3 still meets the rule; a
    # shell of row 1 did not converge
    incs = [[[1.0, 1.0], [1.0, 1.0]],
            [[1e-3, 2e-3], [0.5, 0.1]],
            [[4e-3, 1e-4], [1e-3, 5e-3]],
            [[9.0, 9.0], [9.0, 9.0]]]
    calls = []

    def shell(k_lo, k_hi):
        j = len(calls)
        calls.append((k_lo, k_hi))
        rows = len(incs[j])
        return (np.array(incs[j]), np.array([0.5, 1.0])[:rows] * j,
                np.array([True, j != 1])[:rows],
                np.array([10, 20])[:rows] * (j + 1))

    total, tail, qerr, n_k, k_cut, converged = doubled_sum(
        shell, cfg, TailPolicy(k_max=3, tail_tol=1e-2, max_doublings=5))
    assert calls == [(0, 3), (3, 6), (6, 12)] and k_cut == 12
    assert total.shape == (2, 2)
    assert total[0].tolist() == pytest.approx([1.005, 1.0021])
    assert tail == [4e-3, 5e-3]         # each row's own largest last increment
    assert converged == [True, False]
    assert qerr.tolist() == [1.5, 3.0] and n_k.tolist() == [60, 120]
    # row 0 on its own stops at the first doubling
    calls.clear()
    incs = [row[:1] for row in incs]
    _, tail, _, _, _, converged = doubled_sum(
        shell, cfg, TailPolicy(k_max=3, tail_tol=1e-2, max_doublings=5))
    assert tail == [2e-3] and converged == [True] and len(calls) == 2


def test_signed_perm_group_is_the_48_element_point_group():
    g = point_group("radial")
    assert g.shape == (48, 3, 3) and g.dtype == np.int64
    assert len({m.tobytes() for m in g}) == 48
    for m in g:
        assert abs(round(float(np.linalg.det(m)))) == 1
        # one entry +-1 in each row and each column
        assert np.all(np.abs(m).sum(axis=0) == 1)
        assert np.all(np.abs(m).sum(axis=1) == 1)


def test_point_group_is_built_once_read_only():
    for symmetry in ("radial", "even", "none"):
        group = point_group(symmetry)
        assert point_group(symmetry) is group
        assert not group.flags.writeable
        with pytest.raises(ValueError):
            group[0, 0, 0] = 2


def test_point_group_and_orbit_sizes():
    assert [point_group(s).shape[0] for s in ("radial", "even", "none")] \
        == [48, 2, 1]
    with pytest.raises(ValueError):
        point_group("bogus")
    # |O| = 48 / |Stab xi| by the pattern of zero and equal |xi_i|
    for xi, size in zip(_STABILIZER_TYPES, (1, 6, 12, 8, 24, 24, 48)):
        for symmetry, want in (("radial", size), ("even", 1 + (size > 1)),
                               ("none", 1)):
            orb = orbit(xi, symmetry)
            assert orb.shape == (want, 3) and orb.dtype == np.int64
            assert orb.tolist() == sorted(orb.tolist())
            assert xi in map(tuple, orb.tolist())


def test_lattice_sum_trend_bounded():
    # fitted constant for sum lambda^beta <= c k_F^(2+beta) |k|^(1+beta)
    for beta in (-1.0, -0.5):
        ratios = []
        for k_f in (1.0, 2.0, 3.0):
            cfg = fermi_ball(k_f)
            for k in nonzero_k_vectors(int(2 * k_f)):
                kn = math.sqrt(norm2(k))
                gaps = lune_points(k, cfg)[1]
                bound = k_f ** (2.0 + beta) * kn ** (1.0 + beta)
                ratios.append(float(np.sum(gaps ** beta)) / bound)
        c = max(ratios)
        assert np.isfinite(c) and c > 0
        # single fitted constant works across the whole swept set
        assert all(r <= c for r in ratios)


def test_tail_policy_rejects_bad_numbers():
    for kwargs in ({"tail_tol": np.inf}, {"tail_tol": 0.0}, {"k_max": 0},
                   {"k_max": -3}, {"k_max": math.inf}, {"k_max": 2.5},
                   {"max_doublings": 2.5}, {"max_doublings": -1}):
        with pytest.raises(ValueError):
            TailPolicy(**kwargs)
    policy = TailPolicy(k_max=np.int64(3), max_doublings=np.int32(1))
    assert policy.initial_k_max(fermi_ball(1.0)) == 3


def test_tail_policy_rejects_bools():
    for kwargs in ({"k_max": True}, {"max_doublings": True},
                   {"max_doublings": False}, {"max_doublings": np.True_}):
        with pytest.raises(ValueError):
            TailPolicy(**kwargs)


def test_as_vec3_checks_three_integral_components():
    assert as_vec3(np.array([1, -2, 3])) == (1, -2, 3)
    assert as_vec3((np.int32(1), 0, np.int64(-4))) == (1, 0, -4)
    assert all(type(c) is int for c in as_vec3(np.arange(3)))
    # no truncation, and a whole float is not an integer either
    for bad in ((0.5, 0, 0), (0, 0, -1.9), (1.0, 0, 0), np.zeros(3), (1, 0),
                (1, 0, 0, 0), (1, 0, 0, 0.5), "abc", 7):
        with pytest.raises(ValueError, match="three integral components"):
            as_vec3(bad)
