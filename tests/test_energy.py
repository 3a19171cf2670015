import math

import numpy as np
import pytest

from fermigas import energy
from fermigas.energy import (_ball_pair_sums, _bos_chunks, _ex_terms,
                             _k_shell, e_corr_bos, e_corr_ex, e_fs,
                             energy_report, stable_log1p_minus_x)
from fermigas.lattice import (TailPolicy, ball_points, doubled_sum, fermi_ball,
                              lambda_of, lune_kernel, lune_points, neg, norm2)
from fermigas.potential import (Potential, coulomb, evaluate, from_table,
                                yukawa, zero)
from oracles import (bos_term, bos_term_mode, e_fs_interaction_loop,
                     ex_term_dense, k_shell_reduced, nonzero_k_vectors,
                     single_k_exchange_term)

TWO_PI_CUBED = (2.0 * np.pi) ** 3
TWO_PI_6 = (2.0 * np.pi) ** 6
FAST = TailPolicy(k_max=4, tail_tol=1e-3, max_doublings=2)


def test_e_fs_kinetic_unit_ball():
    cfg = fermi_ball(1.0)
    kinetic, _ = e_fs(cfg, zero())
    assert kinetic == 6.0


def test_e_fs_zero_potential_interaction():
    assert e_fs(fermi_ball(1.0), zero())[1] == 0.0


def test_e_fs_interaction_from_lune_deficits():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    # k=(1,0,0): |L_k| - N = 5 - 7 = -2, weighted by V_k / (2 (2pi)^3)
    assert len(lune_points((1, 0, 0), cfg)[0]) - cfg.n_particles == -2
    expected = 0.0
    for k in [k for k in _ball(2) if k != (0, 0, 0)]:
        expected += evaluate(pot, k) * (len(lune_points(k, cfg)[0])
                                        - cfg.n_particles)
    expected /= 2.0 * TWO_PI_CUBED
    assert e_fs(cfg, pot)[1] == pytest.approx(expected, rel=1e-14)


def _ball(r):
    out = []
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if x * x + y * y + z * z <= r * r:
                    out.append((x, y, z))
    return out


def test_e_fs_at_sqrt_n_matches_same_shell():
    # k_F = sqrt(3) and k_F = 1.75 fill the same shell |p|^2 <= 3
    pot = coulomb(1.0)
    assert e_fs(fermi_ball(math.sqrt(3.0)), pot) == e_fs(fermi_ball(1.75), pot)


@pytest.mark.parametrize("k_f", [1.0, math.sqrt(3.0), 2.0, 2.5])
def test_e_fs_interaction_matches_lune_loop(k_f):
    cfg = fermi_ball(k_f)
    for pot in (coulomb(1.0), yukawa(0.7, 1.3)):
        assert e_fs(cfg, pot)[1] == e_fs_interaction_loop(cfg, pot)


def test_e_fs_sum_terminates_at_two_kf():
    # beyond |k| = 2 k_F the lune is the whole shifted ball
    cfg = fermi_ball(1.0)
    for k in ((3, 0, 0), (2, 2, 0)):
        assert len(lune_points(k, cfg)[0]) == cfg.n_particles


def test_stable_f_small_and_large():
    for x in (1e-9, 1e-6, 9e-5):
        assert stable_log1p_minus_x(x) == pytest.approx(-x * x / 2.0 + x**3 / 3.0,
                                                        rel=1e-6)
    for x in (1e-3, 0.1, 2.0):
        assert stable_log1p_minus_x(x) == pytest.approx(np.log1p(x) - x, rel=1e-13)
    assert stable_log1p_minus_x(0.0) == 0.0
    assert np.all(stable_log1p_minus_x(np.array([0.0, 1e-6, 1.0])) <= 0.0)


def test_e_corr_bos_zero_potential():
    val, tail, qerr, _, ok = e_corr_bos(fermi_ball(1.0), zero(), FAST)
    assert val == 0.0 and qerr == 0.0 and ok


@pytest.mark.parametrize("quad_tol", [0.0, np.inf, np.nan])
def test_energy_entry_points_reject_bad_quad_tol(quad_tol):
    cfg = fermi_ball(1.0)
    for call in (e_corr_bos, energy_report):
        with pytest.raises(ValueError, match="quad_tol must be positive"):
            call(cfg, zero(), FAST, quad_tol=quad_tol)


def test_e_corr_bos_negative_for_coulomb():
    val, _, _, _, ok = e_corr_bos(fermi_ball(1.0), coulomb(1.0),
                                  TailPolicy(k_max=4, tail_tol=1e-3,
                                             max_doublings=3))
    assert ok and val < 0.0


def test_e_corr_bos_small_coupling_quadratic_law():
    cfg = fermi_ball(1.0)
    pol = TailPolicy(k_max=5, tail_tol=1e-3, max_doublings=1)
    r1 = e_corr_bos(cfg, coulomb(1e-3), pol)[0] / 1e-6
    r2 = e_corr_bos(cfg, coulomb(1e-4), pol)[0] / 1e-8
    assert r1 == pytest.approx(r2, rel=0.01)


def test_e_corr_ex_zero_potential():
    val, tail, _, ok = e_corr_ex(fermi_ball(1.0), zero(), FAST)
    assert val == 0.0 and ok


def _ex_block(ks, cfg, pot):
    """Per-k E_corr,ex terms of the block, prefactor included."""
    arr = np.array(ks, dtype=np.int64)
    return (_ex_terms(arr, cfg, pot, _ball_pair_sums(cfg))
            / (4.0 * TWO_PI_6 * cfg.k_f**2))


def test_e_corr_ex_single_k_brute_force():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    k = (1, 0, 0)
    pts = lune_points(k, cfg)[0].tolist()
    expected = 0.0
    for p in pts:
        for q in pts:
            arg = tuple(pc + qc - kc for pc, qc, kc in zip(p, q, k))
            expected += evaluate(pot, k) * evaluate(pot, arg) / (
                lambda_of(k, p) + lambda_of(k, q))
    expected /= 4.0 * TWO_PI_6 * cfg.k_f**2
    assert _ex_block([k], cfg, pot)[0] == pytest.approx(expected, rel=1e-13)
    assert single_k_exchange_term(k, cfg, pot) == pytest.approx(expected,
                                                                rel=1e-13)


def _table_potential(radius):
    # even, nonnegative and not radial: V(k) = 1 / (|k|^2 + k_x^2 / 2)
    return from_table({k: 1.0 / (norm2(k) + 0.5 * k[0] ** 2)
                       for k in ball_points(radius * radius) if k != (0, 0, 0)})


# (1,0,0) and (2,1,0) have partial lunes at k_F = 2; (5,0,0) and (3,3,1)
# have full ones, so every k + q lies outside the ball
EX_KS = ((1, 0, 0), (2, 1, 0), (5, 0, 0), (3, 3, 1))


@pytest.mark.parametrize("pot", [coulomb(1.0), yukawa(0.7, 1.3),
                                 _table_potential(10)],
                         ids=["coulomb", "yukawa", "table"])
def test_ex_term_matches_dense_pair_sum(pot):
    cfg = fermi_ball(2.0)
    assert [bool(lune_kernel(k, cfg)[0].all()) for k in EX_KS] == [
        False, False, True, True]
    prefactor = 4.0 * TWO_PI_6 * cfg.k_f**2
    for k, term in zip(EX_KS, _ex_block(EX_KS, cfg, pot) * prefactor):
        expected = ex_term_dense(k, cfg, pot)
        assert expected > 0.0
        assert term == pytest.approx(expected, rel=1e-13)


def _shell_potential(kind, radius):
    if kind == "coulomb":
        return coulomb(1.0)
    if kind == "yukawa":
        return yukawa(0.7, 1.3)
    if kind == "table_even":
        return _table_potential(radius)
    return _coulomb_tables(radius)[1]


@pytest.mark.parametrize("k_f", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["coulomb", "yukawa", "table_even",
                                  "table_none"])
def test_ex_terms_on_whole_shells_match_single_k(k_f, kind):
    # K > 2 k_F: the kernel chunks mix partial-lune and full-lune rows,
    # and the tables, keyed up to K - 1, add V_k = 0 rows
    cfg = fermi_ball(k_f)
    k_cut = int(2 * k_f) + 2
    pot = _shell_potential(kind, k_cut - 1)
    reps, _ = _k_shell(k_cut, 0, pot.symmetry)
    full = np.array([lune_kernel(k, cfg)[0].all() for k in reps])
    assert full.any() and not full.all()
    if kind.startswith("table"):
        assert np.any(pot.at(reps) == 0.0) and pot.symmetry == kind[6:]
    expected = [single_k_exchange_term(k, cfg, pot)
                for k in map(tuple, reps.tolist())]
    np.testing.assert_allclose(_ex_block(reps, cfg, pot), expected,
                               rtol=1e-13, atol=0.0)


def test_ex_terms_call_table_once_per_kernel_chunk(monkeypatch):
    cfg = fermi_ball(2.0)
    pot = _table_potential(6)
    reps, _ = _k_shell(8, 0, pot.symmetry)
    pair_sums = _ball_pair_sums(cfg)
    size = energy._EX_BUFFER // pair_sums[0].shape[0]
    kn2 = np.einsum("mi,mi->m", reps, reps)
    live = pot.at(reps) != 0.0
    near = np.count_nonzero(live & (kn2 <= 4 * cfg.r2))
    far = np.count_nonzero(live & (kn2 > 4 * cfg.r2))
    assert near > size and far > size
    calls = []
    at = Potential.at
    monkeypatch.setattr(Potential, "at",
                        lambda self, pts: calls.append(1) or at(self, pts))
    _ex_terms(reps, cfg, pot, pair_sums)
    # one for V_k, then one per chunk of near rows and of far rows
    assert len(calls) <= 1 + -(-near // size) + -(-far // size)


def test_ball_pair_sums_is_the_autocorrelation():
    cfg = fermi_ball(math.sqrt(3.0))
    counts = {}
    for a in cfg.ball:
        for b in cfg.ball:
            t = tuple(x + y for x, y in zip(a, b))
            counts[t] = counts.get(t, 0) + 1
    t, c, tn2 = _ball_pair_sums(cfg)
    assert list(map(tuple, t.tolist())) == sorted(counts)
    assert c.tolist() == [counts[key] for key in sorted(counts)]
    assert tn2.tolist() == [norm2(key) for key in sorted(counts)]
    assert c.sum() == cfg.n_particles ** 2


@pytest.mark.parametrize("pot", [coulomb(1.0), yukawa(0.7, 1.3)],
                         ids=["coulomb", "yukawa"])
def test_bos_term_gap_histogram_matches_full_lune(pot):
    cfg = fermi_ball(2.0)
    ks = EX_KS + ((1, 1, 1), (12, 7, 3))
    [(rows, values, errors, ok)] = _bos_chunks(np.array(ks), cfg, pot, 1e-9)
    assert ok and sorted(rows.tolist()) == list(range(len(ks)))
    for row, value, err in zip(rows, values / np.pi, errors / np.pi):
        ref_value, ref_err, ref_ok = bos_term(ks[row], cfg, pot, 1e-9)
        mode_value, mode_err, mode_ok = bos_term_mode(ks[row], cfg, pot, 1e-9)
        assert value < 0.0 and ref_ok and mode_ok
        assert ref_value == pytest.approx(mode_value, rel=1e-12)
        assert abs(value - ref_value) <= err + ref_err
        assert abs(value - mode_value) <= err + mode_err


def test_e_corr_ex_reflection_symmetry():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    ks = ((1, 0, 0), (1, 1, 0), (2, 1, 0))
    a = _ex_block(ks, cfg, pot)
    b = _ex_block([neg(k) for k in ks], cfg, pot)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_e_corr_ex_positive_and_cutoff_stable():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    v1, tail1, _, _ = e_corr_ex(cfg, pot, TailPolicy(k_max=16, max_doublings=1))
    v2, _, _, _ = e_corr_ex(cfg, pot, TailPolicy(k_max=32, max_doublings=1))
    assert v1 > 0.0
    # the next doubling moves the value by less than the reported tail
    assert abs(v2 - v1) <= tail1
    assert abs(v2 - v1) / v1 < 1e-4


def test_orbit_reduction_matches_full_enumeration():
    cfg = fermi_ball(1.0)
    pot = coulomb(1.0)
    pol = TailPolicy(k_max=3, max_doublings=1)
    pair_sums = _ball_pair_sums(cfg)

    def summed(symmetry):
        def shell(k_lo, k_hi):
            reps, weights = _k_shell(k_hi, k_lo, symmetry)
            terms = _ex_terms(reps, cfg, pot, pair_sums)
            return np.array([weights @ terms]), 0.0, True, weights.sum()
        return doubled_sum(shell, cfg, pol)

    reduced, paired, full = (summed(sym) for sym in ("radial", "even", "none"))
    assert reduced[0] == pytest.approx(full[0], rel=1e-12)
    assert paired[0] == pytest.approx(full[0], rel=1e-12)
    # every shell counts its k with multiplicity, up to the cutoff 6
    assert reduced[3] == paired[3] == full[3] == len(nonzero_k_vectors(6))


@pytest.mark.parametrize("k_f", [1.0, 2.0])
@pytest.mark.parametrize("pot", [coulomb(1.0), yukawa(0.7, 1.3),
                                 _table_potential(10)],
                         ids=["coulomb", "yukawa", "table"])
def test_block_sign_laws_per_term(k_f, pot):
    # F <= 0 makes every E_corr,bos member <= 0; V >= 0 and positive
    # gaps make every E_corr,ex term >= 0
    cfg = fermi_ball(k_f)
    reps, _ = _k_shell(8, 0, pot.symmetry)
    members = 0
    for rows, values, _, _ in _bos_chunks(reps, cfg, pot, 1e-8):
        assert np.all(values <= 0.0)
        members += rows.size
    assert members == np.count_nonzero(pot.at(reps))
    terms = _ex_terms(reps, cfg, pot, _ball_pair_sums(cfg))
    assert np.all(terms >= 0.0) and np.any(terms > 0.0)


def _coulomb_tables(radius):
    """Coulomb's values on 0 < |k| <= radius (even), and uneven ones."""
    ks = nonzero_k_vectors(radius)
    return (from_table({k: 1.0 / norm2(k) for k in ks}),
            from_table({k: 1.0 / (norm2(k) + 0.3 * k[0] + 0.2 * k[1]
                                  + 0.1 * k[2] + 1.0) for k in ks}))


def test_energy_block_runs_tables():
    cfg = fermi_ball(1.5)
    pol = TailPolicy(k_max=2, tail_tol=1e-3, max_doublings=1)
    even, uneven = _coulomb_tables(4)
    assert (even.symmetry, uneven.symmetry) == ("even", "none")
    bos = []
    for pot in (even, uneven):
        value, _, qerr, k_cut, _ = e_corr_bos(cfg, pot, pol, quad_tol=1e-10)
        bos.append(value)
        ex, _, ex_cut, _ = e_corr_ex(cfg, pot, pol)
        assert k_cut == ex_cut == 4
        ks = nonzero_k_vectors(k_cut)
        ex_ref = sum(single_k_exchange_term(k, cfg, pot) for k in ks)
        assert ex == pytest.approx(ex_ref, rel=1e-13)
        bos_ref = sum(bos_term(k, cfg, pot, 1e-10)[0] for k in ks)
        assert abs(value - bos_ref) <= qerr
    coulomb_bos = e_corr_bos(cfg, coulomb(1.0), pol, quad_tol=1e-10)[0]
    assert bos[0] == pytest.approx(coulomb_bos, rel=1e-12)


@pytest.mark.parametrize("k_f", [1.0, 2.0, 3.0])
def test_energy_report_bit_identical_on_reduced_shells(k_f, monkeypatch):
    # the fundamental-domain shells give the very floats of the
    # orbit-reduced cube shells: same representatives, weights and order
    cfg = fermi_ball(k_f)
    pol = TailPolicy(k_max=3, tail_tol=1e-12, max_doublings=1)
    pots = (coulomb(1.0), yukawa(0.7, 1.3), *_coulomb_tables(6))
    fast = [energy_report(cfg, pot, pol, quad_tol=1e-8).to_json_dict()
            for pot in pots]
    monkeypatch.setattr(energy, "_k_shell",
                        lambda k_hi, k_lo, symmetry:
                        k_shell_reduced(k_lo, k_hi, symmetry))
    for pot, got in zip(pots, fast):
        assert got == energy_report(cfg, pot, pol, quad_tol=1e-8).to_json_dict()


def test_energy_report_fields_and_signs():
    report = energy_report(fermi_ball(1.0), coulomb(1.0),
                           TailPolicy(k_max=4, tail_tol=2e-3, max_doublings=3),
                           quad_tol=1e-8)
    d = report.to_json_dict()
    for key in ("e_fs_kinetic", "e_fs_interaction", "e_corr_bos", "e_corr_ex",
                "k_cutoff", "tail_flags"):
        assert key in d
    assert d["e_corr_bos"] < 0.0 < d["e_corr_ex"]
    assert d["e_fs_kinetic"] == 6.0
    assert d["tail_flags"]["bos_converged"] and d["tail_flags"]["ex_converged"]
