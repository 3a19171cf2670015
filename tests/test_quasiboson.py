import numpy as np
import pytest

from fermigas.lattice import fermi_ball, neg
from fermigas.numerics import sym_matrix_function
from fermigas.potential import coulomb, from_table, zero
from fermigas.quasiboson import build_K, csk_pair, q_of_s, sandwich_bounds
from fermigas.verify import _mode
from oracles import cosh2k_minus_one_diag, exp_pm2K, nonzero_k_vectors

TWO_PI_CUBED = (2.0 * np.pi) ** 3


def dim1_mode(lam_target=1.0, vsq_target=1.0):
    """Gaps and coupling of a one-dimensional mode with prescribed values."""
    cfg = fermi_ball(0.5)
    assert cfg.n_particles == 1
    k = {1.0: (1, 1, 0), 0.5: (1, 0, 0), 2.0: (2, 0, 0)}[lam_target]
    vhat = vsq_target * 2.0 * TWO_PI_CUBED * cfg.k_f
    _, lam, _, vsq = _mode(k, cfg, from_table({k: vhat, neg(k): vhat}))
    assert lam.size == 1 and lam[0] == lam_target
    return lam, vsq


def test_build_mode_zero_potential():
    _, _, vhat, vsq = _mode((1, 0, 0), fermi_ball(1.0), zero())
    assert vhat == 0.0 and vsq == 0.0


def test_build_mode_coupling_weight():
    pts, lam, vhat, vsq = _mode((1, 0, 0), fermi_ball(1.0), coulomb(1.0))
    assert pts.shape == (5, 3) and lam.shape == (5,) and vhat == 1.0
    assert vsq == pytest.approx(1.0 / (2.0 * TWO_PI_CUBED), rel=1e-15)


def test_build_mode_far_k_dim():
    cfg = fermi_ball(1.0)
    assert _mode((3, 0, 0), cfg, coulomb(1.0))[1].size == cfg.n_particles


def test_build_K_scalar_oracle():
    k_mat = build_K(*dim1_mode(lam_target=1.0, vsq_target=1.0))
    assert k_mat[0, 0] == pytest.approx(-0.25 * np.log(3.0), rel=1e-14)


def test_build_K_zero_potential_is_zero():
    _, lam, _, vsq = _mode((1, 0, 0), fermi_ball(1.0), zero())
    assert np.all(build_K(lam, vsq) == 0.0)


def test_build_K_sandwich_bounds():
    cfg = fermi_ball(1.0)
    for g in (0.1, 1.0, 10.0):
        _, lam, _, vsq = _mode((1, 0, 0), cfg, coulomb(g))
        lower, upper, _ = sandwich_bounds(lam, vsq)
        neg_k = -build_K(lam, vsq)
        assert np.all(neg_k <= upper + 1e-10)
        assert np.all(neg_k >= lower - 1e-10)


def test_exp_pm2K_scalar():
    a, a_inv = exp_pm2K(*dim1_mode(lam_target=1.0, vsq_target=1.0))
    assert a[0, 0] == pytest.approx(np.sqrt(3.0), rel=1e-14)
    assert a_inv[0, 0] == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-14)


def test_exp_pm2K_inverse_pair_and_roundtrip():
    cfg = fermi_ball(1.0)
    for k in ((1, 0, 0), (2, 0, 0), (1, 1, 1)):
        _, lam, _, vsq = _mode(k, cfg, coulomb(1.0))
        a, a_inv = exp_pm2K(lam, vsq)
        eye = np.eye(lam.size)
        assert np.max(np.abs(a @ a_inv - eye)) < 1e-10
        k_mat = build_K(lam, vsq)
        assert np.max(np.abs(sym_matrix_function(-2.0 * k_mat, "exp") - a)) < 1e-9


def test_cosh_diag_matches_exp_pair():
    _, lam, _, vsq = _mode((1, 1, 0), fermi_ball(1.0), coulomb(2.0))
    a, a_inv = exp_pm2K(lam, vsq)
    want = 0.5 * (np.diag(a) + np.diag(a_inv)) - 1.0
    assert cosh2k_minus_one_diag(lam, vsq) == pytest.approx(want, rel=1e-12)


def test_csk_pair_tau_zero():
    c, s = csk_pair(build_K(*dim1_mode()), 0.0)
    assert np.all(c == 0.0) and np.all(s == 0.0)


def test_csk_hyperbolic_identity():
    _, lam, _, vsq = _mode((1, 0, 0), fermi_ball(1.0), coulomb(1.0))
    k_mat = build_K(lam, vsq)
    eye = np.eye(k_mat.shape[0])
    for tau in (0.25, 0.5, 1.0):
        c, s = csk_pair(k_mat, tau)
        assert np.max(np.abs((c + eye) @ (c + eye) - s @ s - eye)) < 1e-10


def test_csk_sandwich_scaled_by_tau():
    _, lam, _, vsq = _mode((1, 0, 0), fermi_ball(1.0), coulomb(1.0))
    lower, upper, _ = sandwich_bounds(lam, vsq)
    k_mat = build_K(lam, vsq)
    for tau in (0.0, 0.5, 1.0):
        _, s = csk_pair(k_mat, tau)
        assert np.all(s <= tau * upper + 1e-10)
        assert np.all(s >= tau * lower - 1e-10)


def test_q_of_s_example_and_zero():
    cfg = fermi_ball(1.0)
    _, lam, _, vsq = _mode((1, 0, 0), cfg, coulomb(1.0))
    assert q_of_s(lam, 0.0, vsq) == pytest.approx((26.0 / 3.0) / TWO_PI_CUBED,
                                                  rel=1e-13)
    assert q_of_s(lam, 0.0, vsq) == pytest.approx(0.034940, abs=1e-6)
    _, lam, _, vsq = _mode((1, 0, 0), cfg, zero())
    assert q_of_s(lam, 1.3, vsq) == 0.0


def test_q_of_s_decreasing_with_vanishing_limit():
    _, lam, _, vsq = _mode((1, 1, 0), fermi_ball(2.0), coulomb(1.0))
    s = np.linspace(0.0, 50.0, 40)
    q = q_of_s(lam, s, vsq)
    assert np.all(np.diff(q) < 0.0)
    assert q_of_s(lam, 1e6, vsq) < 1e-10


def test_q_matches_resolvent_pairing():
    cfg = fermi_ball(1.0)
    rng = np.random.default_rng(2)
    for k in ((1, 0, 0), (2, 1, 0)):
        _, lam, _, vsq = _mode(k, cfg, coulomb(1.0))
        u = np.sqrt(lam * vsq)
        for s in rng.uniform(0.0, 10.0, size=6):
            pairing = 2.0 * float(np.dot(u, u / (lam**2 + s * s)))
            assert 1.0 + pairing == pytest.approx(
                1.0 + q_of_s(lam, float(s), vsq), rel=1e-12)


def test_kernel_reflection_and_nsd():
    # the lune of -k is the mirrored lune in reverse order
    for k_f in (1.0, 2.0):
        cfg = fermi_ball(k_f)
        for k in nonzero_k_vectors(int(2 * k_f)):
            pts, lam, _, vsq = _mode(k, cfg, coulomb(1.0))
            k_mat = build_K(lam, vsq)
            assert np.linalg.eigvalsh(k_mat).max() <= 1e-10
            m_pts, m_lam, _, m_vsq = _mode(neg(k), cfg, coulomb(1.0))
            assert np.array_equal(m_pts, -pts[::-1])
            mirror = build_K(m_lam, m_vsq)[::-1, ::-1]
            assert np.max(np.abs(k_mat - mirror)) < 1e-10
