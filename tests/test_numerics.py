import numpy as np
import pytest

from fermigas.numerics import (MatrixFunctionDomainError, integrate_interval,
                               integrate_semi_infinite,
                               integrate_semi_infinite_batch,
                               rank1_resolvent_diag,
                               sym_matrix_function, symmetry_defect)

INTEGRANDS = [
    # (function, exact value, seed points)
    (lambda s: (s**2 - 1.0) / (s**2 + 1.0) ** 2, 0.0, (1.0, 10.0)),
    (lambda s: 1.0 / (1.0 + s**2), np.pi / 2.0, ()),
    (lambda s: 1.5 / (s**2 + 2.25), np.pi / 2.0, (1.5, 15.0)),
]


@pytest.mark.parametrize("f,exact,seeds", INTEGRANDS)
def test_semi_infinite_examples(f, exact, seeds):
    res = integrate_semi_infinite(f, tol=1e-10, seeds=seeds)
    assert res.converged
    assert res.value == pytest.approx(exact, abs=max(1e-10, res.abs_error_estimate))


@pytest.mark.parametrize("f,exact,seeds", INTEGRANDS)
def test_tolerance_contract(f, exact, seeds):
    loose = integrate_semi_infinite(f, tol=2e-8, seeds=seeds)
    tight = integrate_semi_infinite(f, tol=1e-8, seeds=seeds)
    tighter = integrate_semi_infinite(f, tol=5e-9, seeds=seeds)
    # doubling the tolerance never costs more evaluations
    assert loose.evaluations <= tight.evaluations <= tighter.evaluations
    # halving the tolerance moves the value by at most the old estimate
    assert abs(tight.value - tighter.value) <= max(tight.abs_error_estimate, 1e-15)


def test_non_convergence_is_flagged():
    # a sharp spike the budget cannot resolve
    def spike(s):
        return 1e8 / (1.0 + 1e16 * (s - 3.0) ** 2)

    res = integrate_semi_infinite(spike, tol=1e-12, max_subdivisions=3)
    assert not res.converged
    assert res.abs_error_estimate > 1e-12
    _, errs, _, ok = integrate_semi_infinite_batch(
        lambda s: np.array([1.0 / (1.0 + s**2), spike(s)]), 2, tol=1e-12,
        max_subdivisions=3)
    assert not ok
    assert errs[1] > 1e-12


def test_integrate_interval_polynomial():
    res = integrate_interval(lambda x: x**3 - 2.0 * x, -1.0, 2.0, tol=1e-12)
    assert res.value == pytest.approx(15.0 / 4.0 - 3.0, abs=1e-11)


def test_batch_quadrature_matches_scalar():
    lams = np.array([0.5, 1.0, 2.5, 7.0])

    def family(s):
        return lams[:, None] / (s[None, :] ** 2 + lams[:, None] ** 2)

    vals, errs, _, ok = integrate_semi_infinite_batch(family, len(lams),
                                                      tol=1e-10, seeds=(1.0,))
    assert ok
    for v, e in zip(vals, errs):
        assert v == pytest.approx(np.pi / 2.0, abs=max(1e-9, 10 * e))

    # a family of one is the scalar integral, bit for bit
    for f, _, seeds in INTEGRANDS:
        res = integrate_semi_infinite(f, tol=1e-10, seeds=seeds)
        vals, errs, nev, ok = integrate_semi_infinite_batch(
            lambda s: f(s)[None, :], 1, tol=1e-10, seeds=seeds)
        assert (vals[0], errs[0], nev, ok) == (
            res.value, res.abs_error_estimate, res.evaluations, res.converged)


def test_sym_matrix_function_examples():
    assert sym_matrix_function(np.diag([4.0, 9.0]), "sqrt") == pytest.approx(
        np.diag([2.0, 3.0]))
    assert np.allclose(sym_matrix_function(np.eye(3), "log"), 0.0)


def test_matrix_function_roundtrip_random_spd():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5))
    a = b @ b.T + 5.0 * np.eye(5)
    back = sym_matrix_function(sym_matrix_function(a, "log"), "exp")
    assert np.max(np.abs(back - a)) < 1e-10
    root = sym_matrix_function(a, "sqrt")
    assert np.max(np.abs(root @ root - a)) < 1e-10
    inv_root = sym_matrix_function(a, "inv_sqrt")
    assert np.max(np.abs(root @ inv_root - np.eye(5))) < 1e-12


@pytest.mark.parametrize("fn,ref", [
    ("sqrt", np.sqrt), ("inv_sqrt", lambda w: 1 / np.sqrt(w)),
    ("log", np.log), ("exp", np.exp), ("cosh", np.cosh),
])
def test_matrix_function_on_diagonal_is_elementwise(fn, ref):
    w = np.array([0.5, 1.0, 3.0, 10.0])
    got = sym_matrix_function(np.diag(w), fn)
    assert got == pytest.approx(np.diag(ref(w)), rel=1e-14)


def test_non_pd_error_names_minimum_eigenvalue():
    a = np.diag([2.0, -3.0])
    with pytest.raises(MatrixFunctionDomainError) as exc:
        sym_matrix_function(a, "sqrt")
    assert exc.value.min_eigenvalue == pytest.approx(-3.0)
    assert "-3" in str(exc.value)
    # exp and cosh accept indefinite input
    sym_matrix_function(a, "exp")
    sym_matrix_function(a, "cosh")


def test_asymmetric_input_rejected():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sym_matrix_function(a, "exp")
    assert symmetry_defect(a) > 1e-12


def test_rank1_resolvent_scalar_case():
    assert rank1_resolvent_diag(np.array([1.0]), np.array([1.0]), 0.0, 0) == \
        pytest.approx(1.0 / 3.0, rel=1e-15)


def test_rank1_resolvent_no_update():
    h = np.array([0.5, 1.5, 2.0])
    u = np.zeros(3)
    for s in (0.0, 0.7):
        for i in range(3):
            assert rank1_resolvent_diag(h, u, s, i) == 1.0 / (h[i] ** 2 + s * s)


def test_rank1_resolvent_matches_dense_inverse():
    rng = np.random.default_rng(11)
    h = rng.uniform(0.5, 5.0, size=6)
    u = rng.standard_normal(6)
    dense = np.linalg.inv(np.diag(h**2) + 2.0 * np.outer(u, u))
    for i in range(6):
        assert rank1_resolvent_diag(h, u, 0.0, i) == pytest.approx(
            dense[i, i], rel=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.7, 5.0])
def test_rank1_resolvent_random_dims(s):
    rng = np.random.default_rng(17)
    for dim in (1, 2, 5, 12, 20):
        h = rng.uniform(0.5, 8.0, size=dim)
        u = rng.standard_normal(dim)
        dense = np.linalg.inv(np.diag(h**2) + 2.0 * np.outer(u, u)
                              + s * s * np.eye(dim))
        got = [rank1_resolvent_diag(h, u, s, i) for i in range(dim)]
        assert got == pytest.approx(np.diag(dense), rel=1e-10)
