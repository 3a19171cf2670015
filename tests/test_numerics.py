import math

import numpy as np
import pytest

from fermigas import numerics
from fermigas.numerics import (MatrixFunctionDomainError, integrate,
                               rank1_resolvent_diag,
                               sym_matrix_function, symmetry_defect)

INTEGRANDS = [
    # (function, exact value, seed points)
    (lambda s: (s**2 - 1.0) / (s**2 + 1.0) ** 2, 0.0, (1.0, 10.0)),
    (lambda s: 1.0 / (1.0 + s**2), np.pi / 2.0, ()),
    (lambda s: 1.5 / (s**2 + 2.25), np.pi / 2.0, (1.5, 15.0)),
]


def one(f):
    """The single integrand f as a family of one."""
    return lambda s: f(s)[None, :]


@pytest.mark.parametrize("f,exact,seeds", INTEGRANDS)
def test_semi_infinite_examples(f, exact, seeds):
    res = integrate(one(f), 1, tol=1e-10, seeds=seeds)
    assert res.converged
    assert res.value.shape == res.abs_error_estimate.shape == (1,)
    assert res.value[0] == pytest.approx(
        exact, abs=max(1e-10, res.abs_error_estimate[0]))


@pytest.mark.parametrize("f,exact,seeds", INTEGRANDS)
def test_tolerance_contract(f, exact, seeds):
    loose, tight, tighter = (integrate(one(f), 1, tol=tol, seeds=seeds)
                             for tol in (2e-8, 1e-8, 5e-9))
    # doubling the tolerance never costs more evaluations
    assert loose.evaluations <= tight.evaluations <= tighter.evaluations
    # halving the tolerance moves the value by at most the old estimate
    assert (abs(tight.value[0] - tighter.value[0])
            <= max(tight.abs_error_estimate[0], 1e-15))


def test_non_convergence_is_flagged():
    # a sharp spike the fixed split budget cannot resolve
    def spike(s):
        return 1e8 / (1.0 + 1e16 * (s - 3.0) ** 2)

    budget = 15 * (1 + 2 * numerics._MAX_SPLITS)  # one panel, every split spent
    res = integrate(one(spike), 1, tol=1e-12)
    assert not res.converged
    assert res.abs_error_estimate[0] > 1e-12
    assert res.evaluations == budget
    _, errs, nev, ok = integrate(
        lambda s: np.array([1.0 / (1.0 + s**2), spike(s)]), 2, tol=1e-12)
    assert not ok
    assert errs[1] > 1e-12
    assert nev == budget


def test_integrate_interval_polynomial():
    res = integrate(one(lambda x: x**3 - 2.0 * x), 1, -1.0, 2.0, tol=1e-12)
    assert res.converged
    assert res.value[0] == pytest.approx(15.0 / 4.0 - 3.0, abs=1e-11)


def test_finite_interval_family_closed_forms():
    a, b = 0.5, 3.0
    powers = np.arange(5)
    rates = np.array([1.0, 4.0, 25.0])

    def family(x):
        return np.vstack([x[None, :] ** powers[:, None],
                          np.cos(rates[:, None] * x[None, :]),
                          1.0 / x[None, :]])

    exact = np.concatenate([(b ** (powers + 1) - a ** (powers + 1)) / (powers + 1),
                            (np.sin(rates * b) - np.sin(rates * a)) / rates,
                            [math.log(b / a)]])
    # seeds outside [a, b] are ignored
    vals, errs, _, ok = integrate(family, len(exact), a, b, tol=1e-12,
                                  seeds=(-1.0, 1.0, 2.0, 5.0))
    assert ok
    assert vals.shape == errs.shape == exact.shape
    assert np.all(errs <= 1e-12)
    assert vals == pytest.approx(exact, abs=1e-11)


@pytest.mark.parametrize("a", [-1.0, 0.5])
def test_semi_infinite_range_must_start_at_zero(a):
    with pytest.raises(ValueError, match="needs a = 0"):
        integrate(one(lambda s: 1.0 / (1.0 + s**2)), 1, a=a)


def test_integrate_rejects_bad_range_and_rows():
    f = one(lambda x: x)
    for a, b in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="need a < b"):
            integrate(f, 1, a, b)
    with pytest.raises(ValueError, match="not n = 2"):
        integrate(f, 2, 0.0, 1.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate(f, 1, 0.0, 1.0, tol=0.0)


def test_batch_quadrature_matches_scalar():
    lams = np.array([0.5, 1.0, 2.5, 7.0])

    def family(s):
        return lams[:, None] / (s[None, :] ** 2 + lams[:, None] ** 2)

    vals, errs, _, ok = integrate(family, len(lams), tol=1e-10, seeds=(1.0,))
    assert ok
    for v, e in zip(vals, errs):
        assert v == pytest.approx(np.pi / 2.0, abs=max(1e-9, 10 * e))

    # each member alone, a family of one, agrees within the two estimates
    for lam, v, e in zip(lams, vals, errs):
        (alone,), (alone_err,), _, ok = integrate(
            one(lambda s: lam / (s**2 + lam**2)), 1, tol=1e-10, seeds=(1.0,))
        assert ok
        assert abs(v - alone) <= e + alone_err + 1e-15

    # a member repeated refines as the member alone
    for f, _, seeds in INTEGRANDS:
        lone = integrate(one(f), 1, tol=1e-10, seeds=seeds)
        twice = integrate(lambda s: np.vstack([f(s), f(s)]), 2, tol=1e-10,
                          seeds=seeds)
        assert twice.evaluations == lone.evaluations
        assert twice.converged == lone.converged
        assert twice.value == pytest.approx(np.repeat(lone.value, 2),
                                            rel=1e-13, abs=1e-15)


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


@pytest.mark.parametrize("fn,ref", [
    ("sqrt", np.sqrt), ("log", np.log), ("exp", np.exp),
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
    # exp accepts indefinite input
    sym_matrix_function(a, "exp")


def test_asymmetric_input_rejected():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sym_matrix_function(a, "exp")
    assert symmetry_defect(a) > 1e-12
    # one asymmetric matrix in a stack, beside a zero and a symmetric one
    stack = np.array([np.zeros((2, 2)), np.eye(2), a])
    assert symmetry_defect(stack) == symmetry_defect(a)
    assert symmetry_defect(stack[:2]) == 0.0
    with pytest.raises(ValueError):
        sym_matrix_function(stack, "exp")
    with pytest.raises(MatrixFunctionDomainError):
        sym_matrix_function(np.array([np.eye(2), np.diag([2.0, -3.0])]), "log")


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
