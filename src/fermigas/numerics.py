"""Shared numerical kernels.

Three independent pieces live here:

* one adaptive Gauss-Kronrod engine behind one call, ``integrate``,
  for families of integrands on shared panels (a single integrand is a
  family of one), on a finite [a, b] or on [0, inf) via the rational
  map s = t/(1-t), with optional seed points to pre-split panels at
  known scales of the integrand;
* matrix functions of real symmetric matrices through a single
  eigendecomposition backend;
* the O(n) diagonal of a rank-one-updated resolvent (h^2 + 2 u u^T + s^2)^-1.

All kernels are pure and reentrant.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  Nodes are
# strictly interior, so panel endpoints (in particular the mapped point
# at infinity) are never evaluated.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


class QuadratureResult(NamedTuple):
    """One family's integrals: (n,) values and error estimates, shared counts."""
    value: np.ndarray
    abs_error_estimate: np.ndarray
    evaluations: int
    converged: bool


# Split budget of one integral; exhausting it is flagged, never silent.
_MAX_SPLITS = 2000


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless the tolerance ``tol`` is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol}")


def _gauss_kronrod(g: Callable[[np.ndarray], np.ndarray],
                   edges: Iterable[float], tol: float):
    """Adaptive bisection of a family of n integrands on shared panels.

    A globally adaptive Gauss-Kronrod (7, 15) scheme in the manner of
    QUADPACK's QAG (Piessens et al., 1983).  g maps an array of m nodes
    to an (n, m) array of values.  The panel with the largest per-member
    Kronrod-Gauss discrepancy is split first (ties go to the older
    panel), until every member's total error estimate is within ``tol``
    or ``_MAX_SPLITS`` splits are spent.  Refinement is deterministic
    and independent of ``tol``, so loosening the tolerance can only stop
    the same refinement sequence earlier.  Returns (values, errors,
    evaluations, converged) with values and errors of shape (n,), summed
    in panel-position order.

    Sharing panels is conservative: each member's error estimate is a
    valid Kronrod-Gauss bound on its own panel sums.
    """
    edges = sorted(set(float(e) for e in edges))
    heap = []
    seq = itertools.count()

    def push(a, b):
        """Evaluate the panel [a, b], queue it and return its errors."""
        half = 0.5 * (b - a)
        y = g(0.5 * (a + b) + half * _GK_NODES)
        vk = half * (y @ _GK_WEIGHTS)
        err = np.abs(vk - half * (y[:, _G7_IDX] @ _G7_WEIGHTS))
        heapq.heappush(heap, (-float(err.max()), next(seq), a, b, vk, err))
        return err

    total_err = sum(push(a, b) for a, b in zip(edges[:-1], edges[1:]))
    splits = 0
    while total_err.max() > tol and splits < _MAX_SPLITS:
        _, _, a, b, _, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        total_err = total_err - err + push(a, mid) + push(mid, b)
        splits += 1
    # sum in position order, so the result does not depend on heap order
    panels = sorted(heap, key=lambda p: p[2])
    values = sum(p[4] for p in panels)
    errors = sum(p[5] for p in panels)
    nev = _GK_NODES.size * (len(edges) - 1 + 2 * splits)
    return values, errors, nev, bool(errors.max() <= tol)


def integrate(f: Callable[[np.ndarray], np.ndarray], n: int, a: float = 0.0,
              b: float = math.inf, tol: float = 1e-9,
              seeds: Iterable[float] = ()) -> QuadratureResult:
    """Integrate a family of n integrands over [a, b] on shared panels.

    f maps an array of m nodes to an (n, m) array of values; a single
    integrand is a family of one.  Every member is refined to the
    absolute tolerance ``tol``.  ``seeds`` are points (e.g. known peak
    scales of the integrand) that pre-split the initial panels.  With
    b = inf the range must start at a = 0: s = t/(1-t) maps the half
    line onto [0, 1), where the mapped family f(s) / (1-t)^2 is
    integrated.
    """
    check_tol(tol)
    if b == math.inf:
        if a != 0.0:
            raise ValueError(f"an infinite range needs a = 0, got a = {a}")

        def g(t):
            omt = 1.0 - t
            return np.asarray(f(t / omt), dtype=float) / omt**2

        edges = [0.0, 1.0] + [s / (1.0 + s) for s in seeds if s > 0.0]
    else:
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        g, edges = f, [a, b] + [s for s in seeds if a < s < b]
    values, errors, nev, converged = _gauss_kronrod(g, edges, tol)
    if values.shape != (n,):
        raise ValueError(f"f returned {values.shape[0]} rows, not n = {n}")
    return QuadratureResult(values, errors, nev, converged)


class MatrixFunctionDomainError(ValueError):
    """Spectrum outside the domain of the requested matrix function."""

    def __init__(self, fn: str, min_eigenvalue: float):
        self.fn = fn
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix function {fn!r} needs a positive definite argument; "
            f"minimum eigenvalue is {min_eigenvalue:.6e}"
        )


def symmetry_defect(a: np.ndarray) -> float:
    """max |A - A^T| relative to max |A| (0 for the zero matrix), worst of a stack."""
    if a.size == 0:
        return 0.0
    scale = np.max(np.abs(a), axis=(-2, -1))
    defect = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
    return float(np.max(defect / np.where(scale == 0.0, 1.0, scale)))


def assert_symmetric(a: np.ndarray, rel: float = 1e-12) -> None:
    defect = symmetry_defect(a)
    if defect > rel:
        raise ValueError(f"matrix is not symmetric (relative defect {defect:.3e})")


_SCALAR_FN = {"sqrt": np.sqrt, "log": np.log, "exp": np.exp}
_NEEDS_POSITIVE = {"sqrt", "log"}


def sym_matrix_function(a: np.ndarray, fn: str) -> np.ndarray:
    """Apply fn in {sqrt, log, exp} to a symmetric matrix.

    Computed as U f(diag) U^T from one eigendecomposition and
    re-symmetrized, for each matrix of a stack alike.  sqrt and log raise
    MatrixFunctionDomainError (naming the offending eigenvalue) unless
    every matrix is positive definite.
    """
    if fn not in _SCALAR_FN:
        raise ValueError(f"unknown matrix function {fn!r}")
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a.copy()
    w, u = sym_eig(a)
    if fn in _NEEDS_POSITIVE and w[..., 0].min() <= 0.0:
        raise MatrixFunctionDomainError(fn, float(w[..., 0].min()))
    b = (u * _SCALAR_FN[fn](w)[..., None, :]) @ np.swapaxes(u, -1, -2)
    return 0.5 * (b + np.swapaxes(b, -1, -2))


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix or stack (ascending eigenvalues)."""
    assert_symmetric(a)
    return np.linalg.eigh(np.asarray(a, dtype=float))


def rank1_resolvent_diag(h_diag: np.ndarray, u: np.ndarray, s: float,
                         index: int) -> float:
    """(index, index) entry of (diag(h)^2 + 2 u u^T + s^2)^-1, in O(n).

    Uses the rank-one update of the diagonal resolvent: with
    r_i = 1/(h_i^2 + s^2) and w = r * u,

        entry = r_index - 2 w_index^2 / (1 + 2 <u, w>).

    The denominator is >= 1, so no cancellation can blow up.
    """
    h = np.asarray(h_diag, dtype=float)
    u = np.asarray(u, dtype=float)
    if h.shape != u.shape:
        raise ValueError("h_diag and u must have the same length")
    r = 1.0 / (h**2 + s * s)
    w = r * u
    denom = 1.0 + 2.0 * float(np.dot(u, w))
    return float(r[index] - 2.0 * w[index] ** 2 / denom)
