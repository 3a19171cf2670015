"""Per-mode pair-excitation objects.

For each momentum transfer k the lune carries a diagonal gap operator h
(entries lambda_{k,p}), a constant coupling vector v with
v_p^2 = V_k / (2 (2pi)^3 k_F), and u = h^{1/2} v.  From these the
correlation kernel

    K = -1/2 log( h^{-1/2} sqrt(h^2 + 2 u u^T) h^{-1/2} )

is symmetric and negative semidefinite, and e^{-2K}, e^{+2K} have the
closed forms

    e^{-2K} = h^{-1/2} (h^2 + 2 u u^T)^{1/2} h^{-1/2},
    e^{+2K} = h^{1/2} (h^2 + 2 u u^T)^{-1/2} h^{1/2},

which are built directly (no log/exp round trip).  The response function
q(s) = 2 <u, (h^2 + s^2)^{-1} u> is the lattice analogue of the Lindhard
function and equals the screening denominator minus one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig, LuneBasis, Vec3, as_vec3, lune
from .numerics import sym_eig, sym_matrix_function
from .potential import Potential, evaluate

TWO_PI_CUBED = (2.0 * np.pi) ** 3
TWO_PI_6 = (2.0 * np.pi) ** 6


@dataclass(frozen=True)
class Mode:
    """One excitation mode: lune basis, coupling, and derived vectors."""

    lune: LuneBasis
    vhat: float            # Fourier mode of the potential at k
    vsq: float             # v_p^2, constant across the lune
    k_f: float

    @property
    def k(self) -> Vec3:
        return self.lune.k

    @property
    def dim(self) -> int:
        return self.lune.dim

    @property
    def h(self) -> np.ndarray:
        """Diagonal of the gap operator."""
        return self.lune.lambdas

    @property
    def v(self) -> np.ndarray:
        return np.full(self.dim, np.sqrt(self.vsq))

    @property
    def u(self) -> np.ndarray:
        """u = h^{1/2} v, so u_p^2 = lambda_p v_p^2."""
        return np.sqrt(self.lune.lambdas * self.vsq)


def build_mode(k, cfg: LatticeConfig, pot: Potential) -> Mode:
    kv = as_vec3(k)
    vhat = evaluate(pot, kv)
    vsq = vhat / (2.0 * TWO_PI_CUBED * cfg.k_f)
    return Mode(lune=lune(kv, cfg), vhat=vhat, vsq=vsq, k_f=cfg.k_f)


def _core_matrix(mode: Mode) -> np.ndarray:
    """h^2 + 2 u u^T, the positive definite core of all closed forms."""
    u = mode.u
    return np.diag(mode.h**2) + 2.0 * np.outer(u, u)


def build_K(mode: Mode) -> np.ndarray:
    """The correlation kernel K, symmetric and negative semidefinite."""
    n = mode.dim
    if n == 0:
        return np.zeros((0, 0))
    if mode.vhat == 0.0:
        return np.zeros((n, n))
    root = sym_matrix_function(_core_matrix(mode), "sqrt")
    hs = np.sqrt(mode.h)
    a = root / np.outer(hs, hs)
    a = 0.5 * (a + a.T)
    return -0.5 * sym_matrix_function(a, "log")


def exp_pm2K(mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-2K}, e^{+2K}) from the closed forms, sharing one eigendecomposition."""
    n = mode.dim
    if n == 0:
        z = np.zeros((0, 0))
        return z, z
    if mode.vhat == 0.0:
        eye = np.eye(n)
        return eye, eye.copy()
    w, uvec = sym_eig(_core_matrix(mode))
    sqrt_m = (uvec * np.sqrt(w)) @ uvec.T
    inv_sqrt_m = (uvec / np.sqrt(w)) @ uvec.T
    hs = np.sqrt(mode.h)
    outer = np.outer(hs, hs)
    a = sqrt_m / outer
    a_inv = inv_sqrt_m * outer
    return 0.5 * (a + a.T), 0.5 * (a_inv + a_inv.T)


def cosh2k_minus_one_diag(mode: Mode) -> np.ndarray:
    """Diagonal of cosh(-2K) - 1 = (e^{-2K} + e^{+2K})/2 - 1, via one eigh."""
    n = mode.dim
    if n == 0 or mode.vhat == 0.0:
        return np.zeros(n)
    w, uvec = sym_eig(_core_matrix(mode))
    usq = uvec**2
    sw = np.sqrt(w)
    lam = mode.h
    a_diag = (usq @ sw) / lam
    ainv_diag = (usq @ (1.0 / sw)) * lam
    return 0.5 * (a_diag + ainv_diag) - 1.0


def csk_pair(k_matrix: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(cosh(-tau K) - 1, sinh(-tau K)) from one eigendecomposition of K."""
    n = k_matrix.shape[0]
    if n == 0:
        z = np.zeros((0, 0))
        return z, z
    w, u = sym_eig(k_matrix)
    c = (u * (np.cosh(-tau * w) - 1.0)) @ u.T
    s = (u * np.sinh(-tau * w)) @ u.T
    return 0.5 * (c + c.T), 0.5 * (s + s.T)


def q_of_s(mode: Mode, s) -> float | np.ndarray:
    """Response function q(s) = 2 v^2 sum_p lambda_p / (s^2 + lambda_p^2).

    Vectorized over s; decreasing in s with q(inf) = 0.  Coincides with
    2 <u, (h^2 + s^2)^{-1} u>.
    """
    s = np.asarray(s, dtype=float)
    if mode.dim == 0 or mode.vhat == 0.0:
        return np.zeros(s.shape) if s.shape else 0.0
    lam = mode.h
    out = 2.0 * mode.vsq * np.sum(
        lam[:, None] / (s.reshape(-1)[None, :] ** 2 + lam[:, None] ** 2), axis=0
    )
    return out.reshape(s.shape) if s.shape else float(out[0])


def sandwich_bounds(mode: Mode) -> tuple[np.ndarray, np.ndarray, float]:
    """Elementwise bounds v_p v_q / (lambda_p + lambda_q) and screening factor.

    Returns (lower, upper, screening) where upper_pq = v_p v_q /
    (lambda_p + lambda_q), lower = screening * upper, and screening =
    1 / (1 + 2 <v, h^{-1} v>).  -K, and sinh/cosh of tau K, are pinched
    between these (the sinh bounds scale with tau).
    """
    lam = mode.h
    denom = lam[:, None] + lam[None, :]
    upper = mode.vsq / denom
    screening = 1.0 / (1.0 + 2.0 * mode.vsq * float(np.sum(1.0 / lam)))
    return screening * upper, upper, screening
