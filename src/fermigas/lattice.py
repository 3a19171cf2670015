"""Integer-lattice geometry of the filled Fermi ball.

Everything here is exact: membership tests compare integer squared norms
against an integer threshold, and the excitation gaps are half-integers
(hence exactly representable as floats).  All containers are immutable
and ordered lexicographically so repeated builds are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Vec3 = tuple[int, int, int]


def norm2(p: Sequence[int]) -> int:
    """Squared Euclidean norm of an integer vector, as a Python int."""
    return int(p[0]) * int(p[0]) + int(p[1]) * int(p[1]) + int(p[2]) * int(p[2])


def as_vec3(p: Sequence[int]) -> Vec3:
    """``p`` as three Python ints; ValueError unless it has exactly three
    integral components (Python or numpy integers)."""
    try:
        x, y, z = map(operator.index, p)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"need three integral components, got {p!r}") from exc
    return x, y, z


def neg(p: Vec3) -> Vec3:
    return (-p[0], -p[1], -p[2])


def is_sum_of_three_squares(n: int) -> bool:
    """Legendre criterion: n is a sum of three squares iff not 4^a(8b+7)."""
    if n < 0:
        return False
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(n)) of a nonnegative int64 array, exact."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of the runs starts[j], starts[j] + 1, ... of lengths[j]."""
    ends = np.cumsum(lengths)
    out = np.arange(int(ends[-1]), dtype=np.int64)
    out += np.repeat(starts - (ends - lengths), lengths)
    return out


def _column_points(x: np.ndarray, y: np.ndarray, z_starts: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """(n, 3) points of the z-runs z_starts[j], ... of lengths[j] at (x[j], y[j])."""
    out = np.empty((int(lengths.sum()), 3), dtype=np.int64)
    out[:, 0] = np.repeat(x, lengths)
    out[:, 1] = np.repeat(y, lengths)
    out[:, 2] = _runs(z_starts, lengths)
    return out


def _z_range(n2_xy: np.ndarray, r2: int, r2_min_excl: int):
    """(z_lo, z_hi): r2_min_excl < n2_xy + z^2 <= r2 iff z_lo <= |z| <= z_hi.

    An empty range has z_hi < z_lo.
    """
    z_hi = _isqrt(r2 - n2_xy)
    below = r2_min_excl - n2_xy
    z_lo = np.where(below >= 0, _isqrt(np.maximum(below, 0)) + 1, 0)
    return z_lo, z_hi


def ball_array(r2: int, r2_min_excl: int = -1) -> np.ndarray:
    """Integer points with r2_min_excl < |p|^2 <= r2 as a lex-sorted (n, 3) array.

    Built from one z-run per sign and (x, y) column, so no array is
    larger than the output (the cube |p_i| <= isqrt(r2) never is).
    """
    if r2 < 0:
        return np.zeros((0, 3), dtype=np.int64)
    r = math.isqrt(r2)
    axis = np.arange(-r, r + 1, dtype=np.int64)
    y_max = _isqrt(r2 - axis * axis)
    x = np.repeat(axis, 2 * y_max + 1)
    y = _runs(-y_max, 2 * y_max + 1)
    z_lo, z_hi = _z_range(x * x + y * y, r2, r2_min_excl)
    # per column the run -z_hi..-max(z_lo, 1), then z_lo..z_hi
    starts = np.column_stack([-z_hi, z_lo]).ravel()
    lengths = np.maximum(np.column_stack([z_hi - np.maximum(z_lo, 1) + 1,
                                          z_hi - z_lo + 1]), 0).ravel()
    return _column_points(np.repeat(x, 2), np.repeat(y, 2), starts, lengths)


@dataclass(frozen=True)
class LatticeConfig:
    """Filled Fermi ball at radius k_F.

    N is the exact count of integer points with |p| <= k_F, never the
    continuum idealization 4*pi*k_F^3/3.  ``r2`` is the integer squared
    radius of the closed shell: k_F^2 rounded when within 4 ulps of an
    integer, floored otherwise (see ``fermi_ball``).  Membership is the
    exact test |p|^2 <= r2.  ``kappa`` is the midpoint of the squared-norm
    gap across the Fermi surface and bounds ||p|^2 - kappa| >= 1/2 for
    every integer p.  ``ball_arr`` is the ball as a read-only lex-sorted
    (N, 3) int64 array; ``r2`` fixes it, so it takes no part in equality.
    """

    k_f: float
    r2: int
    n_particles: int
    kappa: float
    ball_arr: np.ndarray = field(repr=False, compare=False)

    def ball_index(self, pts) -> np.ndarray:
        """Row in ``ball_arr`` of each point of an (..., 3) array; -1 off the ball."""
        pts = np.asarray(pts, dtype=np.int64)
        # balanced base-(2r+1) digits order keys as ball_arr is ordered
        digits = (2 * math.isqrt(self.r2) + 1) ** np.arange(2, -1, -1)
        rows = np.searchsorted(self.ball_arr @ digits, pts @ digits)
        return np.where(np.einsum("...i,...i->...", pts, pts) <= self.r2, rows, -1)


def fermi_ball(k_f: float) -> LatticeConfig:
    """Enumerate the Fermi ball and derive N and kappa exactly.

    Any finite k_f > 0 is valid; the closed shell at radius k_f is taken, i.e.
    all integer points with |p|^2 <= floor(k_f^2).  A k_f^2 within a few
    ulps of an integer n counts as n, so k_f = sqrt(n) takes the shell
    |p|^2 = n even when the rounded square falls just below it.
    """
    if not (k_f > 0 and math.isfinite(k_f)):
        raise ValueError(f"k_f must be positive and finite, got {k_f}")
    sq = k_f * k_f
    r2 = round(sq)
    if abs(sq - r2) > 4 * math.ulp(sq):
        r2 = math.floor(sq)
    ball = ball_array(r2)
    ball.flags.writeable = False
    # kappa sits between the largest |p|^2 in the ball and the next sum of
    # three squares, so no integer point can have |p|^2 == kappa
    inf_outside = r2 + 1
    while not is_sum_of_three_squares(inf_outside):
        inf_outside += 1
    kappa = (inf_outside + int(np.einsum("ij,ij->i", ball, ball).max())) / 2.0
    return LatticeConfig(k_f=float(k_f), r2=r2, n_particles=len(ball),
                         kappa=kappa, ball_arr=ball)


def lune_kernel(k, cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lune mask and gaps of k + q for every ball point q, in ball order.

    The mask is |k + q|^2 > r2 (k + q lies in the lune of k); the gaps
    are (|k|^2 + 2 k.q)/2 = (|k + q|^2 - |q|^2)/2, exact half-integers.
    ``k`` is one vector, giving (N,) arrays, or an (m, 3) block, giving
    (m, N) arrays with one row per k.
    """
    kv = np.asarray(k, dtype=np.int64)
    ball = cfg.ball_arr
    shift = 2 * np.inner(kv, ball)
    shift += kv @ kv if kv.ndim == 1 else np.einsum("mi,mi->m", kv, kv)[:, None]
    return shift + np.einsum("ij,ij->i", ball, ball) > cfg.r2, shift / 2.0


def gap_classes(mask: np.ndarray, lam: np.ndarray):
    """Gap histograms of a block of modes as a list of (mode, gap) classes.

    ``mask`` and ``lam`` are the (m, N) output of ``lune_kernel``.
    Returns (rows, gaps, counts): per distinct gap of each mode its row
    of the block, the gap and its number of lune points, sorted by row
    and then gap.  No (m, G) table is built: a sort of the keys
    (row, 2 lam) of the lune points, so every array is at most as long
    as the block has lune points.
    """
    rows = np.repeat(np.arange(mask.shape[0]), np.count_nonzero(mask, axis=1))
    two = lam[mask]
    two *= 2.0
    span = int(two.max(initial=0.0)) + 1
    # 2 lam is an integer in [1, span), so row * span + 2 lam orders (row, gap)
    rows *= span
    rows += two.astype(np.int64)
    keys, counts = np.unique(rows, return_counts=True)
    rows, two = np.divmod(keys, span)
    return rows, two / 2.0, counts


def orbit_key(arr: np.ndarray) -> np.ndarray:
    """Sorted |k| components as one integer, equal on each 48-element orbit."""
    srt = np.sort(np.abs(arr), axis=1)
    base = int(srt.max(initial=0)) + 1
    return (srt[:, 2] * base + srt[:, 1]) * base + srt[:, 0]


def lune_block(ks, cfg: LatticeConfig):
    """``lune_points`` of each row of an (m, 3) block of k != 0, flat: (counts,
    points, gaps, cols), row i's lune the next counts[i] points and gaps,
    and cols the ball row of q for each point p = k + q."""
    kv = np.asarray(ks, dtype=np.int64)
    if not kv.any(axis=1).all():
        raise ValueError("lune is undefined for k = 0")
    mask, gaps = lune_kernel(kv, cfg)
    rows, cols = np.nonzero(mask)
    return (np.count_nonzero(mask, axis=1), cfg.ball_arr[cols] + kv[rows],
            gaps[mask], cols)


def lune_points(k: Sequence[int],
                cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Points and gaps of the lune of k: the slab of the shifted ball poking out.

    Returns the (n, 3) int64 points p = k + q, q in the ball, with
    |p| > k_F, lex-sorted since a translate of the lex-sorted ball stays
    lex-sorted, and the (n,) gaps (|p|^2 - |p - k|^2)/2, exact half-integers.
    The ball is symmetric, so the lune of -k is ``-points[::-1]`` with
    gaps ``gaps[::-1]``.  Nonempty for every k != 0.
    """
    return lune_block(np.reshape(k, (1, 3)), cfg)[1:3]


@dataclass(frozen=True)
class TailPolicy:
    """Truncation policy for lattice sums without finite support.

    ``k_max`` is the starting cutoff radius, an integer of at least 1
    (None picks ceil(2 k_F) + 2); the cutoff is doubled until the
    relative change of every tracked part of the sum drops below the
    positive, finite ``tail_tol`` or the integer ``max_doublings`` is
    exhausted (``doubled_sum``).  Neither integer may be a bool.
    The reported tail estimate is the largest last increment over the
    tracked parts.
    """

    k_max: int | None = None
    tail_tol: float = 1e-6
    max_doublings: int = 5

    def __post_init__(self):
        if bool in (type(self.k_max), type(self.max_doublings)):
            raise ValueError("k_max and max_doublings must not be bools")
        if not (0 < self.tail_tol < math.inf and self.max_doublings >= 0
                and isinstance(self.max_doublings, numbers.Integral)):
            raise ValueError(f"tail_tol must be positive and finite and "
                             f"max_doublings nonnegative integer, got "
                             f"{self.tail_tol}, {self.max_doublings}")
        if self.k_max is not None and not (
                isinstance(self.k_max, numbers.Integral) and self.k_max >= 1):
            raise ValueError(f"k_max must be at least 1 and an integer, got "
                             f"{self.k_max}")

    def initial_k_max(self, cfg: LatticeConfig) -> int:
        if self.k_max is not None:
            return int(self.k_max)
        return int(math.ceil(2.0 * cfg.k_f)) + 2


def doubled_sum(shell, cfg: LatticeConfig, policy: TailPolicy):
    """Cutoff-doubled lattice sum over k != 0, one shell of k at a time.

    ``shell(k_lo, k_hi)`` sums over k_lo < |k| <= k_hi and returns
    (parts, quad_err, ok, n_k): a float array of the tracked parts, the
    quadrature error, whether the shell converged and its count of k;
    (rows, n_parts) parts are several sums, with the other three per row.
    The cutoff starts at ``policy.initial_k_max`` and doubles until in
    every row each part's increment is at most ``tail_tol`` times its
    running total.  Returns (total, tail, quad_err, n_k, k_cutoff,
    converged), per row the tail its largest last increment and
    ``converged`` true when the row met the rule at the last shell and
    all its shells were ok (lists for rows).
    """
    k_cut = policy.initial_k_max(cfg)
    total, qerr, ok, n_k = shell(0, k_cut)
    tail = np.full(np.shape(total)[:-1], math.inf)
    met = np.zeros(tail.shape, dtype=bool)
    for _ in range(policy.max_doublings):
        inc, inc_err, inc_ok, inc_n = shell(k_cut, 2 * k_cut)
        total = total + inc
        qerr = qerr + inc_err
        ok = ok & inc_ok
        n_k = n_k + inc_n
        k_cut *= 2
        tail = np.max(np.abs(inc), axis=-1)
        met = np.all(np.abs(inc) <= policy.tail_tol
                     * np.maximum(np.abs(total), 1e-300), axis=-1)
        if np.all(met):
            break
    return total, tail.tolist(), qerr, n_k, k_cut, (met & ok).tolist()


@dataclass(frozen=True)
class KSupport:
    """The k-support of one point xi, ``exact`` when xi is outside the ball.

    Outside, it is the two shifted balls +-xi + B_F, in ``finite_part`` as
    a read-only lex-sorted (n, 3) int64 array.  Inside, it is infinite and
    ``finite_part`` is empty: shells run up to a cutoff.
    """

    xi: Vec3
    exact: bool
    finite_part: np.ndarray


def k_support(xi: Sequence[int], cfg: LatticeConfig) -> KSupport:
    """Classify the k-support of the point xi (exact outside, cut inside)."""
    xv = as_vec3(xi)
    exact = norm2(xv) > cfg.r2
    ks = np.zeros((0, 3), dtype=np.int64)
    if exact:
        # xi sits in the lune of k iff k is in xi + B_F, and -xi iff k is
        # in -xi + B_F; the two balls are disjoint and miss 0 as |xi| > k_F
        ks = np.concatenate([cfg.ball_arr + xv, cfg.ball_arr - xv])
        ks = ks[np.lexsort(ks.T[::-1])]
    ks.flags.writeable = False
    return KSupport(xi=xv, exact=exact, finite_part=ks)


@functools.cache
def point_group(symmetry: str) -> np.ndarray:
    """The group G under which a potential's per-mode summands are invariant.

    ``symmetry`` names the potential's invariance class: "radial" gives
    the 48 signed permutation matrices, the point group of Z^3, "even"
    the pair {1, -1} (an even potential guarantees the k -> -k pairing
    and nothing more), "none" just the identity.  Returns (|G|, 3, 3)
    int64 matrices, built once per class and shared read-only.
    """
    eye = np.eye(3, dtype=np.int64)
    if symmetry == "none":
        group = eye[None, :, :]
    elif symmetry == "even":
        group = np.array([eye, -eye])
    elif symmetry == "radial":
        perms = eye[list(itertools.permutations(range(3)))]            # (6, 3, 3)
        signs = np.array(list(itertools.product((1, -1), repeat=3)))   # (8, 3)
        # row i of a signed permutation is sign_i times row i of a permutation
        group = (perms[:, None] * signs[None, :, :, None]).reshape(48, 3, 3)
    else:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    group.flags.writeable = False
    return group


def orbit(xi: Sequence[int], symmetry: str) -> np.ndarray:
    """The distinct images of xi under ``point_group(symmetry)``, lex-sorted.

    Returns an (n, 3) int64 array; its first row is a canonical point of
    the orbit.
    """
    images = point_group(symmetry) @ np.asarray(xi, dtype=np.int64)
    return np.array(sorted(set(map(tuple, images.tolist()))), dtype=np.int64)


def k_shell(k_lo: int, k_hi: int,
            symmetry: str) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives and weights of the shell 0 <= k_lo < |k| <= k_hi.

    One (m, 3) representative per orbit under ``point_group(symmetry)``
    and its (m,) int64 orbit size as weight, so that weight * f(rep)
    sums f over the shell for every group-invariant f.  The energy and
    the inside-momentum sums run on these shells, which are built in the
    fundamental domain of the group:

    * "radial": one (-a, -b, -c) per a >= b >= c >= 0, the lex-least
      image of its orbit, with weight 48 / |Stab k| = (distinct
      permutations of (a, b, c)) * 2^(nonzero components);
    * "even": the lex-first half of the shell, the k whose first nonzero
      component is negative (the shell is symmetric and misses 0), each
      paired with -k: weight 2;
    * "none": the shell itself, weight 1.
    """
    r2, r2_min_excl = k_hi * k_hi, k_lo * k_lo
    if symmetry in ("even", "none"):
        ks = ball_array(r2, r2_min_excl)
        if symmetry == "even":
            ks = ks[:ks.shape[0] // 2].copy()
        return ks, np.full(ks.shape[0], 1 if symmetry == "none" else 2,
                           dtype=np.int64)
    if symmetry != "radial":
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    # columns (x, y) = (-a, -b) in lex order, then z = -c from -c_hi up
    a = np.arange(math.isqrt(r2), -1, -1, dtype=np.int64)
    b_max = np.minimum(a, _isqrt(r2 - a * a))
    x = np.repeat(-a, b_max + 1)
    y = _runs(-b_max, b_max + 1)
    c_lo, c_hi = _z_range(x * x + y * y, r2, r2_min_excl)
    c_hi = np.minimum(c_hi, -y)                                     # c <= b
    reps = _column_points(x, y, -c_hi, np.maximum(c_hi - c_lo + 1, 0))
    x, y, z = reps.T
    perms = np.where(x == z, 1, np.where((x == y) | (y == z), 3, 6))
    return reps, perms << np.count_nonzero(reps, axis=1)
