"""Interaction potentials in Fourier space.

Supported families are the bare Coulomb kernel g/|k|^2, its Yukawa
screening g/(|k|^2 + mu^2), explicit tables, and the zero interaction.
All of them vanish at k = 0 and are expected to be even and nonnegative;
``validate`` checks those hypotheses exhaustively up to a cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .lattice import Vec3, as_vec3, ball_array, neg, norm2

# Table keys lie in the box |k_i| <= TABLE_KEY_MAX: its balanced
# base-(2r+1) codes stay below (2r+1)^3 / 2 < 2^63 in magnitude, so
# they fit int64 (which holds up to r = 1,321,122).
TABLE_KEY_MAX = 2**20


@dataclass(frozen=True)
class Potential:
    kind: str  # "coulomb" | "yukawa" | "table" | "zero"
    g: float = 0.0
    mu: float = 0.0
    table: Mapping[Vec3, float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("coulomb", "yukawa", "table", "zero"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if (self.kind == "table") != (self.table is not None):
            raise ValueError("a table potential needs a table, no other kind")
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g}")
        if self.g < 0:
            raise ValueError(f"coupling g must be nonnegative, got {self.g}")
        if not math.isfinite(self.mu):
            raise ValueError(f"screening mu must be finite, got {self.mu}")
        for k, v in (self.table or {}).items():
            if not math.isfinite(v):
                raise ValueError(f"table value at {k} must be finite, got {v}")
            if max(abs(c) for c in as_vec3(k)) > TABLE_KEY_MAX:
                raise ValueError(f"table key {k} has a component beyond "
                                 f"{TABLE_KEY_MAX} = 2**20 in magnitude")

    @property
    def is_radial(self) -> bool:
        """True when V only depends on |k| (enables orbit-reduced sums)."""
        return self.kind in ("coulomb", "yukawa", "zero")

    @property
    def is_even(self) -> bool:
        """True when V(-k) = V(k) holds exactly (checked for tables)."""
        return self.symmetry != "none"

    @cached_property
    def symmetry(self) -> str:
        """Symmetry class for lattice-sum reduction: radial, even, or none.

        A table is checked for evenness entry by entry, once per potential.
        """
        if self.is_radial:
            return "radial"
        even = all(self.table.get(neg(k), 0.0) == v
                   for k, v in self.table.items())
        return "even" if even else "none"

    def __call__(self, k: Sequence[int]) -> float:
        return evaluate(self, k)

    def from_norm2(self, n2) -> np.ndarray:
        """Vectorized evaluation from integer squared norms (radial kinds only)."""
        n2 = np.asarray(n2, dtype=float)
        if not self.is_radial:
            raise ValueError(f"potential kind {self.kind!r} is not radial")
        out = np.zeros_like(n2)
        if self.kind != "zero":
            np.divide(self.g, n2 + self.mu**2 if self.kind == "yukawa" else n2,
                      out=out, where=n2 > 0)
        return out

    @cached_property
    def _lookup(self):
        """(r, digits, sorted codes, values) of the table keys plus a sentinel.

        Balanced base-(2r+1) digits code the box |k_i| <= r injectively
        and in lex order, as in ``LatticeConfig.ball_index``; r is at
        most ``TABLE_KEY_MAX``, so the codes fit int64.
        """
        keys = np.array(list(self.table), dtype=np.int64).reshape(-1, 3)
        r = int(np.abs(keys).max(initial=0))
        digits = (2 * r + 1) ** np.arange(2, -1, -1)
        codes = np.append(keys @ digits, np.iinfo(np.int64).max)
        order = np.argsort(codes)
        vals = np.append(np.fromiter(self.table.values(), dtype=float), 0.0)
        return r, digits, codes[order], vals[order]

    def at(self, pts) -> np.ndarray:
        """Vectorized ``evaluate`` on an (..., 3) integer array."""
        pts = np.asarray(pts, dtype=np.int64)
        n2 = np.einsum("...i,...i->...", pts, pts)
        if self.kind != "table":
            return self.from_norm2(n2)
        r, digits, codes, vals = self._lookup
        code = pts @ digits
        rows = np.searchsorted(codes, code)
        # off the key box the codes alias, and evaluate reads 0 at k = 0
        hit = (np.abs(pts).max(axis=-1) <= r) & (n2 > 0) & (codes[rows] == code)
        return np.where(hit, vals[rows], 0.0)

    def spec_string(self) -> str:
        if self.kind == "coulomb":
            return f"coulomb:g={self.g:g}"
        if self.kind == "yukawa":
            return f"yukawa:g={self.g:g},mu={self.mu:g}"
        if self.kind == "zero":
            return "zero"
        return "table"


def evaluate(pot: Potential, k: Sequence[int]) -> float:
    """Fourier mode of the interaction at integer k; exactly 0 at k = 0."""
    kv = as_vec3(k)
    n2 = norm2(kv)
    if n2 == 0 or pot.kind == "zero":
        return 0.0
    if pot.kind == "coulomb":
        return pot.g / n2
    if pot.kind == "yukawa":
        return pot.g / (n2 + pot.mu**2)
    return float(pot.table.get(kv, 0.0))


def coulomb(g: float) -> Potential:
    return Potential(kind="coulomb", g=float(g))


def yukawa(g: float, mu: float) -> Potential:
    return Potential(kind="yukawa", g=float(g), mu=float(mu))


def zero() -> Potential:
    return Potential(kind="zero")


def from_table(values: Mapping[Sequence[int], float]) -> Potential:
    table = {as_vec3(k): float(v) for k, v in values.items()}
    return Potential(kind="table", table=table)


def load_table(path) -> Potential:
    """Read a table potential from a text file of lines "kx ky kz value".

    Whitespace separated; blank lines and '#' comments are skipped.
    Unlisted modes evaluate to 0.
    """
    table: dict[Vec3, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'kx ky kz value', got {raw!r}")
            kx, ky, kz = (int(p) for p in parts[:3])
            if not math.isfinite(value := float(parts[3])):
                raise ValueError(f"{path}:{lineno}: value must be finite, got {parts[3]!r}")
            table[(kx, ky, kz)] = value
    return Potential(kind="table", table=table)


@dataclass(frozen=True)
class ValidationReport:
    symmetric: bool
    nonnegative: bool
    zero_at_origin: bool
    partial_l2: float
    offenders: tuple[Vec3, ...]

    @property
    def ok(self) -> bool:
        return self.symmetric and self.nonnegative and self.zero_at_origin


def validate(pot: Potential, cutoff_radius: int = 10) -> ValidationReport:
    """Exhaustively check evenness, nonnegativity, and V(0)=0 for |k| <= cutoff.

    Table entries outside the cutoff are checked too.  The partial l2
    norm, the square root of the sum of V^2 over every checked point
    (the ball of the cutoff plus, for a table, its keys and their
    mirrors beyond it), is reported as the square-summability estimate.
    Points run in lex order; each one adds itself to the offenders if
    V < 0 there and its mirror if V differs at the mirror, first
    occurrences kept.
    """
    if cutoff_radius < 1:
        raise ValueError("cutoff_radius must be >= 1")
    ks = ball_array(cutoff_radius * cutoff_radius)
    zero_at_origin = True
    if pot.kind == "table" and pot.table:
        zero_at_origin = pot.table.get((0, 0, 0), 0.0) == 0.0
        keys = np.array(list(pot.table), dtype=np.int64)
        ks = np.concatenate([ks, keys, -keys])
        ks = ks[np.lexsort(ks.T[::-1])]
        ks = ks[np.r_[True, np.any(ks[1:] != ks[:-1], axis=1)]]
    v = pot.at(ks)
    negative, uneven = v < 0, pot.at(-ks) != v
    flagged = np.stack([ks, -ks], axis=1)[np.column_stack([negative, uneven])]
    offenders = [(0, 0, 0)] * (not zero_at_origin) + list(map(tuple, flagged.tolist()))
    return ValidationReport(
        symmetric=not uneven.any(),
        nonnegative=not negative.any(),
        zero_at_origin=zero_at_origin,
        # accumulated in order, as a running sum: the cumsum's last entry
        partial_l2=float(np.sqrt(np.cumsum(v * v)[-1])),
        offenders=tuple(dict.fromkeys(offenders)),
    )
