"""The four benchmark workloads and the CLI commands each one runs.

A workload is a fixed *round* of ``fermigas`` CLI commands.  Each
command is one operation, identified within the round by an op id that
does not depend on the seed, so reference values can be keyed by it.
Only ``outside_kf3`` uses the seed; the others have no free input.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

# Outside-ball points with |xi|^2 = 10, 14, 16, 18 at k_F = 3 (r2 = 9).
OUTSIDE_POINTS = ((3, 1, 0), (3, 2, 1), (4, 0, 0), (4, 1, 1))
_PERMS = tuple(itertools.permutations(range(3)))
_SIGNS = tuple(itertools.product((1, -1), repeat=3))


def norm2(p) -> int:
    return sum(c * c for c in p)


def signed_perm_image(xi, rng: random.Random) -> tuple[int, int, int]:
    """A random one of the 48 signed-permutation images of xi."""
    perm = _PERMS[rng.randrange(len(_PERMS))]
    signs = _SIGNS[rng.randrange(len(_SIGNS))]
    return tuple(s * xi[i] for s, i in zip(signs, perm))


def _vec(p) -> str:
    # passed as --xi=..., since a leading minus would read as an option
    return ",".join(str(c) for c in p)


def _energy_round(seed: int):
    return [("energy", ["energy", "--kf", "3", "--potential", "coulomb:g=1",
                        "--tail-tol", "1e-3", "--max-doublings", "2",
                        "--quad-tol", "1e-8"])]


def _outside_round(seed: int):
    rng = random.Random(seed)
    points = [signed_perm_image(xi, rng) for xi in OUTSIDE_POINTS]
    dv_seed = rng.randrange(2**31)
    ops = [(f"momentum xi2={norm2(p)}",
            ["momentum", "--kf", "3", "--route", "both", f"--xi={_vec(p)}"])
           for p in points]
    ops.append(("dv-compare",
                ["dv-compare", "--kf", "3",
                 "--xi-list=" + ";".join(_vec(p) for p in points),
                 "--samples", "200000", "--seed", str(dv_seed)]))
    return ops


def _inside_round(seed: int):
    return [("momentum-sum", ["momentum-sum", "--kf", "2", "--observable", "ball",
                              "--route", "both", "--tail-tol", "1e-3",
                              "--max-doublings", "1"])]


def _verify_round(seed: int):
    return [("verify", ["verify", "--kf", "2", "--potential", "coulomb:g=1"])]


@dataclass(frozen=True)
class Workload:
    name: str
    k_f: float
    why: str
    # seed -> (op id, argv) for every command of one round
    round: Callable[[int], list[tuple[str, list[str]]]]


WORKLOADS = {w.name: w for w in (
    Workload("energy_kf3", 3.0,
             "per-k Python path: lune loop, scalar quadrature, dense exchange "
             "pair sum and tail doubling; no eigensolve", _energy_round),
    Workload("outside_kf3", 3.0,
             "finite k-support: lune plus one eigh per mode, per-zeta "
             "quadrature, and the only dvlimit run", _outside_round),
    Workload("inside_ball_kf2", 2.0,
             "vectorized full-lune bulk path: batched eigh, batched "
             "quadrature, orbit reduction, tail doubling", _inside_round),
    Workload("verify_kf2", 2.0,
             "dense matrix functions and the verify oracles; reference code "
             "that hot-path work should leave unchanged", _verify_round),
)}
