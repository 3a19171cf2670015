"""Mean-field electron gas on the integer lattice.

Momentum distribution of the pair-correlated trial state and its
correlation energies, computed by mutually checking closed-form and
spectral routes, with an executable suite of the underlying identities.
"""

from .lattice import (KSupport, LatticeConfig, TailPolicy, d_intersection,
                      fermi_ball, k_support, kappa_and_weight, lambda_of,
                      lune_points)
from .momentum import MomentumBreakdown, Observable, n_point, n_weighted
from .energy import EnergyReport, e_corr_bos, e_corr_ex, e_fs, energy_report
from .numerics import (QuadratureResult, integrate_interval,
                       integrate_semi_infinite, rank1_resolvent_diag,
                       sym_matrix_function)
from .potential import (Potential, coulomb, from_table, load_table, validate,
                        yukawa, zero)
from .quasiboson import build_K, csk_pair, q_of_s
from .dvlimit import DVParams, compare_table, n_b_dv, n_ex_dv, q_dv

__version__ = "0.1.0"

__all__ = [
    "DVParams", "EnergyReport", "KSupport", "LatticeConfig",
    "MomentumBreakdown", "Observable", "Potential", "QuadratureResult",
    "TailPolicy", "build_K", "compare_table", "coulomb", "csk_pair",
    "d_intersection", "e_corr_bos", "e_corr_ex", "e_fs", "energy_report",
    "fermi_ball", "from_table", "integrate_interval",
    "integrate_semi_infinite", "k_support", "kappa_and_weight", "lambda_of",
    "load_table", "lune_points", "n_b_dv", "n_ex_dv", "n_point",
    "n_weighted", "q_dv", "q_of_s", "rank1_resolvent_diag",
    "sym_matrix_function", "validate", "yukawa", "zero",
]
