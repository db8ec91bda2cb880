"""Centralized numerical tolerance constants.

All structural / algebraic tolerances used across the package live in one
frozen record so tests and library code agree on the same numbers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    structural: float = 1e-10      # hermiticity (relative to the largest entry), trace,
                                   # positivity of states
    trace_imag: float = 1e-10      # allowed imaginary residue of a physical trace, relative
                                   # to its a-priori size (e.g. ||B||^K for a K-th order C)
    eigen_cluster: float = 1e-9    # degenerate-eigenvalue clustering width, relative to
                                   # the largest |eigenvalue|


TOL = Tolerances()
