"""Centralized numerical tolerance constants.

All structural / algebraic tolerances used across the package live in one
frozen record so tests and library code agree on the same numbers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    structural: float = 1e-10      # hermiticity, trace, positivity of states
    unitarity: float = 1e-9        # max-norm of U†U - I
    algebra: float = 1e-12         # exact operator identities (roundoff only)
    trace_imag: float = 1e-10      # allowed imaginary residue of a physical trace, relative
                                   # to its a-priori size (e.g. ||B||^K for a K-th order C)
    eigen_cluster: float = 1e-9    # degenerate-eigenvalue clustering width
    fock_tail: float = 1e-10       # allowed coherent-state population beyond cutoff
    probability: float = 1e-8      # normalization of sampled outcome distributions


TOL = Tolerances()
