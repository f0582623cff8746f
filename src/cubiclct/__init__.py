"""Exact rational verification of log canonical thresholds on singular cubic surfaces.

The package certifies a classification of global log canonical thresholds
for cubic surfaces with ADE singularities.  Everything is computed over
the rationals: pullback coefficients on crepant resolutions, witness
divisor thresholds, and Farkas-style infeasibility certificates for the
linear case systems behind each lower bound.
"""

from cubiclct.qexact import Rat, parse_rat, format_rat, solve_linear_system
from cubiclct.lattice import AdeType, cartan_matrix, pullback_coefficients

__all__ = [
    "Rat",
    "parse_rat",
    "format_rat",
    "solve_linear_system",
    "AdeType",
    "cartan_matrix",
    "pullback_coefficients",
]

__version__ = "0.1.0"
