"""Amplitude dynamics of a two-level atom coupled to a quantum field.

Stationary and squeezed field-state kernels, Volterra integro-differential
solvers for the excited-state amplitude, and Laplace-domain resonance
analysis.
"""

from .atom import ModelParams, SmearingFunction, chi_momentum, hydrogen_chi, \
    orbital_value, transition_frequency
from .kernels import KernelEvaluator, SpectralDensity, SqueezeParams, \
    density_from_table, hydrogen_density, hydrogen_vacuum_density, \
    make_kernel, squeezed_delta_concentrated, squeezed_delta_general, \
    vacuum_kernel
from .laplace import LaplaceAnalysis, MissingExtensionError, analyze, \
    bromwich_invert, find_pole, markov_rate, s_hat, s_hat_second_sheet
from .quadrature import QuadratureError, integrate_finite, \
    oscillatory_halfline
from .units import FINE_STRUCTURE, constants_table, energy_from_ev, \
    energy_to_ev, time_from_si, time_to_si
from .volterra import AmplitudeSeries, OrderEstimate, SolverError, TimeGrid, \
    ZKernel, compute_Z, estimate_order, solve_ide, solve_integral_form

__version__ = "0.1.0"

__all__ = [
    "AmplitudeSeries", "FINE_STRUCTURE", "KernelEvaluator",
    "LaplaceAnalysis", "MissingExtensionError", "ModelParams",
    "OrderEstimate", "QuadratureError", "SmearingFunction", "SolverError",
    "SpectralDensity", "SqueezeParams", "TimeGrid", "ZKernel", "analyze",
    "bromwich_invert", "chi_momentum", "compute_Z", "constants_table",
    "density_from_table", "energy_from_ev", "energy_to_ev",
    "estimate_order", "find_pole", "hydrogen_chi", "hydrogen_density",
    "hydrogen_vacuum_density", "integrate_finite", "make_kernel",
    "markov_rate", "orbital_value", "oscillatory_halfline", "s_hat",
    "s_hat_second_sheet", "solve_ide", "solve_integral_form",
    "squeezed_delta_concentrated", "squeezed_delta_general",
    "time_from_si", "time_to_si", "transition_frequency", "vacuum_kernel",
]
