"""Numerical potential theory toolkit.

Solves the Poisson problem -L u = mu with mixed diffuse/concentrated measure
data on model domains, computes weighted norms of smallest excessive
majorants via obstacle solves, evaluates energy-based reconstruction
functionals for the concentrated part of the measure, and runs exit-time
Monte Carlo diagnostics.
"""

from .geometry import Domain, Grid, GridField, build_grid
from .kernels import OperatorSpec, green, killing_density, poisson_kernel
from .discrete import DiscreteOperator, assemble, discrete_green
from .measures import Decomposition, Density, MeasureData, decompose, total_variation
from .solve import Solution, grid_solution, integral_solution
from .envelope import (ReduiteResult, TailCurve, d1_norm, harmonic_extension,
                       reduite, tail_curve)
from .reconstruct import (ReconstructionReport, local_energy, nonlocal_energy,
                          reconstruct_mu_c, s_n, sigma, theta_n)
from .stochastic import (UIDiagnostic, class_d_diagnostic,
                         maximal_inequality_check, reducing_expectation,
                         stable_exit)

__version__ = "0.1.0"
