"""Desk-scale numerical verification of the weakly singular convolution
equation  int |x-y|^(-lambda) f(y) dy = f(x)^(p-1)  with p = 2n/(2n-lambda):
closed-form constants, its two known solutions, the integral identities
connecting them, boundary-weighted regularity checks, and a bounded-domain
solver."""

from .identities import (DifferentialForm, IdentityReport, MultiIndex,
                         apply_form, check_commutativity, check_composite,
                         check_orthogonality, cutoff_pair_integral, parity_split,
                         parse_form, solution_descriptor)
from .quadrature import (NonConvergent, QuadratureSpec, ScreenResult,
                         convergence_screen, integrate)
from .radial_riesz import (RadialProfile, ScreenRejected, angular_kernel,
                           riesz_potential_radial)
from .regularity import (DecayScanReport, Domain1D, KernelGrowthReport,
                         WeightedNormResult, decay_singularity_scan,
                         kernel_growth_check, translation_annihilation_check,
                         weight, weighted_norm)
from .solutions import (ResidualReport, lieb_solution, singular_solution,
                        verify_solution)
from .solver import (GridSolution1D, NonPositive, SolverConfig, SolverTrace,
                     picard_solve, residual_on_points)
from .specfun import (Params, beta, ft_riesz_coefficient, lieb_constant_C,
                      lieb_constant_L, log_gamma, riesz_power_constant,
                      sphere_surface_area)

__version__ = "0.1.0"
