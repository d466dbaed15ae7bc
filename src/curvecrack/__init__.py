"""curvecrack: plane-strain curvilinear crack with curvature-dependent surface tension.

Collocation solver for the singular integro-differential system governing a
smooth crack in an infinite elastic plate whose faces carry curvature-
dependent surface tension, plus evaluators for face stresses, displacement
derivatives, crack-opening profiles, and logarithmic tip-singularity
coefficients.
"""

from .densities import (DensityCoefficients, pv_polynomial, traction_jump,
                        traction_jump_parts)
from .fields import (FaceFieldSample, FarFieldLoad, Material, SurfaceParams,
                     boundary_forcing, face_field_profile, face_fields,
                     far_field_curvature_change, far_field_potentials,
                     surface_tension_coefficients)
from .geometry import (CrackCurve, GeometryError, make_circular_arc,
                       make_semicircle, make_straight)
from .kernels import KernelSet, fredholm_operator
from .postprocess import (ConvergenceRow, CurvatureSweepRow, GammaSweepRow,
                          LogFit, OpeningProfile, collect_tip_samples,
                          convergence_study, default_fit_window,
                          fit_log_coefficient, fit_tip_coefficients,
                          max_face_traction, opening_profile,
                          parity_residuals, sweep_curvature, sweep_gamma,
                          tip_log_coefficients)
from .quadrature import Discretization, pv_cauchy_sum
from .solver import (AssemblyError, LinearSystem, SolveError, assemble, solve,
                     solve_problem, single_valued_integral,
                     single_valued_residual, tip_condition_residuals)

__version__ = "0.1.0"
