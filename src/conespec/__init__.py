"""Spectral and exponent machinery for gauged polyharmonic operators on
cones: exact flat-space tensor calculus, indicial spectra, power-sum
inequalities, annulus growth estimates, degenerate-mode scans, and the
decay-order bootstrap."""

__version__ = "0.1.0"

from .bootstrap import (bootstrap_infinity, bootstrap_origin,
                        regularity_ladder, remainder_order)
from .closed_form import (essential_linear_gap, gauge_exceptional_values,
                          gauge_kernel_rates, modified_gauge_rates,
                          polyharmonic_exceptional_values,
                          scalar_indicial_polynomial, scalar_indicial_roots)
from .expsum import (ExpSum, ExpTerm, eval_expsum, three_interval,
                     turan_discrete, turan_integral)
from .flat_kernel import (QuadraticField, divergence_free_nullspace,
                          quadratic_flow_error, quadratic_lie_isomorphism)
from .mode_ode import (EulerOperator, IndicialSpectrum, ModeSolution,
                       degenerate_scan, empirical_l0, indicial_spectrum,
                       probe_euler, solution_split, tensor_mode_system,
                       three_annulus_verify)
from .polytensor import (AngularBasis, PolyTensor, apply_operator,
                         tensor_mode_basis)
from .symbols import principal_symbol
