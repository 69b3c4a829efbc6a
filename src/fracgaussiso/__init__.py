"""Fractional Gaussian perimeters, extensions and isoperimetric deficits.

Numerical library for one-dimensional Gaussian sets: Hermite-spectral
fractional perimeters, Fraenkel asymmetries, the subordinated extension
field with its level sets, a finite-difference energy cross-check, and
verifiers for the quantitative isoperimetric inequality.
"""

from ._backend import BACKEND
from .errors import (DegenerateSetError, DomainError, QuadratureError,
                     ResolutionError, SetParseError)
from .gauss_core import (FractionalOrder, QuadratureRule, beta_coefficient,
                         gamma_fn, gauss_hermite_rule, hermite_eval,
                         iso_function, k_coefficient, phi, phi_inv)
from .sets import (EMPTY, FULL_LINE, GaussianSet, Halfline, asymmetry,
                   best_halfline, complement, ehrhard_symmetrize, halfline,
                   interval, intersect, measure, reflect, set_minus,
                   symm_diff, union)
from .spectral import (PerimeterValue, asymptotic_limit,
                       asymptotic_series_value, coeff_set, halfline_perimeter,
                       halfline_perimeter_reference, halfspace_series,
                       perimeter_spectral)
from .extension import (ExtensionField, LevelSetRecord, boundary_flux_check,
                        boundary_flux_richardson, evaluate_extension,
                        extension_field, level_set_with_budget,
                        mehler_extension, mehler_semigroup, profile_psi,
                        trace_gap)
from .pde import pde_energy, pde_energy_cylinder
from .inequality import (ConstantParams, DeficitReport, constant_C, f_weight,
                         sigma_min, verify_levelset_bounds,
                         verify_levelset_closeness, verify_main,
                         verify_transfer_lemma, z_thresholds)
from .suites import SUITES, random_gaussian_set

__version__ = "0.1.0"
