"""Fractional Gaussian perimeters, extensions and isoperimetric deficits.

Numerical library for one-dimensional Gaussian sets: Hermite-spectral
fractional perimeters, Fraenkel asymmetries, the subordinated extension
field with its level sets, and verifiers for the quantitative isoperimetric
inequality.  The finite-difference energy cross-check is ``fracgaussiso.pde``.
"""

from ._backend import BACKEND
from .errors import (DegenerateSetError, DomainError, ResolutionError,
                     SetParseError)
from .gauss_core import gamma_fn, iso_function, k_coefficient, phi, phi_inv
from .sets import (EMPTY, FULL_LINE, GaussianSet, Halfline, asymmetry,
                   best_halfline, complement, ehrhard_symmetrize, halfline,
                   interval, intersect, measure, reflect, set_minus,
                   symm_diff, union)
from .spectral import (PerimeterValue, asymptotic_limit, asymptotic_series_value,
                       halfline_perimeter, halfspace_series, perimeter_spectral)
from .extension import (ExtensionField, LevelSetRecord, evaluate_extension,
                        extension_field, level_set_with_budget)
from .inequality import (DeficitReport, constant_C, sigma_min, verify_levelset_bounds,
                         verify_levelset_closeness, verify_main, verify_orders,
                         verify_transfer_lemma, z0_threshold, z_thresholds)
from .suites import SUITES, random_gaussian_set

__version__ = "0.1.0"
