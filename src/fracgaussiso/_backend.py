"""Backend selection: compiled kernels when available, numpy fallback otherwise.

Import ``_kernels_py`` directly to run or cross-check the fallback.
"""
from __future__ import annotations

try:
    from . import _kernels as kernels  # type: ignore[attr-defined]
except ImportError:
    from . import _kernels_py as kernels

BACKEND = kernels.BACKEND_NAME

coeff_antideriv_table = kernels.coeff_antideriv_table
hermite_weighted_series = kernels.hermite_weighted_series
halfspace_series_sum = kernels.halfspace_series_sum
