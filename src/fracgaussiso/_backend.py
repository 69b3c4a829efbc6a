"""The kernel module and backend label that ``perfbench/run.py`` reads.

The library imports the kernels from ``_kernels_py`` directly.
"""
from __future__ import annotations

from . import _kernels_py as kernels  # noqa: F401  (perfbench reads it)

BACKEND = "python"
