"""Fixtures shared by the test files."""
import pytest

from fracgaussiso import cli, extension, gauss_core, pde, spectral

# Every functools cache (lru_cache, cache) in src/fracgaussiso.  The values of
# GaussianSet's cached properties live on their sets and need no clearing.
# test_caches.py walks the package and fails when one is missing here.
CACHES = (cli.build_parser, extension._mehler_rule, gauss_core.laguerre_roots,
          pde._transverse, spectral._order_weights, spectral.coeff_table)


@pytest.fixture
def cold_caches():
    """Clear every cache of the package, so a test counts its own work only;
    the fixture's value is the tuple of caches."""
    for cache in CACHES:
        cache.cache_clear()
    return CACHES
