import pathlib

import pytest

from nsdensity.constants import ConstantCache, a_levels, cache_load

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED_CACHE = ROOT / "nsdensity.cache"


@pytest.fixture(scope="session")
def shipped_cache() -> ConstantCache:
    """The depth-15 constant cache shipped with the repository."""
    if not SHIPPED_CACHE.exists():
        pytest.fail(
            f"{SHIPPED_CACHE} missing; regenerate with demos/build_cache.py"
        )
    return cache_load(SHIPPED_CACHE)


@pytest.fixture(scope="session")
def small_cache() -> ConstantCache:
    """Constants through Max(D) = 6, computed fresh (about a tenth of a second)."""
    cache = ConstantCache()
    a_levels(1, 6, cache)
    return cache
