"""Densities of numerical semigroups under the map T -> A(T).

Exact enumeration lives in :mod:`nsdensity.enumeration`, the cached counting
constants in :mod:`nsdensity.constants`, the certified limit intervals in
:mod:`nsdensity.limits`, and the consistency suites in
:mod:`nsdensity.verify`.  Re-exported here are the routes the CLI runs and
the named oracles that check them (``gamma``, ``window_counts``,
``associated_semigroup_definitional``, ``SuffixCensus``); every other name
is imported from its own module.
"""

from .core import DSet, associated_semigroup_definitional
from .enumeration import (
    BudgetError,
    DensityTable,
    SuffixCensus,
    density_table,
    window_counts,
)
from .constants import (
    CacheConflictError,
    ConstantCache,
    a_levels,
    c_consts,
    cache_load,
    cache_store,
)
from .limits import (
    GammaEstimate,
    GammaTable,
    Interval,
    alpha_limit,
    decimal_str,
    enclosure,
    g_l_limit,
    gamma,
    gamma_table,
    truncation_numerators,
)

__version__ = "0.1.0"
