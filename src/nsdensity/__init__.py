"""Densities of numerical semigroups under the map T -> A(T).

Exact enumeration lives in :mod:`nsdensity.enumeration`, the cached counting
constants in :mod:`nsdensity.constants`, and the certified limit intervals in
:mod:`nsdensity.limits`.  Everything user-facing is re-exported here.
"""

from .core import (
    DSet,
    NumericalSet,
    Semigroup,
    associated_semigroup,
    associated_semigroup_definitional,
    as_semigroup,
    d_of,
    fold,
    is_semigroup,
    multiplicity,
    n_of,
    r_value,
    suffix_pattern,
)
from .enumeration import (
    BudgetError,
    DensityTable,
    SuffixCensus,
    density_table,
    top_slice_c,
    top_slice_levels,
    window_counts,
    window_restrict,
)
from .constants import (
    CacheConflictError,
    ConstantCache,
    a_const,
    a_consts_batch,
    a_levels,
    c_const,
    c_consts,
    cache_load,
    cache_store,
    resolve_cache_path,
)
from .limits import (
    GammaEstimate,
    GammaTable,
    Interval,
    a_constant,
    alpha_limit,
    alpha_partial_sum,
    decimal_str,
    g_l_limit,
    gamma,
    gamma_lower_bound,
    gamma_table,
    tail_bound,
)
from .verify import CheckResult, SUITES, run_suites

__version__ = "0.1.0"
