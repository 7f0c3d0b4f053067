"""Densities of numerical semigroups under the map T -> A(T).

Exact enumeration lives in :mod:`nsdensity.enumeration`, the cached counting
constants in :mod:`nsdensity.constants`, and the certified limit intervals in
:mod:`nsdensity.limits`.  Everything user-facing is re-exported here.
"""

from .core import (
    DSet,
    NumericalSet,
    Semigroup,
    UncertifiedSemigroupWarning,
    associated_semigroup,
    associated_semigroup_definitional,
    as_semigroup,
    d_of,
    fold,
    is_semigroup,
    make_numerical_set,
    multiplicity,
    n_f,
    n_of,
    r_value,
    suffix_pattern,
)
from .enumeration import (
    BudgetError,
    DEFAULT_ENUM_BUDGET,
    DensityTable,
    SuffixCensus,
    density_table,
    top_slice_counts,
    window_counts,
    window_restrict,
)
from .constants import (
    CacheConflictError,
    ConstantCache,
    DEFAULT_DEPTH_BUDGET,
    a_const,
    a_consts_batch,
    build_a_constants,
    c_const,
    cache_load,
    cache_store,
    resolve_cache_path,
)
from .limits import (
    AlphaEstimate,
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
