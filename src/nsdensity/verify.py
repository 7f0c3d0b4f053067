"""Invariant suites wiring the independent computation routes against each
other.

A suite is a list of :class:`Check` objects, each a name and a
zero-argument body that returns its PASS detail or raises.
:meth:`Check.run` turns an AssertionError, a ValueError (so a
CacheConflictError too) or a BudgetError into a FAIL line that carries the
message, so a route that raises inside one check leaves every other line
of the report in place.  The ``check_*`` factories are also what the test
suite runs at its own (larger) scales.  Suites never trust a single code
path: counts produced by the vectorized sweeps are replayed against closed
forms, frozen fixtures, or the deliberately naive reference implementations
in :mod:`nsdensity.core`, and ``series-engine`` replays the integer series
engine (:func:`~nsdensity.limits.truncation_numerators`) over the table's
range and over alpha_n's sub-ranges against the per-D oracle
:func:`~nsdensity.limits.gamma`.

The counting facts below are enforced where the data enters, which
refuses any data that breaks them, so no suite restates them or what
follows from them alone:

  * the level rule (the 2^(t-1) constants A_D with Max(D) = t each lie in
    [1, 3^(t-1)] and sum to 3^(t-1)) by :meth:`ConstantCache.set_level`,
    on every sweep and every cache load.  It makes every truncation of
    gamma_D fall and every lower end rise as the depth grows;
  * the C bound 1 <= C_{l,k} <= 2^l 3^(k-2l-1) by
    :func:`~nsdensity.constants.check_c`, which
    :meth:`ConstantCache.set_c` runs on every C a cache takes, loaded or
    swept (``c_consts`` and ``c_const`` sweep into a fresh cache when given
    none).  It keeps the lower end of every G_l interval at or above a_l
    (proof in :func:`~nsdensity.limits.g_l_limit`);
  * the sum of P(S) over a density table, 2^(f-1-l), by
    :class:`~nsdensity.enumeration.DensityTable` on construction.

Each production route, and each oracle the routes are replayed against,
with the checks that replay it; every check guards a row and can fail:

  =====================================  ==================================
  route                                  check (oracle)
  =====================================  ==================================
  flat sweep, ``density_table``, in      ``amap-sweep`` (``core.a_mask``
  groups of chunks                       on every T, at a chunk that makes
                                         many groups)
  its halving at even f by the dual      ``amap-sweep`` (f/2 inside and
                                         above the low block),
                                         ``amap-random`` (A(T*) = A(T))
  frozen tallies of ``density_table``    ``semigroup-count-9``,
                                         ``table-3``
  ``DensityTable.ranked``                ``encode-roundtrip`` (``d_of``,
                                         ``multiplicity``, ``n_of``)
  ``DensityTable.preimages``             ``g1-fixture`` (frozen value),
                                         ``mu-drift`` (the series engine)
  ``DensityTable.window``                ``window-factorization`` (the
                                         counting form A_D 2^(f-2t-1)),
                                         ``c-unit-range`` (C = 1 in
                                         closed form)
  ``DensityTable.census``                ``preimage-identity`` (the
                                         window partition of B(D,f))
  ``DensityTable.multiplicities``        ``per-m-bounds``,
                                         ``small-multiplicity-bound``
                                         (the closed-form bounds)
  top slice, one table per query         ``a-batch-validation`` (the 4^t
  (``top_slice_levels``)                 flat sweep, t <= 6),
                                         ``topslice-sweep`` (``core.a_mask``
                                         at every level s <= 7, at a chunk
                                         that puts the deep levels in
                                         leading-digit chunks),
                                         ``a-fixture-3``, ``a-fixture-4``
  C route, forced digits                 ``c-growth-bound`` (the
  (``top_slice_c``, ``c_consts``)        prefix-only sweep, which shares
                                         the table code but forces no
                                         digit, as an equality),
                                         ``c-fixture`` (frozen values),
                                         ``c-unit-range`` (the flat sweep
                                         for k <= 2l+1)
  cache loader                           ``cache-consistency`` (every
                                         loaded level t <= 15 and C with
                                         k <= 15, swept afresh by
                                         ``a_levels`` and ``c_consts`` and
                                         compared by the cache's own
                                         conflict rule), when the loaded
                                         cache holds any A level or any C
  series engine                          ``series-engine`` (``gamma``, one
  (``truncation_numerators``)            ``a_const`` and one Fraction per
                                         term), ``alpha-partial-telescope``
                                         (the rows' sum over D ⊆ [1, 4],
                                         telescoped from the levels),
                                         ``mu-drift`` (the flat sweep's
                                         mu(N(D,f)))
  ``gamma_table``'s row order and its    ``table-order`` (∅ on top),
  ``refined_lows``                       ``positivity-consistency`` (no
                                         refined interval empty)
  ``g_l_limit``                          ``g-limit-closed-form`` (both
                                         ends at depth 2l+1)
  certificate, the one generic tail      ``gamma-external-estimate``
  (``enclosure``)                        (the published 0.484451 +/-
                                         0.005011)
  oracle ``core.a_mask``                 ``amap-exhaustive``,
                                         ``amap-random`` (the pairwise
                                         scan)
  oracle ``gamma``                       ``gamma-small-depth`` (frozen
                                         values)
  =====================================  ==================================

The one check outside the table is ``g1-empirical-report``: it reports
how far |G_1(f)|/2^(f-1) lies from its certified limit, and since no
convergence rate is certified, no distance fails it.

``c-growth-bound`` sweeps into a fresh cache, never the loaded one, whose
every C was checked on load.  The restricted route makes the C bound true
by construction (:mod:`nsdensity.constants`), so the check's FAIL line is
a mismatch with the prefix-only sweep, or ``check_c`` refusing a value on
entry.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DSet,
    NumericalSet,
    a_mask,
    associated_semigroup,
    associated_semigroup_definitional,
    as_semigroup,
    d_of,
    multiplicity,
    n_of,
    r_value,
)
from .enumeration import (
    BudgetError,
    _slice_levels,
    _window_histograms,
    density_table,
    top_slice_levels,
    window_counts,
)
from .constants import (
    DEFAULT_DEPTH_BUDGET,
    CacheConflictError,
    ConstantCache,
    a_levels,
    c_const,
    c_consts,
)
from .limits import (
    Interval,
    a_constant,
    alpha_limit,
    alpha_masks,
    enclosure,
    g_l_limit,
    gamma,
    gamma_table,
    tail_bound,
    truncation_numerators,
)

DEFAULT_SEED = 20260825


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class Check:
    """A named check, not yet run: ``body()`` returns the PASS detail, or
    raises with the FAIL detail as its message."""

    name: str
    body: Callable[[], str]

    def run(self) -> CheckResult:
        try:
            return CheckResult(self.name, True, self.body())
        except (AssertionError, ValueError, BudgetError) as e:
            return CheckResult(self.name, False, str(e))


def _check(name: Callable[..., str]):
    """Decorate a check body: called with the body's arguments, it returns
    the :class:`Check` named ``name(*args)`` whose body is that call."""
    def wrap(body: Callable[..., str]) -> Callable[..., Check]:
        @functools.wraps(body)
        def make(*args, **kwargs) -> Check:
            return Check(name(*args, **kwargs), functools.partial(body, *args, **kwargs))
        return make
    return wrap


def _verdict(ok: bool, passed: str, failed: str) -> str:
    """``passed`` when ``ok``; else a FAIL that says ``failed``."""
    if not ok:
        raise AssertionError(failed)
    return passed


# ---------------------------------------------------------------------------
# reusable primitives (tests run these at their own scales)


@_check(lambda f: f"amap-exhaustive(f={f})")
def check_amap_exhaustive(f: int) -> str:
    """Optimized A(T) against the pairwise-scan reference, all T at this f."""
    for mask in range(1 << (f - 1)):
        t = NumericalSet(f, mask)
        fast = associated_semigroup(t)
        slow = associated_semigroup_definitional(t)
        if fast != slow:
            raise AssertionError(f"mismatch at gaps_mask={mask:#x}")
    return f"2^{f - 1} sets, bitmask route == pairwise scan"


@_check(lambda samples, f_max, seed=DEFAULT_SEED: f"amap-random(n={samples},f<={f_max})")
def check_amap_random(samples: int, f_max: int, seed: int = DEFAULT_SEED) -> str:
    """Optimized vs reference A(T) on random sets, A(A(T)) = A(T), and
    A(T*) = A(T) for the dual T* = {x : f - x not in T}, which halves the
    flat sweep at even f.  A(T) is a semigroup with T's f by construction:
    ``associated_semigroup`` builds a :class:`Semigroup` at ``T.f``, which
    refuses a set that is not closed under addition."""
    rng = random.Random(seed)
    for _ in range(samples):
        f = rng.randint(1, f_max)
        t = NumericalSet(f, rng.getrandbits(f - 1) if f > 1 else 0)
        s = associated_semigroup(t)
        if s != associated_semigroup_definitional(t):
            raise AssertionError(f"route mismatch at f={f} mask={t.gaps_mask:#x}")
        if associated_semigroup(s) != s:
            raise AssertionError(f"A not idempotent at f={f} mask={t.gaps_mask:#x}")
        # mask bit x-1 of T* is set iff bit f-x-1 of T's is clear: the
        # complement of the (f-1)-bit reversal
        rev = int(format(t.gaps_mask, f"0{f - 1}b")[::-1], 2)
        dual = ~rev & ((1 << (f - 1)) - 1)
        if associated_semigroup(NumericalSet(f, dual)) != s:
            raise AssertionError(f"A(T*) != A(T) at f={f} mask={t.gaps_mask:#x}")
    return (
        "routes agree; A(T) is a semigroup, same f, A(A(T))=A(T), "
        "A(T*)=A(T) for the dual T*"
    )


@_check(lambda f, chunk: f"amap-sweep(f={f},chunk={chunk})")
def check_amap_sweep(f: int, chunk: int) -> str:
    """Flat-sweep A-masks, tallied, against ``core.a_mask`` on every T.

    ``chunk`` below 2^(f-1) leaves positions above the low block to vary
    from chunk to chunk, so every term of the block decomposition is used,
    and makes the sweep many groups of GROUP chunks, so every group step
    runs on several rows; ``density_table`` at its default chunk must give
    the same tally.  At even f both sweeps visit only the sets with f/2
    out of T and double the counts; f/2 lies above the low block of a
    small ``chunk`` and inside the default one, so the two replay both
    places it can take.
    """
    want = Counter(a_mask(f, mask) for mask in range(1 << (f - 1)))
    chunked = density_table(f, chunk=chunk)
    if dict(zip(chunked.masks.tolist(), chunked.counts.tolist())) != want:
        raise AssertionError("chunked sweep tally != core.a_mask tally")
    table = density_table(f)
    if {s.gaps_mask: p for s, p in table.entries.items()} != want:
        raise AssertionError("density_table != core.a_mask tally")
    return f"2^{f - 1} sets: chunked sweep == density_table == core.a_mask"


@_check(lambda t, chunk: f"topslice-sweep(t={t},chunk={chunk})")
def check_topslice_sweep(t: int, chunk: int) -> str:
    """Shared-table histograms against ``core.a_mask`` on all 4^s sets of
    every level s <= t.

    The width-s window of A(T) at f = 2s+1 is tallied over every T, and
    over the T avoiding [1, 2]; one table's sweep of the levels up to t
    must match its tally from bucket 2^(s-1) on, and
    :func:`~nsdensity.enumeration._window_histograms` refuses a level that
    puts anything below.  A ``chunk`` below level t's size leaves the
    table fewer digits than the deep levels have, so those run in
    leading-digit chunks (the cross term and V_HH of the digit-pair
    decomposition) and the shallow ones are the table's first rows: both
    reads are replayed.
    """
    windows = {}
    for s in range(1, t + 1):
        f = 2 * s + 1
        windows[s] = [
            sum(1 << (y - 1) for y in range(1, s + 1) if amask >> (f - y - 1) & 1)
            for amask in (a_mask(f, mask) for mask in range(1 << (f - 1)))
        ]
    for l in (0, 2):
        levels = list(range(l + 1, t + 1))
        swept = dict(_window_histograms(
            _slice_levels(levels, prefix_zeros=l, chunk=chunk)
        ))
        for s in levels:
            want = [0] * (1 << s)
            for mask, w in enumerate(windows[s]):
                if not mask & ((1 << l) - 1):
                    want[w] += 1
            got, low = swept[s].tolist(), 1 << (s - 1)
            if got[low:] != want[low:]:
                raise AssertionError(
                    f"slice histogram != core.a_mask tally at t={s}, l={l}"
                )
    return (
        f"4^s sets for every s <= {t}, l = 0 and 2: one table's levels == top "
        f"buckets of the core.a_mask window tally"
    )


@_check(lambda f_max=12: f"encode-roundtrip(f<={f_max})")
def check_encoding_roundtrip(f_max: int = 12) -> str:
    """S -> D(S) -> N(D,f) is the identity on every semigroup, f <= f_max,
    and ``DensityTable.ranked`` gives each S the D(S) and m(S) that
    ``d_of`` and ``multiplicity`` give."""
    for f in range(1, f_max + 1):
        table = density_table(f)
        gaps, d_masks, mults, _ = table.ranked()
        ranked = dict(zip(gaps.tolist(), zip(d_masks.tolist(), mults.tolist())))
        for s in table.entries:
            d = d_of(s)
            if ranked[s.gaps_mask] != (d.mask, multiplicity(s)):
                raise AssertionError(f"ranked() D, m of {s!s} != d_of, multiplicity")
            back = as_semigroup(n_of(d, f))
            if back != s:
                raise AssertionError(f"N(D({s!s}),{f}) != S")
            if r_value(s) != (d.max_element if len(d) else -1):
                raise AssertionError(f"R({s!s}) != Max(D)")
    return "N(D(S),f) = S; R(S) = Max(D(S)) with -1 for D = ∅"


def _window_restrict(buckets: np.ndarray, width: int, t: int) -> np.ndarray:
    """Aggregate width-``width`` pattern counts down to width t <= width."""
    if not 0 <= t <= width:
        raise ValueError(f"cannot restrict width {width} to {t}")
    return buckets.reshape(1 << (width - t), 1 << t).sum(axis=0)


@_check(lambda f_max, t_max=4: f"window-factorization(t<={t_max},f<={f_max})")
def check_window_factorization(f_max: int, t_max: int = 4) -> str:
    """|B(D,f)| = A_D 2^(f-2t-1) for every D with Max(D) = t <= t_max."""
    a_arrays = {}  # level t, read off the sweep at f = 2t+1
    for f in range(3, f_max + 1):
        cap = min(t_max, (f - 1) // 2)
        wide = density_table(f).window(cap)
        if f == 2 * cap + 1:
            a_arrays[cap] = wide
        for t in range(1, cap + 1):
            got = _window_restrict(wide, cap, t)
            want = a_arrays[t] * (1 << (f - 2 * t - 1))
            # only patterns with Max = t exactly; lower ones restrict further
            for mask in range(1 << (t - 1), 1 << t):
                if got[mask] != want[mask]:
                    d = DSet(mask)
                    raise AssertionError(
                        f"B({d.key},{f}) = {int(got[mask])} != "
                        f"A_D*2^{f - 2 * t - 1} = {int(want[mask])}"
                    )
    return "B(D,f) = A_D * 2^(f-2t-1) for all windows"


@_check(lambda f, t_max=3: f"preimage-identity(f={f},t<={min(t_max, (f - 1) // 2)})")
def check_preimage_identity(f: int, t_max: int = 3) -> str:
    """Exact partition of B(D,f) by the first window element above Max(D):

    P(N(D,f)) = B(D,f) - sum_{k=t+1}^{floor((f-1)/2)} B(D u {k}, f) - |S(D,f)|.
    """
    cap = min(t_max, (f - 1) // 2)
    wide_w = (f - 1) // 2
    table = density_table(f)
    census = table.census(cap)
    wide = table.window(wide_w)

    def b_of(d: DSet) -> int:
        t = d.max_element
        if t == 0:
            return 1 << (f - 1)
        return int(_window_restrict(wide, wide_w, t)[d.mask])

    for mask in range(1 << cap):
        d = DSet(mask)
        t = d.max_element
        rhs = b_of(d)
        for k in range(t + 1, wide_w + 1):
            rhs -= b_of(d.with_added(k))
        rhs -= census.s_counts[d]
        if census.p_counts[d] != rhs:
            raise AssertionError(
                f"P(N({d.key},{f})) = {census.p_counts[d]} but partition gives {rhs}"
            )
    return "P(N(D,f)) = B - sum B(D u {k}) - |S|, bit for bit"


@_check(lambda f_max: f"small-multiplicity-bound(f<={f_max})")
def check_small_multiplicity_bound(f_max: int) -> str:
    """#{T : m(A(T)) <= f/2} <= f 3^(f/2), compared in squares (exactly)."""
    for f in range(2, f_max + 1):
        counts = density_table(f).multiplicities()
        c = sum(n for m, n in counts.items() if m <= f // 2)
        if c * c > f * f * 3**f:
            raise AssertionError(f"f={f}: count {c} exceeds f*3^(f/2)")
    return "count(m(A(T)) <= f/2) <= f * 3^(f/2)"


@_check(lambda f_max: f"per-m-bounds(f<={f_max})")
def check_per_m_bounds(f_max: int) -> str:
    """#{T : m(A(T)) = m} <= (q+2)^(r-1) (q+1)^(m-r) when f = qm + r, 0<r<m.

    Every attained m has 0 < r: an m <= f-1 lies in the semigroup, so every
    multiple of m does too, and f does not; the other attained m, f+1,
    exceeds f.  So no m divides f, and the bound covers every count."""
    for f in range(3, f_max + 1):
        for m, c in density_table(f).multiplicities().items():
            q, r = divmod(f, m)
            if c > (q + 2) ** (r - 1) * (q + 1) ** (m - r):
                raise AssertionError(
                    f"f={f} m={m}: count {c} > (q+2)^{r - 1}(q+1)^{m - r}"
                )
    return "per-multiplicity counts below (q+2)^(r-1)(q+1)^(m-r)"


@_check(lambda l_max=5: f"c-unit-range(l<={l_max})")
def check_c_unit_range(l_max: int = 5) -> str:
    """Direct sweeps confirm C_{l,k} = 1 whenever k <= 2l+1, l <= l_max."""
    for l in range(1, l_max + 1):
        for k in range(1, 2 * l + 2):
            # at the minimal f the free middle block is empty and the sweep
            # count is C_{l,k} itself, no 2^(f-1-k-max(k,l)) factor
            f = max(2 * k + 1, l + k + 1)
            table = density_table(f, prefix_zeros=l)
            got = int(table.window(k)[1 << (k - 1)])
            if got != 1:
                raise AssertionError(f"C_{{{l},{k}}} = {got} != 1")
    return "C_{l,k} = 1 for k <= 2l+1 (swept, not assumed)"


@_check(lambda l_max=3, extra=5: f"c-growth-bound(l<={l_max},k<=2l+{extra + 1})")
def check_c_growth_bound(l_max: int = 3, extra: int = 5) -> str:
    """The restricted C route against the prefix-only sweep on the range
    k in (2l+1, 2l+1+extra].

    ``c_consts`` counts bucket {k} over the 2^l 3^(k-1-2l) sets whose digits
    k-l..k-1 are forced, which makes C_{l,k} <= 2^l 3^(k-2l-1) true by
    construction (proof in :mod:`nsdensity.constants`).  So the check is an
    equality: bucket {k} of ``top_slice_levels`` over all 2^l 3^(k-1-l)
    sets avoiding [1, l], which forces no digit, must give the same C.
    The restricted route sweeps into a fresh cache, since a loaded cache
    would answer from records it checked on load and sweep nothing; a
    mismatch, or ``check_c``'s refusal on entry, is the FAIL."""
    for l in range(1, l_max + 1):
        ks = range(2 * l + 2, 2 * l + 2 + extra)
        restricted = c_consts(l, ks[-1], ConstantCache())[2 * l + 1:]
        prefix_only = top_slice_levels(ks, prefix_zeros=l)
        for (k, buckets), c in zip(prefix_only, restricted):
            want = int(buckets[1 << (k - 1)])
            if c != want:
                raise AssertionError(
                    f"C[{l},{k}] = {c} on the restricted route, "
                    f"{want} on the prefix-only sweep"
                )
    return "restricted C route == prefix-only sweep on the swept range"


@_check(lambda n_max, depth, cache: "alpha-partial-telescope")
def check_alpha_partial_telescope(n_max: int, depth: int, cache: ConstantCache) -> str:
    """The engine's sum over D ⊆ [1, n_max] against its telescoped form.

    sum_{n=-1}^{n_max} alpha_n is the sum of gamma_D over all D ⊆ [1, n_max],
    the engine's rows [0, 2^n_max); distinct D, so :func:`enclosure` gives
    the sum one tail (3/4)^depth.  Each A_D with 1 <= Max(D) <= n_max
    enters twice with opposite signs, as the head of gamma_D and as a term
    of gamma_(D∖{Max(D)}), so the truncated value telescopes exactly to

        1 - sum_{k=n_max+1}^{depth} (sum_{E: Max(E)=k, E∖{k} ⊆ [1,n_max]} A_E) 4^(-k),

    which proves value <= 1 and is recomputed here from the levels.
    """
    lo, scaled = enclosure(truncation_numerators(0, 1 << n_max, depth, cache), depth)
    # entry m < 2^n_max of level k is A_E for E∖{k} ⊆ [1, n_max], E = m ∪ {k}
    telescoped = 4**depth - sum(
        sum(cache.levels[k][: 1 << n_max].tolist()) * 4 ** (depth - k)
        for k in range(n_max + 1, depth + 1)
    )
    iv = Interval.on_grid(lo, scaled, depth)
    return _verdict(
        scaled == telescoped,
        f"sum_(n<={n_max}) alpha_n = {iv} <= 1, telescoped form agrees",
        f"partial alpha sum {scaled} != telescoped form {telescoped} over 4^{depth}",
    )


def full_window_oracle(t: int, cache: ConstantCache) -> None:
    """Replay level t of ``cache`` against the 4^t full-window sweep.

    The independent oracle for the top-slice route: the buckets of the
    sweep at f = 2t+1 over all 4^t sets (a :class:`DensityTable`, which
    refuses a tally that does not sum to 4^t) from 2^(t-1) on must equal
    the cached level t, and every lower bucket must equal the truncation
    identity (see :mod:`.constants`), the depth-t numerator of
    :func:`truncation_numerators`, which sweeps into ``cache`` any level
    below t it lacks.  CacheConflictError names the first mismatch.
    """
    buckets = window_counts(2 * t + 1, t)
    low = 1 << (t - 1)
    level = cache.levels.get(t)
    held = [None] * low if level is None else level.tolist()
    for m, value in enumerate(held, low):
        if value != int(buckets[m]):
            raise CacheConflictError(
                f"A_{{{DSet(m).key}}} is {value} on "
                f"the slice route, {int(buckets[m])} in the 4^{t} sweep"
            )
    # window maxima below t
    for m, value in enumerate(truncation_numerators(0, low, t, cache)):
        if value != int(buckets[m]):
            raise CacheConflictError(
                f"bucket[{DSet(m).key}] of the 4^{t} sweep is "
                f"{int(buckets[m])}, the truncation identity predicts {value}"
            )


# ---------------------------------------------------------------------------
# suites: each returns its checks unrun; run_suites runs them in order


def suite_core(max_f: int | None = None,
               cache: ConstantCache | None = None) -> list[Check]:
    f_cap = max_f or 40
    return [
        check_amap_exhaustive(min(11, f_cap)),
        check_amap_random(3000, min(60, f_cap)),
        # at chunk 32, f/2 = 7 lies above the low block; at the default
        # chunk, inside it; at f = 14 chunk 32 makes 4 groups of 32 chunks
        check_amap_sweep(min(14, f_cap), 1 << 5),
        check_encoding_roundtrip(min(12, f_cap)),
    ]


def suite_counting(max_f: int | None = None,
                   cache: ConstantCache | None = None) -> list[Check]:
    f_cap = max_f or 16
    return [
        check_window_factorization(f_cap, min(4, (f_cap - 1) // 2)),
        check_preimage_identity(min(14, f_cap), 3),
    ]


def suite_constants(max_f: int | None = None,
                    cache: ConstantCache | None = None) -> list[Check]:
    t_max = 6

    def batch_validation() -> str:
        fresh = ConstantCache()
        a_levels(1, t_max, fresh)
        for t in range(1, t_max + 1):
            full_window_oracle(t, fresh)
        return (
            f"slice route equals the top buckets of the 4^t sweep, whose buckets "
            f"sum to 4^t and meet the truncation identity; t <= {t_max}"
        )

    def cache_consistency() -> str:
        # verify takes no --depth-budget: its re-sweep is held to the default
        levels = [t for t in sorted(cache.levels) if t <= DEFAULT_DEPTH_BUDGET]
        c_keys = sorted(lk for lk in cache.c_entries if lk[1] <= DEFAULT_DEPTH_BUDGET)
        swept = ConstantCache()
        a_levels(1, max(levels, default=0), swept)
        for l, k in dict(c_keys).items():  # the largest k of each l
            c_consts(l, k, swept)
        # the cache's own conflict rule names the first differing constant;
        # every key passed is held, so the loaded cache takes nothing new
        for t in levels:
            cache.set_level(t, swept.levels[t])
        for l, k in c_keys:
            cache.set_c(l, k, swept.c(l, k))
        n_a = sum(len(cache.levels[t]) for t in levels)
        return f"{n_a} re-swept A and {len(c_keys)} re-swept C match the cache"

    checks = [Check("a-batch-validation", batch_validation), check_topslice_sweep(7, 9)]
    if cache is not None and (cache.levels or cache.c_entries):
        checks.append(Check("cache-consistency", cache_consistency))
    return checks


def suite_bounds(max_f: int | None = None,
                 cache: ConstantCache | None = None) -> list[Check]:
    f_cap = max_f or 16
    return [
        check_c_unit_range(5),
        check_c_growth_bound(3, 5),
        check_per_m_bounds(f_cap),
        check_small_multiplicity_bound(min(f_cap + 4, 20)),
    ]


def suite_limits(max_f: int | None = None,
                 cache: ConstantCache | None = None) -> list[Check]:
    cache = cache if cache is not None else ConstantCache()
    # never below 3, the largest Max(D) these checks read and 2l+1 at l = 1
    depth = min(10, max(cache.a_depth() or 10, 3))

    def series_engine() -> str:
        # the engine's rows against the per-D oracle, over the table's
        # range and over each alpha_n's sub-range
        q = 4**depth
        want = [gamma(DSet(m), depth, cache).value * q for m in range(8)]
        if truncation_numerators(0, 8, depth, cache) != want:
            raise AssertionError("table rows with Max(D) <= 3 != gamma(D)")
        for n in (-1, 1, 2, 3):
            masks = alpha_masks(n)
            if alpha_limit(n, depth, cache) != want[masks.start : masks.stop]:
                raise AssertionError(f"alpha_{n} rows != gamma(D) of its summands")
        return "rows with Max(D) <= 3, and alpha_n rows for n = -1..3, equal gamma(D)"

    def g_limit_closed_form() -> str:
        for l in (1, 2):
            g = g_l_limit(l, 2 * l + 1, cache)
            lift = Fraction(1, 3) / 4 ** (2 * l + 1)
            iv = Interval.on_grid(g.lo, g.hi, 2 * l + 1)
            if iv.hi != Fraction(2, 3) / 4**l + lift:
                raise AssertionError(
                    f"l={l}: truncation {iv.hi} != (2/3)4^-l + (1/3)4^-(2l+1)"
                )
            if iv.lo != a_constant(l) + lift:
                raise AssertionError(
                    f"l={l}: lower end {iv.lo} != a_l + (1/3)4^-(2l+1)"
                )
        return (
            "depth-(2l+1) value is (2/3)4^-l + (1/3)4^-(2l+1), "
            "lower end a_l + (1/3)4^-(2l+1)"
        )

    def table_order() -> str:
        rows = gamma_table(min(3, depth), depth, cache).rows
        return _verdict(
            not rows[0], f"top row of {len(rows)} is ∅",
            f"top row is {DSet(rows[0]).key}, not ∅",
        )

    def positivity_consistency() -> str:
        # refined_lo raises, naming D, at the first row whose upper end S/q
        # lies below a_t/2^(t+1)
        gamma_table(min(3, depth), depth, cache).refined_lows
        return "upper ends dominate a_t/2^(t+1); refined intervals nonempty"

    return [
        Check(f"series-engine(t<=3,depth={depth})", series_engine),
        check_alpha_partial_telescope(min(4, depth), depth, cache),
        Check("g-limit-closed-form", g_limit_closed_form),
        Check("table-order", table_order),
        Check("positivity-consistency", positivity_consistency),
    ]


# frozen fixtures, derived once from the pairwise-scan reference route
ORACLE_A3 = {"3": 3, "1,3": 3, "2,3": 2, "1,2,3": 1}
ORACLE_A4 = {
    "4": 8, "1,4": 6, "2,4": 2, "3,4": 3,
    "1,2,4": 3, "1,3,4": 2, "2,3,4": 2, "1,2,3,4": 1,
}
ORACLE_C = {(1, 4): 3, (1, 5): 6, (1, 6): 17, (2, 6): 5, (2, 7): 11, (2, 8): 36}


def suite_oracle(max_f: int | None = None,
                 cache: ConstantCache | None = None) -> list[Check]:
    @functools.cache
    def fresh() -> ConstantCache:
        swept = ConstantCache()
        a_levels(1, 4, swept)
        return swept

    def a_fixture(frozen: dict[str, int], t: int) -> str:
        got = {
            DSet(mask).key: v for mask, v in fresh().a_entries.items()
            if mask.bit_length() == t
        }
        return _verdict(
            got == frozen, f"all {len(frozen)} constants at Max(D) = {t}",
            f"swept {got} != fixture {frozen}",
        )

    def c_fixture() -> str:
        got = {lk: c_const(*lk, fresh()) for lk in ORACLE_C}
        return _verdict(
            got == ORACLE_C, f"{len(ORACLE_C)} swept C values match fixtures",
            f"swept {got} != fixture {ORACLE_C}",
        )

    def semigroup_count_9() -> str:
        n9 = len(density_table(9))
        return _verdict(
            n9 == 21, "21 semigroups with f = 9", f"{n9} semigroups at f=9, expected 21"
        )

    def table_3() -> str:
        t3 = density_table(3)
        want = {as_semigroup(n_of(DSet(), 3)): 3,
                as_semigroup(n_of(DSet.of([1]), 3)): 1}
        return _verdict(
            dict(t3.entries) == want,
            "f=3: P = 3 for the minimal semigroup, 1 for {0,2,4,...}",
            f"f=3 table {t3.entries} != {want}",
        )

    def gamma_small_depth() -> str:
        g2 = gamma(DSet(), 2, fresh()).value
        g12 = gamma(DSet.of([1]), 2, fresh()).value
        g13 = gamma(DSet.of([1, 3]), 3, fresh())
        return _verdict(
            g2 == Fraction(5, 8) and g12 == Fraction(3, 16)
            and g13.value == Fraction(3, 64) and not g13.terms,
            "gamma(∅,2) = 5/8; gamma({1},2) = 3/16; gamma({1,3},3) = 3/64",
            f"got {g2}, {g12}, {g13.value}",
        )

    def g1_fixture() -> str:
        g19 = int(density_table(9, prefix_zeros=1).preimages(0))
        return _verdict(g19 == 41, "|G_1(9)| = 41", f"|G_1(9)| = {g19} != 41")

    return [
        Check("a-fixture-3", functools.partial(a_fixture, ORACLE_A3, 3)),
        Check("a-fixture-4", functools.partial(a_fixture, ORACLE_A4, 4)),
        Check("c-fixture", c_fixture),
        Check("semigroup-count-9", semigroup_count_9),
        Check("table-3", table_3),
        Check("gamma-small-depth", gamma_small_depth),
        Check("g1-fixture", g1_fixture),
    ]


def suite_convergence(max_f: int | None = None,
                      cache: ConstantCache | None = None) -> list[Check]:
    f_cap = max(7, max_f or 20)  # N(D,f) for D up to {1,3} needs f >= 7
    cache = cache if cache is not None else ConstantCache()
    # never below 3, the largest Max(D) mu-drift reads and 2l+1 at l = 1
    depth = min(12, max(cache.a_depth() or 12, 3))

    def mu_drift() -> str:
        dsets = [DSet(), DSet.of([1]), DSet.of([2]), DSet.of([1, 3])]
        goals = [n_of(d, f_cap).gaps_mask for d in dsets]
        counts = density_table(f_cap).preimages(goals)
        allowance = Fraction(2, 100) + tail_bound(depth)
        rows = truncation_numerators(0, 8, depth, cache)  # every D with Max(D) <= 3
        for d, count in zip(dsets, counts.tolist()):
            mu = Fraction(count, 1 << (f_cap - 1))
            v = Fraction(rows[d.mask], 4**depth)
            if abs(mu - v) > allowance:
                raise AssertionError(f"D={d.key}: |mu - gamma| = {float(abs(mu - v)):.4f}")
        return "mu(N(D,f)) within 0.02 + (3/4)^depth of the truncation"

    def external_estimate() -> str:
        parts = truncation_numerators(0, 1, depth, cache)
        interval = Interval.on_grid(*enclosure(parts, depth), depth)
        published = Interval(
            Fraction(484451, 10**6) - Fraction(5011, 10**6),
            Fraction(484451, 10**6) + Fraction(5011, 10**6),
        )
        return _verdict(
            interval.intersects(published),
            f"gamma interval {interval} meets 0.484451 +/- 0.005011",
            f"gamma interval {interval} misses 0.484451 +/- 0.005011",
        )

    def g1_empirical_report() -> str:  # report-only: finite-f drift, no certified rate
        f_g = min(f_cap, 20)
        g = g_l_limit(1, depth, cache)
        iv = Interval.on_grid(g.lo, g.hi, depth)
        emp = Fraction(int(density_table(f_g, prefix_zeros=1).preimages(0)), 1 << (f_g - 1))
        inside = iv.lo - Fraction(2, 100) <= emp <= iv.hi + Fraction(2, 100)
        return (
            f"|G_1({f_g})|/2^(f-1) = {float(emp):.5f} vs limit {iv}"
            + (" (within 0.02)" if inside else " (outside 0.02)")
        )

    return [
        Check(f"mu-drift(f={f_cap},depth={depth})", mu_drift),
        Check("gamma-external-estimate", external_estimate),
        Check("g1-empirical-report", g1_empirical_report),
    ]


SUITES = {
    "core": suite_core,
    "counting": suite_counting,
    "constants": suite_constants,
    "bounds": suite_bounds,
    "limits": suite_limits,
    "oracle": suite_oracle,
    "convergence": suite_convergence,
}


def run_suites(names: list[str], max_f: int | None = None,
               cache: ConstantCache | None = None) -> list[CheckResult]:
    """Every check of the named suites (or of all, for "all"), in order,
    each run in :meth:`Check.run`'s one try."""
    picked = list(SUITES) if "all" in names else names
    results = []
    for name in picked:
        results += [check.run() for check in SUITES[name](max_f=max_f, cache=cache)]
    return results
