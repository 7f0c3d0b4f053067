"""Invariant suites wiring the independent computation routes against each
other.

Every check returns a CheckResult rather than raising, so the CLI can print
a full pass/fail report; the check functions are also what the test suite
calls at its own (larger) scales.  Suites never trust a single code path:
counts produced by the vectorized sweeps are replayed against closed forms,
frozen fixtures, or the deliberately naive reference implementations in
:mod:`nsdensity.core`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DSet,
    NumericalSet,
    a_mask,
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
    _window_histogram,
    density_table,
    window_counts,
    window_restrict,
)
from .constants import CacheConflictError, ConstantCache, a_consts_batch, c_const
from .limits import (
    Interval,
    a_constant,
    alpha_limit,
    alpha_partial_sum,
    g_l_limit,
    gamma,
    gamma_lower_bound,
    gamma_table,
    tail_bound,
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


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


def _bad(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


# ---------------------------------------------------------------------------
# reusable primitives (tests call these at their own scales)


def check_amap_exhaustive(f: int) -> CheckResult:
    """Optimized A(T) against the pairwise-scan reference, all T at this f."""
    name = f"amap-exhaustive(f={f})"
    for mask in range(1 << (f - 1)):
        t = NumericalSet(f, mask)
        fast = associated_semigroup(t)
        slow = associated_semigroup_definitional(t)
        if fast != slow:
            return _bad(name, f"mismatch at gaps_mask={mask:#x}")
    return _ok(name, f"2^{f - 1} sets, bitmask route == pairwise scan")


def check_amap_random(samples: int, f_max: int, seed: int = DEFAULT_SEED) -> CheckResult:
    """Optimized vs reference A(T) on random sets, plus structural facts."""
    name = f"amap-random(n={samples},f<={f_max})"
    rng = random.Random(seed)
    for _ in range(samples):
        f = rng.randint(1, f_max)
        t = NumericalSet(f, rng.getrandbits(f - 1) if f > 1 else 0)
        s = associated_semigroup(t)
        if s != associated_semigroup_definitional(t):
            return _bad(name, f"route mismatch at f={f} mask={t.gaps_mask:#x}")
        if s.f != f or not is_semigroup(s):
            return _bad(name, f"A(T) malformed at f={f} mask={t.gaps_mask:#x}")
        if associated_semigroup(s) != s:
            return _bad(name, f"A not idempotent at f={f} mask={t.gaps_mask:#x}")
    return _ok(name, "routes agree; A(T) is a semigroup, same f, A(A(T))=A(T)")


def check_amap_sweep(f: int, chunk: int) -> CheckResult:
    """Flat-sweep A-masks, tallied, against ``core.a_mask`` on every T.

    ``chunk`` below 2^(f-1) leaves positions above the low block to vary
    from chunk to chunk, so every term of the block decomposition is used;
    ``density_table`` at its default chunk must give the same tally.
    """
    name = f"amap-sweep(f={f},chunk={chunk})"
    want = Counter(a_mask(f, mask) for mask in range(1 << (f - 1)))
    chunked = density_table(f, chunk=chunk)
    if dict(zip(chunked.masks.tolist(), chunked.counts.tolist())) != want:
        return _bad(name, "chunked sweep tally != core.a_mask tally")
    table = density_table(f)
    if {s.gaps_mask: p for s, p in table.entries.items()} != want:
        return _bad(name, "density_table != core.a_mask tally")
    return _ok(
        name, f"2^{f - 1} sets: chunked sweep == density_table == core.a_mask"
    )


def check_topslice_sweep(t: int, chunk: int) -> CheckResult:
    """Chunked top-slice histograms against ``core.a_mask`` on all 4^t sets.

    The width-t window of A(T) at f = 2t+1 (t >= 3) is tallied over every
    T, and over the T avoiding [1, 2]; the slice sweep over the same sets
    must put nothing below bucket 2^(t-1) and match the tally from there
    on.  With
    ``chunk`` below the slice size the leading digits vary from chunk to
    chunk, so the cross term and V_HH of the digit-pair decomposition are
    both used.
    """
    name = f"topslice-sweep(t={t},chunk={chunk})"
    f, low = 2 * t + 1, 1 << (t - 1)
    windows = []
    for mask in range(1 << (f - 1)):
        amask = a_mask(f, mask)
        windows.append(sum(
            1 << (y - 1) for y in range(1, t + 1) if amask >> (f - y - 1) & 1
        ))
    for l in (0, 2):
        want = [0] * (1 << t)
        for mask, w in enumerate(windows):
            if not mask & ((1 << l) - 1):
                want[w] += 1
        got = _window_histogram(
            f, t, prefix_zeros=l, budget=f, chunk=chunk
        ).tolist()
        if any(got[:low]) or got[low:] != want[low:]:
            return _bad(name, f"slice histogram != core.a_mask tally at l={l}")
    return _ok(
        name,
        f"4^{t} sets, l = 0 and 2: chunked slice == top buckets of the "
        f"core.a_mask window tally",
    )


def check_encoding_roundtrip(f_max: int = 12) -> CheckResult:
    """S -> D(S) -> N(D,f) is the identity on every semigroup, f <= f_max."""
    name = f"encode-roundtrip(f<={f_max})"
    for f in range(1, f_max + 1):
        for s in density_table(f).entries:
            d = d_of(s)
            back = as_semigroup(n_of(d, f, warn_uncertified=False))
            if back != s:
                return _bad(name, f"N(D({s!s}),{f}) != S")
            if r_value(s) != (d.max_element if len(d) else -1):
                return _bad(name, f"R({s!s}) != Max(D)")
            if multiplicity(s) != f - r_value(s):
                return _bad(name, f"m({s!s}) != f - R")
    return _ok(name, "N(D(S),f) = S; R(S) = Max(D(S)) with -1 for D = ∅")


def check_fold_window(samples: int = 2000, f_max: int = 24,
                      seed: int = DEFAULT_SEED) -> CheckResult:
    """Width-t suffix window of A(T) survives folding T down to f = 2t+1."""
    name = f"fold-window(n={samples},f<={f_max})"
    rng = random.Random(seed)
    for _ in range(samples):
        f = rng.randint(4, f_max)
        t_wid = rng.randint(1, min(4, (f - 1) // 2))
        t = NumericalSet(f, rng.getrandbits(f - 1))
        folded = fold(t, t_wid, 2 * t_wid + 1)
        a_big = associated_semigroup(t)
        a_small = associated_semigroup(folded)
        if suffix_pattern(a_big, t_wid) != suffix_pattern(a_small, t_wid):
            return _bad(
                name, f"window changed: f={f} t={t_wid} mask={t.gaps_mask:#x}"
            )
    return _ok(name, "window_t(A(T)) = window_t(A(fold(T, t, 2t+1)))")


def check_sum_preimages(f_max: int, workers: int = 1) -> CheckResult:
    """sum over semigroups of P(S) accounts for every one of the 2^(f-1) sets."""
    name = f"sum-preimages(f<={f_max})"
    for f in range(1, f_max + 1):
        table = density_table(f, workers=workers)  # validates the sum itself
        total = int(table.counts.sum())
        if total != 1 << (f - 1):
            return _bad(name, f"f={f}: sum P(S) = {total} != 2^{f - 1}")
    return _ok(name, "sum_S P(S) = 2^(f-1), every f")


def check_window_factorization(f_max: int, t_max: int = 4,
                               workers: int = 1) -> CheckResult:
    """|B(D,f)| = A_D 2^(f-2t-1) for every D with Max(D) = t <= t_max."""
    name = f"window-factorization(t<={t_max},f<={f_max})"
    a_arrays = {}  # level t, read off the sweep at f = 2t+1
    for f in range(3, f_max + 1):
        cap = min(t_max, (f - 1) // 2)
        if cap < 1:
            continue
        wide = density_table(f, workers=workers).window(cap)
        if f == 2 * cap + 1:
            a_arrays[cap] = wide
        for t in range(1, cap + 1):
            got = window_restrict(wide, cap, t)
            want = a_arrays[t] * (1 << (f - 2 * t - 1))
            # only patterns with Max = t exactly; lower ones restrict further
            for mask in range(1 << (t - 1), 1 << t):
                if got[mask] != want[mask]:
                    d = DSet.from_mask(mask)
                    return _bad(
                        name,
                        f"B({d.key},{f}) = {int(got[mask])} != "
                        f"A_D*2^{f - 2 * t - 1} = {int(want[mask])}",
                    )
    return _ok(name, "B(D,f) = A_D * 2^(f-2t-1) for all windows")


def check_preimage_identity(f: int, t_max: int = 3, workers: int = 1) -> CheckResult:
    """Exact partition of B(D,f) by the first window element above Max(D):

    P(N(D,f)) = B(D,f) - sum_{k=t+1}^{floor((f-1)/2)} B(D u {k}, f) - |S(D,f)|.
    """
    cap = min(t_max, (f - 1) // 2)
    name = f"preimage-identity(f={f},t<={cap})"
    wide_w = (f - 1) // 2
    table = density_table(f, workers=workers)
    census = table.census(cap)
    wide = table.window(wide_w)

    def b_of(d: DSet) -> int:
        t = d.max_element
        if t == 0:
            return 1 << (f - 1)
        return int(window_restrict(wide, wide_w, t)[d.mask])

    for mask in range(1 << cap):
        d = DSet.from_mask(mask)
        t = d.max_element
        rhs = b_of(d)
        for k in range(t + 1, wide_w + 1):
            rhs -= b_of(d.with_added(k))
        rhs -= census.s_counts[d]
        if census.p_counts[d] != rhs:
            return _bad(
                name,
                f"P(N({d.key},{f})) = {census.p_counts[d]} but partition gives {rhs}",
            )
    return _ok(name, "P(N(D,f)) = B - sum B(D u {k}) - |S|, bit for bit")


def check_small_multiplicity_bound(f_max: int, workers: int = 1) -> CheckResult:
    """#{T : m(A(T)) <= f/2} <= f 3^(f/2), compared in squares (exactly)."""
    name = f"small-multiplicity-bound(f<={f_max})"
    for f in range(2, f_max + 1):
        counts = density_table(f, workers=workers).multiplicities()
        c = sum(n for m, n in counts.items() if m <= f // 2)
        if c * c > f * f * 3**f:
            return _bad(name, f"f={f}: count {c} exceeds f*3^(f/2)")
    return _ok(name, "count(m(A(T)) <= f/2) <= f * 3^(f/2)")


def check_per_m_bounds(f_max: int, workers: int = 1) -> CheckResult:
    """#{T : m(A(T)) = m} <= (q+2)^(r-1) (q+1)^(m-r) when f = qm + r, 0<r<m."""
    name = f"per-m-bounds(f<={f_max})"
    for f in range(3, f_max + 1):
        for m, c in density_table(f, workers=workers).multiplicities().items():
            q, r = divmod(f, m)
            if r == 0:
                continue  # bound stated only for m not dividing f
            if c > (q + 2) ** (r - 1) * (q + 1) ** (m - r):
                return _bad(
                    name,
                    f"f={f} m={m}: count {c} > (q+2)^{r - 1}(q+1)^{m - r}",
                )
    return _ok(name, "per-multiplicity counts below (q+2)^(r-1)(q+1)^(m-r)")


def check_c_unit_range(l_max: int = 5, workers: int = 1) -> CheckResult:
    """Direct sweeps confirm C_{l,k} = 1 whenever k <= 2l+1, l <= l_max."""
    name = f"c-unit-range(l<={l_max})"
    for l in range(1, l_max + 1):
        for k in range(1, 2 * l + 2):
            # at the minimal f the free middle block is empty and the sweep
            # count is C_{l,k} itself, no 2^(f-1-k-max(k,l)) factor
            f = max(2 * k + 1, l + k + 1)
            table = density_table(f, prefix_zeros=l, workers=workers)
            got = int(table.window(k)[1 << (k - 1)])
            if got != 1:
                return _bad(name, f"C_{{{l},{k}}} = {got} != 1")
    return _ok(name, "C_{l,k} = 1 for k <= 2l+1 (swept, not assumed)")


def check_c_growth_bound(cache: ConstantCache | None = None, l_max: int = 3,
                         extra: int = 5, workers: int = 1) -> CheckResult:
    """C_{l,k} <= 2^l 3^(k-2l-1) on the computed range k in (2l+1, 2l+1+extra]."""
    name = f"c-growth-bound(l<={l_max},k<=2l+{extra + 1})"
    cache = cache if cache is not None else ConstantCache()
    for l in range(1, l_max + 1):
        for k in range(2 * l + 2, 2 * l + 2 + extra):
            try:
                # c_const itself refuses a swept value above the bound
                c = c_const(l, k, cache, workers=workers)
            except (AssertionError, CacheConflictError) as e:
                return _bad(name, str(e))
            if c > 2**l * 3 ** (k - 2 * l - 1):
                return _bad(name, f"C_{{{l},{k}}} = {c} > 2^l 3^(k-2l-1)")
    return _ok(name, "C_{l,k} <= 2^l 3^(k-2l-1) on the swept range")


def full_window_oracle(t: int, cache: ConstantCache, workers: int = 1) -> None:
    """Replay level t of ``cache`` against the 4^t full-window sweep.

    The independent oracle for the top-slice route: the sweep at f = 2t+1
    over all 4^t sets must sum to 4^t, its buckets from 2^(t-1) on must
    equal the cached level t, and every lower bucket whose inputs are
    cached must equal the truncation identity (see :mod:`.constants`).
    CacheConflictError names the first mismatch.
    """
    buckets = window_counts(2 * t + 1, t, budget=2 * t + 1, workers=workers)
    if int(buckets.sum()) != 4**t:
        raise CacheConflictError(
            f"4^{t} sweep buckets sum to {int(buckets.sum())}, not 4^{t}"
        )
    low = 1 << (t - 1)
    for m in range(low, 2 * low):
        if cache.a_entries.get(m) != int(buckets[m]):
            raise CacheConflictError(
                f"A_{{{DSet.from_mask(m).key}}} is {cache.a_entries.get(m)} on "
                f"the slice route, {int(buckets[m])} in the 4^{t} sweep"
            )
    for m in range(low):  # window maxima below t
        value = _truncation_bucket(m, t, cache)
        if value is not None and value != int(buckets[m]):
            raise CacheConflictError(
                f"bucket[{DSet.from_mask(m).key}] of the 4^{t} sweep is "
                f"{int(buckets[m])}, the truncation identity predicts {value}"
            )


def _truncation_bucket(m: int, t: int, cache: ConstantCache) -> int | None:
    """A_D 4^(t-s) - sum_{k=s+1}^t A_{D∪{k}} 4^(t-k), None if inputs missing.

    D is given by its mask ``m`` and s = Max(D) is the mask's bit length.
    """
    s = m.bit_length()
    a_d = cache.a_entries.get(m) if m else 1
    if a_d is None:
        return None
    value = a_d * 4 ** (t - s)
    for k in range(s + 1, t + 1):
        a_e = cache.a_entries.get(m | 1 << (k - 1))
        if a_e is None:
            return None
        value -= a_e * 4 ** (t - k)
    return value


def check_a_bounds(cache: ConstantCache, t_min: int = 1) -> CheckResult:
    """1 <= A_D <= 3^(t-1) for every constant in the cache."""
    name = "a-bounds(all cached)"
    n = 0
    for mask, value in cache.a_entries.items():
        t = mask.bit_length()
        if t < t_min:
            continue
        n += 1
        if not 1 <= value <= 3 ** (t - 1):
            key = DSet.from_mask(mask).key
            return _bad(name, f"A_{{{key}}} = {value} outside [1, 3^{t - 1}]")
    return _ok(name, f"1 <= A_D <= 3^(Max(D)-1) for {n} cached constants")


def check_a_sum_identity(cache: ConstantCache) -> CheckResult:
    """sum of A_E over Max(E) = t is exactly 3^(t-1) at every cached depth."""
    name = "a-sum-identity"
    depth = cache.a_depth()
    if depth < 1:
        return _ok(name, "no cached constants to sum (vacuous)")
    by_max: dict[int, int] = {}
    for mask, value in cache.a_entries.items():
        t = mask.bit_length()
        if t >= 1:
            by_max[t] = by_max.get(t, 0) + value
    for t in range(1, depth + 1):
        if by_max.get(t, 0) != 3 ** (t - 1):
            return _bad(name, f"sum over Max = {t} is {by_max.get(t, 0)} != 3^{t - 1}")
    return _ok(name, f"sum_{{Max(E)=t}} A_E = 3^(t-1) for t <= {depth}")


# ---------------------------------------------------------------------------
# suites


def suite_core(max_f: int | None = None, cache: ConstantCache | None = None,
               workers: int = 1) -> list[CheckResult]:
    f_cap = max_f or 40
    return [
        check_amap_exhaustive(min(11, f_cap)),
        check_amap_random(3000, min(60, f_cap)),
        check_amap_sweep(min(13, f_cap), 1 << 5),
        check_encoding_roundtrip(min(12, f_cap)),
        check_fold_window(2000, max(4, min(24, f_cap))),  # folds need f >= 4
    ]


def suite_counting(max_f: int | None = None, cache: ConstantCache | None = None,
                   workers: int = 1) -> list[CheckResult]:
    f_cap = max_f or 16
    return [
        check_sum_preimages(f_cap, workers),
        check_window_factorization(f_cap, min(4, (f_cap - 1) // 2), workers),
        check_preimage_identity(min(14, f_cap), 3, workers),
        check_small_multiplicity_bound(f_cap, workers),
    ]


def suite_constants(max_f: int | None = None, cache: ConstantCache | None = None,
                    workers: int = 1) -> list[CheckResult]:
    out = []
    t_max = 6
    fresh = ConstantCache()
    try:
        for t in range(1, t_max + 1):
            a_consts_batch(t, fresh, workers=workers)
            full_window_oracle(t, fresh, workers)
    except (AssertionError, CacheConflictError) as e:
        out.append(_bad("a-batch-validation", str(e)))
        return out
    out.append(_ok(
        "a-batch-validation",
        f"slice route equals the top buckets of the 4^t sweep, whose buckets "
        f"sum to 4^t and meet the truncation identity; t <= {t_max}",
    ))
    out.append(check_a_sum_identity(fresh))
    out.append(check_topslice_sweep(7, 9))
    if cache is not None and cache.a_entries:
        name = "cache-consistency"
        bad = [
            DSet.from_mask(mask).key for mask, v in fresh.a_entries.items()
            if cache.a_entries.get(mask, v) != v
        ]
        if bad:
            out.append(_bad(name, f"cached A differs for {bad[:3]}"))
        else:
            out.append(_ok(
                name, f"{len(fresh.a_entries)} recomputed A match the cache"
            ))
    out.append(check_c_unit_range(3, workers))
    return out


def suite_bounds(max_f: int | None = None, cache: ConstantCache | None = None,
                 workers: int = 1) -> list[CheckResult]:
    f_cap = max_f or 16
    if cache is None or not cache.a_entries:
        cache = ConstantCache()
        for t in range(1, 7):
            a_consts_batch(t, cache, workers=workers)
    return [
        check_a_bounds(cache),
        check_c_unit_range(5, workers),
        check_c_growth_bound(cache, 3, 5, workers),
        check_per_m_bounds(f_cap, workers),
        check_small_multiplicity_bound(min(f_cap + 4, 20), workers),
    ]


def suite_limits(max_f: int | None = None, cache: ConstantCache | None = None,
                 workers: int = 1) -> list[CheckResult]:
    out = []
    cache = cache if cache is not None else ConstantCache()
    depth = min(10, cache.a_depth() or 10)

    name = f"truncation-monotone(depth<={depth})"
    ok = True
    for d in (DSet(), DSet.of([1]), DSet.of([2, 3])):
        prev = None
        for n in range(d.max_element, depth + 1):
            g = gamma(d, n, cache, workers=workers)
            if prev is not None and not (
                g.value <= prev.value
                and g.interval.lo >= prev.interval.lo
                and g.interval.hi <= prev.interval.hi
            ):
                out.append(_bad(name, f"violated at D={d.key} depth {n}"))
                ok = False
                break
            prev = g
        if not ok:
            break
    if ok:
        out.append(_ok(name, "values decrease, intervals nest as depth grows"))

    name = "alpha-width"
    ok = True
    for n in (-1, 1, 2, 3, 4):
        est = alpha_limit(n, depth, cache, workers=workers)
        limit = max(1, 1 << (n - 1)) * tail_bound(depth) if n >= 1 else tail_bound(depth)
        if est.interval.width > limit:
            out.append(_bad(name, f"alpha_{n} width {est.interval.width} > bound"))
            ok = False
    if ok:
        out.append(_ok(name, "alpha_n interval width <= 2^(n-1)(3/4)^N (shared-tail: (3/4)^N)"))

    name = "alpha-partial-telescope"
    try:
        iv = alpha_partial_sum(min(4, depth), depth, cache, workers=workers)
    except AssertionError as e:
        out.append(_bad(name, str(e)))
    else:
        out.append(_ok(name, f"sum_(n<=4) alpha_n = {iv} <= 1, telescoped form agrees"))

    name = "g-limit-closed-form"
    ok = True
    for l in (1, 2):
        iv = g_l_limit(l, 2 * l + 1, cache, workers=workers)
        expect = Fraction(2, 3) / 4**l + Fraction(1, 3) / 4 ** (2 * l + 1)
        if iv.hi != expect:
            out.append(_bad(name, f"l={l}: truncation {iv.hi} != (2/3)4^-l + (1/3)4^-(2l+1)"))
            ok = False
        if iv.lo < a_constant(l):
            out.append(_bad(name, f"l={l}: interval lower end below a_l"))
            ok = False
    if ok:
        out.append(_ok(name, "depth-(2l+1) value is (2/3)4^-l + (1/3)4^-(2l+1); lower end >= a_l"))

    name = "table-order"
    tbl = gamma_table(min(3, depth), depth, cache, workers=workers)
    vals = [r.value for r in tbl.rows]
    if vals != sorted(vals, reverse=True):
        out.append(_bad(name, "rows not sorted descending by value"))
    elif tbl.rows[0].d != DSet():
        out.append(_bad(name, f"top row is {tbl.rows[0].d.key}, not ∅"))
    else:
        out.append(_ok(name, f"{len(tbl.rows)} rows descending; top row is ∅"))

    name = "positivity-consistency"
    bad = None
    for row in tbl.rows:
        t = row.d.max_element
        if t >= 1 and row.value < gamma_lower_bound(row.d):
            bad = row.d
            break
        row.refined_interval  # raises if structurally empty
    if bad is None:
        out.append(_ok(name, "upper ends dominate a_t/2^(t+1); refined intervals nonempty"))
    else:
        out.append(_bad(name, f"gamma upper end below a_t/2^(t+1) at D={bad.key}"))
    return out


# frozen fixtures, derived once from the pairwise-scan reference route
ORACLE_A3 = {"3": 3, "1,3": 3, "2,3": 2, "1,2,3": 1}
ORACLE_A4 = {
    "4": 8, "1,4": 6, "2,4": 2, "3,4": 3,
    "1,2,4": 3, "1,3,4": 2, "2,3,4": 2, "1,2,3,4": 1,
}
ORACLE_C = {(1, 4): 3, (1, 5): 6, (1, 6): 17, (2, 6): 5, (2, 7): 11, (2, 8): 36}


def suite_oracle(max_f: int | None = None, cache: ConstantCache | None = None,
                 workers: int = 1) -> list[CheckResult]:
    out = []
    fresh = ConstantCache()
    for t in range(1, 5):
        a_consts_batch(t, fresh, workers=workers)

    for label, frozen, t in (("a-fixture-3", ORACLE_A3, 3), ("a-fixture-4", ORACLE_A4, 4)):
        got = {
            DSet.from_mask(mask).key: v for mask, v in fresh.a_entries.items()
            if mask.bit_length() == t
        }
        if got == frozen:
            out.append(_ok(label, f"all {len(frozen)} constants at Max(D) = {t}"))
        else:
            out.append(_bad(label, f"swept {got} != fixture {frozen}"))

    name = "c-fixture"
    got_c = {lk: c_const(*lk, fresh, workers=workers) for lk in ORACLE_C}
    out.append(
        _ok(name, f"{len(ORACLE_C)} swept C values match fixtures")
        if got_c == ORACLE_C
        else _bad(name, f"swept {got_c} != fixture {ORACLE_C}")
    )

    name = "semigroup-count-9"
    n9 = len(density_table(9, workers=workers))
    out.append(
        _ok(name, "21 semigroups with f = 9")
        if n9 == 21 else _bad(name, f"{n9} semigroups at f=9, expected 21")
    )

    name = "table-3"
    t3 = density_table(3, workers=workers)
    want = {as_semigroup(n_of(DSet(), 3, warn_uncertified=False)): 3,
            as_semigroup(n_of(DSet.of([1]), 3, warn_uncertified=False)): 1}
    out.append(
        _ok(name, "f=3: P = 3 for the minimal semigroup, 1 for {0,2,4,...}")
        if dict(t3.entries) == want
        else _bad(name, f"f=3 table {t3.entries} != {want}")
    )

    name = "gamma-small-depth"
    g2 = gamma(DSet(), 2, fresh).value
    g12 = gamma(DSet.of([1]), 2, fresh).value
    g13 = gamma(DSet.of([1, 3]), 3, fresh)
    if g2 == Fraction(5, 8) and g12 == Fraction(3, 16) and g13.value == Fraction(3, 64) and not g13.terms:
        out.append(_ok(name, "gamma(∅,2) = 5/8; gamma({1},2) = 3/16; gamma({1,3},3) = 3/64"))
    else:
        out.append(_bad(name, f"got {g2}, {g12}, {g13.value}"))

    name = "g1-fixture"
    g19 = int(density_table(9, prefix_zeros=1, workers=workers).preimages(0))
    out.append(
        _ok(name, "|G_1(9)| = 41") if g19 == 41
        else _bad(name, f"|G_1(9)| = {g19} != 41")
    )
    return out


def suite_convergence(max_f: int | None = None, cache: ConstantCache | None = None,
                      workers: int = 1) -> list[CheckResult]:
    out = []
    f_cap = max(7, max_f or 20)  # N(D,f) for D up to {1,3} needs f >= 7
    cache = cache if cache is not None else ConstantCache()
    depth = cache.a_depth()
    depth = min(12, depth) if depth >= 1 else 12

    name = f"mu-drift(f={f_cap},depth={depth})"
    dsets = [DSet(), DSet.of([1]), DSet.of([2]), DSet.of([1, 3])]
    goals = [n_of(d, f_cap, warn_uncertified=False).gaps_mask for d in dsets]
    counts = density_table(f_cap, workers=workers).preimages(goals)
    allowance = Fraction(2, 100) + tail_bound(depth)
    ok = True
    for d, count in zip(dsets, counts.tolist()):
        mu = Fraction(count, 1 << (f_cap - 1))
        v = gamma(d, depth, cache, workers=workers).value
        if abs(mu - v) > allowance:
            out.append(_bad(name, f"D={d.key}: |mu - gamma| = {float(abs(mu - v)):.4f}"))
            ok = False
    if ok:
        out.append(_ok(name, "mu(N(D,f)) within 0.02 + (3/4)^depth of the truncation"))

    out.append(check_preimage_identity(min(14, f_cap), 3, workers))

    name = "gamma-external-estimate"
    g = gamma(DSet(), depth, cache, workers=workers)
    published = Interval(
        Fraction(484451, 10**6) - Fraction(5011, 10**6),
        Fraction(484451, 10**6) + Fraction(5011, 10**6),
    )
    out.append(
        _ok(name, f"gamma interval {g.interval} meets 0.484451 +/- 0.005011")
        if g.interval.intersects(published)
        else _bad(name, f"gamma interval {g.interval} misses 0.484451 +/- 0.005011")
    )

    f_g = min(f_cap, 20)
    iv = g_l_limit(1, depth, cache, workers=workers)
    g1 = density_table(f_g, prefix_zeros=1, workers=workers).preimages(0)
    emp = Fraction(int(g1), 1 << (f_g - 1))
    inside = iv.lo - Fraction(2, 100) <= emp <= iv.hi + Fraction(2, 100)
    out.append(_ok(  # report-only: finite-f drift, no certified rate
        "g1-empirical-report",
        f"|G_1({f_g})|/2^(f-1) = {float(emp):.5f} vs limit {iv}"
        + (" (within 0.02)" if inside else " (outside 0.02)"),
    ))
    return out


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
               cache: ConstantCache | None = None,
               workers: int = 1) -> list[CheckResult]:
    picked = list(SUITES) if "all" in names else names
    results = []
    for name in picked:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        results.extend(SUITES[name](max_f=max_f, cache=cache, workers=workers))
    return results
