"""Exact integer constants A_D and C_{l,k}, computed once and cached.

A_D = |B(D, 2t+1)| with t = Max(D) is the window count at the smallest
Frobenius number where the width-t window factorizes, and C_{l,k} is the
prefix-constrained analogue |B_l(k, 2k+1)| (or |B_l(k, l+k+1)| for k <= l,
where it is 1 by a short argument, as it is for all k <= 2l+1).

Both come from one sweep over the top slice at f = 2t+1
(:func:`~nsdensity.enumeration.top_slice_counts`).  t+1 is in A(T) iff
t+1 in T, t not in T, and x in T implies x+t+1 in T for x in [1, t-1];
positions t and t+1 are forced and each residual pair (x, x+t+1) admits
3 of 4 states, so exactly 3^(t-1) sets have window maximum t, and their
width-t windows are the D with Max(D) = t.  A_D at level t is bucket
D.mask of that sweep; C_{l,k} is bucket {k} of the sweep at t = k with
the 2^l 3^(k-1-l) sets avoiding [1, l].  The checks that run:

  * the kernel computes each slice set's whole width-t window, every
    pair of the set included (a pair in T at x but not at x+t+1 would
    clear the top bit), and a window below 2^(t-1) (t+1 missing from
    A(T)) is an error.  The slice holds 3^(t-1) sets by construction, so
    this is what makes the level sum below a check of the kernel and of
    the proof above;
  * the level rule, :func:`check_a_level`: all 2^(t-1) constants, each in
    [1, 3^(t-1)], summing to exactly 3^(t-1), at a level t <= 31;
  * :func:`check_c`: 1 <= C_{l,k} <= 2^l 3^(k-2l-1) for l >= 1 and
    2l+2 <= k <= 31.  31 = (WORD_LIMIT-1)/2 is the deepest top slice, and
    the C_{l,k} with k <= 2l+1 are the closed-form 1, never stored;
  * a recomputed constant that differs from a cached one is an error.

The 4^t full-window sweep is the independent oracle
(:func:`nsdensity.verify.full_window_oracle`), run by ``verify --suite
constants`` and the tests, not by production: its top buckets must equal
the slice route, its buckets sum to 4^t, and for every D with
Max(D) = s < t its bucket equals A_D 4^(t-s) - sum_{k=s+1}^{t}
A_{D∪{k}} 4^(t-k), the finite truncation identity.

A_D is keyed by ``D.mask``, so Max(D) is the bit length of its key.  The
sweeps, :func:`cache_load` and :func:`cache_store` share the level rule and
the C bound.

The cache file is line-delimited ``A|<D-key>|<int>`` / ``C|<l>,<k>|<int>``
records, UTF-8 with LF endings, sorted for reproducible diffs; ``#`` lines
carry provenance (``# key: value``).  The D-key format is defined in
:mod:`nsdensity.core`, which parses it (:func:`~nsdensity.core.parse_d_mask`)
and renders it (:attr:`DSet.key`, :func:`~nsdensity.core.d_mask_keys`).  The
file is untrusted input: two values for one key, or a level, a C key or a C
value that breaks its rule, are always a hard error, never a silent merge.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .core import DSet, d_mask_keys, parse_d_mask
from .enumeration import WORD_LIMIT, BudgetError, top_slice_counts

DEFAULT_DEPTH_BUDGET = 15
CACHE_ENV = "NSDENSITY_CACHE"
DEFAULT_CACHE_NAME = "nsdensity.cache"


class CacheConflictError(ValueError):
    """Two sources disagree on an exact constant, or one breaks a proven rule."""


# the deepest top slice a 64-bit word holds: f = 2t+1 <= WORD_LIMIT
TOP_SLICE_LIMIT = (WORD_LIMIT - 1) // 2


def check_a_level(t: int, level: Mapping[int, int]) -> None:
    """The level rule for {D.mask: A_D}, every key of bit length t: all
    2^(t-1) constants, each in [1, 3^(t-1)], summing to exactly 3^(t-1).
    Levels above TOP_SLICE_LIMIT are refused before any power is taken."""
    if t > TOP_SLICE_LIMIT:
        raise CacheConflictError(
            f"level {t}: A levels lie in [1, {TOP_SLICE_LIMIT}], the deepest top slice"
        )
    cap, values = 3 ** (t - 1), level.values()
    lo, hi, total = min(values), max(values), sum(values)
    if len(level) != 2 ** (t - 1) or not 1 <= lo <= hi <= cap or total != cap:
        raise CacheConflictError(
            f"level {t}: {len(level)} A constants in [{lo}, {hi}] summing to "
            f"{total}; the rule is 2^{t - 1} in [1, 3^{t - 1}] summing to 3^{t - 1}"
        )


def check_c(l: int, k: int, value: int) -> None:
    """1 <= C_{l,k} <= 2^l 3^(k-2l-1), for the keys a sweep produces: l >= 1
    and 2l+2 <= k <= TOP_SLICE_LIMIT.  C_{l,k} = 1 for k <= 2l+1 in closed
    form and is never stored; the key is checked before any power is taken."""
    if l < 1 or not 2 * l + 2 <= k <= TOP_SLICE_LIMIT:
        raise CacheConflictError(
            f"C[{l},{k}] outside the swept keys l >= 1, "
            f"2l+2 <= k <= {TOP_SLICE_LIMIT}"
        )
    limit = 2**l * 3 ** (k - 2 * l - 1)
    if not 1 <= value <= limit:
        raise CacheConflictError(f"C[{l},{k}] = {value} outside [1, {limit}]")


@dataclass
class ConstantCache:
    a_entries: dict[int, int] = field(default_factory=dict)  # D.mask -> A_D
    c_entries: dict[tuple[int, int], int] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def a(self, d: DSet) -> int | None:
        if d.max_element == 0:
            return 1
        return self.a_entries.get(d.mask)

    def c(self, l: int, k: int) -> int | None:
        return self.c_entries.get((l, k))

    def set_a(self, d: DSet, value: int) -> None:
        self._set_a_mask(d.mask, value)

    def _set_a_mask(self, mask: int, value: int) -> None:
        old = self.a_entries.get(mask)
        if old is not None and old != value:
            raise CacheConflictError(
                f"A[{DSet.from_mask(mask).key}] recomputed as {value}, cached {old}"
            )
        self.a_entries[mask] = value

    def set_c(self, l: int, k: int, value: int) -> None:
        old = self.c_entries.get((l, k))
        if old is not None and old != value:
            raise CacheConflictError(
                f"C[{l},{k}] recomputed as {value}, cached {old}"
            )
        self.c_entries[(l, k)] = value

    def a_depth(self) -> int:
        """Largest t with every Max(D) = t entry present."""
        per_level = Counter(mask.bit_length() for mask in self.a_entries)
        t = 0
        while per_level[t + 1] == 1 << t:  # 2^t sets have maximum t+1
            t += 1
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstantCache):
            return NotImplemented
        return (
            self.a_entries == other.a_entries
            and self.c_entries == other.c_entries
        )


def cache_load(path: str | os.PathLike) -> ConstantCache:
    """Parse a cache file; CacheConflictError if it breaks a rule above."""
    cache = ConstantCache()
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, val = body.partition(":")
                    cache.provenance[key.strip()] = val.strip()
                continue
            parts = line.split("|")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: malformed record {line!r}")
            kind, key, val = parts
            try:
                value = int(val)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer value {val!r}"
                ) from None
            if value < 0:
                raise ValueError(f"{path}:{lineno}: negative count {value}")
            if kind == "A":
                try:
                    mask = parse_d_mask(key)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad A key {key!r}"
                    ) from None
                cache._set_a_mask(mask, value)
            elif kind == "C":
                try:
                    l, k = (int(p) for p in key.split(","))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad C key {key!r}"
                    ) from None
                cache.set_c(l, k, value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown record kind {kind!r}")

    _check_rules(cache)
    return cache


def _check_rules(cache: ConstantCache) -> None:
    """The level rule for every A level held and the bound for every C, so
    that :func:`cache_store` writes only what :func:`cache_load` accepts."""
    levels: dict[int, dict[int, int]] = {}
    for mask, value in cache.a_entries.items():
        levels.setdefault(mask.bit_length(), {})[mask] = value
    for t, level in levels.items():
        check_a_level(t, level)
    for (l, k), value in cache.c_entries.items():
        check_c(l, k, value)


def cache_store(cache: ConstantCache, path: str | os.PathLike) -> None:
    """Write sorted records and ``a-depth`` from :meth:`ConstantCache.a_depth`;
    atomic via rename so readers never see a torn file.  A cache that
    :func:`cache_load` would refuse is a CacheConflictError before any file
    is opened."""
    _check_rules(cache)
    provenance = dict(cache.provenance)
    if depth := cache.a_depth():
        provenance["a-depth"] = str(depth)
    lines = [f"# {k}: {v}" for k, v in sorted(provenance.items())]
    # every level held is complete, so its 2^depth keys are at most twice
    # the entries of the top level
    keys = d_mask_keys(max(cache.a_entries, default=0).bit_length())
    records = sorted(
        [f"A|{keys[mask]}|{value}" for mask, value in cache.a_entries.items()]
        + [f"C|{l},{k}|{value}" for (l, k), value in cache.c_entries.items()]
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines + records:
            fh.write(line + "\n")
    os.replace(tmp, path)


def resolve_cache_path(flag: str | None = None) -> str:
    """--cache flag, then NSDENSITY_CACHE, then ./nsdensity.cache."""
    if flag:
        return flag
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.curdir, DEFAULT_CACHE_NAME)


# ---------------------------------------------------------------------------
# A_D


def a_consts_batch(
    t: int,
    cache: ConstantCache | None = None,
    *,
    budget: int = DEFAULT_DEPTH_BUDGET,
    workers: int = 1,
) -> dict[int, int]:
    """All A_D with Max(D) = t, as {D.mask: A_D}, from one top-slice sweep.

    Stores results into ``cache`` when given, after the checks described
    in the module docstring.
    """
    if t < 1:
        raise ValueError("batch needs t >= 1; A over the empty set is 1")
    if t > budget:
        raise BudgetError(
            f"A_D at Max(D)={t} needs a sweep of 3^{t - 1} sets at "
            f"f={2 * t + 1}; depth budget is {budget}"
        )
    low = 1 << (t - 1)  # level t is the mask range [2^(t-1), 2^t)
    buckets = top_slice_counts(t, workers=workers)
    top = dict(zip(range(low, 2 * low), buckets[low:].tolist()))
    check_a_level(t, top)
    if cache is not None:
        for m, value in top.items():
            cache._set_a_mask(m, value)
    return top


def a_const(
    d: DSet,
    cache: ConstantCache | None = None,
    *,
    budget: int = DEFAULT_DEPTH_BUDGET,
    workers: int = 1,
) -> int:
    """A_D = |B(D, 2 Max(D) + 1)|, from cache when possible."""
    t = d.max_element
    if t == 0:
        return 1
    if cache is not None:
        hit = cache.a(d)
        if hit is not None:
            return hit
    return a_consts_batch(t, cache, budget=budget, workers=workers)[d.mask]


def build_a_constants(
    depth: int,
    cache: ConstantCache | None = None,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> ConstantCache:
    """Fill a cache with every A_D for Max(D) <= depth, in increasing t.

    Each level is its own top-slice sweep and reads no other level; the
    lower-window buckets that tie the levels together are replayed by the
    oracle in :mod:`nsdensity.verify`, not here.
    """
    if cache is None:
        cache = ConstantCache()
    if budget is None:
        budget = max(depth, DEFAULT_DEPTH_BUDGET)
    for t in range(1, depth + 1):
        if any(m not in cache.a_entries for m in range(1 << (t - 1), 1 << t)):
            a_consts_batch(t, cache, budget=budget, workers=workers)
    return cache


# ---------------------------------------------------------------------------
# C_{l,k}


def c_const(
    l: int,
    k: int,
    cache: ConstantCache | None = None,
    *,
    budget: int = DEFAULT_DEPTH_BUDGET,
    workers: int = 1,
) -> int:
    """C_{l,k}: prefix-avoiding window constant.

    1 in closed form for k <= 2l+1.  For k >= 2l+2 it is |B_l(k, 2k+1)|,
    bucket {k} of the top slice at f = 2k+1 with [1, l] kept out of T,
    checked against the bound 2^l 3^(k-2l-1).
    """
    if l < 1 or k < 1:
        raise ValueError("l and k must be positive")
    if k <= 2 * l + 1:
        # k <= l: only {f-k} ∪ N_f qualifies at f = l+k+1; l < k <= 2l+1:
        # the prefix gap empties [1, k-1] too and the same set remains
        return 1
    if cache is not None:
        hit = cache.c(l, k)
        if hit is not None:
            return hit
    if k > budget:
        raise BudgetError(
            f"C[{l},{k}] needs a sweep of 2^{l} 3^{k - 1 - l} sets at "
            f"f={2 * k + 1}; depth budget is {budget}"
        )
    buckets = top_slice_counts(k, prefix_zeros=l, workers=workers)
    value = int(buckets[1 << (k - 1)])
    check_c(l, k, value)
    if cache is not None:
        cache.set_c(l, k, value)
    return value
