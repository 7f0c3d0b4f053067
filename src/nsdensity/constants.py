"""Exact integer constants A_D and C_{l,k}, computed once and cached.

A_D = |B(D, 2t+1)| with t = Max(D) is the window count at the smallest
Frobenius number where the width-t window factorizes, and C_{l,k} is the
prefix-constrained analogue |B_l(k, 2k+1)| (or |B_l(k, l+k+1)| for k <= l,
where it is 1 by a short argument, as it is for all k <= 2l+1).

One sweep at f = 2t+1 buckets all 4^t sets by their width-t window, so the
batch route yields A_D for every D with Max(D) = t at once.  Each batch is
cross-checked three ways before anything is cached:

  * the buckets sum to 4^t (every set has exactly one window);
  * the buckets with window maximum t sum to 3^(t-1).  Proof: t+1 is in
    A(T) iff t+1 in T, t not in T, and x in T implies x+t+1 in T for
    x in [1, t-1]; positions t and t+1 are forced and each residual pair
    (x, x+t+1) admits 3 of 4 states, giving exactly 3^(t-1) such sets;
  * for every D with Max(D) = s < t, the bucket equals
    A_D 4^(t-s) - sum_{k=s+1}^{t} A_{D∪{k}} 4^(t-k), the finite truncation
    identity evaluated with previously computed constants.

A_D is keyed by ``D.mask``, so Max(D) is the bit length of its key.  The
second check is the level rule (:func:`check_a_level`: all 2^(t-1)
constants, each in [1, 3^(t-1)], summing to 3^(t-1)); :func:`check_c`
bounds C_{l,k}.  The sweeps and :func:`cache_load` share both rules.

The cache file is line-delimited ``A|<D-key>|<int>`` / ``C|<l>,<k>|<int>``
records, UTF-8 with LF endings, sorted for reproducible diffs; ``#`` lines
carry provenance (``# key: value``).  It is untrusted input: two values
for one key, or a level or a C that breaks its rule, are always a hard
error, never a silent merge.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .core import DSet
from .enumeration import BudgetError, window_counts

DEFAULT_DEPTH_BUDGET = 15
CACHE_ENV = "NSDENSITY_CACHE"
DEFAULT_CACHE_NAME = "nsdensity.cache"


class CacheConflictError(ValueError):
    """Two sources disagree on an exact constant, or one breaks a proven rule."""


def _mask_key(mask: int) -> str:
    """The cache-file key of D = {l : bit l-1 of mask}: ascending, comma-joined."""
    return ",".join(
        [str(l) for l in range(1, mask.bit_length() + 1) if mask >> (l - 1) & 1]
    )


def check_a_level(t: int, level: Mapping[int, int]) -> None:
    """The level rule for {D.mask: A_D}, every key of bit length t: all
    2^(t-1) constants, each in [1, 3^(t-1)], summing to exactly 3^(t-1)."""
    cap, values = 3 ** (t - 1), level.values()
    lo, hi, total = min(values), max(values), sum(values)
    if len(level) != 2 ** (t - 1) or not 1 <= lo <= hi <= cap or total != cap:
        raise CacheConflictError(
            f"level {t}: {len(level)} A constants in [{lo}, {hi}] summing to "
            f"{total}; the rule is 2^{t - 1} in [1, 3^{t - 1}] summing to 3^{t - 1}"
        )


def check_c(l: int, k: int, value: int) -> None:
    """1 <= C_{l,k} <= 2^l 3^(k-2l-1), and C_{l,k} = 1 for k <= 2l+1."""
    limit = 2**l * 3 ** (k - 2 * l - 1) if k > 2 * l + 1 else 1
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
                f"A[{_mask_key(mask)}] recomputed as {value}, cached {old}"
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
                cache._set_a_mask(DSet.parse(key).mask, value)
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

    levels: dict[int, dict[int, int]] = {}
    for mask, value in cache.a_entries.items():
        levels.setdefault(mask.bit_length(), {})[mask] = value
    for t, level in levels.items():
        check_a_level(t, level)
    for (l, k), value in cache.c_entries.items():
        check_c(l, k, value)
    return cache


def cache_store(cache: ConstantCache, path: str | os.PathLike) -> None:
    """Write sorted records and ``a-depth`` from :meth:`ConstantCache.a_depth`;
    atomic via rename so readers never see a torn file."""
    provenance = dict(cache.provenance)
    if depth := cache.a_depth():
        provenance["a-depth"] = str(depth)
    lines = [f"# {k}: {v}" for k, v in sorted(provenance.items())]
    records = sorted(
        [f"A|{_mask_key(mask)}|{value}" for mask, value in cache.a_entries.items()]
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
    """All A_D with Max(D) = t, as {D.mask: A_D}, from one sweep at f = 2t+1.

    Stores results into ``cache`` when given, after the consistency checks
    described in the module docstring.  Buckets for smaller window maxima
    are validated against cached constants whenever those are present.
    """
    if t < 1:
        raise ValueError("batch needs t >= 1; A over the empty set is 1")
    if t > budget:
        raise BudgetError(
            f"A_D at Max(D)={t} needs a 4^{t}-set sweep at f={2 * t + 1}; "
            f"depth budget is {budget}"
        )
    f = 2 * t + 1
    buckets = window_counts(f, t, budget=f, workers=workers)

    if int(buckets.sum()) != 4**t:
        raise AssertionError(f"window buckets at t={t} sum to {buckets.sum()}")
    low = 1 << (t - 1)  # level t is the mask range [2^(t-1), 2^t)
    top = dict(zip(range(low, 2 * low), buckets[low:].tolist()))
    check_a_level(t, top)

    if cache is not None:
        for m in range(low):  # window maxima below t
            value = _truncation_bucket(m, t, cache, top)
            if value is not None and value != int(buckets[m]):
                raise CacheConflictError(
                    f"bucket[{_mask_key(m) or '∅'}] at t={t} is "
                    f"{int(buckets[m])}, cached constants predict {value}"
                )
        for m, value in top.items():
            cache._set_a_mask(m, value)
    return top


def _truncation_bucket(
    m: int, t: int, cache: ConstantCache, top: Mapping[int, int]
) -> int | None:
    """A_D 4^(t-s) - sum_{k=s+1}^t A_{D∪{k}} 4^(t-k), None if inputs missing.

    D is given by its mask ``m`` and s = Max(D) is the mask's bit length.
    """
    s = m.bit_length()
    a_d = cache.a_entries.get(m) if m else 1
    if a_d is None:
        return None
    value = a_d * 4 ** (t - s)
    for k in range(s + 1, t + 1):
        e = m | 1 << (k - 1)
        a_e = top.get(e) if k == t else cache.a_entries.get(e)
        if a_e is None:
            return None
        value -= a_e * 4 ** (t - k)
    return value


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

    Increasing order lets each batch validate all its lower-window buckets
    against the constants already computed.
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

    1 in closed form for k <= 2l+1.  For k >= 2l+2 it is |B_l(k, 2k+1)| by
    enumeration, checked against the bound 2^l 3^(k-2l-1).
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
            f"C[{l},{k}] needs a sweep at f={2 * k + 1}; depth budget is {budget}"
        )
    f = 2 * k + 1
    buckets = window_counts(f, k, prefix_zeros=l, budget=f, workers=workers)
    value = int(buckets[1 << (k - 1)])
    check_c(l, k, value)
    if cache is not None:
        cache.set_c(l, k, value)
    return value
