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
  * the level rule, :func:`check_a_levels`: all 2^(t-1) constants, each in
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
sweeps, :func:`cache_load` and :func:`cache_store` share the level rule,
which reads parallel arrays of masks and values, and the C bound.

The cache file is line-delimited ``A|<D-key>|<int>`` / ``C|<l>,<k>|<int>``
records, UTF-8 with LF endings, sorted for reproducible diffs; ``#`` lines
carry provenance (``# key: value``).  The D-key format is defined in
:mod:`nsdensity.core`, which parses it (:func:`~nsdensity.core.parse_d_mask`)
and renders it (:attr:`DSet.key`, :func:`~nsdensity.core.d_mask_keys`).  The
file is untrusted input: two values for one key, or a level, a C key or a C
value that breaks its rule, are always a hard error, never a silent merge.

:func:`cache_load` reads a record by one of two routes.  The A records as
:func:`cache_store` writes them (ascending elements of 1-2 digits, a value
of at most 18 digits) are found and parsed by numpy, a block of about 64 KB
at a time.  Every other line (provenance, C records, blank lines, any other
spelling ``int`` accepts, longer values, anything malformed, and every line
of a file holding a CR) goes through the per-line parser
:func:`_parse_record`, which is also the tests' oracle for the numpy route.
Both routes store in file order through the same duplicate check, and the
same level rule and C bound check the result, so a file is refused the same
way, with the same message, whichever route read its lines.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DSet, d_mask_keys, parse_d_mask
from .enumeration import WORD_LIMIT, BudgetError, top_slice_counts

DEFAULT_DEPTH_BUDGET = 15
CACHE_ENV = "NSDENSITY_CACHE"
DEFAULT_CACHE_NAME = "nsdensity.cache"


class CacheConflictError(ValueError):
    """Two sources disagree on an exact constant, or one breaks a proven rule."""


# the deepest top slice a 64-bit word holds: f = 2t+1 <= WORD_LIMIT
TOP_SLICE_LIMIT = (WORD_LIMIT - 1) // 2
# 2^0 .. 2^63: the number of them at or below a mask is its bit length
_POWERS_OF_TWO = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def check_a_levels(masks: np.ndarray, values: np.ndarray) -> None:
    """The level rule over parallel arrays of distinct D.mask (uint64) and
    A_D (int64, or object for ints beyond it): for every level t held, all
    2^(t-1) constants with Max(D) = t, each in [1, 3^(t-1)], summing to
    exactly 3^(t-1).  A mask 0 is refused first: A_∅ = 1 by definition and
    has no level.  Levels are then checked in order of first appearance, and
    one above TOP_SLICE_LIMIT is refused before any power is taken.  Each
    level's count, minimum and maximum are array reductions; its sum is a
    Python int, exact where an int64 sum would wrap."""
    # bit lengths, at most 64, so a stable sort of them is a radix sort
    levels = np.searchsorted(_POWERS_OF_TWO, masks, side="right").astype(np.uint8)
    order = np.argsort(levels, kind="stable")
    levels = levels[order]
    new_level = np.ones(len(levels), bool)
    new_level[1:] = levels[1:] != levels[:-1]
    starts = np.flatnonzero(new_level)
    if len(levels) and levels[0] == 0:
        raise CacheConflictError(
            "level 0: A_∅ = 1 by definition and is never stored"
        )
    bounds = np.append(starts, len(levels)).tolist()
    # order[start] is where a level first appears
    for i in np.argsort(order[starts]).tolist():
        t = int(levels[bounds[i]])
        if t > TOP_SLICE_LIMIT:
            raise _too_deep(t)
        level = values[order[bounds[i] : bounds[i + 1]]]
        cap, n = 3 ** (t - 1), len(level)
        lo, hi, total = int(level.min()), int(level.max()), sum(level.tolist())
        if n != 2 ** (t - 1) or not 1 <= lo <= hi <= cap or total != cap:
            raise CacheConflictError(
                f"level {t}: {n} A constants in [{lo}, {hi}] summing to "
                f"{total}; the rule is 2^{t - 1} in [1, 3^{t - 1}] summing to 3^{t - 1}"
            )


def _too_deep(t: int) -> CacheConflictError:
    return CacheConflictError(
        f"level {t}: A levels lie in [1, {TOP_SLICE_LIMIT}], the deepest top slice"
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

    def _set_a_masks(self, masks: Sequence[int], values: Sequence[int]) -> None:
        """:meth:`_set_a_mask` for each pair in order, as one dict update when
        no mask repeats and none is held yet."""
        new = dict(zip(masks, values))
        if len(new) == len(masks) and self.a_entries.keys().isdisjoint(new):
            self.a_entries.update(new)
        else:
            for mask, value in zip(masks, values):
                self._set_a_mask(mask, value)

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


# cache_load parses canonical A records in numpy blocks of about this many bytes
_BLOCK = 1 << 16
_LF, _COMMA, _BAR, _ZERO, _A = (ord(c) for c in "\n,|0A")
# 10^p, the weight of a digit with p more digits after it in its field
_PLACE = np.array([10**p for p in range(18)], dtype=np.int64)


def _pair_elements() -> np.ndarray:
    """The element a field's last two bytes x, y spell, at index 256 x + y:
    1-9 after ',' or '|', 10-63 as two digits, and 0 for anything else."""
    table = np.zeros(1 << 16, np.uint8)
    for e in range(1, 64):
        for pair in (b",%d" % e, b"|%d" % e) if e < 10 else (b"%d" % e,):
            table[int.from_bytes(pair, "big")] = e
    return table


_PAIR_ELEMENT = _pair_elements()
# bit e-1 of a D.mask for element e, at index e in [1, 63]
_ELEMENT_BITS = np.array([0] + [1 << e for e in range(63)], dtype=np.int64)


def cache_load(path: str | os.PathLike) -> ConstantCache:
    """Parse a cache file; CacheConflictError if it breaks a rule above.

    The file is decoded once, so a non-UTF-8 file is refused before any
    record is read.  Its LF-terminated lines are then read in blocks of
    about _BLOCK bytes, in which numpy parses the canonical A records
    (:func:`_canonical_a_records`); every other line, and every line of a
    file holding a CR, which ends a line too, goes through
    :func:`_parse_record`.  Both routes store in file order through the
    same duplicate check, and :func:`_check_rules` then checks the whole.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    cache = ConstantCache()
    if "\r" in text:
        for lineno, raw in enumerate(io.StringIO(text, newline=""), 1):
            _parse_record(cache, path, lineno, raw)
    else:
        del text  # decoded only to refuse a non-UTF-8 file
        whole, start, lineno = data.rfind(b"\n") + 1, 0, 1
        while start < whole:
            stop = whole
            if start + _BLOCK < whole:
                stop = data.index(b"\n", start + _BLOCK - 1) + 1
            lineno = _load_block(cache, path, data, start, stop, lineno)
            start = stop
        if whole < len(data):  # a last line without LF
            _parse_record(cache, path, lineno, data[whole:].decode("utf-8"))
    _check_rules(cache)
    return cache


def _parse_record(
    cache: ConstantCache, path: str | os.PathLike, lineno: int, raw: str
) -> None:
    """Store one line of a cache file, read with its ending, into ``cache``:
    the per-line route of :func:`cache_load`, for any line at all."""
    line = raw.rstrip("\n")
    if not line:
        return
    if line.startswith("#"):
        body = line[1:].strip()
        if ":" in body:
            key, _, val = body.partition(":")
            cache.provenance[key.strip()] = val.strip()
        return
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


def _load_block(
    cache: ConstantCache,
    path: str | os.PathLike,
    data: bytes,
    start: int,
    stop: int,
    lineno: int,
) -> int:
    """Store the LF-terminated lines data[start:stop], the first of them
    line ``lineno``, in file order: each run of canonical A records in one
    :meth:`ConstantCache._set_a_masks`, each other line through
    :func:`_parse_record`.  Returns the number of the next line."""
    ends, canonical, masks, values = _canonical_a_records(
        np.frombuffer(data, np.uint8, stop - start, start)
    )
    ends, masks, values = ends.tolist(), masks.tolist(), values.tolist()
    run = 0  # the first line of the current run of canonical records
    for i in np.flatnonzero(~canonical).tolist() + [len(ends)]:
        cache._set_a_masks(masks[run:i], values[run:i])
        if i < len(ends):
            begin = start + ends[i - 1] + 1 if i else start
            line = data[begin : start + ends[i] + 1].decode("utf-8")
            _parse_record(cache, path, lineno + i, line)
        run = i + 1
    return lineno + len(ends)


def _canonical_a_records(
    buf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Find and parse the canonical A records among the LF-terminated lines
    of ``buf`` (uint8).

    The block splits into fields, each closed by ',', '|' or LF.  A line is
    canonical when its fields are 'A' closed by '|'; then one or more
    elements of 1-2 digits without a leading zero, in [1, 63] and strictly
    ascending, closed by ',' except the last, closed by '|'; then a value of
    1-18 digits, which an int64 holds, closed by LF.  Returns, per line, the
    index of its LF, whether it is canonical, and its D.mask and value,
    which mean nothing where it is not.
    """
    term = np.flatnonzero((buf == _LF) | (buf == _COMMA) | (buf == _BAR))
    sep = buf[term]
    length = term.copy()
    length[1:] -= term[:-1] + 1
    last = np.flatnonzero(sep == _LF)  # each line's last field, its value
    head = np.zeros_like(last)  # each line's first field
    head[1:] = last[:-1] + 1
    element = np.ones(len(term), bool)  # the fields in between
    element[head] = element[last] = False
    number = _PAIR_ELEMENT[buf[term - 2].astype(np.uint16) << 8 | buf[term - 1]]
    bad = element & ((number == 0) | (length > 2))
    # an element followed by another is closed by ',' and is the smaller
    bad[:-1] |= (element[:-1] & element[1:]) & (
        (sep[:-1] == _BAR) | (number[1:] <= number[:-1])
    )
    value, numeric = _digit_values(buf, term[last], length[last])
    canonical = (
        (last - head >= 2)
        & (length[head] == 1)
        & (buf[term[head] - 1] == _A)
        & (sep[head] == _BAR)
        & (sep[last - 1] == _BAR)
        & numeric
    )
    canonical[np.searchsorted(head, np.flatnonzero(bad), side="right") - 1] = False
    masks = np.bitwise_or.reduceat(_ELEMENT_BITS[number * element], head)
    return term[last], canonical, masks, value


def _digit_values(
    buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fields of ``buf`` of ``lengths`` bytes that end before ``ends``,
    read as int64: their values, and whether each is 1-18 digits."""
    width = int(np.clip(lengths.max(), 1, 18))
    cols = np.arange(-width, 0)  # the last ``width`` bytes before each end
    # bytes before a field's start may wrap to the block's end; they are
    # masked out
    window = buf[ends[:, None] + cols] - _ZERO
    digits = np.where(cols >= -lengths[:, None], window, 0)
    numeric = (lengths >= 1) & (lengths <= 18) & (digits.max(axis=1) <= 9)
    return digits @ _PLACE[width - 1 :: -1], numeric


def _check_rules(cache: ConstantCache) -> None:
    """The level rule for every A level held and the bound for every C, so
    that :func:`cache_store` writes only what :func:`cache_load` accepts."""
    n = len(cache.a_entries)
    try:
        masks = np.fromiter(cache.a_entries, np.uint64, n)
    except OverflowError:  # a mask past 64 bits, so past the deepest level
        raise _too_deep(max(cache.a_entries).bit_length()) from None
    try:
        values = np.fromiter(cache.a_entries.values(), np.int64, n)
    except OverflowError:
        values = np.array(list(cache.a_entries.values()), dtype=object)
    check_a_levels(masks, values)
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
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines + records:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
    level = top_slice_counts(t, workers=workers)[low:]
    check_a_levels(np.arange(low, 2 * low, dtype=np.uint64), level)
    masks, values = range(low, 2 * low), level.tolist()
    if cache is not None:
        cache._set_a_masks(masks, values)
    return dict(zip(masks, values))


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
