"""Exact integer constants A_D and C_{l,k}, computed once and cached.

A_D = |B(D, 2t+1)| with t = Max(D) is the window count at the smallest
Frobenius number where the width-t window factorizes, and C_{l,k} is the
prefix-constrained analogue |B_l(k, 2k+1)| (or |B_l(k, l+k+1)| for k <= l,
where it is 1 by a short argument, as it is for all k <= 2l+1).

Both come from the top slice at f = 2t+1
(:func:`~nsdensity.enumeration.top_slice_levels`).  t+1 is in A(T) iff
t+1 in T, t not in T, and x in T implies x+t+1 in T for x in [1, t-1];
positions t and t+1 are forced and each residual pair (x, x+t+1) admits
3 of 4 states, so exactly 3^(t-1) sets have window maximum t, and their
width-t windows are the D with Max(D) = t.  A_D at level t is bucket
D.mask of that sweep, and every level a query lacks is read off one table
(:func:`a_levels`).  C_{l,k} is bucket {k} of the sweep at t = k over the
sets avoiding [1, l], and only 2^l 3^(k-1-2l) of those can land there:

  * Forced digits.  Let T avoid [1, l], k >= 2l+2, and let T's window at
    level k be {k}: every window bit y-1, y in [1, k-1], is violated.  A
    violation at y is a member x_m of T and an h_j out of T with
    y = k-j+m and m <= j <= k, j = k standing for f (see
    :mod:`nsdensity.enumeration`).  For y <= l, a member m >= 1 has
    m > l >= y, as T avoids [1, l], and would need j = k+m-y > k.  So
    m = 0, and h_{k-y} is out of T for every y in [1, l].  The state
    (x in T, h out) is no top-slice state, so x_{k-y} is out of T too.
    Digits k-l..k-1 thus take one state, digits 1..l two and the other
    k-1-2l three (l < k-l, so the two runs are disjoint), and every set in
    bucket {k} is one of those 2^l 3^(k-1-2l) sets.  :func:`c_consts`
    counts bucket {k} over them alone
    (:func:`~nsdensity.enumeration.top_slice_c`), every C_{l,k} a query
    lacks from one table.
  * The bound.  Hence C_{l,k} <= 2^l 3^(k-1-2l), the upper end of
    :func:`check_c`.  On the restricted route it holds by construction,
    since the route visits no more sets than that, so it checks nothing
    there: ``verify``'s ``c-growth-bound`` replays the restricted route
    against the prefix-only sweep over all 2^l 3^(k-1-l) sets avoiding
    [1, l] as an equality, and :func:`check_c` stays as the refusal on
    entry, of loaded values above all.

The checks that run:

  * the kernel computes each slice set's whole width-t window, every
    pair of the set included (a pair in T at x but not at x+t+1 would
    clear the top bit), and a window below 2^(t-1) (t+1 missing from
    A(T)) is an error, on the A and the C route alike.  The slice holds
    3^(t-1) sets by construction, so this is what makes the level sum
    below a check of the kernel and of the proof above;
  * the level rule, :func:`check_a_level`: all 2^(t-1) constants, each in
    [1, 3^(t-1)], summing to exactly 3^(t-1), at a level t <= 31;
  * :func:`check_c`: 1 <= C_{l,k} <= 2^l 3^(k-2l-1) for l >= 1 and
    2l+2 <= k <= 31.  31 = (WORD_LIMIT-1)/2 is the deepest top slice, and
    the C_{l,k} with k <= 2l+1 are the closed-form 1, never stored;
  * :meth:`ConstantCache.set_level` refuses a second, different value of a
    level it holds, and ``set_c`` of a C.  No route re-sweeps a held level
    or C: :func:`a_levels` and :func:`c_consts`, the only code that puts a
    swept constant into a cache, sweep only what it lacks, and every other
    function that returns a constant reads through them.  The re-sweep of
    a loaded cache is ``verify``'s ``cache-consistency``, which sweeps its
    levels and C afresh by the same two routes and names the first
    constant that differs.

The 4^t full-window sweep is the independent oracle
(:func:`nsdensity.verify.full_window_oracle`), run by ``verify --suite
constants`` and the tests, not by production: its top buckets must equal
the slice route, its buckets sum to 4^t, and for every D with
Max(D) = s < t its bucket equals A_D 4^(t-s) - sum_{k=s+1}^{t}
A_{D∪{k}} 4^(t-k), the finite truncation identity.

:class:`ConstantCache` holds level t of A as one read-only array, A_D at
index D.mask - 2^(t-1) (Max(D) is the bit length of D.mask).  Only its
checking setters fill it, called by :func:`a_levels`, :func:`c_consts` and
the loader alone, so it never holds a partial or rule-breaking level and
:func:`cache_store` writes only what :func:`cache_load` accepts.

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
:meth:`_Reader.line`, which is also the tests' oracle for the numpy route.
Both routes only read records, and :meth:`_Reader.cache` applies the rules,
so a file is refused in one order, with the same message whichever route
read its lines: a malformed line, then a key with two values (the first
record in the file that repeats its key with another value), then the
level rule by order of first appearance, then the C bound.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections.abc import Iterable, Mapping
from types import MappingProxyType

import numpy as np

from .core import DSet, d_mask_keys, parse_d_mask
from .enumeration import WORD_LIMIT, top_slice_c, top_slice_levels

CACHE_ENV = "NSDENSITY_CACHE"
DEFAULT_CACHE_NAME = "nsdensity.cache"


class CacheConflictError(ValueError):
    """Two sources disagree on an exact constant, or one breaks a proven rule."""


def _conflict(key: str, value: int, old: int) -> CacheConflictError:
    return CacheConflictError(f"{key} recomputed as {value}, cached {old}")


# the deepest top slice a 64-bit word holds: f = 2t+1 <= WORD_LIMIT
TOP_SLICE_LIMIT = (WORD_LIMIT - 1) // 2
# the largest level t of a constant swept by default (3^(t-1) sets): the
# CLI's --depth-budget default, and the deepest level verify re-sweeps
DEFAULT_DEPTH_BUDGET = 15


def check_a_level(t: int, values: np.ndarray) -> None:
    """The level rule for level t, whose A_D are the array ``values`` (int64,
    or object for ints beyond it): all 2^(t-1) constants with Max(D) = t,
    each in [1, 3^(t-1)], summing to exactly 3^(t-1).  Level 0 (A_∅ = 1 by
    definition, never stored) and a level above TOP_SLICE_LIMIT are refused
    before any power is taken.

    The sum is exact.  When the count and the range hold and
    2^(t-1) 3^(t-1) = 6^(t-1) < 2^63 (t <= 25), it is taken in the array's
    dtype: every partial sum of the 2^(t-1) terms, each in [1, 3^(t-1)],
    lies in [1, 6^(t-1)], so none overflows int64.  Otherwise it is a sum
    of Python ints, exact past int64."""
    if t == 0:
        raise CacheConflictError(
            "level 0: A_∅ = 1 by definition and is never stored"
        )
    if not 1 <= t <= TOP_SLICE_LIMIT:
        raise CacheConflictError(
            f"level {t}: A levels lie in [1, {TOP_SLICE_LIMIT}], the deepest top slice"
        )
    cap, n = 3 ** (t - 1), len(values)
    lo, hi = int(values.min()), int(values.max())
    shaped = n == 2 ** (t - 1) and 1 <= lo <= hi <= cap
    total = int(values.sum()) if shaped and n * cap < 2**63 else sum(values.tolist())
    if not shaped or total != cap:
        raise CacheConflictError(
            f"level {t}: {n} A constants in [{lo}, {hi}] summing to "
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


class _AEntries(Mapping):
    """Read-only view of the levels as {D.mask: A_D}, with Python int values."""

    def __init__(self, levels: dict[int, np.ndarray]):
        self._levels = levels

    def __getitem__(self, mask: int) -> int:
        t = mask.bit_length()
        if mask > 0 and t in self._levels:
            return int(self._levels[t][mask - (1 << (t - 1))])
        raise KeyError(mask)

    def __iter__(self):
        return (m for t in self._levels for m in range(1 << (t - 1), 1 << t))

    def __len__(self) -> int:
        return sum(len(level) for level in self._levels.values())


class ConstantCache:
    """A_D level by level and C_{l,k}, each checked on entry, with the
    provenance lines of the file they came from."""

    def __init__(self) -> None:
        self._levels: dict[int, np.ndarray] = {}
        self._c: dict[tuple[int, int], int] = {}
        self.provenance: dict[str, str] = {}
        self.levels = MappingProxyType(self._levels)  # t -> A_D by D.mask - 2^(t-1)
        self.a_entries = _AEntries(self._levels)  # D.mask -> A_D
        self.c_entries = MappingProxyType(self._c)

    def a(self, d: DSet) -> int | None:
        if d.max_element == 0:
            return 1
        return self.a_entries.get(d.mask)

    def c(self, l: int, k: int) -> int | None:
        return self._c.get((l, k))

    def set_level(self, t: int, values) -> None:
        """Hold ``values`` as level t, A_D at index D.mask - 2^(t-1), after
        the level rule (:func:`check_a_level`).  A level already held must
        be equal; the first D where they differ is a CacheConflictError."""
        level = np.array(values)
        check_a_level(t, level)
        level.flags.writeable = False
        old = self._levels.setdefault(t, level)
        if old is level:  # a level not held before
            return
        differ = np.flatnonzero(old != level)
        if len(differ):
            i = int(differ[0])
            key = DSet((1 << (t - 1)) + i).key
            raise _conflict(f"A[{key}]", level[i], old[i])

    def set_c(self, l: int, k: int, value: int) -> None:
        check_c(l, k, value)
        if (old := self._c.setdefault((l, k), value)) != value:
            raise _conflict(f"C[{l},{k}]", value, old)

    def a_depth(self) -> int:
        """Largest t with every level 1..t held."""
        t = 0
        while t + 1 in self._levels:
            t += 1
        return t


# cache_load parses canonical A records in numpy blocks of about this many bytes
_BLOCK = 1 << 16
_LF, _COMMA, _BAR, _ZERO = (ord(c) for c in "\n,|0")
# a canonical line's first two bytes, as the little-endian uint16 they form
_HEAD = int.from_bytes(b"A|", "little")


def _pair_bits() -> np.ndarray:
    """Bit e-1 of a D.mask for the element e a field's last two bytes x, y
    spell, at index x + 256 y (the little-endian uint16 they form): e in
    1-9 after ',' or '|', 10-63 as two digits, and 0 for anything else."""
    table = np.zeros(1 << 16, np.int64)
    for e in range(1, 64):
        for pair in (b",%d" % e, b"|%d" % e) if e < 10 else (b"%d" % e,):
            table[int.from_bytes(pair, "little")] = 1 << (e - 1)
    return table


_PAIR_BIT = _pair_bits()


def cache_load(path: str | os.PathLike) -> ConstantCache:
    """Parse a cache file; CacheConflictError if it breaks a rule above.

    The file is decoded once, so a non-UTF-8 file is refused before any
    record is read.  A file holding a CR, which ends a line too, is read
    line by line; any other file in blocks of about _BLOCK bytes, its last
    line as if it ended in LF.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    reader = _Reader(path)
    if "\r" in text:
        reader.lines(io.StringIO(text, newline=""))
        return reader.cache()
    del text  # decoded only to refuse a non-UTF-8 file
    # an LF before the first line, so that every block can start with the
    # LF that ends the line before it
    data = b"".join((b"\n", data, b"" if data.endswith(b"\n") else b"\n"))
    whole = np.frombuffer(data, np.uint8)
    start, lineno = 1, 1
    while start < len(data):
        stop = len(data)
        if start + _BLOCK < stop:
            stop = data.index(b"\n", start + _BLOCK - 1) + 1
        start, lineno = stop, lineno + reader.block(whole[start - 1 : stop], lineno)
    return reader.cache()


class _Reader:
    """The records of one cache file, read in file order: :meth:`line` and
    :meth:`block` read them and apply no rule, :meth:`cache` applies all."""

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.out = ConstantCache()  # provenance at once, constants in cache()
        self.masks: list[np.ndarray] = []  # A records, D.masks and values
        self.values: list[np.ndarray] = []
        self.c_records: list[tuple[int, int, int]] = []  # (l, k, C)

    def line(self, lineno: int, raw: str) -> tuple[int, int] | None:
        """Read one line, with its ending: the per-line route, for any line
        at all.  An A record is returned as (D.mask, A_D), not kept."""
        path = self.path
        line = raw.rstrip("\n")
        if not line:
            return None
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                self.out.provenance[key.strip()] = val.strip()
            return None
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
                return parse_d_mask(key), value
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad A key {key!r}"
                ) from None
        if kind == "C":
            try:
                l, k = (int(p) for p in key.split(","))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad C key {key!r}"
                ) from None
            self.c_records.append((l, k, value))
            return None
        raise ValueError(f"{path}:{lineno}: unknown record kind {kind!r}")

    def lines(self, lines: Iterable[str]) -> None:
        """Keep the records of ``lines``, read each by :meth:`line`."""
        a = [r for lineno, raw in enumerate(lines, 1) if (r := self.line(lineno, raw))]
        self.masks.append(np.array([mask for mask, _ in a], np.int64))
        self.values.append(np.array([value for _, value in a], object))

    def block(self, buf: np.ndarray, lineno: int) -> int:
        """Keep the records of the lines of ``buf`` (uint8), an LF and then
        LF-terminated lines, the first of them line ``lineno``: the
        canonical A records read by numpy, each other line by :meth:`line`.
        Returns the number of lines."""
        breaks, is_a, masks, values = _canonical_a_records(buf)
        for i in np.flatnonzero(~is_a).tolist():
            raw = buf[breaks[i] + 1 : breaks[i + 1] + 1].tobytes().decode()
            record = self.line(lineno + i, raw)
            if record is not None:
                if record[1] >> 63:  # beyond int64: exact Python ints
                    values = values.astype(object)
                masks[i], values[i] = record
                is_a[i] = True
        self.masks.append(masks[is_a])
        self.values.append(values[is_a])
        return len(is_a)

    def cache(self) -> ConstantCache:
        """The records kept, in file order, as a ConstantCache: a key read
        with two values is refused and equal duplicates are dropped, then
        each A level, in order of first appearance, goes to
        :meth:`ConstantCache.set_level`, and each C to ``set_c``."""
        masks, values = np.concatenate(self.masks), np.concatenate(self.values)
        order = np.argsort(masks, kind="stable")  # by key, then in file order
        keys = np.take(masks, order)
        new = np.ones(len(keys), bool)  # each key's first record
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = order[new]  # by key: the index of its first record
        if len(first) < len(masks):
            # per record in key order, the value its key was first read with
            held = np.take(values, first)[np.cumsum(new) - 1]
            clash = np.flatnonzero(np.take(values, order) != held)
            if len(clash):
                j = clash[np.argmin(order[clash])]  # the first in file order
                i = order[j]
                raise _conflict(f"A[{DSet(int(masks[i])).key}]", values[i], held[j])
        c: dict[tuple[int, int], int] = {}
        for l, k, value in self.c_records:
            if (old := c.setdefault((l, k), value)) != value:
                raise _conflict(f"C[{l},{k}]", value, old)
        # level t is the run of the sorted keys in [2^(t-1), 2^t), t in [0, 63]
        below = np.searchsorted(keys[new], [1 << t for t in range(63)]).tolist()
        bounds = [0, *below, len(first)]
        runs = [(first[lo:hi].min(), t, lo, hi)
                for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi]
        for _, t, lo, hi in sorted(runs):
            self.out.set_level(t, values[first[lo:hi]])
        for (l, k), value in c.items():
            self.out.set_c(l, k, value)
        return self.out


def _canonical_a_records(
    buf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Find and parse the canonical A records among the lines of ``buf``
    (uint8): an LF, the end of the line before, then LF-terminated lines.

    The lines split into fields, each closed by ',', '|' or LF.  A line is
    canonical when its fields are 'A' closed by '|'; then one or more
    elements of 1-2 digits without a leading zero, in [1, 63] and strictly
    ascending, closed by ',' except the last, closed by '|'; then a value of
    1-18 digits, which an int64 holds, closed by LF.  Returns the index of
    every LF, the first one included, and per line whether it is canonical
    and its D.mask and value, which mean nothing where it is not.
    """
    term = np.flatnonzero((buf == _LF) | (buf == _COMMA) | (buf == _BAR))
    sep = np.take(buf, term)
    lf = np.flatnonzero(sep == _LF)
    last, head = lf[1:], lf[:-1] + 1  # each line's value and first field
    breaks = np.take(term, lf)
    # the bit of the element each field's last two bytes spell, read as one
    # uint16 at a byte offset; bytes before the block wrap to its end, which
    # is an LF, so they spell none
    pairs = np.ndarray((len(buf) - 1,), np.uint16, buf, 0, (1,))
    bits = np.take(_PAIR_BIT, np.take(pairs, term - 2, mode="wrap"))
    gap = np.diff(term)  # the length of each field after the first, plus one
    # an element is bad unless it spells one of 1-63 in 1-2 bytes, above the
    # field before it (the head 'A' spells none), and is closed by ',' unless
    # the value follows it; heads and values are no element
    bad = np.zeros(len(term), bool)
    np.logical_or(bits[1:] <= bits[:-1], gap > 3, out=bad[1:])
    bad[:-1] |= (sep[:-1] == _BAR) & (sep[1:] != _LF)
    bad[lf] = bad[head] = False
    # an element, 'A' closed by '|' (an empty last line starts past the last
    # pair, so "clip") and the last element closed by '|'
    canonical = (
        (last - head >= 2)
        & (np.take(pairs, breaks[:-1] + 1, mode="clip") == _HEAD)
        & (np.take(sep, last - 1) == _BAR)
    )
    canonical[np.searchsorted(last, np.flatnonzero(bad))] = False
    bits[lf] = 0
    masks = np.bitwise_or.reduceat(bits, head)
    # each value's length, 0 on a line already refused, which so adds no
    # column to the digit parse
    lengths = np.where(canonical, np.take(gap, last - 1) - 1, 0)
    values, numeric = _digit_values(buf, breaks[1:], lengths)
    return breaks, canonical & numeric, masks, values


def _digit_values(
    buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fields of ``buf`` of ``lengths`` bytes that end before ``ends``,
    read as int64 by Horner's rule, one byte column at a time: their values,
    and whether each is 1-18 digits.  The longest field of 1-18 bytes sets
    the number of columns."""
    numeric = (lengths >= 1) & (lengths <= 18)
    values = np.zeros(len(ends), np.int64)
    for c in range(int(lengths.max(initial=0, where=numeric)), 0, -1):
        # the c-th byte before each end; those before a field's start, which
        # may wrap to the block's end, count as 0
        digit = np.take(buf, ends - c, mode="wrap") - np.uint8(_ZERO)
        digit[lengths < c] = 0
        numeric &= digit <= 9
        values = values * 10 + digit
    return values, numeric


def cache_store(cache: ConstantCache, path: str | os.PathLike) -> None:
    """Write sorted records and ``a-depth`` from :meth:`ConstantCache.a_depth`;
    atomic via rename so readers never see a torn file.  A cache holds only
    what passed the rules on entry, so :func:`cache_load` accepts the file."""
    provenance = dict(cache.provenance)
    if depth := cache.a_depth():
        provenance["a-depth"] = str(depth)
    lines = [f"# {k}: {v}" for k, v in sorted(provenance.items())]
    keys = d_mask_keys(max(cache.levels, default=0))
    # level t holds the keys of the masks [2^(t-1), 2^t), in mask order
    records = [
        f"A|{key}|{value}" for t, level in cache.levels.items()
        for key, value in zip(keys[1 << (t - 1) : 1 << t], level.tolist())
    ]
    records += [f"C|{l},{k}|{value}" for (l, k), value in cache.c_entries.items()]
    records.sort()
    text = "\n".join([*lines, *records, ""])
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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


def a_levels(first: int, depth: int, cache: ConstantCache) -> None:
    """Every level of A in [first, depth] that ``cache`` lacks, from one
    top-slice table (a level range of :func:`top_slice_levels`), each held
    by :meth:`ConstantCache.set_level` as it is swept: the one route by
    which a swept level enters a cache."""
    missing = [t for t in range(max(first, 1), depth + 1) if t not in cache.levels]
    if missing:
        for t, buckets in top_slice_levels(missing):
            # level t is the mask range [2^(t-1), 2^t)
            cache.set_level(t, buckets[1 << (t - 1):])


def a_consts_batch(t: int, cache: ConstantCache | None = None) -> Mapping[int, int]:
    """All A_D with Max(D) = t, as a read-only {D.mask: A_D} view of level
    t of ``cache`` (a fresh one when none is given), which :func:`a_levels`
    sweeps when the cache lacks it."""
    if t < 1:
        raise ValueError("batch needs t >= 1; A over the empty set is 1")
    if cache is None:
        cache = ConstantCache()
    a_levels(t, t, cache)
    return _AEntries({t: cache.levels[t]})


def a_const(d: DSet, cache: ConstantCache | None = None) -> int:
    """A_D = |B(D, 2 Max(D) + 1)|, read from :func:`a_consts_batch`."""
    if d.max_element == 0:
        return 1
    return a_consts_batch(d.max_element, cache)[d.mask]


# ---------------------------------------------------------------------------
# C_{l,k}


def c_consts(l: int, depth: int, cache: ConstantCache | None = None) -> tuple[int, ...]:
    """C_{l,k} for k = 1..depth: 1 in closed form for k <= 2l+1, each
    other one from ``cache`` (a fresh one when none is given), which takes
    all that it lacks from one table of :func:`top_slice_c` through
    :meth:`ConstantCache.set_c`: the one route by which a swept C enters a
    cache."""
    if l < 1 or depth < 1:
        raise ValueError("l and depth must be positive")
    if cache is None:
        cache = ConstantCache()
    # k <= l: only {f-k} ∪ N_f qualifies at f = l+k+1; l < k <= 2l+1: the
    # prefix gap empties [1, k-1] too and the same set remains
    swept = range(2 * l + 2, depth + 1)
    missing = [k for k in swept if cache.c(l, k) is None]
    if missing:
        for k, value in top_slice_c(l, missing).items():
            cache.set_c(l, k, value)
    return (1,) * min(depth, 2 * l + 1) + tuple(cache.c(l, k) for k in swept)


def c_const(l: int, k: int, cache: ConstantCache | None = None) -> int:
    """C_{l,k}: prefix-avoiding window constant, entry k of :func:`c_consts`.

    1 in closed form for k <= 2l+1.  For k >= 2l+2 it is |B_l(k, 2k+1)|,
    bucket {k} of the top slice at f = 2k+1 with [1, l] kept out of T,
    read off the 2^l 3^(k-1-2l) sets that can land there (module
    docstring) and checked against the bound 2^l 3^(k-2l-1).
    """
    if l < 1 or k < 1:
        raise ValueError("l and k must be positive")
    return c_consts(l, k, cache)[k - 1]
