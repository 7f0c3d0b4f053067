"""Exhaustive sweeps over all numerical sets with a fixed Frobenius number.

There are 2^(f-1) numerical sets with Frobenius number f, one per subset of
[1, f-1].  One flat sweep, :func:`density_table`, counts all of them
(optionally restricted to sets avoiding a prefix [1, l]), visiting half
of them at even f with l = 0 (see below), and tallies the preimage count
P(S) of every semigroup S = A(T) it meets; the
:class:`DensityTable` it returns is that tally.  Each finite-f counter asks
about A(T) alone, so each is a method of the table that reduces it: it
reads its window, multiplicity or key off the few distinct A-masks and sums
their counts with exact integer arithmetic, so results are independent of
chunking, and no counter sweeps again.  Two more reductions serve the
report: the table checks on construction, one array pass per element, that
every A-mask it holds is closed under addition, and ``DensityTable.ranked``
gives the masks in report order with their D masks, multiplicities and
counts.  The per-semigroup objects of ``DensityTable.entries`` remain as
the slow route they are checked against.

s in [1, f-1] lies in A(T) iff no pair (x, x+s) with x <= f-s has x in T
and x+s not in T; 0 is in T and f is not.  The violation mask V(T), bit s-1
set when some pair violates at s, is therefore an OR over pairs, and
A(T) = ~V(T) & low_bits(f-1).  An OR over pairs splits by where each
pair's two ends lie, which is how the flat sweep builds its A-masks.  Its
chunker, :func:`_flat_groups`, gives each chunk everything but the low
block L = [l+1, l+b] fixed (l = prefix_zeros, 2^b sets per chunk): the
rest H = {0} ∪ [1, l] ∪ (l+b, f] is constant within it.  With L split
into L1 = [l+1, l+b1] and L2 = (l+b1, l+b],

    V = V_LL(T ∩ L) | V_L1H(T ∩ L1; H) | V_L2H(T ∩ L2; H) | V_HH(H)

exactly, since every pair has both ends in L, one end in L1 or L2 and the
other in H, or both in H.  V_LL is one table of 2^b masks per sweep; it
also takes the pairs (0, y) with y in L, as 0 is in every T.  V_L1H and
V_L2H are per-chunk vectors of 2^b1 and 2^(b-b1) entries, and V_HH is a
per-chunk scalar.  A chunk's 2^b A-masks then cost two full-width ANDs of
the complements: the outer AND of the two vectors, then the table.  The
tables are built by doubling, one position at a time (see
``_low_block_table`` and ``_amask_group``).

The chunks are swept in groups of GROUP chunks (all of them when there
are fewer): a group's fixed parts H are consecutive, and every step above
runs on the whole group with one row per chunk, so V_HH is a vector over
the chunks, each doubling step of the L1 and L2 vectors is one 2-D AND,
and the outer AND and the table AND fill one group buffer, reused from
group to group, in the word of the tally (uint32 for f <= 33, else
uint64).  Each group is tallied on its own, sorted in place, and the
group tallies merge into the table's (see :func:`density_table`), so the
sweep's working buffer holds GROUP chunks, at most GROUP * BLOCK = 2^21
sets at the default chunk, whatever f is: 8 MB of 32-bit words, 16 MB of
64-bit ones.  At GROUP = 32 the halved sweep at f = 24 (2^22 sets, half
of each chunk's table built, see below) runs 4 groups of 2^20 sets in a
4 MB buffer.

At even f with l = 0 the flat sweep visits half the sets, by duality.  The
dual of T is T* = {x : f - x not in T}, and A(T*) = A(T).  T* is a
numerical set with Frobenius number f: 0 is in T* as f is not in T, f is
not as 0 is in T, and every x > f is, as f - x < 0.  If s + T ⊆ T, then
s + T* ⊆ T*: for x in T*, were f - x - s in T, then f - x would be in T.
So A(T) ⊆ A(T*), and as T** = T the two are equal.  At even f, f/2 is in
T* exactly when it is not in T, so T -> T* pairs each set with f/2 out of
T with one that holds it, and the sets with f/2 out of T, doubled, give
the whole tally.  The map does not keep [1, l] out of T, so a prefix sweep
visits every set.  In the chunk layout f/2 is kept out of T either inside
L, where it becomes pattern bit 0 of L2 (the split is b1 = f/2 - 1 - l,
and only the rows of the L2 vector and of the table with that bit clear
are built), or above L, where the chunks whose fixed bits hold it are
skipped: for f >= 34 at the default block, or at a small chunk.

The top slice at f = 2t+1 (see :func:`top_slice_levels`) takes the same
step over digit pairs.  Digit j in [1, t-1] is the pair (x_j, h_j) =
(j, j+t+1); x_0 = 0 and h_0 = t+1 are in T, x_t = t and h_t = f are not.
Window bit y-1 (f-y not in A(T)) is violated exactly when some pair (k, j)
with 0 <= k <= j <= t has x_k in T and h_j not in T, at y = t-j+k.  So the
window's violation mask is an OR over digit pairs.

Two anchors.  A member x_k meets f (j = t) at window bit k-1, counted from
the bottom, and an out-of-T h_j with k <= j < t at bit t-1-(j-k), counted
from the top by the distance j-k.  Proof: y = t-j+k is k at j = t, and
y-1 = t-1-(j-k) otherwise.  The first reading does not involve t, and the
second only through its anchor t-1, which one shift supplies.  So over
the digits 1..a one table holds M (bit k for each member
k, 0 included), B (bit k-1 for each member k >= 1) and R (bit a-d for each
pair at distance d <= a, a member k and an out-of-T h_j with j-k = d), and
level t's window is ~(B | R << (t-1-a)) & low_bits(t), a right shift when
t-1 < a.  The table is built once, digit by digit (``_slice_table``), and
read at every level a query needs (``_slice_levels``).

Neutral first.  Each digit lists its neutral state (x_j out of T, h_j in
T) first, at index 0.  A neutral digit is in no pair: its x is out and its
h is in.  Level t holds the digits 1..t-1, so its sets are exactly the
table's rows whose digits t..a are neutral, with the same B and R.  In
mixed radix with digit 1 least significant those are the table's first
3^(t-1) rows (2^l 3^(t-1-l) under a prefix [1, l] whose digits keep x
out).  A level too large for one chunk (see ``_slice_levels``) keeps the
table's first rows over its digits 1..a_t, fixes its leading digits
a_t+1, ..., t-1 chunk by chunk and runs each chunk over those rows:

    V = V_TT(trailing) | V_TH(trailing members; leading out-mask) | V_HH(leading)

V_TT, the pairs inside the digits 1..a_t and those with x_0 and with f,
is B | R << (t-1-a) over those rows, one array per level.  V_TH, a
trailing x_k in T against a leading h_j out of T, splits over the two
halves of the trailing block into two per-chunk vectors, and V_HH, the
pairs among x_0, the leading digits and f, is a per-chunk scalar folded
into one of them.  A chunk's windows are ~V_TT ANDed with the outer AND
of the two vectors (see ``_slice_block``).

Forced digits.  A C sweep (:func:`top_slice_c`) keeps x and h out of T at
the digits t-r..t-1 (r = l, why in :mod:`nsdensity.constants`).  The
forced h_{t-i}, i = 1..r, meets a member k at bit t-1-(t-i-k) = k+i-1, so
the forced digits add the bottom-anchored term OR_{i=1..r} M << (i-1) to
B, again free of t.  The table then runs over the free digits 1..t-1-r
alone, and level t is its first 2^l 3^(t-1-r-l) rows; past the table the
forced digits are leading digits of one state, whose V_TH gives the same
bits again.

Both the table and the per-chunk vectors are built from each digit's
membership by the one pair rule, k = j included, so a pair state with x_j
in T and h_j out would leave a window below 2^(t-1), which
:func:`top_slice_levels` and :func:`top_slice_c` refuse.

The two chunkers share nothing: the flat sweep takes f and the top slice
takes a list of levels, and each runs its chunks in order on the calling
thread.  Neither has a budget: each sweeps the size it is given, and the
budget flags are checked in :mod:`nsdensity.cli` alone.  Word size limits
these kernels to f <= 63; the pure-python routines in ``core`` remain
valid for arbitrary f.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .core import DSet, Semigroup, n_of

BLOCK = 1 << 16  # flat sweep: sets per chunk (2^b, the low block)
GROUP = 32  # flat sweep: chunks per group, swept together
CHUNK = 1 << 22  # top slice: cap on the sets per chunk
WORD_LIMIT = 63

_U1 = np.uint64(1)
# (x in T, x+t+1 in T) for each state the top slice gives the pair
# (x, x+t+1), the neutral state first: x alone in T would put x+t+1 out
# of A(T)
_PAIR_STATES = ((False, True), (False, False), (True, True))
# the one state of a digit forced by a C sweep (see top_slice_c)
_FORCED_STATE = (False, False)


class BudgetError(Exception):
    """A sweep is refused for its size: here, beyond the 64-bit word limit
    of the kernels; in :mod:`nsdensity.cli`, beyond a budget flag."""


# ---------------------------------------------------------------------------
# chunked mask production and the two elementary kernels


def _flat_groups(
    f: int,
    *,
    prefix_zeros: int = 0,
    chunk: int | None = None,
    absent: int | None = None,
) -> Iterator[np.ndarray]:
    """The A-masks of the flat sweep, one group of chunks at a time.

    The flat sweep visits the 2^(f-1-l) sets avoiding [1, l], l =
    ``prefix_zeros``: a chunk fixes T above the low block L = [l+1, l+b]
    and runs over all 2^b patterns of L, with 2^b = ``chunk`` (default
    BLOCK) rounded down to a power of two and capped at the sweep (see the
    module docstring).  A group is GROUP chunks, or all of them when there
    are fewer; the number of chunks is a power of two, so every group is
    whole at GROUP = 32 (or any power of two), and a last group holds what
    is left at any other GROUP.  Each group's A-masks come as one array,
    chunk after chunk, in the tally's word (uint32 for f <= 33, else
    uint64), at most GROUP * BLOCK sets at the default chunk, and the next
    group overwrites it.  The arguments are checked at the call; the
    groups are computed as they are taken.

    ``absent``, a position in (l, f), is kept out of T as well, which
    halves the sweep: inside L it is pattern bit 0 of L2, whose other half
    is never built, and above L the chunks that put it in T are skipped.
    """
    if f < 1:
        raise ValueError(f"Frobenius number must be >= 1, got {f}")
    if f > WORD_LIMIT:
        raise BudgetError(f"vectorized kernels require f <= {WORD_LIMIT}, got {f}")
    if not 0 <= prefix_zeros <= f - 1:
        raise ValueError(f"prefix [1,{prefix_zeros}] does not fit below f={f}")
    free = f - 1 - prefix_zeros
    b = min(free, (chunk or BLOCK).bit_length() - 1)
    key = np.uint32 if f <= 33 else np.uint64
    allowed_ll = _low_block_table(f, prefix_zeros, b, key)
    n_highs, split, skip = 1 << (free - b), None, None
    if absent is not None:
        k = absent - prefix_zeros - 1  # its pattern bit, or b + its high bit
        if k < b:
            # the table's rows with pattern bit k clear
            allowed_ll = allowed_ll.reshape(-1, 1 << k)[::2].ravel()
            split = k
        else:
            n_highs //= 2
            skip = np.uint64(k - b)
    per_group = min(n_highs, GROUP)
    buffer = np.empty(per_group * len(allowed_ll), dtype=key)

    def groups() -> Iterator[np.ndarray]:
        for start in range(0, n_highs, per_group):
            highs = np.arange(start, min(start + per_group, n_highs), dtype=np.uint64)
            if skip is not None:  # a clear bit inserted at the skipped one
                highs += highs >> skip << skip
            amask = buffer[: len(highs) * len(allowed_ll)]
            yield _amask_group(f, prefix_zeros, b, highs, allowed_ll, split, amask)

    return groups()


def _slice_levels(
    levels: Iterable[int],
    *,
    prefix_zeros: int = 0,
    forced: int = 0,
    chunk: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """(t, windows) for each chunk of each top-slice level t in
    ``levels``: the chunk's width-t windows, all read from one table.

    The top slice at f = 2t+1 (see :func:`top_slice_levels`) is indexed in
    mixed radix: digit j is the state of the pair (j, j+t+1), base 2 for
    j <= ``prefix_zeros`` (j out of T) and base 3 above, each digit's
    neutral state first.  With r = ``forced``, the digits t-r, ..., t-1 of
    level t keep j and j+t+1 out of T, so its free digits are 1..t-1-r.
    Level t's chunk is ``chunk`` sets (default 16 * 2^t, within [BLOCK,
    CHUNK]), and a_t is the most free digits whose states fit in it.  One
    table (:func:`_slice_table`) holds every state of the free digits
    1..a_T of the deepest level T, digit 1 least significant.  A level
    with at most a_t free digits is the table's first rows, read as one
    chunk; a deeper level fixes its leading digits a_t+1, ..., t-1 chunk
    by chunk and runs each against the table's first rows over the digits
    1..a_t (see the module docstring).  The levels are checked and the
    table is built at the call; the chunks are computed as they are taken,
    level by level in the order given.
    """
    levels = list(levels)
    if not levels or levels != sorted(set(levels)):
        raise ValueError(f"levels must ascend without repeats, got {levels}")
    for t in levels:
        if not 0 <= prefix_zeros <= t - 1 - forced:
            raise ValueError(
                f"top slice needs the prefix [1,{prefix_zeros}] below t={t}"
                + (f" and its {forced} forced digits" if forced else "")
            )
    digits = [
        [s for s in _PAIR_STATES if j > prefix_zeros or not s[0]]
        for j in range(1, levels[-1] - forced)
    ]

    def fit(t: int) -> tuple[int, int]:
        # the most digits whose states fit in level t's chunk, and their count
        limit = chunk or min(max(BLOCK, 16 << t), CHUNK)
        a, size = 0, 1
        while a < len(digits) and size * len(digits[a]) <= limit:
            size *= len(digits[a])
            a += 1
        return a, size

    table = _slice_table(digits[: fit(levels[-1])[0]], forced)

    def chunks() -> Iterator[tuple[int, np.ndarray]]:
        for t in levels:
            free = t - 1 - forced
            a, size = fit(t)
            if free <= a:
                yield t, table.windows(t, math.prod(len(s) for s in digits[:free]))
                continue
            trailing, allowed_tt = digits[:a], table.windows(t, size)
            leading = digits[a:free] + [[_FORCED_STATE]] * forced
            for index in range(math.prod(len(s) for s in leading)):
                states = []
                for digit in leading:
                    index, d = divmod(index, len(digit))
                    states.append(digit[d])
                yield t, _slice_block(t, trailing, states, allowed_tt)

    return chunks()


def _low_block_table(f: int, l: int, b: int, word: type) -> np.ndarray:
    """~V_LL within low_bits(f-1), for every pattern of L = [l+1, l+b], in
    the unsigned integer type ``word``.

    Pattern bit i stands for position l+1+i.  Position y = l+1+k is added
    on top of the k below it: out of T, it makes every pair (x, y) with x
    in T ∩ L a violation at s = y - x, read off the bit reversal of the
    lower pattern, and (0, y) one at s = y; in T, it completes no violation.
    """
    allowed = np.empty(1 << b, dtype=word)
    rev = np.empty(1 << b, dtype=word)  # bit k-1-i for each pattern bit i
    allowed[0], rev[0], one = (1 << (f - 1)) - 1, 0, word(1)
    for k in range(b):
        n = 1 << k
        allowed[n : 2 * n] = allowed[:n]
        allowed[:n] &= ~(rev[:n] | word(1 << (l + k)))
        rev[:n] <<= one
        np.bitwise_or(rev[:n], one, out=rev[n : 2 * n])
    return allowed


def _amask_group(
    f: int,
    l: int,
    b: int,
    highs: np.ndarray,
    allowed_ll: np.ndarray,
    split: int | None,
    amask: np.ndarray,
) -> np.ndarray:
    """A-masks of the sets of a group of chunks, written into ``amask``:
    chunk after chunk, each in pattern order of L.

    Chunk c fixes T ∩ (l+b, f-1]: bit j of ``highs[c]`` is position
    l+b+1+j.  ``allowed_ll`` (from :func:`_low_block_table`, in the word of
    ``amask``) covers the pairs inside L = [l+1, l+b] and those of 0 with
    L.  The other positions of H below L are [1, l], never in T, so a pair
    of L with H violates only as (y, h) with y in T and h > l+b out of T:
    each y in T ∩ L1 (or L2) adds the shifted out-of-T part of H.  The
    pairs inside H give one scalar per chunk, folded into the L1 vector.
    Every step runs on the whole group, one row per chunk: V_HH is a
    vector over the chunks, and each doubling step of the L1 and L2
    vectors one 2-D AND.

    With ``split`` = k, L1 holds pattern bits below k, and pattern bit k,
    bit 0 of L2, stays out of T: the L2 vector has only the rows where it
    is clear, ``allowed_ll`` holds the table's rows where it is clear, and
    each chunk has 2^(b-1) sets.  Out of T, that position forms no pair
    with H.
    """
    low = np.uint64((1 << (f - 1)) - 1)
    members = highs << np.uint64(l + b + 1)
    # H positions above L that are out of T; f is never in T
    out = np.uint64((1 << f) - (1 << (l + b + 1))) & ~members | np.uint64(1 << f)
    v_hh = (out | np.uint64((1 << (l + 1)) - 2)) >> _U1
    for j in range(f - l - b - 1):  # position h = l+b+1+j, when in T
        v_hh |= (out >> np.uint64(l + b + 2 + j)) * (highs >> np.uint64(j) & _U1)
    b1 = b // 2 if split is None else split

    def half(start: int, stop: int, allowed) -> np.ndarray:
        # pattern bit i of the half is position y = l+1+start+i
        vec = np.empty((len(highs), 1 << (stop - start)), dtype=np.uint64)
        vec[:, 0] = allowed
        for w, i in enumerate(range(start, stop)):
            hit = low & ~(out >> np.uint64(l + 2 + i))
            np.bitwise_and(vec[:, : 1 << w], hit[:, None], out=vec[:, 1 << w : 2 << w])
        return vec.astype(amask.dtype, copy=False)

    l1 = half(0, b1, low & ~v_hh)
    l2 = half(b1 if split is None else b1 + 1, b, low)
    grid = amask.reshape(len(highs), l2.shape[1], l1.shape[1])
    np.bitwise_and(l2[:, :, None], l1[:, None, :], out=grid)
    np.bitwise_and(grid, allowed_ll.reshape(grid.shape[1:]), out=grid)
    return amask


class _SliceTable(NamedTuple):
    """The part of the top slice's windows that no level changes, for
    every state of the digits 1..a (see :func:`_slice_table`)."""

    a: int
    base: np.ndarray  # B: pairs with f and with the forced digits
    reach: np.ndarray  # R: bit a-d for a pair at distance d

    def windows(self, t: int, rows: int) -> np.ndarray:
        """~(B | R shifted to bit t-1-d) & low_bits(t) over the first
        ``rows`` rows: level t's windows when its free digits lie in the
        table, and its V_TT complement otherwise."""
        reach = self.reach[:rows]
        shift = t - 1 - self.a
        if shift >= 0:
            w = np.left_shift(reach, np.int32(shift))
        else:
            w = np.right_shift(reach, np.int32(-shift))
        np.bitwise_or(w, self.base[:rows], out=w)
        np.invert(w, out=w)
        w &= np.int32((1 << t) - 1)
        return w


def _slice_table(digits: list, forced: int = 0) -> _SliceTable:
    """B and R for every state of ``digits``, digits 1..a in mixed radix.

    Digit j of ``digits`` (j = 1, 2, ...) lists the (j in T, j+t+1 in T)
    states it runs over, digit 1 least significant.  Digit j is added on
    top of the digits below it, with M the members k <= j of T (0 and j
    itself included): j+t+1 out of T gives R the bits a-(j-k), and j in T
    gives B bit j-1, its pair with f, and bits j..j+r-1, r = ``forced``,
    its pairs with the forced h_{t-i}, i = 1..r, as does 0 with bits
    0..r-1.  Neither depends on t (module docstring).
    """
    a = len(digits)
    members = np.empty(math.prod(len(s) for s in digits), dtype=np.int32)
    base, reach = np.empty_like(members), np.empty_like(members)
    members[0], base[0], reach[0], n = 1, (1 << forced) - 1, 0, 1
    for j, states in enumerate(digits, 1):
        hits = np.int32(((2 << forced) - 1) << (j - 1))
        # block 0 holds the digits below j, so it is overwritten last
        for i in reversed(range(len(states))):
            x_in, h_in = states[i]
            block = slice(i * n, (i + 1) * n)
            if i == 0 and not x_in:  # block 0 keeps its members and B
                m = members[:n]
            else:
                m = np.bitwise_or(members[:n], np.int32(x_in << j), out=members[block])
                np.bitwise_or(base[:n], hits if x_in else np.int32(0), out=base[block])
            if not h_in:
                np.bitwise_or(reach[:n], m << np.int32(a - j), out=reach[block])
            elif i:
                reach[block] = reach[:n]
        n *= len(states)
    return _SliceTable(a, base, reach)


def _slice_block(
    t: int, trailing: list, lead: list, allowed_tt: np.ndarray
) -> np.ndarray:
    """Width-t windows of one chunk of the top slice, in table order.

    ``lead`` holds the (x in T, x+t+1 in T) state of each leading digit
    a+1, ..., t-1, where a = len(``trailing``).  With P holding bit t-j for
    each pair end j+t+1 out of T (j = t is f), the pairs of a member k are
    (P << k) >> 1: the pair with j < k lands at bit t or above, and (0, f)
    below bit 0, both outside the window.  The pairs among 0, the leading
    digits and f give the scalar V_HH; a trailing member k meets the
    leading out-mask O = P_lead >> 1 as O << k, one per-chunk vector for
    each half of the trailing digits, with V_HH folded into the lower one.
    """
    low = (1 << t) - 1
    a = len(trailing)
    members = 1  # 0 is in T
    p_lead = 0
    for j, (x_in, h_in) in enumerate(lead, a + 1):
        members |= x_in << j
        p_lead |= (not h_in) << (t - j)
    p_hh = p_lead | 1  # f is out of T
    v_hh = 0
    for k in range(t):
        if members >> k & 1:
            v_hh |= p_hh << k
    out = p_lead >> 1

    def half(start: int, stop: int, allowed: int) -> np.ndarray:
        vec = np.array([allowed], dtype=np.int32)
        for j, states in enumerate(trailing[start:stop], start + 1):
            hit = low & ~(out << j)
            col = np.array([hit if x_in else low for x_in, _ in states], dtype=np.int32)
            vec = (col[:, None] & vec[None, :]).ravel()
        return vec

    a1 = a // 2
    v1 = half(0, a1, low & ~(v_hh >> 1))
    v2 = half(a1, a, low)
    windows = np.empty(len(allowed_tt), dtype=np.int32)
    np.bitwise_and(v2[:, None], v1[None, :], out=windows.reshape(len(v2), len(v1)))
    return np.bitwise_and(windows, allowed_tt, out=windows)


def _mult_chunk(amask: np.ndarray, f: int) -> np.ndarray:
    """m(A(T)) for every A-gap-mask; equals f+1 when A(T) = N_f."""
    low = amask & (~amask + _U1)
    m = np.bitwise_count(low - _U1).astype(np.uint64) + _U1
    return np.where(amask == 0, np.uint64(f + 1), m)


def _closed(gaps: np.ndarray, f: int) -> np.ndarray:
    """Whether each gap mask is closed under addition: the rule of
    :func:`nsdensity.core.is_semigroup`, one array pass per x in [1, f-1].
    No y <= f-x in the set may have x+y out of it when x is a member."""
    full = gaps << _U1 | _U1
    closed = np.ones(gaps.shape, dtype=bool)
    for x in range(1, f):
        member = gaps >> np.uint64(x - 1) & _U1
        bad = full & ~(full >> np.uint64(x)) & np.uint64((1 << (f - x + 1)) - 1)
        closed &= (member == 0) | (bad == 0)
    return closed


def _extract_window(amask: np.ndarray, f: int, width: int) -> np.ndarray:
    """Suffix pattern of width ``width`` read out of precomputed A-masks."""
    out = np.zeros(amask.shape, dtype=np.uint64)
    for y in range(1, width + 1):
        out |= ((amask >> np.uint64(f - y - 1)) & _U1) << np.uint64(y - 1)
    return out


# ---------------------------------------------------------------------------
# the density table: one flat sweep and its reductions


@dataclass(frozen=True)
class SuffixCensus:
    """Per-D counters needed by the exact identity

    P(N(D,f)) = A_D 2^(f-2t-1) - sum_{k=t+1}^{floor((f-1)/2)} A_{D∪{k}} 2^(f-2k-1)
                - |S(D,f)|

    gathered from one table for every D with Max(D) <= width: a named
    oracle, replayed by ``verify``'s ``preimage-identity``.
    """

    f: int
    width: int
    buckets: np.ndarray  # width-`width` window histogram
    p_counts: Mapping[DSet, int]  # D -> P(N(D,f))
    s_counts: Mapping[DSet, int]  # D -> |S(D,f)|


@dataclass(frozen=True, eq=False)
class DensityTable:
    """The preimage tally of one flat sweep at Frobenius number ``f``.

    The table counts the 2^(f-1-l) sets T avoiding [1, l], l =
    ``prefix_zeros``; ``masks`` holds every distinct A-mask among them,
    ascending, and ``counts`` how many of the sets T have that A(T).  Every
    counter below is a reduction of these two arrays, and none sweeps again.
    """

    f: int
    prefix_zeros: int
    masks: np.ndarray  # uint64, ascending and distinct
    counts: np.ndarray  # int64

    def __post_init__(self):
        total = int(self.counts.sum())
        if total != self.sets:
            raise ValueError(
                f"sum of P(S) is {total}, expected 2^{self.f - 1 - self.prefix_zeros}"
            )
        if self.counts.min() < 1:  # every tallied A-mask has a preimage
            raise ValueError(f"preimage count {self.counts.min()} < 1")
        ok = (self.masks >> np.uint64(self.f - 1) == 0) & _closed(self.masks, self.f)
        if not ok.all():
            bad = int(self.masks[np.argmin(ok)])
            Semigroup(self.f, bad)  # refuses the first bad mask as entries would
            raise AssertionError(
                f"closure check and is_semigroup disagree on {bad:#x} at f={self.f}"
            )

    @property
    def sets(self) -> int:
        """2^(f-1-l), the number of sets the table counts.  The sweep of
        :func:`density_table` visits half of them at even f with l = 0."""
        return 1 << (self.f - 1 - self.prefix_zeros)

    @cached_property
    def entries(self) -> dict[Semigroup, int]:
        """P(S) for every semigroup S met, ascending by gap mask; each S is
        validated by :class:`Semigroup`."""
        return {
            Semigroup(self.f, a): c
            for a, c in zip(self.masks.tolist(), self.counts.tolist())
        }

    def ranked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(gap masks, D masks, multiplicities, counts) in report order:
        descending P, ties by ascending gap mask.

        D = {f - s : s in S} is the width-(f-1) window of S, the bit
        reversal of its gap mask.  m is f+1 for N_f, so R(S) = f - m
        throughout.
        """
        order = np.lexsort((self.masks, -self.counts))
        gaps = self.masks[order]
        return (
            gaps,
            _extract_window(gaps, self.f, self.f - 1),
            _mult_chunk(gaps, self.f).astype(np.int64),
            self.counts[order],
        )

    def __len__(self) -> int:
        return len(self.masks)

    def preimages(self, a_masks) -> np.ndarray:
        """The count at each of ``a_masks`` (an A-mask, the gap mask of a
        semigroup, or an array of them), 0 where the sweep never met it.
        With l = ``prefix_zeros``, ``preimages(0)`` is |G_l(f)|, the sets
        whose semigroup is N_f."""
        keys = np.asarray(a_masks, dtype=np.uint64)
        at = np.minimum(np.searchsorted(self.masks, keys), len(self.masks) - 1)
        return np.where(self.masks[at] == keys, self.counts[at], 0)

    def window(self, width: int) -> np.ndarray:
        """Histogram of width-``width`` suffix patterns of A(T) over the sweep.

        Entry p counts the swept sets T whose pattern {y in [1, width] :
        f-y in A(T)} encodes to p.  Pattern p is the width-``width`` window
        of D(A(T)), so for Max(D) = width exactly, ``window(width)[D.mask]``
        = |B(D, f)| restricted to the prefix constraint; with l =
        ``prefix_zeros``, ``window(k)[2^(k-1)]`` = |B_l(k, f)|.
        """
        if not 0 <= width <= (self.f - 1) // 2:
            raise ValueError(f"window width {width} invalid for f={self.f}")
        return _sum_by(
            _extract_window(self.masks, self.f, width), self.counts, 1 << width
        )

    def multiplicities(self) -> dict[int, int]:
        """#{T : m(A(T)) = m} for every attained m.

        Attainable m lie in [2, f-1] plus f+1 (for A(T) = N_f); m = f would
        put f itself in the semigroup and m = 1 would force 1, 2, ... all in.
        """
        total = _sum_by(_mult_chunk(self.masks, self.f), self.counts, self.f + 2)
        return {m: int(c) for m, c in enumerate(total) if c}

    def alpha(self) -> dict[int, Fraction]:
        """alpha_n(f) = #{T : R(A(T)) = n} / 2^(f-1-l) for every attained n,
        ascending; R(S) = f - m(S), and R(N_f) = -1."""
        return {
            self.f - m if m <= self.f else -1: Fraction(c, self.sets)
            for m, c in sorted(self.multiplicities().items(), reverse=True)
        }

    def census(self, max_t: int) -> SuffixCensus:
        """Window buckets, P(N(D,f)) and |S(D,f)| for every D with Max(D) <= max_t.

        B(D,f) splits disjointly into {T : A(T) = N(D,f)} and the sets whose
        smallest window element beyond Max(D) is some k; pieces with 2k < f
        are B(D∪{k},f) and obey the window factorization, and S(D,f)
        collects the rest: window agreement with D through width
        floor((f-1)/2) plus at least one element at k with 2k >= f, i.e.
        2 m(A(T)) <= f.  Testing 2m <= f inside B(D,f) alone would
        overcount, since a set can carry both a middle extra element and a
        high one and such sets already sit in some B(D∪{k},f) with 2k < f.
        The identity is stated for the full sweep, ``prefix_zeros`` = 0.
        """
        f = self.f
        if not 0 <= max_t <= (f - 1) // 2:
            raise ValueError(f"max_t={max_t} invalid for f={f}")
        window = _extract_window(self.masks, f, (f - 1) // 2)
        low_t = np.uint64((1 << max_t) - 1)
        # |S(D,f)| is indexed by D.mask: the whole window must fit in max_t
        residue = (_mult_chunk(self.masks, f) <= np.uint64(f // 2)) & (window <= low_t)
        s_tot = _sum_by(window[residue], self.counts[residue], 1 << max_t)
        dsets = [DSet(m) for m in range(1 << max_t)]
        goals = [n_of(d, f).gaps_mask for d in dsets]
        return SuffixCensus(
            f,
            max_t,
            _sum_by(window & low_t, self.counts, 1 << max_t),
            dict(zip(dsets, self.preimages(goals).tolist())),
            dict(zip(dsets, s_tot.tolist())),
        )


def density_table(
    f: int,
    *,
    prefix_zeros: int = 0,
    chunk: int | None = None,
) -> DensityTable:
    """Map every T with f(T) = f avoiding [1, prefix_zeros] through A and
    tally preimages per A-mask.

    The table counts 2^(f-1-l) sets, l = ``prefix_zeros``, but at even f
    with l = 0 the sweep visits half of them: those with f/2 out of T.
    T -> T* swaps them with the other half and keeps A(T) (see the module
    docstring), so every count of the visited half is doubled.  Each group
    of chunks (``chunk`` sets each, see :func:`_flat_groups`) tallies its
    A-masks by one in-place sort (:func:`_tally`), on 32-bit keys when they
    fit (f <= 33); the group tallies merge at the end by one concatenated
    ``np.unique`` and an exact integer sum, so the table is the same for
    every layout.
    """
    dual = _halved(f, prefix_zeros)
    masks, counts = _merge([
        _tally(amask)
        for amask in _flat_groups(
            f,
            prefix_zeros=prefix_zeros,
            chunk=chunk,
            absent=f // 2 if dual else None,
        )
    ])
    if dual:
        counts *= 2
    return DensityTable(f, prefix_zeros, masks.astype(np.uint64), counts)


def _halved(f: int, prefix_zeros: int) -> bool:
    """Whether :func:`density_table` visits half its sets, by the dual:
    at even f with no prefix (module docstring)."""
    return f % 2 == 0 and prefix_zeros == 0


def swept_log2(f: int, *, prefix_zeros: int = 0) -> int:
    """log2 of the sets ``density_table(f, prefix_zeros=l)`` visits: of
    the 2^(f-1-l) it counts, or of 2^(f-2) at even f with l = 0."""
    return f - 1 - prefix_zeros - _halved(f, prefix_zeros)


def _tally(amask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(amask, return_counts=True)``, sorting ``amask`` in place
    instead of a copy of it."""
    amask.sort()
    ends = np.append(np.flatnonzero(amask[1:] != amask[:-1]), len(amask) - 1)
    return amask[ends], np.diff(ends, prepend=-1)


def _merge(tallies: list) -> tuple[np.ndarray, np.ndarray]:
    """One (masks, counts) tally from several, masks ascending and
    distinct, with the exact integer sum of each mask's counts."""
    masks, where = np.unique(
        np.concatenate([m for m, _ in tallies]), return_inverse=True
    )
    return masks, _sum_by(where, np.concatenate([c for _, c in tallies]), len(masks))


def _sum_by(keys: np.ndarray, counts: np.ndarray, size: int) -> np.ndarray:
    """Exact sum of ``counts`` per key in [0, size), as an int64 histogram."""
    total = np.zeros(size, dtype=np.int64)
    np.add.at(total, keys, counts)
    return total


# ---------------------------------------------------------------------------
# window histograms


def window_counts(f: int, width: int, *, prefix_zeros: int = 0) -> np.ndarray:
    """``density_table(f, prefix_zeros=...).window(width)``: the flat window
    histogram that :func:`nsdensity.verify.full_window_oracle` replays the
    top slice against."""
    return density_table(f, prefix_zeros=prefix_zeros).window(width)


def _check_levels(levels: list[int]) -> None:
    """Each level t >= 1, and within the word size, t <= (WORD_LIMIT-1)/2:
    checked before any histogram is allocated."""
    for t in levels:
        if t < 1:
            raise ValueError(f"top slice needs t >= 1, got {t}")
        if 2 * t + 1 > WORD_LIMIT:
            raise BudgetError(
                f"top slice at t={t} needs f = 2t+1 <= {WORD_LIMIT}, the word limit"
            )


def _refuse_stray(t: int, stray: int) -> None:
    """A kernel that put ``stray`` level-t sets below window 2^(t-1) is
    wrong (see :func:`top_slice_levels`)."""
    if stray:
        raise AssertionError(
            f"{stray} top-slice sets at f={2 * t + 1} have a window below 2^{t - 1}"
        )


def top_slice_levels(
    levels: Iterable[int], *, prefix_zeros: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """(t, width-t window histogram at f = 2t+1 over the top slice alone)
    for every level t in ``levels`` (ascending), all from one table (see
    :func:`_slice_levels`).

    t+1 is in A(T) iff t+1 in T, t not in T, and x in T implies x+t+1 in T
    for x in [1, t-1]: each pair (x, x+t+1) keeps 3 of its 4 states, or 2
    when x <= prefix_zeros must stay out of T.  These 2^l 3^(t-1-l) sets
    (l = prefix_zeros) are exactly the sets whose window has maximum t, so
    entry p of level t's histogram equals ``window_counts(2t+1, t,
    prefix_zeros=l)[p]`` for p >= 2^(t-1).  The kernel computes the whole
    window from every digit pair, and a set landing below 2^(t-1) is an
    AssertionError.

    Each level comes as soon as its last chunk is in, so memory holds one
    level's histogram at a time.  It sweeps the levels it is given: the
    budget flags are checked in :mod:`nsdensity.cli` alone.  Only the word
    size bounds them, t <= (WORD_LIMIT-1)/2, checked at the call, before
    any histogram is allocated.
    """
    levels = list(levels)
    _check_levels(levels)
    histograms = _window_histograms(_slice_levels(levels, prefix_zeros=prefix_zeros))

    def checked() -> Iterator[tuple[int, np.ndarray]]:
        for t, buckets in histograms:
            _refuse_stray(t, int(buckets[: 1 << (t - 1)].sum()))
            yield t, buckets

    return checked()


def top_slice_c(l: int, levels: Iterable[int]) -> dict[int, int]:
    """C_{l,k} for each k in ``levels`` (ascending, k >= 2l+1), all from
    one table: the sets of level k with digits 1..l out of T and digits
    k-l..k-1 forced (x and h out of T) whose window is exactly {k}, that is
    bucket 2^(k-1).  That is the count of the prefix-only sweep
    ``top_slice_levels([k], prefix_zeros=l)`` at bucket 2^(k-1), over
    2^l 3^(k-1-2l) sets instead of 2^l 3^(k-1-l) (proof in
    :mod:`nsdensity.constants`).  A window below 2^(k-1) is an
    AssertionError, as in :func:`top_slice_levels`.
    """
    levels = list(levels)
    _check_levels(levels)
    full = dict.fromkeys(levels, 0)
    stray = dict.fromkeys(levels, 0)
    for t, windows in _slice_levels(levels, prefix_zeros=l, forced=l):
        top = 1 << (t - 1)
        full[t] += int(np.count_nonzero(windows == top))
        stray[t] += int(np.count_nonzero(windows < top))
    for t in levels:
        _refuse_stray(t, stray[t])
    return full


def _window_histograms(
    chunks: Iterable[tuple[int, np.ndarray]],
) -> Iterator[tuple[int, np.ndarray]]:
    """(t, histogram) for each level of ``chunks``, the (t, windows) pairs
    of :func:`_slice_levels`: the sum of the level's per-chunk bincounts,
    yielded once its last chunk is in, so memory holds one level's total
    and one chunk's bincount however many chunks and levels there are."""
    for t, level_chunks in itertools.groupby(chunks, key=operator.itemgetter(0)):
        total = np.zeros(1 << t, dtype=np.int64)
        for _, windows in level_chunks:
            np.add(total, np.bincount(windows, minlength=1 << t), out=total)
        yield t, total
