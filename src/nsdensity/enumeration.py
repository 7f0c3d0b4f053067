"""Exhaustive sweeps over all numerical sets with a fixed Frobenius number.

There are 2^(f-1) numerical sets with Frobenius number f, one per subset of
[1, f-1].  One flat sweep, :func:`density_table`, visits all of them
(optionally restricted to sets avoiding a prefix [1, l]) and tallies the
preimage count P(S) of every semigroup S = A(T) it meets; the
:class:`DensityTable` it returns is that tally.  Each finite-f counter asks
about A(T) alone, so each is a method of the table that reduces it: it
reads its window, multiplicity or key off the few distinct A-masks and sums
their counts with exact integer arithmetic, so results are independent of
chunking and worker count, and no counter sweeps again.

s in [1, f-1] lies in A(T) iff no pair (x, x+s) with x <= f-s has x in T
and x+s not in T; 0 is in T and f is not.  The violation mask V(T), bit s-1
set when some pair violates at s, is therefore an OR over pairs, and
A(T) = ~V(T) & low_bits(f-1).  An OR over pairs splits by where each
pair's two ends lie, which is how the flat sweep builds its A-masks.  A
chunk fixes everything but the low block L = [l+1, l+b] (l = prefix_zeros,
2^b sets per chunk): the rest H = {0} ∪ [1, l] ∪ (l+b, f] is constant
within it.  With L split into L1 = [l+1, l+b1] and L2 = (l+b1, l+b],

    V = V_LL(T ∩ L) | V_L1H(T ∩ L1; H) | V_L2H(T ∩ L2; H) | V_HH(H)

exactly, since every pair has both ends in L, one end in L1 or L2 and the
other in H, or both in H.  V_LL is one table of 2^b masks per sweep; it
also takes the pairs (0, y) with y in L, as 0 is in every T.  V_L1H and
V_L2H are per-chunk vectors of 2^b1 and 2^(b-b1) entries, and V_HH is a
per-chunk scalar.  A chunk's 2^b A-masks then cost two full-width ANDs of
the complements: the outer AND of the two vectors, then the table.  The
tables are built by doubling, one position at a time (see
``_low_block_table`` and ``_amask_block``).

The top slice at f = 2t+1 (see :func:`top_slice_counts`) takes the same
step over digit pairs.  Digit j in [1, t-1] is the pair (x_j, h_j) =
(j, j+t+1); x_0 = 0 and h_0 = t+1 are in T, x_t = t and h_t = f are not.
Window bit y-1 (f-y not in A(T)) is violated exactly when some pair (k, j)
with 0 <= k <= j <= t has x_k in T and h_j not in T, at y = t-j+k.  So the
window's violation mask is an OR over digit pairs, and as the digits are
independent it splits by block.  A chunk fixes the leading digits and runs
over every state of the trailing digits 1..a (3^a at most the chunk):

    V = V_TT(trailing) | V_TH(trailing members; leading out-mask) | V_HH(leading)

V_TT, the pairs inside the trailing block and those of the block with x_0
and with f, is one table per sweep.  V_TH, a trailing x_k in T against a
leading h_j out of T, splits over the two halves of the trailing block
into two per-chunk vectors, and V_HH, the pairs among x_0, the leading
digits and f, is a per-chunk scalar folded into one of them.  A chunk's
windows are the table ANDed with the outer AND of the two vectors (see
``_slice_trailing_table`` and ``_slice_block``).  Both are built from each
digit's membership by the one pair rule, k = j included, so a pair state
with x_j in T and h_j out would leave a window below 2^(t-1), which
:func:`top_slice_counts` refuses.

Word size limits these kernels to f <= 63; the pure-python routines in
``core`` remain valid for arbitrary f.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .core import DSet, Semigroup, n_of

BLOCK = 1 << 16  # flat sweep: sets per chunk (2^b, the low block)
CHUNK = 1 << 22  # top slice: cap on the sets per chunk
DEFAULT_ENUM_BUDGET = 30
WORD_LIMIT = 63

_U1 = np.uint64(1)
# (x in T, x+t+1 in T) for each state the top slice gives the pair
# (x, x+t+1): x alone in T would put x+t+1 out of A(T)
_PAIR_STATES = ((False, False), (False, True), (True, True))


class BudgetError(Exception):
    """A sweep would visit more sets than the configured budget allows."""


def _check_budget(f: int, budget: int, sets: str) -> None:
    """Refuse f beyond the budget; ``sets`` states what the sweep visits."""
    if f < 1:
        raise ValueError(f"Frobenius number must be >= 1, got {f}")
    if f > budget:
        raise BudgetError(
            f"enumeration over f={f} exceeds budget f<={budget} "
            f"({sets} sets); raise the budget explicitly to proceed"
        )
    if f > WORD_LIMIT:
        raise BudgetError(f"vectorized kernels require f <= {WORD_LIMIT}, got {f}")


# ---------------------------------------------------------------------------
# chunked mask production and the two elementary kernels


def _map_chunks(
    f: int,
    func: Callable[[np.ndarray], object],
    *,
    prefix_zeros: int = 0,
    top_slice: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
    workers: int = 1,
    chunk: int | None = None,
) -> list:
    """Apply ``func`` to the chunks that cover the whole sweep.

    The flat sweep visits the 2^(f-1-l) sets avoiding [1, l], l =
    ``prefix_zeros``, and hands ``func`` their A-masks: a chunk fixes T
    above the low block L = [l+1, l+b] and runs over all 2^b patterns of
    L, with 2^b = ``chunk`` (default BLOCK) rounded down to a power of two
    and capped at the sweep (see the module docstring).

    With ``top_slice`` the sweep covers only the top slice at f = 2t+1 (see
    :func:`top_slice_counts`), indexed in mixed radix: digit j in [1, t-1]
    is the state of the pair (j, j+t+1), base 2 for j <= prefix_zeros and
    base 3 above.  Each chunk fixes the leading digits and runs over every
    state of the trailing digits, at most ``chunk`` of them (default
    16 * 2^t, so that a chunk outweighs its 2^t-bin histogram, within
    [BLOCK, CHUNK]), and ``func`` gets their width-t windows.

    Results are returned in ascending index order, so any reduction that is
    associative and commutative over exact integers is deterministic for
    every worker count.
    """
    if top_slice:
        t = (f - 1) // 2
        _check_budget(f, budget, f"2^{prefix_zeros} 3^{t - 1 - prefix_zeros}")
        if f != 2 * t + 1 or not 0 <= prefix_zeros <= t - 1:
            raise ValueError(
                f"top slice needs odd f = 2t+1 and prefix [1,{prefix_zeros}] "
                f"below t, got f={f}"
            )
        # a prefix digit keeps the states with j out of T
        digits = [
            [s for s in _PAIR_STATES if j > prefix_zeros or not s[0]]
            for j in range(1, t)
        ]
        chunk = chunk or min(max(BLOCK, 16 << t), CHUNK)
        a, step = 0, 1
        while a < len(digits) and step * len(digits[a]) <= chunk:
            step *= len(digits[a])
            a += 1
        trailing, leading = digits[:a], digits[a:]
        allowed_tt = _slice_trailing_table(t, trailing)
        ranges = range(math.prod(len(s) for s in leading))

        def run(index: int):
            states = []
            for digit in leading:
                index, d = divmod(index, len(digit))
                states.append(digit[d])
            return func(_slice_block(t, trailing, states, allowed_tt))

    else:
        free = f - 1 - prefix_zeros
        _check_budget(f, budget, f"2^{free}")
        if not 0 <= prefix_zeros <= f - 1:
            raise ValueError(f"prefix [1,{prefix_zeros}] does not fit below f={f}")
        b = min(free, (chunk or BLOCK).bit_length() - 1)
        allowed_ll = _low_block_table(f, prefix_zeros, b)
        ranges = range(1 << (free - b))

        def run(high: int):
            return func(_amask_block(f, prefix_zeros, b, high, allowed_ll))

    # Executor.map submits every chunk at once: more threads than chunks
    # or cores would only start and idle
    workers = min(workers, len(ranges), os.cpu_count() or 1)
    if workers <= 1:
        return [run(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, ranges))


def _low_block_table(f: int, l: int, b: int) -> np.ndarray:
    """~V_LL within low_bits(f-1), for every pattern of L = [l+1, l+b].

    Pattern bit i stands for position l+1+i.  Position y = l+1+k is added
    on top of the k below it: out of T, it makes every pair (x, y) with x
    in T ∩ L a violation at s = y - x, read off the bit reversal of the
    lower pattern, and (0, y) one at s = y; in T, it completes no violation.
    """
    allowed = np.array([(1 << (f - 1)) - 1], dtype=np.uint64)
    rev = np.zeros(1, dtype=np.uint64)  # bit k-1-i for each pattern bit i
    for k in range(b):
        hit = rev | np.uint64(1 << (l + k))
        allowed = np.concatenate([allowed & ~hit, allowed])
        rev <<= _U1
        rev = np.concatenate([rev, rev | _U1])
    return allowed


def _amask_block(
    f: int, l: int, b: int, high: int, allowed_ll: np.ndarray
) -> np.ndarray:
    """A-masks of the 2^b sets of one chunk, in pattern order of L.

    The chunk fixes T ∩ (l+b, f-1]: bit j of ``high`` is position l+b+1+j.
    ``allowed_ll`` (from :func:`_low_block_table`) covers the pairs inside
    L = [l+1, l+b] and those of 0 with L.  The other positions of H below L
    are [1, l], never in T, so a pair of L with H violates only as (y, h)
    with y in T and h > l+b out of T: each y in T ∩ L1 (or L2) adds the
    shifted out-of-T part of H.  The pairs inside H give one scalar, folded
    into the L1 vector.
    """
    low = (1 << (f - 1)) - 1
    members = high << (l + b + 1)
    # H positions above L that are out of T; f is never in T
    out = ((1 << f) - (1 << (l + b + 1))) & ~members | 1 << f
    v_hh = ((1 << (l + 1)) - 2 | out) >> 1
    for h in range(l + b + 1, f):
        if members >> h & 1:
            v_hh |= out >> (h + 1)
    b1 = b // 2

    def half(start: int, stop: int, allowed: int) -> np.ndarray:
        # pattern bit i of the half is position y = l+1+start+i
        vec = np.array([allowed], dtype=np.uint64)
        for i in range(start, stop):
            vec = np.concatenate([vec, vec & np.uint64(low & ~(out >> (l + 2 + i)))])
        return vec

    l1 = half(0, b1, low & ~v_hh)
    l2 = half(b1, b, low)
    amask = np.empty(1 << b, dtype=np.uint64)
    np.bitwise_and(l2[:, None], l1[None, :], out=amask.reshape(len(l2), len(l1)))
    return np.bitwise_and(amask, allowed_ll, out=amask)


def _slice_trailing_table(t: int, trailing: list) -> np.ndarray:
    """~V_TT within low_bits(t), for every state of the trailing digits.

    Digit j of ``trailing`` (j = 1, 2, ...) lists the (j in T, j+t+1 in T)
    states it runs over; table entries are in mixed radix, digit 1 least
    significant.  Digit j is added on top of the digits below it: j+t+1 out
    of T makes a violation with every member k <= j of T (0 and j itself
    included) at window bit t-1-j+k, and j in T makes one with f at bit
    j-1.
    """
    members = np.empty(math.prod(len(s) for s in trailing), dtype=np.int64)
    viol = np.empty_like(members)
    members[0], viol[0], n = 1, 0, 1  # bit k of members: k in T; 0 always is
    for j, states in enumerate(trailing, 1):
        # block 0 holds the digits below j, so it is overwritten last
        for i in reversed(range(len(states))):
            x_in, h_in = states[i]
            block = slice(i * n, (i + 1) * n)
            m = np.bitwise_or(members[:n], np.int64(x_in << j), out=members[block])
            v = np.bitwise_or(viol[:n], np.int64(x_in << (j - 1)), out=viol[block])
            if not h_in:
                v |= m << np.int64(t - 1 - j)
        n *= len(states)
    np.invert(viol, out=viol)
    viol &= np.int64((1 << t) - 1)
    return viol


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
        vec = np.array([allowed], dtype=np.int64)
        for j, states in enumerate(trailing[start:stop], start + 1):
            hit = low & ~(out << j)
            col = np.array([hit if x_in else low for x_in, _ in states], dtype=np.int64)
            vec = (col[:, None] & vec[None, :]).ravel()
        return vec

    a1 = a // 2
    v1 = half(0, a1, low & ~(v_hh >> 1))
    v2 = half(a1, a, low)
    windows = np.empty(len(allowed_tt), dtype=np.int64)
    np.bitwise_and(v2[:, None], v1[None, :], out=windows.reshape(len(v2), len(v1)))
    return np.bitwise_and(windows, allowed_tt, out=windows)


def _mult_chunk(amask: np.ndarray, f: int) -> np.ndarray:
    """m(A(T)) for every A-gap-mask; equals f+1 when A(T) = N_f."""
    low = amask & (~amask + _U1)
    m = np.bitwise_count(low - _U1).astype(np.uint64) + _U1
    return np.where(amask == 0, np.uint64(f + 1), m)


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

    gathered from one table for every D with Max(D) <= width.
    """

    f: int
    width: int
    buckets: np.ndarray  # width-`width` window histogram
    p_counts: Mapping[DSet, int]  # D -> P(N(D,f))
    s_counts: Mapping[DSet, int]  # D -> |S(D,f)|


@dataclass(frozen=True, eq=False)
class DensityTable:
    """The preimage tally of one flat sweep at Frobenius number ``f``.

    The sweep visits the 2^(f-1-l) sets T avoiding [1, l], l =
    ``prefix_zeros``; ``masks`` holds every distinct A-mask it met,
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

    @property
    def sets(self) -> int:
        """2^(f-1-l), the number of sets the sweep visited."""
        return 1 << (self.f - 1 - self.prefix_zeros)

    @cached_property
    def entries(self) -> dict[Semigroup, int]:
        """P(S) for every semigroup S met, ascending by gap mask; each S is
        validated by :class:`Semigroup`."""
        return {
            Semigroup(self.f, a): c
            for a, c in zip(self.masks.tolist(), self.counts.tolist())
        }

    def mu(self, s: Semigroup) -> Fraction:
        """P(S) as a share of the swept sets."""
        return Fraction(self.entries[s], self.sets)

    def sorted_entries(self) -> list[tuple[Semigroup, int]]:
        """Entries by descending P, ties by ascending gap mask."""
        return sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0].gaps_mask))

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
        dsets = [DSet.from_mask(m) for m in range(1 << max_t)]
        goals = [n_of(d, f, warn_uncertified=False).gaps_mask for d in dsets]
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
    budget: int = DEFAULT_ENUM_BUDGET,
    workers: int = 1,
    chunk: int | None = None,
) -> DensityTable:
    """Map every T with f(T) = f avoiding [1, prefix_zeros] through A and
    tally preimages per A-mask.

    Each chunk (``chunk`` sets, see :func:`_map_chunks`) tallies its own
    A-masks; the per-chunk tallies merge in one concatenated ``np.unique``
    and an exact integer sum, so the table is the same for every chunk
    size and worker count.
    """
    parts = _map_chunks(
        f,
        lambda amask: np.unique(amask, return_counts=True),
        prefix_zeros=prefix_zeros,
        budget=budget,
        workers=workers,
        chunk=chunk,
    )
    masks, where = np.unique(
        np.concatenate([m for m, _ in parts]), return_inverse=True
    )
    counts = _sum_by(where, np.concatenate([c for _, c in parts]), len(masks))
    return DensityTable(f, prefix_zeros, masks, counts)


def _sum_by(keys: np.ndarray, counts: np.ndarray, size: int) -> np.ndarray:
    """Exact sum of ``counts`` per key in [0, size), as an int64 histogram."""
    total = np.zeros(size, dtype=np.int64)
    np.add.at(total, keys, counts)
    return total


# ---------------------------------------------------------------------------
# window histograms


def window_counts(
    f: int,
    width: int,
    *,
    prefix_zeros: int = 0,
    budget: int = DEFAULT_ENUM_BUDGET,
    workers: int = 1,
) -> np.ndarray:
    """``density_table(f, prefix_zeros=...).window(width)``: the flat window
    histogram that :func:`nsdensity.verify.full_window_oracle` replays the
    top slice against."""
    return density_table(
        f, prefix_zeros=prefix_zeros, budget=budget, workers=workers
    ).window(width)


def top_slice_counts(
    t: int, *, prefix_zeros: int = 0, workers: int = 1
) -> np.ndarray:
    """Width-t window histogram at f = 2t+1 over the top slice alone.

    t+1 is in A(T) iff t+1 in T, t not in T, and x in T implies x+t+1 in T
    for x in [1, t-1]: each pair (x, x+t+1) keeps 3 of its 4 states, or 2
    when x <= prefix_zeros must stay out of T.  These 2^l 3^(t-1-l) sets
    (l = prefix_zeros) are exactly the sets whose window has maximum t, so
    entry p of the result equals ``window_counts(2t+1, t,
    prefix_zeros=l)[p]`` for p >= 2^(t-1).  The kernel computes the whole
    window from every digit pair, and a set landing below 2^(t-1) is an
    AssertionError.

    The caller owns the budget: this sweep is far smaller than the 2^(f-1)
    sets the enumeration budget is stated in.
    """
    if t < 1:
        raise ValueError(f"top slice needs t >= 1, got {t}")
    f = 2 * t + 1
    buckets = _window_histogram(
        f, t, prefix_zeros=prefix_zeros, budget=f, workers=workers
    )
    stray = int(buckets[: 1 << (t - 1)].sum())
    if stray:
        raise AssertionError(
            f"{stray} top-slice sets at f={f} have a window below 2^{t - 1}"
        )
    return buckets


def _window_histogram(f: int, width: int, **sweep) -> np.ndarray:
    """Sum of per-chunk bincounts of the top slice's width-``width`` windows.

    Each chunk adds its bincount to one running total, so memory stays at
    one histogram per worker however many chunks the sweep has.
    """
    total = np.zeros(1 << width, dtype=np.int64)
    lock = threading.Lock()

    def tally(windows: np.ndarray) -> None:
        counts = np.bincount(windows, minlength=1 << width)
        with lock:
            np.add(total, counts, out=total)

    _map_chunks(f, tally, top_slice=True, **sweep)
    return total


def window_restrict(buckets: np.ndarray, width: int, t: int) -> np.ndarray:
    """Aggregate width-``width`` pattern counts down to width t <= width."""
    if not 0 <= t <= width:
        raise ValueError(f"cannot restrict width {width} to {t}")
    return buckets.reshape(1 << (width - t), 1 << t).sum(axis=0)
