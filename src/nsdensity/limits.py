"""Limit densities as exact truncated series with certified error intervals.

The limit density of the family N(D, .) is

    gamma_D = A_D 4^(-t) - sum_{k > t} A_{D∪{k}} 4^(-k),      t = Max(D),

a series of nonnegative dyadic terms, so a depth-N truncation is an upper
bound and overshoots by at most sum_{k > N} 3^(k-1) 4^(-k) = (3/4)^N (using
A_E <= 3^(Max(E)-1)).  All arithmetic here is over ``fractions.Fraction``;
floats appear only in presentation helpers.

Two certified facts sharpen the raw enclosure [value - (3/4)^N, value]:

  * gamma_D >= a_t / 2^(t+1) > 0 for t >= 1, with
    a_l = (2/3) 4^(-l) - 3 * 2^l / 4^(2l+1);
  * the constants with a common window maximum sum exactly:
    sum over Max(E)=k of A_E = 3^(k-1), because that sum counts the sets T
    at f = 2k+1 with k+1 in A(T), and the three forced conditions (k+1 in
    T, k not in T, x in T => x+k+1 in T for x in [1, k-1]) are also
    sufficient, leaving 3 states for each of the k-1 position pairs.

The second fact makes tails of *sums* of gamma series collapse: distinct D
contribute distinct tail sets D∪{k}, so any family of gamma estimates with
pairwise distinct D has combined tail at most sum_{k>N} 3^(k-1) 4^(-k) =
(3/4)^N, not a per-term multiple of it.  alpha_n and the partial sums of
alpha use this.

On the grid q = 4^N the whole certificate is integer.  The truncation is
S_D / q with S_D = A_D 4^(N-t) - sum_{k=t+1}^N A_{D∪{k}} 4^(N-k) an
integer, and the tail (3/4)^N is 3^N / q, so the raw enclosure is
[(S_D - 3^N) / q, S_D / q].  Only the structural bound a_t / 2^(t+1) falls
off the grid; it depends on t alone, and an integer S meets it on the grid
exactly when S >= ceil(q a_t / 2^(t+1)).  :func:`gamma_table` builds every
S_D with Max(D) <= max_t in one pass over the constant levels
(:func:`truncation_numerators`) and compares rows on these integers;
:func:`gamma` builds one D's terms and Fraction value, and is the table's
oracle in the tests.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import DSet
from .constants import (
    ConstantCache,
    a_const,
    build_a_constants,
    c_const,
)


def ratio_str(n: int, d: int, places: int = 5) -> str:
    """n/d (d > 0) in fixed point with ``places`` decimals, rounded half to
    even with exact integers; a negative n keeps its '-' even when the
    rounded digits are all 0."""
    q, r = divmod(abs(n) * 10**places, d)
    if 2 * r > d or 2 * r == d and q & 1:
        q += 1
    sign = "-" if n < 0 else ""
    if not places:
        return f"{sign}{q}"
    digits = str(q).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def decimal_str(x: Fraction | int, places: int = 5) -> str:
    """Fixed-point rendering, round-half-even; presentation only."""
    x = Fraction(x)
    return ratio_str(x.numerator, x.denominator, places)


def tail_bound(depth: int) -> Fraction:
    """sum_{k > depth} 3^(k-1) 4^(-k), the universal series tail."""
    return Fraction(3, 4) ** depth


def a_constant(l: int) -> Fraction:
    """a_l = (2/3) 4^(-l) - 3 * 2^l / 4^(2l+1); positive for l >= 1."""
    return Fraction(2, 3) / 4**l - Fraction(3 * 2**l, 4 ** (2 * l + 1))


@functools.cache
def gamma_lower_bound(t: int) -> Fraction:
    """a_t / 2^(t+1), a certified lower bound for gamma_D when t = Max(D) >= 1.

    For D = ∅ the formula extends to a_0 / 2 = -1/24, which is vacuous
    (gamma_∅ needs no such bound; its truncation interval is already
    positive at practical depths).  Callers rendering reports should treat
    the nonpositive value as "no structural bound".
    """
    return a_constant(t) / 2 ** (t + 1)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __str__(self) -> str:
        return f"[{decimal_str(self.lo)}, {decimal_str(self.hi)}]"


@dataclass(frozen=True)
class GammaEstimate:
    """Depth-N truncation of the gamma_D series with its certified interval."""

    d: DSet
    depth: int
    value: Fraction
    tail: Fraction
    a_d: int
    terms: tuple[tuple[int, int], ...]  # (k, A_{D∪{k}}) for k = t+1 .. depth

    @cached_property
    def interval(self) -> Interval:
        """Raw series enclosure [value - (3/4)^N, value]."""
        return Interval(self.value - self.tail, self.value)

    @cached_property
    def refined_interval(self) -> Interval:
        """Series enclosure intersected with the structural facts.

        gamma_D is a limit of densities, hence >= 0, and >= a_t/2^(t+1)
        for t >= 1.  If the resulting interval were empty the constants
        would contradict the lower-bound theorem, so that is an error.
        """
        lo = max(self.value - self.tail, Fraction(0))
        t = self.d.max_element
        if t >= 1:
            lo = max(lo, gamma_lower_bound(t))
        return Interval(lo, self.value)


def gamma(d: DSet, depth: int, cache: ConstantCache | None = None) -> GammaEstimate:
    """Exact depth-``depth`` truncation of the gamma_D series."""
    t = d.max_element
    if depth < t:
        raise ValueError(f"depth {depth} is below Max(D) = {t}")
    if cache is None:
        cache = ConstantCache()  # local reuse across the k-loop's batches
    a_d = a_const(d, cache)
    scaled = a_d * 4 ** (depth - t)  # the truncation times 4^depth
    terms = []
    for k in range(t + 1, depth + 1):
        a_k = a_const(d.with_added(k), cache)
        terms.append((k, a_k))
        scaled -= a_k * 4 ** (depth - k)
    value = Fraction(scaled, 4**depth)
    return GammaEstimate(d, depth, value, tail_bound(depth), a_d, tuple(terms))


@dataclass(frozen=True)
class AlphaEstimate:
    """alpha_n as an exact sum of gamma estimates sharing one tail bound."""

    n: int
    depth: int
    value: Fraction
    tail: Fraction
    terms: tuple[GammaEstimate, ...]

    @property
    def interval(self) -> Interval:
        return Interval(self.value - self.tail, self.value)


def alpha_limit(
    n: int,
    depth: int,
    cache: ConstantCache | None = None,
) -> AlphaEstimate:
    """alpha_n = sum of gamma_{D∪{n}} over D ⊆ [1, n-1]; alpha_{-1} = gamma_∅.

    The 2^(n-1) summands have pairwise distinct index sets, so the combined
    tail is (3/4)^depth (see module docstring), far below the worst-case
    2^(n-1) (3/4)^depth from summing the one-term bounds.
    """
    if n == 0 or n < -1:
        raise ValueError(f"R(S) takes values -1, 1, 2, ...; got {n}")
    if cache is None:
        cache = ConstantCache()
    if n == -1:
        parts = [gamma(DSet(), depth, cache)]
    else:
        if depth < n:
            raise ValueError(f"depth {depth} is below n = {n}")
        parts = [
            gamma(DSet.from_mask(m | (1 << (n - 1))), depth, cache)
            for m in range(1 << (n - 1))
        ]
    value = sum((p.value for p in parts), Fraction(0))
    return AlphaEstimate(n, depth, value, tail_bound(depth), tuple(parts))


def alpha_partial_sum(
    n_max: int,
    depth: int,
    cache: ConstantCache | None = None,
) -> Interval:
    """Certified interval for sum_{n=-1}^{n_max} alpha_n.

    The sum equals sum of gamma_D over all D ⊆ [1, n_max]; distinct D give
    distinct tail sets, so the combined tail is again (3/4)^depth.  The
    truncated value telescopes exactly to

        1 - sum_{k=n_max+1}^{depth} (sum_{E: Max(E)=k, E∖{k} ⊆ [1,n_max]} A_E) 4^(-k),

    which both proves value <= 1 and is recomputed here as a bug trap.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0 (n = -1 is always included)")
    if depth < n_max:
        raise ValueError(f"depth {depth} is below n_max = {n_max}")
    if cache is None:
        cache = ConstantCache()
    scaled = truncation_numerators(n_max, depth, cache)
    value = Fraction(sum(scaled), 4**depth)

    check = Fraction(1)
    for k in range(n_max + 1, depth + 1):
        sigma = sum(
            a_const(DSet.from_mask(m | (1 << (k - 1))), cache)
            for m in range(1 << n_max)
        )
        check -= Fraction(sigma, 4**k)
    if value != check:
        raise AssertionError(
            f"partial alpha sum {value} != telescoped form {check}"
        )
    return Interval(value - tail_bound(depth), value)


def g_l_limit(l: int, depth: int, cache: ConstantCache | None = None) -> Interval:
    """Certified interval for lim_f |G_l(f)| / 2^(f-1).

    The limit is 2^(-l) - sum_{k<=l} C_{l,k} 2^(-l-k) - sum_{k>l} C_{l,k} 4^(-k);
    truncating the second sum at ``depth`` overshoots by at most
    sum_{k>depth} 2^l 3^(k-2l-1) 4^(-k) = 2^l 3^(-2l) (3/4)^depth.  The lower
    end always dominates a_l: at depth 2l+1 it equals a_l + (1/3) 4^(-2l-1),
    and each further term removes at most what the tail bound releases.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if depth < 2 * l + 1:
        raise ValueError(f"depth {depth} is below 2l+1 = {2 * l + 1}")
    if cache is None:
        cache = ConstantCache()
    value = Fraction(1, 2**l)
    for k in range(1, l + 1):
        value -= Fraction(c_const(l, k, cache), 2 ** (l + k))
    for k in range(l + 1, depth + 1):
        value -= Fraction(c_const(l, k, cache), 4**k)
    tail = Fraction(2**l, 3 ** (2 * l)) * tail_bound(depth)
    out = Interval(value - tail, value)
    if out.lo < a_constant(l):
        raise AssertionError(
            f"G_{l} interval lower end {out.lo} fell below a_{l}"
        )
    return out


def truncation_numerators(
    max_t: int,
    depth: int,
    cache: ConstantCache | None = None,
) -> list[int]:
    """S_D = 4^depth times the depth-``depth`` truncation of gamma_D, for
    every D with Max(D) <= max_t, indexed by D.mask.

    Sweeps the levels 1..depth that ``cache`` lacks, then reads each level
    once: level t adds A_D 4^(depth-t) to the rows with Max(D) = t and takes
    A_{D∪{t}} 4^(depth-t), entry D.mask of the level, from each row with
    Max(D) < t.  ``tolist`` gives Python ints, from int64 and object levels
    alike.
    """
    if not 0 <= max_t <= depth:
        raise ValueError(f"max_t must lie in [0, depth]; got {max_t}, depth {depth}")
    cache = build_a_constants(depth, cache)
    size = 1 << max_t
    scaled = [4**depth] + [0] * (size - 1)  # A_∅ = 1 at t = 0
    for t in range(1, depth + 1):
        low, weight = 1 << (t - 1), 4 ** (depth - t)
        terms = [a * weight for a in cache.levels[t][: min(low, size)].tolist()]
        scaled[: len(terms)] = [s - a for s, a in zip(scaled, terms)]
        if t <= max_t:  # rows [low, 2 low) have Max(D) = t, untouched so far
            scaled[low : 2 * low] = terms
    return scaled


@dataclass(frozen=True)
class GammaTable:
    """All gamma_D with Max(D) <= max_t at one depth, on the grid
    q = 4^depth: row i is D.mask ``rows[i]`` with truncation
    ``numerators[i]`` / q.  Rows run by descending value, then by
    ascending elements."""

    max_t: int
    depth: int
    rows: tuple[int, ...]
    numerators: tuple[int, ...]

    @cached_property
    def bounds(self) -> list[int]:
        """ceil(q a_t / 2^(t+1)) for t = 0..max_t: a row's S meets the
        structural bound exactly when S >= bounds[Max(D)].  Nonpositive,
        so never binding, at t = 0 (see :func:`gamma_lower_bound`)."""
        q = 4**self.depth
        return [
            -(-b.numerator * q // b.denominator)
            for b in map(gamma_lower_bound, range(self.max_t + 1))
        ]

    @cached_property
    def refined_lows(self) -> list[int]:
        """Each row's refined lower end, rounded up to the grid:
        max(S - 3^depth, 0, bounds[t]).  The raw end and 0 are on the grid
        already; the bound is not, and H < lo q exactly when H < ceil(lo q)
        for an integer H.  A lower end above its row's S would contradict
        the lower-bound theorem, so that is a ValueError naming D."""
        tail, bounds, lows = 3**self.depth, self.bounds, []
        for mask, s in zip(self.rows, self.numerators):
            lo = max(s - tail, 0, bounds[mask.bit_length()])
            if lo > s:
                raise ValueError(
                    f"empty refined interval for D = {DSet.from_mask(mask).key}: "
                    f"lower end {lo} above upper end {s} over 4^{self.depth}"
                )
            lows.append(lo)
        return lows

    def distinctness_counts(self) -> tuple[int, int]:
        """(conclusively distinct pairs, inconclusive pairs).

        A pair is inconclusive when its refined intervals intersect: this
        depth cannot separate the two limits.  Disjoint intervals are
        numerical evidence that distinct D give distinct gamma_D.  Two
        intervals are disjoint exactly when one ends strictly below the
        other's start, so the disjoint pairs are the ordered pairs (i, j)
        with hi_i < lo_j, counted by bisecting the sorted upper ends.

        With q = 4^depth every upper end is S_i / q, so the upper ends sort
        as the integers S_i, the numerators in reverse row order, and
        hi_i < lo_j exactly when S_i is below the integer
        :attr:`refined_lows` [j].
        """
        his = self.numerators[::-1]
        distinct = sum(bisect_left(his, lo) for lo in self.refined_lows)
        n = len(self.rows)
        return distinct, n * (n - 1) // 2 - distinct


def gamma_table(
    max_t: int,
    depth: int,
    cache: ConstantCache | None = None,
) -> GammaTable:
    """Every gamma_D with Max(D) <= max_t from one
    :func:`truncation_numerators` pass, sorted as :class:`GammaTable` says."""
    scaled = truncation_numerators(max_t, depth, cache)
    # the D within [e, max_t] by ascending elements, for e = max_t+1 down to 1:
    # ∅, then those holding e, then the rest
    order = [0]
    for e in range(max_t, 0, -1):
        bit = 1 << (e - 1)
        order = [0, *(bit | m for m in order), *order[1:]]
    # stable, reverse=True included: equal values keep the element order
    rows = sorted(order, key=scaled.__getitem__, reverse=True)
    return GammaTable(max_t, depth, tuple(rows), tuple(scaled[m] for m in rows))
