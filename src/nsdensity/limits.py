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
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import DSet
from .constants import (
    ConstantCache,
    a_const,
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


def gamma(
    d: DSet,
    depth: int,
    cache: ConstantCache | None = None,
    *,
    workers: int = 1,
) -> GammaEstimate:
    """Exact depth-``depth`` truncation of the gamma_D series."""
    t = d.max_element
    if depth < t:
        raise ValueError(f"depth {depth} is below Max(D) = {t}")
    if cache is None:
        cache = ConstantCache()  # local reuse across the k-loop's batches
    a_d = a_const(d, cache, workers=workers)
    scaled = a_d * 4 ** (depth - t)  # the truncation times 4^depth
    terms = []
    for k in range(t + 1, depth + 1):
        a_k = a_const(d.with_added(k), cache, workers=workers)
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
    *,
    workers: int = 1,
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
        parts = [gamma(DSet(), depth, cache, workers=workers)]
    else:
        if depth < n:
            raise ValueError(f"depth {depth} is below n = {n}")
        parts = [
            gamma(
                DSet.from_mask(m | (1 << (n - 1))),
                depth,
                cache,
                workers=workers,
            )
            for m in range(1 << (n - 1))
        ]
    value = sum((p.value for p in parts), Fraction(0))
    return AlphaEstimate(n, depth, value, tail_bound(depth), tuple(parts))


def alpha_partial_sum(
    n_max: int,
    depth: int,
    cache: ConstantCache | None = None,
    *,
    workers: int = 1,
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
    value = Fraction(0)
    for m in range(1 << n_max):
        value += gamma(
            DSet.from_mask(m), depth, cache, workers=workers
        ).value

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


def g_l_limit(
    l: int,
    depth: int,
    cache: ConstantCache | None = None,
    *,
    workers: int = 1,
) -> Interval:
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
        value -= Fraction(
            c_const(l, k, cache, workers=workers), 2 ** (l + k)
        )
    for k in range(l + 1, depth + 1):
        value -= Fraction(
            c_const(l, k, cache, workers=workers), 4**k
        )
    tail = Fraction(2**l, 3 ** (2 * l)) * tail_bound(depth)
    out = Interval(value - tail, value)
    if out.lo < a_constant(l):
        raise AssertionError(
            f"G_{l} interval lower end {out.lo} fell below a_{l}"
        )
    return out


@dataclass(frozen=True)
class GammaTable:
    """All gamma_D estimates with Max(D) <= max_t, largest value first."""

    max_t: int
    depth: int
    rows: tuple[GammaEstimate, ...]

    def distinctness_counts(self) -> tuple[int, int]:
        """(conclusively distinct pairs, inconclusive pairs).

        A pair is inconclusive when its refined intervals intersect: this
        depth cannot separate the two limits.  Disjoint intervals are
        numerical evidence that distinct D give distinct gamma_D.  Two
        intervals are disjoint exactly when one ends strictly below the
        other's start, so the disjoint pairs are the ordered pairs (i, j)
        with hi_i < lo_j, counted by bisecting the sorted upper ends.

        Every hi is a multiple of 1/q, q the lcm of their denominators (q
        divides 4^depth for the gamma series), so the upper ends are sorted as the
        integers H_i = hi_i q.  For an integer H, H < lo q exactly when
        H < ceil(lo q), so each lo is bisected as that integer, whatever
        its denominator.
        """
        intervals = [row.refined_interval for row in self.rows]
        q = math.lcm(*(iv.hi.denominator for iv in intervals))
        his = sorted(iv.hi.numerator * (q // iv.hi.denominator) for iv in intervals)
        distinct = sum(
            bisect_left(his, -(-iv.lo.numerator * q // iv.lo.denominator))
            for iv in intervals
        )
        n = len(intervals)
        return distinct, n * (n - 1) // 2 - distinct


def gamma_table(
    max_t: int,
    depth: int,
    cache: ConstantCache | None = None,
    *,
    workers: int = 1,
) -> GammaTable:
    if max_t < 0:
        raise ValueError("max_t must be >= 0")
    if cache is None:
        cache = ConstantCache()
    rows = [
        gamma(DSet.from_mask(m), depth, cache, workers=workers)
        for m in range(1 << max_t)
    ]
    rows.sort(key=lambda g: (-g.value, g.d.elements))
    return GammaTable(max_t, depth, tuple(rows))
