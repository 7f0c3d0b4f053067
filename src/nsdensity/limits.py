"""Limit densities as exact truncated series with certified error intervals.

The limit density of the family N(D, .) is

    gamma_D = A_D 4^(-t) - sum_{k > t} A_{D∪{k}} 4^(-k),      t = Max(D),

a series of nonnegative dyadic terms, so a depth-N truncation is an upper
bound and overshoots by at most sum_{k > N} 3^(k-1) 4^(-k) = (3/4)^N (using
A_E <= 3^(Max(E)-1)).  All arithmetic here is exact, over integers and
``fractions.Fraction``; the decimals are rounded from exact ratios.

Two certified facts sharpen the raw enclosure [value - (3/4)^N, value]:

  * gamma_D >= a_t / 2^(t+1) > 0 for t >= 1, with
    a_l = (2/3) 4^(-l) - 3 * 2^l / 4^(2l+1);
  * the constants with a common window maximum sum exactly:
    sum over Max(E)=k of A_E = 3^(k-1), the sets T at f = 2k+1 with k+1 in
    A(T) (proof in :mod:`nsdensity.constants`).

The second fact makes tails of *sums* of gamma series collapse: distinct D
contribute distinct tail sets D∪{k}, so any family of gamma estimates with
pairwise distinct D has combined tail at most sum_{k>N} 3^(k-1) 4^(-k) =
(3/4)^N, not a per-term multiple of it.  alpha_n uses this.

On the grid q = 4^N the whole certificate is integer.  The truncation is
S_D / q with S_D = A_D 4^(N-t) - sum_{k=t+1}^N A_{D∪{k}} 4^(N-k) an
integer, and the tail (3/4)^N is 3^N / q, so the raw enclosure is
[(S_D - 3^N) / q, S_D / q].  Only the structural bound a_t / 2^(t+1) falls
off the grid; it depends on t alone, and an integer S meets it on the grid
exactly when S >= ceil(q a_t / 2^(t+1)).

:func:`truncation_numerators`, the one production route, builds S_D for a
range of D masks in one pass over the levels: all D with Max(D) <= max_t
for :func:`gamma_table`, the summands of alpha_n for :func:`alpha_limit`,
or one D.  :func:`g_l_limit` sums its C terms on the same grid.
:func:`gamma`, one ``a_const`` and one Fraction per term, is its oracle in
``verify`` and the tests.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .core import DSet
from .constants import ConstantCache, a_const, a_levels, c_consts


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
    At t = 0 it is a_0 / 2 = -1/24, which binds nothing: reports state no
    structural bound for D = ∅."""
    return a_constant(t) / 2 ** (t + 1)


def refined_lo(mask: int, s: int, depth: int) -> Fraction:
    """The refined lower end max((S - 3^depth)/q, 0, a_t/2^(t+1)) of gamma_D,
    D.mask = ``mask``, t = Max(D), from its truncation S/q, q = 4^depth; a
    ValueError naming D when it lies above S/q."""
    q, bound = 4**depth, gamma_lower_bound(mask.bit_length())
    raw = max(s - 3**depth, 0)
    if raw * bound.denominator >= bound.numerator * q:  # raw / q >= bound
        return Fraction(raw, q)
    if s * bound.denominator < bound.numerator * q:
        raise ValueError(
            f"empty refined interval for D = {DSet(mask).key}: "
            f"lower end {bound} above upper end {s}/4^{depth}"
        )
    return bound


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def on_grid(cls, lo: int, hi: int, depth: int) -> "Interval":
        """[lo / 4^depth, hi / 4^depth]."""
        q = 4**depth
        return cls(Fraction(lo, q), Fraction(hi, q))

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
        """Series enclosure intersected with gamma_D >= 0 and, for t >= 1,
        gamma_D >= a_t/2^(t+1); an empty one refutes the constants."""
        lo = max(self.value - self.tail, Fraction(0))
        t = self.d.max_element
        if t >= 1:
            lo = max(lo, gamma_lower_bound(t))
        return Interval(lo, self.value)


def gamma(d: DSet, depth: int, cache: ConstantCache | None = None) -> GammaEstimate:
    """Exact depth-``depth`` truncation of the gamma_D series, one ``a_const``
    per term: the oracle of :func:`truncation_numerators`."""
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


def alpha_masks(n: int) -> range:
    """The masks of alpha_n's summands gamma_{D∪{n}}, D ⊆ [1, n-1], or of
    gamma_∅ alone for n = -1."""
    if n == 0 or n < -1:
        raise ValueError(f"R(S) takes values -1, 1, 2, ...; got {n}")
    return range(1) if n == -1 else range(1 << (n - 1), 1 << n)


def alpha_limit(
    n: int,
    depth: int,
    cache: ConstantCache | None = None,
) -> list[int]:
    """S_D of alpha_n's summands, in :func:`alpha_masks` order.

    The 2^(n-1) summands have pairwise distinct index sets, so their sum S
    carries one tail (module docstring), not 2^(n-1): alpha_n lies in
    [(S - 3^depth) / 4^depth, S / 4^depth].
    """
    masks = alpha_masks(n)
    return truncation_numerators(masks.start, masks.stop, depth, cache)


class GLimit(NamedTuple):
    """The limit lies in [lo, hi] / 4^depth; c[k-1] = C_{l,k}, k <= depth."""

    lo: int
    hi: int
    c: tuple[int, ...]


def g_l_limit(l: int, depth: int, cache: ConstantCache | None = None) -> GLimit:
    """Certified interval for lim_f |G_l(f)| / 2^(f-1).

    The limit is 2^(-l) - sum_{k<=l} C_{l,k} 2^(-l-k) - sum_{k>l} C_{l,k} 4^(-k);
    truncating the second sum at ``depth`` overshoots by at most
    sum_{k>depth} 2^l 3^(k-2l-1) 4^(-k) = 2^l 3^(-2l) (3/4)^depth.  The lower
    end always dominates a_l: at depth 2l+1 it equals a_l + (1/3) 4^(-2l-1),
    and each further term removes at most what the tail bound releases.
    Over q = 4^depth every term and the tail 2^l 3^(depth-2l) are integers.
    The C_{l,k} ``cache`` lacks come from one table (:func:`c_consts`).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if depth < 2 * l + 1:
        raise ValueError(f"depth {depth} is below 2l+1 = {2 * l + 1}")
    c = c_consts(l, depth, cache)
    hi = (1 << (2 * depth - l)) - sum(
        ck << (2 * depth - l - k) if k <= l else ck * 4 ** (depth - k)
        for k, ck in enumerate(c, 1)
    )
    lo, a_l = hi - 2**l * 3 ** (depth - 2 * l), a_constant(l)
    if lo * a_l.denominator < a_l.numerator * 4**depth:
        raise AssertionError(
            f"G_{l} interval lower end {Fraction(lo, 4**depth)} fell below a_{l}"
        )
    return GLimit(lo, hi, c)


def truncation_numerators(
    lo: int,
    hi: int,
    depth: int,
    cache: ConstantCache | None = None,
) -> list[int]:
    """S_D = 4^depth times the depth-``depth`` truncation of gamma_D, for
    the D with lo <= D.mask < hi, in mask order.

    Every such D has Max(D) >= Max(lo), so the levels Max(lo)..depth that
    ``cache`` lacks are swept, all from one table (:func:`a_levels`), then
    each is read once by slicing:
    level t sets the rows with Max(D) = t to A_D 4^(depth-t) and takes
    A_{D∪{t}} 4^(depth-t), entry D.mask, from each row with Max(D) < t.
    ``tolist`` gives Python ints, from int64 and object levels alike.
    """
    if not 0 <= lo < hi <= 1 << depth:
        raise ValueError(
            f"mask range [{lo}, {hi}) must lie in [0, 2^{depth}) at depth {depth}"
        )
    if cache is None:
        cache = ConstantCache()
    first = max(lo.bit_length(), 1)
    a_levels(first, depth, cache)
    scaled = [0] * (hi - lo)
    if lo == 0:
        scaled[0] = 4**depth  # A_∅ = 1 at t = 0
    for t in range(first, depth + 1):
        low, weight, level = 1 << (t - 1), 4 ** (depth - t), cache.levels[t]
        below = min(hi, low) - lo  # rows with Max(D) < t
        if below > 0:
            terms = level[lo : lo + below].tolist()
            scaled[:below] = [s - a * weight for s, a in zip(scaled, terms)]
        start, stop = max(lo, low), min(hi, 2 * low)  # rows with Max(D) = t
        if start < stop:
            terms = level[start - low : stop - low].tolist()
            scaled[start - lo : stop - lo] = [a * weight for a in terms]
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
    def refined(self) -> list[Fraction]:
        """Each row's :func:`refined_lo`; a ValueError names the first D
        whose refined interval is empty."""
        return [refined_lo(m, s, self.depth) for m, s in zip(self.rows, self.numerators)]

    @cached_property
    def refined_lows(self) -> list[int]:
        """Each row's refined lower end rounded up to the grid: an integer
        H is below lo q exactly when it is below ceil(lo q)."""
        q = 4**self.depth
        return [-(-lo.numerator * q // lo.denominator) for lo in self.refined]

    def distinctness_counts(self) -> tuple[int, int]:
        """(conclusively distinct pairs, inconclusive pairs).

        A pair is inconclusive when its refined intervals intersect: this
        depth cannot separate the two limits.  Disjoint intervals are
        numerical evidence that distinct D give distinct gamma_D.  Two
        intervals are disjoint exactly when one ends strictly below the
        other's start: hi_i < lo_j.  Every upper end is S_i / q, so the
        upper ends sort as the numerators in reverse row order, and
        hi_i < lo_j exactly when S_i < :attr:`refined_lows` [j]; bisecting
        counts these pairs.
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
    if max_t < 0:
        raise ValueError(f"max_t must be >= 0; got {max_t}")
    scaled = truncation_numerators(0, 1 << max_t, depth, cache)
    # the D within [e, max_t] by ascending elements, for e = max_t+1 down to 1:
    # ∅, then those holding e, then the rest
    order = [0]
    for e in range(max_t, 0, -1):
        bit = 1 << (e - 1)
        order = [0, *(bit | m for m in order), *order[1:]]
    # stable, reverse=True included: equal values keep the element order
    rows = sorted(order, key=scaled.__getitem__, reverse=True)
    return GammaTable(max_t, depth, tuple(rows), tuple(scaled[m] for m in rows))
