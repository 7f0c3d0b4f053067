"""Limit densities as exact truncated series with certified error intervals.

The limit density of the family N(D, .) is

    gamma_D = A_D 4^(-t) - sum_{k > t} A_{D∪{k}} 4^(-k),      t = Max(D),

whose depth-N truncation is an integer S_D over the grid q = 4^N.  All
arithmetic here is exact, over integers and ``fractions.Fraction``; the
decimals are rounded from exact ratios.  :func:`enclosure`, whose docstring
holds the proof, turns the S_D of pairwise distinct D into the certified
enclosure of their sum; no other production code forms the gamma tail
(the oracle :func:`gamma` keeps its own, :func:`tail_bound`).
:func:`refined_lo` sharpens one D's enclosure with gamma_D >= 0 and
gamma_D >= a_t / 2^(t+1) > 0 for t >= 1, with
a_l = (2/3) 4^(-l) - 3 * 2^l / 4^(2l+1).  Only that bound falls off the
grid; it depends on t alone, and an integer S meets it on the grid exactly
when S >= ceil(q a_t / 2^(t+1)), so the refined lower end stays an integer
on the grid.

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
from typing import Iterable, NamedTuple

from .core import DSet
from .constants import ConstantCache, a_const, a_levels, c_consts


def ratio_str(n: int, d: int) -> str:
    """n/d (d > 0) in fixed point with 5 decimals, rounded half to even
    with exact integers; a negative n keeps its '-' even when the rounded
    digits are all 0."""
    q, r = divmod(abs(n) * 10**5, d)
    if 2 * r > d or 2 * r == d and q & 1:
        q += 1
    sign = "-" if n < 0 else ""
    digits = str(q).rjust(6, "0")
    return f"{sign}{digits[:-5]}.{digits[-5:]}"


def decimal_str(x: Fraction | int) -> str:
    """Fixed-point rendering, round-half-even; presentation only."""
    return ratio_str(x.numerator, x.denominator)


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


def enclosure(numerators: Iterable[int], depth: int) -> tuple[int, int]:
    """(lo, hi) with the sum of gamma_D in [lo, hi] / 4^depth, for
    ``numerators`` the S_D of pairwise distinct D at depth N = ``depth``:
    hi is their sum and lo is hi - 3^N.  Every series interval certified
    here starts from this one.

    Past its head each series subtracts nonnegative terms, so a truncation
    is an upper bound that overshoots by its tail sum_{k > N} A_{D∪{k}} 4^(-k).
    Distinct D give distinct tail sets D∪{k}, each with window maximum k,
    and sum over Max(E)=k of A_E = 3^(k-1), the sets T at f = 2k+1 with k+1
    in A(T) (proof in :mod:`nsdensity.constants`).  So the tails of the
    family sum to at most sum_{k > N} 3^(k-1) 4^(-k) = (3/4)^N = 3^N / 4^N:
    one tail for the family, however many D it holds (alpha_n: 2^(n-1)).
    A single D is the case A_E <= 3^(Max(E)-1).
    """
    hi = sum(numerators)
    return hi - 3**depth, hi


@functools.cache
def _ceil_on_grid(n: int, d: int, depth: int) -> int:
    """ceil(4^depth n/d) for d > 0; :func:`refined_lo` passes the bound
    of one t, so it is computed once per (t, depth)."""
    return -(-n * 4**depth // d)


def refined_lo(mask: int, s: int, depth: int) -> int:
    """The refined lower end of gamma_D on the grid q = 4^depth, D.mask =
    ``mask``, t = Max(D): max(lo, 0, B_t), where [lo, S] is the
    :func:`enclosure` of its truncation S = ``s`` and B_t =
    ceil(q a_t/2^(t+1)), the least integer on or above the bound; a
    ValueError naming D when S < B_t, which leaves the refined interval
    empty.  B_t lies above max(lo, 0) exactly when the bound, which is off
    the grid, is the refined lower end."""
    bound = gamma_lower_bound(mask.bit_length())
    b = _ceil_on_grid(bound.numerator, bound.denominator, depth)
    if s < b:
        raise ValueError(
            f"empty refined interval for D = {DSet(mask).key}: "
            f"lower end {bound} above upper end {s}/4^{depth}"
        )
    return max(enclosure((s,), depth)[0], 0, b)


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

    The 2^(n-1) summands have pairwise distinct index sets, so their
    :func:`enclosure` certifies alpha_n with one tail, not 2^(n-1).
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
    sum_{k>depth} 2^l 3^(k-2l-1) 4^(-k) = 2^l 3^(-2l) (3/4)^depth.

    The lower end dominates a_l at every depth.  At depth 2l+1, where every
    C is 1, the value is (2/3) 4^(-l) + (1/3) 4^(-2l-1), so the lower end
    is a_l + (1/3) 4^(-2l-1).  From depth N to N+1 the value drops by
    C_{l,N+1} 4^(-N-1) <= 2^l 3^(N-2l) 4^(-N-1), and the tail bound drops
    by 2^l 3^(N-2l) 4^(-N) - 2^l 3^(N+1-2l) 4^(-N-1), the same amount; so
    the lower end never falls.  That takes only the C bound, which
    :meth:`ConstantCache.set_c` enforces on every C a cache takes.
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
    return GLimit(hi - 2**l * 3 ** (depth - 2 * l), hi, c)


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
    ``tolist`` gives Python ints, so the sums are exact past int64.
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
    def refined_lows(self) -> list[int]:
        """Each row's :func:`refined_lo`, an integer on the grid: an
        integer H is below the refined lower end exactly when it is below
        this one.  A ValueError names the first D whose refined interval
        is empty."""
        return [refined_lo(m, s, self.depth) for m, s in zip(self.rows, self.numerators)]

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
