"""Independent oracle for the benchmark's output checks.

Nothing here imports ``nsdensity`` or numpy: every value the benchmark
compares against is recomputed from the definitions, from the cache text,
or taken from published sources.

* A(T) by the definitional pairwise scan: s is in A(T) iff x + s is in T
  for every x in T.
* A_D and C_{l,k} at small levels by brute force over every numerical set
  at the relevant Frobenius number.
* Its own parser for the ``A|<D>|<int>`` / ``C|<l>,<k>|<int>`` cache text.
* The truncated gamma_D series, the a_t / 2^(t+1) positivity bound, the
  G_l series and a pairwise distinctness count, all over Fraction.
* Published values: the 28 reference densities (band +/- 0.00212), the
  Monte-Carlo estimate of gamma_∅ and OEIS A124506.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

# Published five-decimal values of the 28 largest limit densities gamma_D,
# with their stated error band.
REFERENCE_BAND = Fraction("0.00212")
REFERENCE_DENSITIES = {
    "∅": "0.48660", "1": "0.09476", "2": "0.06079", "3": "0.02538",
    "1,3": "0.02035", "4": "0.01793", "1,2": "0.01683", "2,3": "0.01205",
    "1,4": "0.01184", "5": "0.01017", "6": "0.00700", "3,4": "0.00443",
    "7": "0.00435", "2,5": "0.00400", "1,3,5": "0.00332", "1,2,5": "0.00280",
    "8": "0.00269", "1,2,4": "0.00228", "1,5": "0.00200", "2,4": "0.00191",
    "1,6": "0.00186", "2,6": "0.00174", "1,2,3": "0.00152", "4,5": "0.00132",
    "9": "0.00131", "2,3,4": "0.00106", "1,2,6": "0.00091", "1,3,4": "0.00068",
}

# Marzuola and Miller, "Counting numerical sets with no small atoms":
# Monte-Carlo estimate of gamma_∅.
EMPTY_MC = (Fraction("0.484451"), Fraction("0.005011"))

# OEIS A124506: number of numerical semigroups with Frobenius number f,
# f = 1, 2, ...
A124506 = (
    1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40, 106, 103, 200, 205, 465, 405,
    961, 900, 1828, 1913, 4096, 3578,
)


# ---------------------------------------------------------------------------
# D-sets and numerical sets


def parse_key(text: str) -> tuple[int, ...]:
    """'1,3' -> (1, 3); '∅' or '' -> ()."""
    text = text.strip()
    if text in ("", "∅"):
        return ()
    return tuple(int(p) for p in text.split(","))


def key_of(d: tuple[int, ...]) -> str:
    return ",".join(map(str, d)) if d else "∅"


def associated(members: frozenset[int], f: int) -> frozenset[int]:
    """Small elements (1..f) of A(T) for T = {0} ∪ members ∪ (f, ∞).

    Definitional pairwise scan: s is in A(T) iff no x in T with x + s <= f
    has x + s outside T.  Sums above f land in T automatically.
    """
    t_small = {0} | members
    out = set()
    for s in range(1, f + 1):
        if all(x + s in t_small for x in t_small if x + s <= f):
            out.add(s)
    return frozenset(out)


def window(members: frozenset[int], f: int, width: int) -> tuple[int, ...]:
    """{y in [1, width] : f - y in A(T)}, ascending."""
    a = associated(members, f)
    return tuple(y for y in range(1, width + 1) if f - y in a)


def subsets(lo: int, hi: int):
    """Every subset of [lo, hi] as a frozenset."""
    span = list(range(lo, hi + 1))
    for mask in range(1 << len(span)):
        yield frozenset(x for i, x in enumerate(span) if mask >> i & 1)


def brute_a_level(t: int) -> dict[tuple[int, ...], int]:
    """A_D for every D with Max(D) = t: the sets T at f = 2t+1 whose
    width-t window of A(T) is exactly D."""
    f = 2 * t + 1
    out: dict[tuple[int, ...], int] = {}
    for members in subsets(1, f - 1):
        d = window(members, f, t)
        if d and d[-1] == t:
            out[d] = out.get(d, 0) + 1
    return out


def brute_c(l: int, k: int) -> int:
    """C_{l,k}: sets avoiding [1, l] at f = max(2k+1, l+k+1) whose width-k
    window of A(T) is exactly {k}."""
    f = max(2 * k + 1, l + k + 1)
    return sum(
        1 for members in subsets(l + 1, f - 1) if window(members, f, k) == (k,)
    )


def semigroup_members(d: tuple[int, ...], f: int) -> frozenset[int]:
    """Small elements of N(D, f) = {0} ∪ {f - l : l in D} ∪ (f, ∞)."""
    return frozenset(f - x for x in d)


def is_closed(members: frozenset[int], f: int) -> bool:
    """True iff {0} ∪ members ∪ (f, ∞) is closed under addition."""
    return all(
        x + y > f or x + y in members for x in members for y in members
    )


def brute_density_table(f: int) -> list[tuple[tuple[int, ...], int]]:
    """(D, P) for every semigroup with Frobenius number f, by pushing all
    2^(f-1) numerical sets through the pairwise-scan A; sorted by
    descending P, ties by ascending membership mask."""
    counts: dict[frozenset[int], int] = {}
    for members in subsets(1, f - 1):
        a = associated(members, f) - {f}
        counts[a] = counts.get(a, 0) + 1
    rows = []
    for a, p in counts.items():
        mask = sum(1 << (s - 1) for s in a)
        rows.append((-p, mask, tuple(sorted(f - s for s in a)), p))
    rows.sort()
    return [(d, p) for _, _, d, p in rows]


# ---------------------------------------------------------------------------
# the cache text


class CacheText:
    """Constants read from cache text by this module's own parser."""

    def __init__(self, text: str):
        self.a: dict[tuple[int, ...], int] = {}
        self.c: dict[tuple[int, int], int] = {}
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line or line.startswith("#"):
                continue
            kind, key, value = line.split("|")
            if kind == "A":
                self.a[parse_key(key)] = int(value)
            elif kind == "C":
                l, k = key.split(",")
                self.c[(int(l), int(k))] = int(value)
            else:
                raise ValueError(f"line {lineno}: unknown record {line!r}")

    def levels(self) -> dict[int, dict[tuple[int, ...], int]]:
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for d, v in self.a.items():
            out.setdefault(d[-1], {})[d] = v
        return out

    def a_const(self, d: tuple[int, ...]) -> int:
        return 1 if not d else self.a[d]


def level_errors(cache: CacheText, brute: dict[int, dict]) -> list[str]:
    """Each stored level is complete, within [0, 3^(t-1)], sums exactly to
    3^(t-1), and equals the brute-force constants where those exist."""
    errors = []
    for t, entries in sorted(cache.levels().items()):
        if len(entries) != 1 << (t - 1):
            errors.append(f"level {t}: {len(entries)} of {1 << (t - 1)} entries")
        if any(not 0 <= v <= 3 ** (t - 1) for v in entries.values()):
            errors.append(f"level {t}: a constant outside [0, 3^{t - 1}]")
        if sum(entries.values()) != 3 ** (t - 1):
            errors.append(
                f"level {t}: sums to {sum(entries.values())}, not 3^{t - 1}"
            )
        if t in brute and entries != brute[t]:
            bad = sorted(d for d in brute[t] if entries.get(d) != brute[t][d])
            errors.append(
                f"level {t}: {len(bad)} constants differ from brute force, "
                f"first {key_of(bad[0]) if bad else '(extra keys)'}"
            )
    return errors


# ---------------------------------------------------------------------------
# series


def decimal5(x: Fraction) -> str:
    """Round half to even at five places, as a signed fixed-point string."""
    sign = "-" if x < 0 else ""
    n = abs(x) * 10**5
    q, r = divmod(n.numerator, n.denominator)
    twice = 2 * r
    if twice > n.denominator or (twice == n.denominator and q % 2):
        q += 1
    return f"{sign}{q // 10**5}.{q % 10**5:05d}"


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def positivity_bound(t: int) -> Fraction:
    """a_t / 2^(t+1) with a_l = (2/3) 4^(-l) - 3 * 2^l / 4^(2l+1)."""
    return a_l(t) / 2 ** (t + 1)


def a_l(l: int) -> Fraction:
    return Fraction(2, 3 * 4**l) - Fraction(3 * 2**l, 4 ** (2 * l + 1))


class Gamma:
    """Depth-N truncation of gamma_D = A_D 4^-t - sum_{k>t} A_{D∪{k}} 4^-k."""

    def __init__(self, d: tuple[int, ...], depth: int, cache: CacheText):
        self.d = d
        t = d[-1] if d else 0
        self.depth = depth
        self.a_d = cache.a_const(d)
        self.terms = [
            (k, cache.a_const(d + (k,))) for k in range(t + 1, depth + 1)
        ]
        self.value = Fraction(self.a_d, 4**t) - sum(
            (Fraction(a, 4**k) for k, a in self.terms), Fraction(0)
        )
        self.tail = Fraction(3, 4) ** depth
        self.lo = self.value - self.tail
        self.bound = positivity_bound(t) if t else None
        refined = max(self.lo, Fraction(0))
        if self.bound is not None:
            refined = max(refined, self.bound)
        self.refined_lo = refined

    def table_row(self) -> list[str]:
        """d, value_decimal, lo, hi, refined_lo, positivity_bound."""
        return [
            key_of(self.d), decimal5(self.value), decimal5(self.lo),
            decimal5(self.value), decimal5(self.refined_lo),
            decimal5(self.bound) if self.bound is not None else "",
        ]


def gamma_rows(max_t: int, depth: int, cache: CacheText) -> list[Gamma]:
    """Every D ⊆ [1, max_t], largest value first, ties by elements."""
    rows = [
        Gamma(tuple(sorted(s)), depth, cache) for s in subsets(1, max_t)
    ]
    rows.sort(key=lambda g: (-g.value, g.d))
    return rows


def distinct_pairs(intervals: list[tuple[Fraction, Fraction]]) -> int:
    """Pairs of closed intervals that are disjoint, in O(n log n)."""
    los = sorted(lo for lo, _ in intervals)
    # a pair is disjoint iff one interval's hi lies strictly below the
    # other's lo; at most one of the two orders can hold
    return sum(len(los) - bisect.bisect_right(los, hi) for _, hi in intervals)


def g_limit(l: int, depth: int, c: dict[tuple[int, int], int]) -> tuple[Fraction, Fraction]:
    """Certified interval for lim |G_l(f)| / 2^(f-1) from C_{l,k}.

    2^-l - sum_{k<=l} C 2^(-l-k) - sum_{l<k<=N} C 4^-k, with tail
    2^l 3^(-2l) (3/4)^N; C_{l,k} = 1 for k <= 2l+1.
    """
    def cc(k):
        return 1 if k <= 2 * l + 1 else c[(l, k)]

    value = Fraction(1, 2**l)
    value -= sum((Fraction(cc(k), 2 ** (l + k)) for k in range(1, l + 1)), Fraction(0))
    value -= sum((Fraction(cc(k), 4**k) for k in range(l + 1, depth + 1)), Fraction(0))
    tail = Fraction(2**l, 3 ** (2 * l)) * Fraction(3, 4) ** depth
    return value - tail, value


def band_meets(lo: Fraction, hi: Fraction, key: str) -> bool:
    """[lo, hi] meets the published reference band for D = key."""
    p = Fraction(REFERENCE_DENSITIES[key])
    return lo <= p + REFERENCE_BAND and p - REFERENCE_BAND <= hi


def empty_mc_meets(lo: Fraction, hi: Fraction) -> bool:
    p, err = EMPTY_MC
    return lo <= p + err and p - err <= hi
