"""Exact bitmask model of numerical sets, semigroups, and the associated map.

A numerical set T is a cofinite subset of the nonnegative integers with
0 in T.  Its Frobenius number f = f(T) is the largest missing integer, so T
is fully described by f together with the membership of 1..f-1.  We store
that membership as an integer bitmask (bit x-1 set  <=>  x in T), which
makes the associated-semigroup map a handful of shift-and-mask operations:

    s in A(T)  <=>  s + x in T for every x in T
               <=>  no x <= f - s with x in T and x + s not in T.

Everything here is an immutable value; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def _low_bits(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True, eq=False)
class NumericalSet:
    """A numerical set with Frobenius number ``f``.

    ``gaps_mask`` records membership on the undetermined range [1, f-1]:
    bit x-1 is set exactly when x is in the set.  0 is always a member,
    f never is, and every integer above f is a member.  ``f == 1`` with an
    empty mask is the minimal set {0, 2, 3, ...}.
    """

    f: int
    gaps_mask: int

    def __post_init__(self):
        if self.f < 1:
            raise ValueError(f"Frobenius number must be >= 1, got {self.f}")
        if not 0 <= self.gaps_mask < (1 << (self.f - 1)):
            raise ValueError(
                f"mask {self.gaps_mask:#x} out of range for f={self.f}"
            )

    # value equality across the Semigroup subclass
    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSet):
            return NotImplemented
        return self.f == other.f and self.gaps_mask == other.gaps_mask

    def __hash__(self) -> int:
        return hash((self.f, self.gaps_mask))

    @property
    def full_mask(self) -> int:
        """Membership bitmask over 0..f-1 (bit x <=> x in T); bit f is 0."""
        return (self.gaps_mask << 1) | 1

    def __contains__(self, x: int) -> bool:
        if x < 0 or x == self.f:
            return False
        if x == 0 or x > self.f:
            return True
        return bool(self.gaps_mask >> (x - 1) & 1)

    def small_members(self) -> tuple[int, ...]:
        """Members in [1, f-1], ascending."""
        m, out, x = self.gaps_mask, [], 1
        while m:
            if m & 1:
                out.append(x)
            m >>= 1
            x += 1
        return tuple(out)

    def __str__(self) -> str:
        body = "".join(f"{x}, " for x in self.small_members())
        return f"{{0, {body}{self.f + 1}->}}"


class Semigroup(NumericalSet):
    """A numerical set validated to be closed under addition."""

    def __post_init__(self):
        super().__post_init__()
        if not is_semigroup(self):
            raise ValueError(f"{self!s} is not closed under addition")


# bits of the element strings D keys are written with, one per position of
# a 64-bit word; other spellings go through int() and must land here too
_ELEMENT_BITS = {str(e): 1 << (e - 1) for e in range(1, 64)}


def parse_d_mask(text: str) -> int:
    """D.mask of a D key: '', '∅' or '{}', or strictly ascending integers
    in [1, 63] joined by commas.  The one parser of D text, for ``DSet.parse``,
    ``--d`` and cache files."""
    text = text.strip()
    if text in ("", "∅", "{}"):
        return 0
    mask = 0
    for p in text.split(","):
        bit = _ELEMENT_BITS.get(p)
        if bit is None:
            try:
                e = int(p)
            except ValueError:
                raise ValueError(f"cannot parse D-set from {text!r}") from None
            bit = _ELEMENT_BITS.get(str(e))
            if bit is None:
                raise ValueError(
                    f"elements must lie in [1, {len(_ELEMENT_BITS)}]: {text!r}"
                )
        if bit <= mask:  # at or below the largest element so far
            raise ValueError(f"elements must be strictly increasing: {text!r}")
        mask |= bit
    return mask


def d_mask_keys(depth: int, first: int = 1) -> list[str]:
    """The key of every D ⊆ [first, first+depth-1], indexed by
    D.mask >> (first-1), as :attr:`DSet.key` writes it except '' for the
    empty set.  Element e appends ",e" to every key below it, one
    concatenation per key."""
    keys = [""]
    for e in range(first, first + depth):
        tail = f",{e}"
        keys += [str(e), *[k + tail for k in keys[1:]]]
    return keys


def d_keys(masks: Iterable[int], width: int) -> list[str]:
    """:attr:`DSet.key` of each D.mask in ``masks``, all below 2^width.
    Each key is its low and high halves' keys, looked up in two tables of
    about 2^(width/2) keys and joined by ','."""
    half = width // 2
    low_bits = _low_bits(half)
    low, high = d_mask_keys(half), d_mask_keys(width - half, half + 1)
    keys = []
    for m in masks:
        a, b = low[m & low_bits], high[m >> half]
        keys.append(f"{a},{b}" if a and b else a or b or "∅")
    return keys


@dataclass(frozen=True)
class DSet:
    """A finite set of positive integers, stored as its bitmask: bit l-1
    is set exactly when l is in the set.

    Encodes the small-member pattern of a semigroup relative to its
    Frobenius number: S = {0} u {f - l : l in D} u {f+1, ...}.  The empty
    set is valid and its maximum is taken to be 0.
    """

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError(f"a D-set mask is nonnegative, got {self.mask}")

    @classmethod
    def of(cls, elements: Iterable[int]) -> "DSet":
        """Canonicalize an arbitrary iterable (any order, duplicates allowed)."""
        mask = 0
        for e in elements:
            if e < 1:
                raise ValueError(f"elements must be positive, got {e}")
            mask |= 1 << (e - 1)
        return cls(mask)

    @classmethod
    def parse(cls, text: str) -> "DSet":
        """Parse a D key (see :func:`parse_d_mask`)."""
        return cls(parse_d_mask(text))

    @property
    def elements(self) -> tuple[int, ...]:
        """The elements, ascending."""
        m, out = self.mask, []
        while m:
            low = m & -m
            out.append(low.bit_length())
            m ^= low
        return tuple(out)

    @property
    def max_element(self) -> int:
        return self.mask.bit_length()

    @property
    def key(self) -> str:
        """Canonical text form used in cache files and CLI output."""
        return ",".join(map(str, self.elements)) if self.mask else "∅"

    def with_added(self, k: int) -> "DSet":
        """The set together with one more element k (k must be new)."""
        bit = 1 << (k - 1)
        if self.mask & bit:
            raise ValueError(f"{k} already present in {self.key}")
        return DSet(self.mask | bit)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return self.key


def a_mask(f: int, gaps_mask: int) -> int:
    """Mask (same convention as gaps_mask) of A(T) = {s : s + T subset T}.

    For s in [1, f-1]: s is in A(T) iff no x <= f-s has x in T but
    x+s not in T.  Membership of 0 and of everything above f is automatic;
    f itself is never in A(T) because 0 is in T.
    """
    full = (gaps_mask << 1) | 1
    out = 0
    for s in range(1, f):
        if full & ~(full >> s) & _low_bits(f - s + 1) == 0:
            out |= 1 << (s - 1)
    return out


def associated_semigroup(T: NumericalSet) -> Semigroup:
    """The associated semigroup A(T); shares T's Frobenius number."""
    return Semigroup(T.f, a_mask(T.f, T.gaps_mask))


def associated_semigroup_definitional(T: NumericalSet) -> NumericalSet:
    """Reference implementation of A(T) by unoptimized membership scans.

    Checks every candidate s in [1, f] against every x in T with
    x + s <= f, one pair at a time.  Kept deliberately independent of the
    bitmask route so the two can be played against each other.
    """
    f = T.f
    members = set(T.small_members()) | {0}
    mask = 0
    for s in range(1, f + 1):
        ok = True
        for x in range(0, f - s + 1):
            if x in members and (x + s) not in members:
                ok = False
                break
        if ok:
            # s = f can never land here: x = 0 is in T while f is not
            mask |= 1 << (s - 1)
    return NumericalSet(f, mask)


def is_semigroup(T: NumericalSet) -> bool:
    """True iff T is closed under addition (sums beyond f are automatic)."""
    full = T.full_mask
    f = T.f
    for x in T.small_members():
        # bit y flags: y in T, y <= f - x, but x + y not in T
        if full & ~(full >> x) & _low_bits(f - x + 1):
            return False
    return True


def as_semigroup(T: NumericalSet) -> Semigroup:
    """Revalidate a numerical set as a semigroup."""
    return Semigroup(T.f, T.gaps_mask)


def n_of(D: DSet, f: int) -> NumericalSet:
    """The numerical set {0} u {f - l : l in D} u {f+1, ...}.

    Requires f > Max(D).  The result is guaranteed closed under addition
    when f > 2 Max(D); in the band Max(D) < f <= 2 Max(D) it is still a
    valid numerical set, but closure is not certified.
    """
    t = D.max_element
    if f <= t:
        raise ValueError(f"need f > Max(D) = {t}, got f = {f}")
    mask = 0
    for l in D:  # member f - l, in [f - t, f - 1]
        mask |= 1 << (f - l - 1)
    return NumericalSet(f, mask)


def d_of(S: Semigroup) -> DSet:
    """The unique D with S = N(D, f(S)): D = {f - s : s in S, 1 <= s <= f}."""
    f = S.f
    return DSet.of(f - s for s in S.small_members())


def multiplicity(S: Semigroup) -> int:
    """Least positive element of S (f+1 for the minimal semigroup)."""
    if S.gaps_mask == 0:
        return S.f + 1
    return (S.gaps_mask & -S.gaps_mask).bit_length()


def r_value(S: Semigroup) -> int:
    """f(S) - m(S); equals Max(D(S)), and -1 exactly for the minimal
    semigroup."""
    return S.f - multiplicity(S)


def suffix_pattern(S: NumericalSet, width: int) -> DSet:
    """The pattern {y in [1, width] : f - y in S} read off the top of the
    mask."""
    f = S.f
    if not 1 <= width <= f - 1:
        raise ValueError(f"width {width} outside [1, {f - 1}]")
    pattern = []
    for y in range(1, width + 1):
        if (S.gaps_mask >> (f - y - 1)) & 1:
            pattern.append(y)
    return DSet.of(pattern)


def fold(T: NumericalSet, window: int, f_target: int) -> NumericalSet:
    """Collapse T to Frobenius number f_target keeping a prefix block and a
    suffix block.

    The suffix block [f - window, f - 1] is translated down by
    f - f_target; the prefix block [1, f_target - window - 1] is kept in
    place; everything in between is dropped in favour of the minimal set.
    With window = t and f_target = 2t + 1 this is the symmetric fold; other
    choices give the asymmetric prefix/suffix splits.
    """
    f = T.f
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    prefix = f_target - window - 1
    if prefix < 0:
        raise ValueError(f"f_target {f_target} too small for window {window}")
    if f_target > f:
        raise ValueError(
            f"blocks overlap: f_target {f_target} exceeds f(T) = {f}"
        )
    suffix_bits = (T.gaps_mask >> (f - window - 1)) & _low_bits(window)
    new_mask = (T.gaps_mask & _low_bits(prefix)) | (suffix_bits << prefix)
    return NumericalSet(f_target, new_mask)
