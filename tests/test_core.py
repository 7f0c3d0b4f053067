import dataclasses
import random

import pytest

from nsdensity.core import (
    DSet,
    NumericalSet,
    Semigroup,
    associated_semigroup,
    associated_semigroup_definitional,
    as_semigroup,
    d_keys,
    d_mask_keys,
    d_of,
    fold,
    is_semigroup,
    multiplicity,
    n_of,
    r_value,
    suffix_pattern,
)


class TestNumericalSet:
    def test_construction_and_membership(self):
        t = NumericalSet(5, 0b1010)  # T = {0, 2, 4, 6, 7, ...}
        assert 0 in t and 2 in t and 4 in t
        assert 1 not in t and 3 not in t and 5 not in t
        assert 6 in t and 100 in t
        assert t.small_members() == (2, 4)
        assert t.full_mask == 0b10101

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericalSet(0, 0)
        with pytest.raises(ValueError):
            NumericalSet(3, 1 << 2)  # bit for f itself
        with pytest.raises(ValueError):
            NumericalSet(3, -1)

    def test_minimal_and_full(self):
        assert NumericalSet(1, 0).small_members() == ()
        assert NumericalSet(4, 0b111).small_members() == (1, 2, 3)

    def test_equality_across_subclass(self):
        # a Semigroup is equal to the plain set with the same data
        assert NumericalSet(3, 0b10) == Semigroup(3, 0b10)
        assert hash(NumericalSet(3, 0b10)) == hash(Semigroup(3, 0b10))
        assert NumericalSet(3, 0b10) != NumericalSet(5, 0b10)

    def test_semigroup_validation(self):
        with pytest.raises(ValueError):
            Semigroup(4, 0b001)  # {0,1,5,...}: 1+1 = 2 missing
        Semigroup(4, 0b100)  # {0,3,5,...} is closed


class TestDSet:
    def test_of_and_key(self):
        assert DSet.of([3, 1, 3]).elements == (1, 3)
        assert DSet().key == "∅"
        assert DSet.of([1, 3]).key == "1,3"
        assert DSet().max_element == 0
        assert DSet.of([2, 5]).max_element == 5

    def test_parse(self):
        assert DSet.parse("") == DSet()
        assert DSet.parse("∅") == DSet()
        assert DSet.parse("1,3") == DSet.of([1, 3])
        with pytest.raises(ValueError):
            DSet.parse("3,1")
        with pytest.raises(ValueError):
            DSet.parse("a,b")
        with pytest.raises(ValueError):
            DSet.parse("0,2")

    def test_mask_roundtrip(self):
        for mask in range(64):
            assert DSet.of(DSet(mask).elements).mask == mask

    def test_with_added(self):
        assert DSet.of([1]).with_added(3) == DSet.of([1, 3])
        with pytest.raises(ValueError):
            DSet.of([1]).with_added(1)

    def test_stored_as_its_mask(self):
        assert [f.name for f in dataclasses.fields(DSet)] == ["mask"]
        d = DSet.of([5, 1, 3, 1])
        assert d == DSet(0b10101)
        assert d.elements == (1, 3, 5) and list(d) == [1, 3, 5] and len(d) == 3
        assert d.key == "1,3,5" and d.max_element == 5
        assert hash(d) == hash(DSet.parse("1,3,5"))
        assert DSet.parse("1,63").mask == 1 | 1 << 62

    def test_key_tables(self):
        assert d_mask_keys(2) == ["", "1", "2", "1,2"]
        # a table that starts at element 5 is indexed by D.mask >> 4
        assert d_mask_keys(2, 5) == ["", "5", "6", "5,6"]
        for width in range(13):
            masks = range(1 << width)
            assert d_keys(masks, width) == [DSet(m).key for m in masks]
        wide = [0, 1, 1 << 28, (1 << 29) - 1, 0b10110 << 12 | 0b1001]
        assert d_keys(wide, 29) == [DSet(m).key for m in wide]

    @pytest.mark.parametrize("text", ["64", "1,64", "1,2,100"])
    def test_parse_refuses_elements_above_63(self, text):
        with pytest.raises(ValueError, match=r"\[1, 63\]"):
            DSet.parse(text)


class TestAssociatedSemigroup:
    def test_matches_definitional_exhaustive(self):
        for f in range(1, 10):
            for mask in range(1 << (f - 1)):
                t = NumericalSet(f, mask)
                assert associated_semigroup(t) == associated_semigroup_definitional(t)

    def test_matches_definitional_random(self):
        rng = random.Random(7)
        for _ in range(500):
            f = rng.randint(1, 50)
            t = NumericalSet(f, rng.getrandbits(f - 1) if f > 1 else 0)
            assert associated_semigroup(t) == associated_semigroup_definitional(t)

    def test_structural_facts(self):
        rng = random.Random(8)
        for _ in range(300):
            f = rng.randint(2, 40)
            t = NumericalSet(f, rng.getrandbits(f - 1))
            s = associated_semigroup(t)
            assert s.f == f
            assert is_semigroup(s)
            assert associated_semigroup(s) == s  # idempotent
            # s + 0 must land in T, so A(T) is always a subset of T
            assert s.gaps_mask & ~t.gaps_mask == 0

    def test_fixes_semigroups(self):
        for f in range(1, 9):
            for mask in range(1 << (f - 1)):
                t = NumericalSet(f, mask)
                if is_semigroup(t):
                    assert associated_semigroup(t) == t

    def test_examples(self):
        # T = {0,3,5,6,...}: f=4, A(T) = T (already closed)
        t = NumericalSet(4, 0b100)
        assert associated_semigroup(t) == t
        # T = {0,1,4,...}: 1+1 = 2 missing, so A(T) is minimal
        t = NumericalSet(3, 0b1)
        assert associated_semigroup(t) == Semigroup(3, 0)


class TestEncoding:
    def test_n_f(self):
        s = Semigroup(7, 0)  # the minimal semigroup {0} u (7, infinity)
        assert s.small_members() == ()
        assert multiplicity(s) == 8
        assert r_value(s) == -1
        assert d_of(s) == DSet()

    def test_n_of_roundtrip_exhaustive(self):
        for f in range(1, 10):
            for mask in range(1 << (f - 1)):
                t = NumericalSet(f, mask)
                if not is_semigroup(t):
                    continue
                s = as_semigroup(t)
                d = d_of(s)
                assert as_semigroup(n_of(d, f)) == s
                assert r_value(s) == (d.max_element if len(d) else -1)
                assert multiplicity(s) == f - r_value(s)

    def test_n_of_bounds(self):
        with pytest.raises(ValueError):
            n_of(DSet.of([3]), 3)
        # f <= 2 Max(D): a numerical set, with closure not certified
        assert n_of(DSet.of([3]), 5) == NumericalSet(5, 0b10)

    def test_n_of_certified_band_is_semigroup(self):
        for t_max in range(1, 6):
            for mask in range(1 << t_max):
                d = DSet(mask)
                for f in range(2 * d.max_element + 1, 2 * d.max_element + 6):
                    if f <= d.max_element:
                        continue
                    as_semigroup(n_of(d, max(f, d.max_element + 1)))


class TestWindowsAndFolding:
    def test_suffix_pattern(self):
        s = Semigroup(9, 0b10100000)  # {0, 6, 8, 10, ...}
        assert suffix_pattern(s, 1) == DSet.of([1])
        assert suffix_pattern(s, 3) == DSet.of([1, 3])
        assert suffix_pattern(s, 8) == DSet.of([1, 3])
        with pytest.raises(ValueError):
            suffix_pattern(s, 9)
        with pytest.raises(ValueError):
            suffix_pattern(s, 0)

    def test_fold_shapes(self):
        t = NumericalSet(11, 0b1010011001)
        folded = fold(t, 3, 7)
        assert folded.f == 7
        # suffix block survives: 11-y in T iff 7-y in fold, y in [1,3]
        for y in range(1, 4):
            assert ((11 - y) in t) == ((7 - y) in folded)
        # prefix block survives: x in [1, 3]
        for x in range(1, 4):
            assert (x in t) == (x in folded)

    def test_fold_window_invariance(self):
        rng = random.Random(9)
        for _ in range(400):
            f = rng.randint(4, 30)
            w = rng.randint(1, min(5, (f - 1) // 2))
            t = NumericalSet(f, rng.getrandbits(f - 1))
            a = associated_semigroup(t)
            b = associated_semigroup(fold(t, w, 2 * w + 1))
            assert suffix_pattern(a, w) == suffix_pattern(b, w)

    def test_fold_errors(self):
        t = NumericalSet(9, 0)
        with pytest.raises(ValueError):
            fold(t, 0, 5)
        with pytest.raises(ValueError):
            fold(t, 3, 10)  # target beyond f
        with pytest.raises(ValueError):
            fold(t, 5, 3)  # negative prefix
