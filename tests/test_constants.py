import os
from pathlib import Path

import numpy as np
import pytest

from nsdensity import cli, constants, enumeration
from nsdensity.core import DSet, parse_d_mask
from nsdensity.constants import (
    CacheConflictError,
    ConstantCache,
    a_const,
    a_consts_batch,
    a_levels,
    c_const,
    c_consts,
    cache_load,
    cache_store,
    resolve_cache_path,
)
from nsdensity.enumeration import top_slice_levels, window_counts
from nsdensity.verify import (
    check_c_growth_bound,
    full_window_oracle,
    suite_bounds,
    suite_constants,
)

SHIPPED_CACHE = Path(__file__).resolve().parents[1] / "nsdensity.cache"

# A_D by Max(D), frozen from the pairwise-scan reference route
A_FIXTURES = {
    1: {"1": 1},
    2: {"2": 2, "1,2": 1},
    3: {"3": 3, "1,3": 3, "2,3": 2, "1,2,3": 1},
    4: {
        "4": 8, "1,4": 6, "2,4": 2, "3,4": 3,
        "1,2,4": 3, "1,3,4": 2, "2,3,4": 2, "1,2,3,4": 1,
    },
    5: {
        "5": 18, "1,5": 6, "2,5": 10, "3,5": 2, "4,5": 6,
        "1,2,5": 9, "1,3,5": 10, "1,4,5": 2, "2,3,5": 2, "2,4,5": 2,
        "3,4,5": 3, "1,2,3,5": 3, "1,2,4,5": 3, "1,3,4,5": 2,
        "2,3,4,5": 2, "1,2,3,4,5": 1,
    },
}

def swept(depth: int) -> ConstantCache:
    """A fresh cache holding every level 1..depth, filled by a_levels."""
    cache = ConstantCache()
    a_levels(1, depth, cache)
    return cache


# C_{l,k} beyond the closed-form range, frozen from the same route
C_FIXTURES = {(1, 4): 3, (1, 5): 6, (1, 6): 17, (2, 6): 5, (2, 7): 11, (2, 8): 36}


def a_records(depth: int) -> str:
    """The A_FIXTURES records of every level up to ``depth``."""
    return "".join(
        f"A|{key}|{value}\n"
        for t in range(1, depth + 1)
        for key, value in A_FIXTURES[t].items()
    )


# the largest value the numpy route reads, 18 digits, at each of the 16
# keys of level 5: an int64 sum of them would wrap
LEVEL_5_AT_18_DIGITS = a_records(4) + "".join(
    f"A|{key}|{10**18 - 1}\n" for key in A_FIXTURES[5]
)


class TestBatches:
    def test_fixture_agreement(self):
        cache = ConstantCache()
        for t, frozen in sorted(A_FIXTURES.items()):
            got = a_consts_batch(t, cache)
            assert {DSet(m).key: v for m, v in got.items()} == frozen

    def test_sum_is_power_of_three(self):
        cache = ConstantCache()
        for t in range(1, 7):
            got = a_consts_batch(t, cache)
            assert sum(got.values()) == 3 ** (t - 1)

    def test_corrupted_cache_is_caught(self):
        # a wrong cached level must trip the truncation identity, which the
        # 4^t oracle replays; the slice route reads no other level.  A_{2}
        # and A_{1,2} swapped keep the level rule: 1 and 2 sum to 3^1
        cache = ConstantCache()
        a_consts_batch(1, cache)
        cache.set_level(2, [1, 2])  # truth is A_{2} = 2, A_{1,2} = 1
        a_consts_batch(3, cache)
        with pytest.raises(CacheConflictError, match="truncation identity"):
            full_window_oracle(3, cache)

    def test_constants_suite_runs_the_oracle(self, shipped_cache):
        results = [check.run() for check in suite_constants(cache=shipped_cache)]
        assert all(r.passed for r in results), [r.line() for r in results]
        assert results[0].name == "a-batch-validation"
        assert "top buckets of the 4^t sweep" in results[0].detail

    def test_oracle_rejects_a_wrong_top_bucket(self):
        # A_{3} = 3 and A_{2,3} = 2 swapped keep the level sum 3^2, so the
        # level rule holds them and only the 4^t sweep can refuse them
        cache = swept(2)
        level = [A_FIXTURES[3][DSet(m).key] for m in range(4, 8)]
        level[0], level[2] = level[2], level[0]
        cache.set_level(3, level)
        with pytest.raises(CacheConflictError, match=(
            r"^A_\{3\} is 2 on the slice route, 3 in the 4\^3 sweep$"
        )):
            full_window_oracle(3, cache)

    @pytest.mark.parametrize("t", range(1, 12))
    def test_slice_route_equals_full_sweep(self, t):
        low = 1 << (t - 1)
        full = window_counts(2 * t + 1, t)
        assert a_consts_batch(t) == dict(zip(range(low, 2 * low), full[low:].tolist()))

    @pytest.mark.parametrize("l, k", [
        (l, k) for l in range(1, 4) for k in range(2 * l + 2, 12)
    ])
    def test_c_slice_route_equals_full_sweep(self, l, k):
        f = 2 * k + 1
        full = window_counts(f, k, prefix_zeros=l)
        assert c_const(l, k) == int(full[1 << (k - 1)])

    def test_level_zero_is_refused(self):
        with pytest.raises(ValueError):
            a_consts_batch(0, ConstantCache())

    def test_held_level_is_read_not_swept(self, monkeypatch, shipped_cache):
        def no_sweep(digits, forced=0):
            raise AssertionError(f"top-slice table of {len(digits)} digits built")

        monkeypatch.setattr(enumeration, "_slice_table", no_sweep)
        batch = a_consts_batch(15, shipped_cache)
        assert list(batch.values()) == shipped_cache.levels[15].tolist()
        assert dict(batch) == {m: shipped_cache.a_entries[m] for m in range(1 << 14, 1 << 15)}
        with pytest.raises(TypeError):
            batch[1 << 14] = 1


class TestAConst:
    def test_empty_set(self):
        assert a_const(DSet()) == 1

    def test_computes_and_caches(self):
        cache = ConstantCache()
        assert a_const(DSet.of([1, 3]), cache) == 3
        assert cache.a(DSet.of([1, 3])) == 3
        assert cache.a(DSet.of([2, 3])) == 2  # whole batch landed

    def test_reads_cache_without_sweeping(self, monkeypatch):
        cache = ConstantCache()
        cache.set_level(9, list(a_consts_batch(9).values()))
        assert cache.a(DSet.of([9])) == 1065

        def no_sweep(digits, forced=0):
            raise AssertionError(f"top-slice table of {len(digits)} digits built")

        monkeypatch.setattr(enumeration, "_slice_table", no_sweep)
        assert a_const(DSet.of([9]), cache) == 1065

    def test_build_15_is_one_table_and_the_shipped_levels(self, monkeypatch,
                                                            shipped_cache):
        built = []
        real = enumeration._slice_table
        monkeypatch.setattr(
            enumeration, "_slice_table",
            lambda digits, forced=0: built.append(len(digits)) or real(digits, forced),
        )
        fresh = swept(15)
        # levels 1..12 are the table's first rows, 13..15 run in chunks
        assert built == [11]
        assert sorted(fresh.levels) == sorted(shipped_cache.levels) == list(range(1, 16))
        for t in range(1, 16):
            assert np.array_equal(fresh.levels[t], shipped_cache.levels[t]), t

    def test_build_depth(self, tmp_path):
        cache = ConstantCache()
        a_levels(1, 4, cache)
        assert cache.a_depth() == 4
        assert len(cache.a_entries) == 2**4 - 1
        # the a-depth provenance line is written by cache_store alone
        cache_store(cache, tmp_path / "c.cache")
        assert cache_load(tmp_path / "c.cache").provenance["a-depth"] == "4"


class TestCConst:
    def test_closed_form_unit(self):
        # no sweep happens at or below k = 2l+1: this returns instantly
        # even though a sweep would need f = 39
        assert c_const(9, 19) == 1
        assert c_const(1, 1) == 1
        assert c_const(2, 5) == 1

    def test_swept_fixtures(self):
        cache = ConstantCache()
        for (l, k), want in C_FIXTURES.items():
            assert c_const(l, k, cache) == want
            assert cache.c(l, k) == want

    @pytest.fixture
    def inflate_c_route(self, monkeypatch):
        """Make the restricted C route add ``by`` to every C it counts, as
        a faulty C sweep would; the prefix-only sweep stays as it is."""
        def inflate(by):
            real = constants.top_slice_c

            def inflated(l, levels):
                return {k: c + by for k, c in real(l, levels).items()}

            monkeypatch.setattr(constants, "top_slice_c", inflated)

        return inflate

    def test_growth_bound_check_reports_a_mismatch(self, inflate_c_route):
        # within the bound, only the prefix-only sweep can see the error
        inflate_c_route(1)
        result = check_c_growth_bound(1, 2).run()
        assert not result.passed
        assert result.line() == (
            "[FAIL] c-growth-bound(l<=1,k<=2l+3): C[1,4] = 4 on the restricted "
            "route, 3 on the prefix-only sweep"
        )

    def test_growth_bound_check_reports_fail(self, inflate_c_route):
        # check_c refuses a value above 2^l 3^(k-2l-1) on entry, and the
        # verify check turns that refusal into its FAIL line
        inflate_c_route(10**6)
        result = check_c_growth_bound(1, 1).run()
        assert not result.passed
        assert result.line() == (
            "[FAIL] c-growth-bound(l<=1,k<=2l+2): C[1,4] = 1000003 outside [1, 6]"
        )

    def test_growth_bound_sweeps_past_a_loaded_cache(self, inflate_c_route,
                                                     shipped_cache):
        # every C the shipped cache holds was checked on load; the suite
        # must sweep its own, or the check could never fail
        inflate_c_route(1)
        lines = [c.run().line() for c in suite_bounds(cache=shipped_cache)]
        assert (
            "[FAIL] c-growth-bound(l<=3,k<=2l+6): C[1,4] = 4 on the restricted "
            "route, 3 on the prefix-only sweep"
        ) in lines

    @pytest.mark.parametrize("l", range(1, 5))
    def test_restricted_route_equals_the_prefix_only_sweep(self, l):
        # item 7's forced digits: bucket {k} of the 2^l 3^(k-1-2l) sets
        # equals that of the 2^l 3^(k-1-l) sets avoiding [1, l]
        ks = range(2 * l + 2, 17)
        prefix_only = dict(top_slice_levels(ks, prefix_zeros=l))
        assert c_consts(l, 16)[2 * l + 1:] == tuple(
            int(prefix_only[k][1 << (k - 1)]) for k in ks
        )

    def test_one_table_fills_every_missing_c(self, monkeypatch):
        built = []
        real = enumeration._slice_table

        def table(digits, forced=0):
            built.append((len(digits), forced))
            return real(digits, forced)

        monkeypatch.setattr(enumeration, "_slice_table", table)
        cache = ConstantCache()
        cache.set_c(2, 7, 11)
        assert c_consts(2, 9, cache) == (1, 1, 1, 1, 1, 5, 11, 36, 97)
        # k = 6, 8, 9 from one table over the free digits 1..6 of k = 9
        assert built == [(6, 2)]
        assert c_consts(2, 9, cache)[5:] == (5, 11, 36, 97) and len(built) == 1

    def test_c_const_is_an_entry_of_c_consts(self, monkeypatch):
        rows, cache = {}, ConstantCache()
        for l in range(1, 4):
            rows[l] = c_consts(l, 12, cache)
            assert [c_const(l, k) for k in range(1, 13)] == list(rows[l])

        def no_sweep(l, levels):
            raise AssertionError(f"C[{l},{levels}] swept")

        # every C_{l,k} held: c_const reads it and sweeps nothing
        monkeypatch.setattr(constants, "top_slice_c", no_sweep)
        for l, row in rows.items():
            assert [c_const(l, k, cache) for k in range(1, 13)] == list(row)

    def test_validation(self):
        with pytest.raises(ValueError):
            c_const(0, 3)
        with pytest.raises(ValueError):
            c_const(1, 0)


class TestCacheObject:
    def test_conflict_fatal(self):
        cache = ConstantCache()
        cache.set_level(2, [2, 1])
        cache.set_level(2, [2, 1])  # same values are fine
        with pytest.raises(CacheConflictError):
            cache.set_level(2, [1, 2])
        cache.set_c(1, 4, 3)
        with pytest.raises(CacheConflictError):
            cache.set_c(1, 4, 4)

    def test_a_depth(self):
        cache = ConstantCache()
        assert cache.a_depth() == 0
        a_levels(1, 3, cache)
        assert cache.a_depth() == 3
        # a missing level 4 keeps the certified depth at 3
        a_consts_batch(5, cache)
        assert cache.a_depth() == 3

    @pytest.mark.parametrize("t, values, message", [
        (2, [0, 3], "level 2: 2 A constants in [0, 3] summing to 3; "
                    "the rule is 2^1 in [1, 3^1] summing to 3^1"),
        (2, [2, 2], "level 2: 2 A constants in [2, 2] summing to 4; "
                    "the rule is 2^1 in [1, 3^1] summing to 3^1"),
        (3, [3, 3, 3], "level 3: 3 A constants in [3, 3] summing to 9; "
                       "the rule is 2^2 in [1, 3^2] summing to 3^2"),
        (0, [1], "level 0: A_∅ = 1 by definition and is never stored"),
        (32, [1], "level 32: A levels lie in [1, 31], the deepest top slice"),
        # 2^69 values could not be built at all: the level is refused first
        (70, [1], "level 70: A levels lie in [1, 31], the deepest top slice"),
    ], ids=["zero", "sum", "count", "level-0", "level-32", "level-70"])
    def test_set_level_refuses_a_rule_breaking_level(self, t, values, message):
        cache = swept(1)
        with pytest.raises(CacheConflictError) as caught:
            cache.set_level(t, values)
        assert str(caught.value) == message
        assert dict(cache.levels).keys() == {1}

    def test_set_level_refuses_a_differing_recompute(self):
        cache = swept(3)
        held = cache.levels[3].tolist()  # A_{3}, A_{1,3}, A_{2,3}, A_{1,2,3}
        swapped = [held[2], held[1], held[0], held[3]]  # same level sum
        with pytest.raises(CacheConflictError) as caught:
            cache.set_level(3, swapped)
        assert str(caught.value) == "A[3] recomputed as 2, cached 3"
        assert cache.levels[3].tolist() == held
        # the first differing D is named, not the first D of the level
        swapped = [held[0], held[3], held[2], held[1]]
        with pytest.raises(CacheConflictError, match=r"^A\[1,3\] recomputed as 1, cached 3$"):
            cache.set_level(3, swapped)

    def test_held_constants_are_read_only(self, shipped_cache):
        with pytest.raises(TypeError):
            shipped_cache.a_entries[0b10] = 1
        with pytest.raises(TypeError):
            shipped_cache.levels[2] = np.array([1, 2])
        with pytest.raises(ValueError, match="read-only"):
            shipped_cache.levels[2][0] = 1
        assert shipped_cache.a_entries[0b10] == 2
        assert type(shipped_cache.a_entries[0b10]) is int
        assert len(shipped_cache.a_entries) == 2**15 - 1
        # no level holds the empty set, a negative mask or one past depth 15
        for mask in (0, -1, -5, 1 << 15):
            assert mask not in shipped_cache.a_entries


class TestCacheFile:
    def test_roundtrip(self, tmp_path):
        cache = ConstantCache()
        a_levels(1, 3, cache)
        cache.set_c(1, 4, 3)
        path = tmp_path / "c.cache"
        cache_store(cache, path)
        again = cache_load(path)
        assert again.a_entries == cache.a_entries
        assert again.c_entries == cache.c_entries
        assert again.provenance.get("a-depth") == "3"

    def test_file_shape(self, tmp_path):
        cache = ConstantCache()
        cache.set_level(1, [1])
        cache.set_c(1, 4, 3)
        cache.provenance["note"] = "x"
        path = tmp_path / "c.cache"
        cache_store(cache, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data == sorted(data)
        assert "A|1|1" in data and "C|1,4|3" in data

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("A|1|one\n", encoding="utf-8")
        with pytest.raises(ValueError):
            cache_load(path)
        path.write_text("X|1|1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            cache_load(path)

    @pytest.mark.parametrize("key", [
        "one", "1,x", "1.5", "1,,2", "1,", "0", "-1", "0,1",  # not positive integers
        "64", "1,64", "1,8000000",  # above the 63 positions of a 64-bit word
        "2,1", "1,3,2",  # not ascending
        "1,1", "2,2",  # duplicates
        "", " ", "∅", "{}",  # the empty set, which has no level
        "1\x00", "\x002",  # NUL bytes
    ])
    def test_load_rejects_malformed_key(self, tmp_path, key):
        path = tmp_path / "bad.cache"
        path.write_text(f"A|1|1\nA|{key}|1\n", encoding="utf-8")
        with pytest.raises(ValueError):  # CacheConflictError included
            cache_load(path)

    def test_load_accepts_what_dset_parse_accepts(self, tmp_path):
        # int() forms of the same elements name the same masks
        path = tmp_path / "c.cache"
        path.write_text("A|+1|1\nA| 2|2\nA|01, 2 |1\n", encoding="utf-8")
        assert cache_load(path).a_entries == swept(2).a_entries

    def test_load_rejects_internal_conflict(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("A|1|1\nA|1|2\n", encoding="utf-8")
        with pytest.raises(CacheConflictError):
            cache_load(path)

    @pytest.mark.parametrize("records, message", [
        # a malformed line anywhere comes first, then a key with two values
        ("A|1|1\nA|1|2\nA|1|x\n", r":3: non-integer value 'x'$"),
        ("A|1|1\nA|1|2\nA|1|3\n", r"^A\[1\] recomputed as 2, cached 1$"),
        ("A|1|1\nC|1,4|3\nC|1,4|4\n", r"^C\[1,4\] recomputed as 4, cached 3$"),
        ("A|2|9\nC|1,4|3\nC|1,4|4\n", r"^C\[1,4\] recomputed as 4, cached 3$"),
        # equal duplicates are dropped before the level rule counts
        ("A|1|2\nA|1|2\n", r"^level 1: 1 A constants in \[2, 2\] summing to 2;"),
        # the level rule comes before the C bound
        ("C|1,4|7\nA|2|9\n", r"^level 2: 1 A constants in \[9, 9\]"),
        ("C|1,4|7\nA|1|1\n", r"^C\[1,4\] = 7 outside \[1, 6\]$"),
        # of two clashes the first in the file is named, not the smaller key
        ("A|1|1\nA|2|3\nA|2|4\nA|1|2\n", r"^A\[2\] recomputed as 4, cached 3$"),
        # a clash between values past int64, read as Python ints
        ("A|1|1\nA|1|18446744073709551617\n",
         r"^A\[1\] recomputed as 18446744073709551617, cached 1$"),
    ], ids=["malformed", "a-conflict", "c-conflict", "c-conflict-before-level",
            "duplicates-dropped", "level-before-c-bound", "c-bound",
            "first-clash-in-file-order", "clash-past-int64"])
    def test_load_refuses_in_one_order(self, tmp_path, records, message):
        path = tmp_path / "bad.cache"
        path.write_text(records, encoding="utf-8")
        with pytest.raises(ValueError, match=message):  # CacheConflictError included
            cache_load(path)

    def test_load_rejects_incomplete_level(self, tmp_path):
        path = tmp_path / "c.cache"
        cache_store(swept(3), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("A|2,3|2\n", ""), encoding="utf-8")
        with pytest.raises(CacheConflictError, match="level 3: 3 A constants"):
            cache_load(path)

    @pytest.mark.parametrize("records, message", [
        # level 2 sums to 3^1, but A_{1,2} = 0
        ("A|1|1\nA|2|3\nA|1,2|0\n", r"level 2: 2 A constants in \[0, 3\]"),
        ("A|1|1\nA|2|4\nA|1,2|1\n", r"level 2: 2 A constants in \[1, 4\]"),
        ("A|∅|1\n", "level 0"),  # A over the empty set is 1 and never stored
        # no top slice deeper than t = 31 fits a 64-bit word
        ("A|1|1\nA|32|1\n", r"level 32: A levels lie in \[1, 31\]"),
        ("A|63|1\n", r"level 63: A levels lie in \[1, 31\]"),
        # of two broken levels, the one the file holds first is named
        ("A|3|1\nA|1|2\n", r"level 3: 1 A constants in \[1, 1\]"),
        # totals stay exact past int64: the level rule sums Python ints
        (LEVEL_5_AT_18_DIGITS, r"level 5: 16 A constants in "
         r"\[999999999999999999, 999999999999999999\] "
         r"summing to 15999999999999999984;"),
        # values past 18 digits take the per-line route, read exactly
        ("A|1|18446744073709551617\n", r"level 1: 1 A constants in "
         r"\[18446744073709551617, 18446744073709551617\] "
         r"summing to 18446744073709551617;"),
        ("A|1|1\nA|2|1234567890123456789\nA|1,2|1\n", r"level 2: 2 A constants "
         r"in \[1, 1234567890123456789\] summing to 1234567890123456790;"),
    ], ids=["zero", "above-cap", "empty-set", "level-32", "level-63",
            "level-3-before-1", "level-5-at-18-digits", "past-uint64",
            "19-digits"])
    def test_load_rejects_a_out_of_range(self, tmp_path, records, message):
        path = tmp_path / "bad.cache"
        path.write_text(records, encoding="utf-8")
        with pytest.raises(CacheConflictError, match=message):
            cache_load(path)

    def test_load_rejects_level_sum(self, tmp_path):
        path = tmp_path / "c.cache"
        cache_store(swept(3), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("A|1,3|3\n", "A|1,3|4\n"), encoding="utf-8")
        with pytest.raises(CacheConflictError, match="level 3: .* summing to 10"):
            cache_load(path)

    @pytest.mark.parametrize("record", [
        "C|1,4|7", "C|1,4|0", "C|1,3|2",
        # keys no sweep produces: l < 1, k <= 2l+1 or k > 31
        "C|0,5|7", "C|-1,5|3", "C|2,3|1", "C|1,40|1", "C|1,-3|1",
    ])
    def test_load_rejects_c_out_of_range(self, tmp_path, record):
        # C_{1,4} <= 2^1 3^(4-3) = 6; C_{1,3} = 1 in closed form
        path = tmp_path / "bad.cache"
        path.write_text(f"A|1|1\n{record}\n", encoding="utf-8")
        with pytest.raises(CacheConflictError):
            cache_load(path)

    @pytest.mark.parametrize("record", [
        "C|0,5|7", "C|-1,5|3", "C|2,3|1", "C|1,3|1", "C|1,40|1", "C|1,-3|1",
        "C|1,8000000|1",  # refused before 3^(k-2l-1) is computed
    ])
    def test_load_names_the_c_key_bound(self, tmp_path, record):
        path = tmp_path / "bad.cache"
        path.write_text(f"A|1|1\n{record}\n", encoding="utf-8")
        with pytest.raises(CacheConflictError, match=r"l >= 1, 2l\+2 <= k <= 31"):
            cache_load(path)

    def test_store_refuses_a_partial_level(self, tmp_path):
        # what the loader would refuse is never held, so never written
        cache = swept(3)
        level = dict(a_consts_batch(4))  # the batch is a read-only view
        del level[DSet.of([2, 4]).mask]
        with pytest.raises(CacheConflictError, match="level 4: 7 A constants"):
            cache.set_level(4, list(level.values()))
        cache_store(cache, tmp_path / "c.cache")
        assert cache_load(tmp_path / "c.cache").a_entries == cache.a_entries

    def test_empty_set_record_has_its_own_refusal(self, tmp_path, capsys):
        # A_∅ has no level: the level rule's powers 2^(t-1), 3^(t-1) at
        # t = 0 would only print negative exponents
        path = tmp_path / "bad.cache"
        path.write_text("A|∅|1\n", encoding="utf-8")
        code = cli.main(["gamma", "--d", "1", "--depth", "3", "--cache", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "A_∅ = 1 by definition and is never stored" in err
        assert "^-" not in err
        with pytest.raises(CacheConflictError, match="never stored"):
            swept(2).set_level(0, [1])

    def test_store_refuses_c_out_of_range(self, tmp_path):
        cache = swept(2)
        with pytest.raises(CacheConflictError, match=r"C\[1,6\] = 1000000 outside \[1, 54\]"):
            cache.set_c(1, 6, 10**6)
        assert cache.c_entries == {}

    def test_store_refuses_a_mask_past_64_bits(self, tmp_path):
        cache = swept(2)
        with pytest.raises(CacheConflictError, match=r"level 70: A levels lie in \[1, 31\]"):
            cache.set_level(70, [1])
        assert dict(cache.levels).keys() == {1, 2}

    def test_store_failure_leaves_no_temp_file(self, tmp_path):
        # the rename onto a directory fails after the temp file is written
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            cache_store(swept(2), target)
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert list(tmp_path.iterdir()) == [target]

    def test_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NSDENSITY_CACHE", raising=False)
        assert resolve_cache_path(None) == os.path.join(os.curdir, "nsdensity.cache")
        monkeypatch.setenv("NSDENSITY_CACHE", str(tmp_path / "env.cache"))
        assert resolve_cache_path(None) == str(tmp_path / "env.cache")
        assert resolve_cache_path("flag.cache") == "flag.cache"


def per_line_load(path) -> ConstantCache:
    """The oracle for cache_load: its per-line parser on every line, split
    as a text file opened with newline="" splits them, then the same rules."""
    reader = constants._Reader(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader.lines(fh)
    return reader.cache()


def load_outcome(load, path):
    """Every stored pair in insertion order, C constants and provenance; or
    the exception's class and message."""
    try:
        cache = load(path)
    except Exception as e:
        return type(e), str(e)
    return list(cache.a_entries.items()), cache.c_entries, cache.provenance


SMALL = "# a-depth: 3\n# format: 1\n" + a_records(3) + "C|1,4|3\n"
SHIPPED_TEXT = SHIPPED_CACHE.read_text(encoding="utf-8")
# 8000 blank lines put a repeat of the first A record about 40k lines, and
# several numpy blocks, after it
FAR = SHIPPED_TEXT + "\n" * 8000
FIRST_A = next(ln for ln in SHIPPED_TEXT.split("\n") if ln.startswith("A|"))
RAISED = FIRST_A.rsplit("|", 1)[0] + f"|{int(FIRST_A.rsplit('|', 1)[1]) + 1}"
CORRUPT_13 = next(ln for ln in SHIPPED_TEXT.split("\n") if ln.startswith("A|1,3|"))
# level 6 with values of every length from 1 to 18 digits, refused with
# their exact sum
EVERY_VALUE_LENGTH = a_records(5) + "".join(
    f"A|{DSet(mask).key}|{str(i % 9 + 1) * (i % 18 + 1)}\n"
    for i, mask in enumerate(range(32, 64))
)

LOADER_CASES = {
    "shipped": SHIPPED_TEXT,
    "shipped-1,3-raised": SHIPPED_TEXT.replace(
        CORRUPT_13 + "\n", f"A|1,3|{int(CORRUPT_13[6:]) + 1}\n"
    ),
    "small": SMALL,
    "crlf": SMALL.replace("\n", "\r\n"),
    "lone-cr": SMALL.replace("A|1|1\n", "A|1|1\r"),
    "bom": "\ufeff" + SMALL,
    "no-final-lf": SMALL[:-1],
    "no-final-lf-conflict": SMALL + "A|2|3",
    "blank-and-comment-lines": SMALL.replace("\nA|", "\n\n# note: x\n\nA|"),
    "int-spellings": "A|+1|1\nA| 2|2\nA|01, 2 |1\n",
    "value-007": "A|1|007\n",
    "value-003": SMALL.replace("A|3|3\n", "A|3|003\n"),
    "equal-duplicate": SMALL + "A|2|2\n",
    "conflicting-duplicate": SMALL + "A|2|3\n",
    "equal-duplicate-40k-lines-apart": FAR + FIRST_A + "\n",
    "conflicting-duplicate-40k-lines-apart": FAR + RAISED + "\n",
    "conflict-across-routes": "A|+1|1\nA|1|2\n",
    "conflict-across-routes-reversed": "A|1|1\nA|+1|2\n",
    "conflict-before-malformed": "A|1|1\nA|1|2\nA|1|x\n",
    "malformed-before-conflict": "A|1|x\nA|1|1\nA|1|2\n",
    "element-63": "A|63|1\n",
    "element-64": "A|64|1\n",
    "element-163": "A|163|1\n",
    "nul": SMALL.replace("A|2|2\n", "A|2|2\x00\n"),
    "invalid-utf-8": SMALL.encode() + b"A|1|\xff\n",
    "extra-field": SMALL + "A|1|1|2\n",
    "extra-field-ascending": SMALL + "A|1|2|5\n",
    "no-key": SMALL + "A|5\n",
    "head-closed-by-comma": SMALL + "A,1|5\n",
    "empty": "",
    "only-lf": "\n",
    "level-5-at-18-digits": LEVEL_5_AT_18_DIGITS,
    "19-digits": "A|1|1000000000000000000\n",
    "past-uint64": "A|1|18446744073709551617\n",
    "first-clash-in-file-order": "A|1|1\nA|2|3\nA|2|4\nA|1|2\n",
    "clash-past-int64": "A|1|1\nA|1|18446744073709551617\n",
    "triple-equal-duplicate": "A|1|1\nA|1|1\nA|1|1\n",
    # a provenance line longer than 18 bytes, then A records in its block
    "long-provenance-line": "# generated-by: " + "x" * 40 + "\n" + SMALL,
    "every-value-length": EVERY_VALUE_LENGTH,
    "value-18-digits-leading-zeros": SMALL.replace("A|1|1\n", f"A|1|{1:018d}\n"),
}


class TestLoaderRoutes:
    @pytest.mark.parametrize("name", LOADER_CASES)
    def test_matches_the_per_line_parser(self, tmp_path, name):
        content = LOADER_CASES[name]
        path = tmp_path / "c.cache"
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
        assert load_outcome(cache_load, path) == load_outcome(per_line_load, path)

    def test_shipped_cache_parses_its_a_records_in_numpy(self, monkeypatch):
        # only the 3 provenance lines and 15 C records take the per-line route
        seen = []
        line = constants._Reader.line

        def spy(reader, lineno, raw):
            seen.append(raw)
            return line(reader, lineno, raw)

        monkeypatch.setattr(constants._Reader, "line", spy)
        cache = cache_load(SHIPPED_CACHE)
        assert len(cache.a_entries) == 2**15 - 1
        assert len(seen) == 18
        assert not any(raw.startswith("A|") for raw in seen)

    @pytest.mark.parametrize("line, canonical", [
        ("A|1|1", True), ("A|63|5", True), ("A|1,2,10,63|0", True),
        ("A|3|007", True), (f"A|4|{10**18 - 1}", True), ("A|1|0", True),
        (f"A|1|{1:018d}", True), (f"A|1|{1:019d}", False),
        ("A|64|1", False), ("A|100|1", False), ("A|163|1", False),
        ("A|1,263|1", False), ("A|0|1", False),
        ("A|01|1", False), ("A|+1|1", False), ("A| 2|1", False),
        ("A|2,1|1", False), ("A|1,1|1", False), ("A|1,,2|1", False),
        ("A|1,|1", False), ("A|,1|1", False), ("A||1", False), ("A|1|", False),
        ("A|1|1|2", False), ("A|1|2|5", False), ("A|1,2", False),
        ("A|5", False), ("A,1|5", False), ("A|1|-1", False),
        (f"A|1|{10**18}", False), ("A|1|1\x00", False), ("AA|1|1", False),
        ("B|1|1", False), ("C|1,4|3", False), ("# a: b", False), ("", False),
    ])
    def test_canonical_grammar(self, line, canonical):
        # the line between two canonical ones, so a field may not leak; a
        # block starts with the LF that ends the line before it
        block = f"\nA|1|1\n{line}\nA|2,3|2\n".encode()
        ends, flags, masks, values = constants._canonical_a_records(
            np.frombuffer(block, np.uint8)
        )
        assert ends.tolist() == [i for i, b in enumerate(block) if b == 10]
        assert flags.tolist() == [True, canonical, True]
        assert masks[[0, 2]].tolist() == [0b1, 0b110]
        assert values[[0, 2]].tolist() == [1, 2]
        if canonical:
            _, key, value = line.split("|")
            assert masks[1] == parse_d_mask(key)
            assert values[1] == int(value)


class TestShippedCache:
    def test_depth_and_size(self, shipped_cache):
        assert shipped_cache.a_depth() == 15
        assert len(shipped_cache.a_entries) == 2**15 - 1

    def test_spot_values(self, shipped_cache):
        for t, frozen in A_FIXTURES.items():
            for key, want in frozen.items():
                assert shipped_cache.a_entries[DSet.parse(key).mask] == want
        for (l, k), want in C_FIXTURES.items():
            assert shipped_cache.c(l, k) == want

    def test_sum_identity_per_level(self, shipped_cache):
        by_max = {}
        for mask, v in shipped_cache.a_entries.items():
            t = DSet(mask).max_element
            by_max[t] = by_max.get(t, 0) + v
        for t in range(1, 16):
            assert by_max[t] == 3 ** (t - 1)

    def test_store_roundtrip_is_byte_identical(self, shipped_cache, tmp_path):
        cache_store(shipped_cache, tmp_path / "again.cache")
        assert (tmp_path / "again.cache").read_bytes() == SHIPPED_CACHE.read_bytes()

    def test_a_bounds(self, shipped_cache):
        for mask, v in shipped_cache.a_entries.items():
            t = DSet(mask).max_element
            assert 1 <= v <= 3 ** (t - 1)
