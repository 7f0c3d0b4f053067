import os
from pathlib import Path

import pytest

from nsdensity import constants
from nsdensity.core import DSet
from nsdensity.constants import (
    CacheConflictError,
    ConstantCache,
    a_const,
    a_consts_batch,
    build_a_constants,
    c_const,
    cache_load,
    cache_store,
    resolve_cache_path,
)
from nsdensity.enumeration import BudgetError, window_counts
from nsdensity.verify import check_c_growth_bound, full_window_oracle, suite_constants

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

# C_{l,k} beyond the closed-form range, frozen from the same route
C_FIXTURES = {(1, 4): 3, (1, 5): 6, (1, 6): 17, (2, 6): 5, (2, 7): 11, (2, 8): 36}


class TestBatches:
    def test_fixture_agreement(self):
        cache = ConstantCache()
        for t, frozen in sorted(A_FIXTURES.items()):
            got = a_consts_batch(t, cache)
            assert {DSet.from_mask(m).key: v for m, v in got.items()} == frozen

    def test_sum_is_power_of_three(self):
        cache = ConstantCache()
        for t in range(1, 7):
            got = a_consts_batch(t, cache)
            assert sum(got.values()) == 3 ** (t - 1)

    def test_corrupted_cache_is_caught(self):
        # a wrong cached constant must trip the truncation identity, which
        # the 4^t oracle replays; the slice route reads no other level
        cache = ConstantCache()
        a_consts_batch(1, cache)
        cache.a_entries[0b10] = 1  # A_{2}; truth is 2
        a_consts_batch(3, cache)
        with pytest.raises(CacheConflictError, match="truncation identity"):
            full_window_oracle(3, cache)

    def test_constants_suite_runs_the_oracle(self, shipped_cache):
        results = suite_constants(cache=shipped_cache)
        assert all(r.passed for r in results), [r.line() for r in results]
        assert results[0].name == "a-batch-validation"
        assert "top buckets of the 4^t sweep" in results[0].detail

    def test_oracle_rejects_a_wrong_top_bucket(self):
        cache = build_a_constants(3)
        cache.a_entries[0b101] = 2  # A_{1,3}; truth is 3
        with pytest.raises(CacheConflictError, match=r"A_\{1,3\} is 2"):
            full_window_oracle(3, cache)

    @pytest.mark.parametrize("t", range(1, 12))
    def test_slice_route_equals_full_sweep(self, t):
        low = 1 << (t - 1)
        full = window_counts(2 * t + 1, t, budget=2 * t + 1)
        assert a_consts_batch(t) == dict(zip(range(low, 2 * low), full[low:].tolist()))

    @pytest.mark.parametrize("l, k", [
        (l, k) for l in range(1, 4) for k in range(2 * l + 2, 12)
    ])
    def test_c_slice_route_equals_full_sweep(self, l, k):
        f = 2 * k + 1
        full = window_counts(f, k, prefix_zeros=l, budget=f)
        assert c_const(l, k) == int(full[1 << (k - 1)])

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"3\^5 sets at f=13"):
            a_consts_batch(6, ConstantCache(), budget=5)
        with pytest.raises(ValueError):
            a_consts_batch(0, ConstantCache())


class TestAConst:
    def test_empty_set(self):
        assert a_const(DSet()) == 1

    def test_computes_and_caches(self):
        cache = ConstantCache()
        assert a_const(DSet.of([1, 3]), cache) == 3
        assert cache.a(DSet.of([1, 3])) == 3
        assert cache.a(DSet.of([2, 3])) == 2  # whole batch landed

    def test_reads_cache_without_sweeping(self):
        cache = ConstantCache()
        cache.set_a(DSet.of([9]), 1065)
        # budget 1 would forbid any sweep at this depth
        assert a_const(DSet.of([9]), cache, budget=1) == 1065

    def test_build_depth(self, tmp_path):
        cache = ConstantCache()
        build_a_constants(4, cache)
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

    def test_growth_bound_check_reports_fail(self, monkeypatch):
        # a sweep that inflates bucket {k}: c_const refuses the value, and
        # the verify check turns that refusal into its FAIL line
        real = constants.top_slice_counts

        def inflated(t, *, prefix_zeros=0, workers=1):
            buckets = real(t, prefix_zeros=prefix_zeros, workers=workers).copy()
            buckets[1 << (t - 1)] += 10**6
            return buckets

        monkeypatch.setattr(constants, "top_slice_counts", inflated)
        result = check_c_growth_bound(ConstantCache(), 1, 1)
        assert not result.passed
        assert result.line() == (
            "[FAIL] c-growth-bound(l<=1,k<=2l+2): C[1,4] = 1000003 outside [1, 6]"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            c_const(0, 3)
        with pytest.raises(ValueError):
            c_const(1, 0)
        with pytest.raises(BudgetError, match=r"2\^1 3\^7 sets at f=19"):
            c_const(1, 9, budget=8)


class TestCacheObject:
    def test_conflict_fatal(self):
        cache = ConstantCache()
        cache.set_a(DSet.of([2]), 2)
        cache.set_a(DSet.of([2]), 2)  # same value is fine
        with pytest.raises(CacheConflictError):
            cache.set_a(DSet.of([2]), 3)
        cache.set_c(1, 4, 3)
        with pytest.raises(CacheConflictError):
            cache.set_c(1, 4, 4)

    def test_a_depth(self):
        cache = ConstantCache()
        assert cache.a_depth() == 0
        build_a_constants(3, cache)
        assert cache.a_depth() == 3
        # one missing entry at t = 4 keeps the certified depth at 3
        for m, v in a_consts_batch(4, ConstantCache()).items():
            if m != DSet.of([2, 4]).mask:
                cache.set_a(DSet.from_mask(m), v)
        assert cache.a_depth() == 3


class TestCacheFile:
    def test_roundtrip(self, tmp_path):
        cache = ConstantCache()
        build_a_constants(3, cache)
        cache.set_c(1, 4, 3)
        path = tmp_path / "c.cache"
        cache_store(cache, path)
        again = cache_load(path)
        assert again == cache
        assert again.provenance.get("a-depth") == "3"

    def test_file_shape(self, tmp_path):
        cache = ConstantCache()
        cache.set_a(DSet.of([1]), 1)
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
        assert cache_load(path) == build_a_constants(2)

    def test_load_rejects_internal_conflict(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("A|1|1\nA|1|2\n", encoding="utf-8")
        with pytest.raises(CacheConflictError):
            cache_load(path)

    def test_load_rejects_incomplete_level(self, tmp_path):
        path = tmp_path / "c.cache"
        cache_store(build_a_constants(3), path)
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
    ], ids=["zero", "above-cap", "empty-set", "level-32"])
    def test_load_rejects_a_out_of_range(self, tmp_path, records, message):
        path = tmp_path / "bad.cache"
        path.write_text(records, encoding="utf-8")
        with pytest.raises(CacheConflictError, match=message):
            cache_load(path)

    def test_load_rejects_level_sum(self, tmp_path):
        path = tmp_path / "c.cache"
        cache_store(build_a_constants(3), path)
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
        # what the loader would refuse is never written, not even in part
        cache = build_a_constants(3)
        for m, v in a_consts_batch(4).items():
            if m != DSet.of([2, 4]).mask:
                cache.set_a(DSet.from_mask(m), v)
        with pytest.raises(CacheConflictError, match="level 4: 7 A constants"):
            cache_store(cache, tmp_path / "c.cache")
        assert list(tmp_path.iterdir()) == []

    def test_store_refuses_c_out_of_range(self, tmp_path):
        cache = build_a_constants(2)
        cache.set_c(1, 6, 10**6)
        with pytest.raises(CacheConflictError, match=r"C\[1,6\] = 1000000 outside \[1, 54\]"):
            cache_store(cache, tmp_path / "c.cache")
        assert list(tmp_path.iterdir()) == []

    def test_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NSDENSITY_CACHE", raising=False)
        assert resolve_cache_path(None) == os.path.join(os.curdir, "nsdensity.cache")
        monkeypatch.setenv("NSDENSITY_CACHE", str(tmp_path / "env.cache"))
        assert resolve_cache_path(None) == str(tmp_path / "env.cache")
        assert resolve_cache_path("flag.cache") == "flag.cache"


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
            t = DSet.from_mask(mask).max_element
            by_max[t] = by_max.get(t, 0) + v
        for t in range(1, 16):
            assert by_max[t] == 3 ** (t - 1)

    def test_store_roundtrip_is_byte_identical(self, shipped_cache, tmp_path):
        cache_store(shipped_cache, tmp_path / "again.cache")
        assert (tmp_path / "again.cache").read_bytes() == SHIPPED_CACHE.read_bytes()

    def test_a_bounds(self, shipped_cache):
        for mask, v in shipped_cache.a_entries.items():
            t = DSet.from_mask(mask).max_element
            assert 1 <= v <= 3 ** (t - 1)
