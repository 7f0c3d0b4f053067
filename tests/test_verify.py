"""Each check of ``verify`` that guards a route fails once here: one wrong
count is planted in the route, through the name as ``nsdensity.verify``
binds it, and the check's exact FAIL line is asserted.  The route table
in ``verify``'s docstring is checked against the checks the suites build."""

import dataclasses
import re

import pytest

from nsdensity import verify
from nsdensity.constants import ConstantCache, a_levels, c_consts
from nsdensity.core import DSet
from nsdensity.enumeration import density_table
from nsdensity.limits import GLimit


class Planted:
    """A density table whose one reduction ``method`` passes its result
    through ``change``; every other attribute is the real table's."""

    def __init__(self, table, method, change):
        self._table = table
        real = getattr(table, method)
        setattr(self, method, lambda *args: change(real(*args)))

    def __getattr__(self, name):
        return getattr(self._table, name)


def plant(monkeypatch, method, change, f):
    """Bind ``verify.density_table`` to the real tables, but for the one
    at Frobenius number ``f``, whose ``method`` goes through ``change``."""
    real = verify.density_table

    def planted(g, **kwargs):
        table = real(g, **kwargs)
        return Planted(table, method, change) if g == f else table

    monkeypatch.setattr(verify, "density_table", planted)


def check_line(check):
    return check.run().line()


def moved(table):
    """The table with one set's count moved to the next A-mask: the sum
    the table checks on construction holds, the tally does not."""
    counts = table.counts.copy()
    i = int(counts.argmax())
    counts[i] -= 1
    counts[(i + 1) % len(counts)] += 1
    return dataclasses.replace(table, counts=counts)


class TestPlantedCounts:
    def test_amap_sweep(self, monkeypatch):
        real = verify.density_table
        monkeypatch.setattr(verify, "density_table", lambda f, **kw: moved(real(f, **kw)))
        assert check_line(verify.check_amap_sweep(8, 16)) == (
            "[FAIL] amap-sweep(f=8,chunk=16): chunked sweep tally != core.a_mask tally"
        )
        # the default chunk's table alone
        monkeypatch.setattr(
            verify, "density_table",
            lambda f, **kw: real(f, **kw) if kw else moved(real(f)),
        )
        assert check_line(verify.check_amap_sweep(8, 16)) == (
            "[FAIL] amap-sweep(f=8,chunk=16): density_table != core.a_mask tally"
        )

    def test_topslice_sweep_top_bucket(self, monkeypatch):
        real = verify._window_histograms

        def one_moved(chunks):
            for t, buckets in real(chunks):
                if t == 3:
                    buckets = buckets.copy()
                    buckets[4] -= 1  # A_{3} = 3 gives one to A_{1,3}
                    buckets[5] += 1
                yield t, buckets

        monkeypatch.setattr(verify, "_window_histograms", one_moved)
        assert check_line(verify.check_topslice_sweep(4, 9)) == (
            "[FAIL] topslice-sweep(t=4,chunk=9): "
            "slice histogram != core.a_mask tally at t=3, l=0"
        )

    def test_topslice_sweep_stray_window(self, monkeypatch):
        # the histograms refuse a window below 2^(t-1); the check keeps
        # no test of its own for it
        real = verify._slice_levels

        def top_bit_lost(levels, **kwargs):
            for t, windows in real(levels, **kwargs):
                yield t, windows & ((1 << (t - 1)) - 1) if t == 3 else windows

        monkeypatch.setattr(verify, "_slice_levels", top_bit_lost)
        assert check_line(verify.check_topslice_sweep(4, 9)) == (
            "[FAIL] topslice-sweep(t=4,chunk=9): "
            "9 top-slice sets at f=7 have a window below 2^2"
        )

    def test_encode_roundtrip(self, monkeypatch):
        def one_more_m(ranked):
            gaps, d_masks, mults, counts = ranked
            mults = mults.copy()
            mults[0] += 1
            return gaps, d_masks, mults, counts

        plant(monkeypatch, "ranked", one_more_m, f=1)
        [s] = density_table(1).entries
        assert check_line(verify.check_encoding_roundtrip(3)) == (
            f"[FAIL] encode-roundtrip(f<=3): ranked() D, m of {s} != d_of, multiplicity"
        )

    def test_window_factorization(self, monkeypatch):
        def one_more_b3(buckets):
            buckets = buckets.copy()
            buckets[DSet.of([3]).mask] += 1
            return buckets

        plant(monkeypatch, "window", one_more_b3, f=8)
        # A_{3} = 3, so B({3}, 8) = 3 * 2^(8-7) = 6
        assert check_line(verify.check_window_factorization(8, 3)) == (
            "[FAIL] window-factorization(t<=3,f<=8): B(3,8) = 7 != A_D*2^1 = 6"
        )

    def test_preimage_identity(self, monkeypatch):
        def one_more_p(census):
            p = dict(census.p_counts)
            p[DSet()] += 1
            return dataclasses.replace(census, p_counts=p)

        plant(monkeypatch, "census", one_more_p, f=8)
        p = density_table(8).census(3).p_counts[DSet()]
        assert check_line(verify.check_preimage_identity(8, 3)) == (
            f"[FAIL] preimage-identity(f=8,t<=3): "
            f"P(N(∅,8)) = {p + 1} but partition gives {p}"
        )

    @pytest.mark.parametrize("name, line", [
        ("truncation_numerators", "table rows with Max(D) <= 3 != gamma(D)"),
        ("alpha_limit", "alpha_-1 rows != gamma(D) of its summands"),
    ])
    def test_series_engine(self, monkeypatch, small_cache, name, line):
        real = getattr(verify, name)

        def first_row_plus_one(*args):
            first, *rest = real(*args)
            return [first + 1, *rest]

        monkeypatch.setattr(verify, name, first_row_plus_one)
        (check,) = [
            c for c in verify.suite_limits(cache=small_cache)
            if c.name.startswith("series-engine")
        ]
        assert check_line(check) == f"[FAIL] series-engine(t<=3,depth=6): {line}"

    @pytest.mark.parametrize("lift, line", [
        ((-1, 0), "l=1: lower end 1/16 != a_l + (1/3)4^-(2l+1)"),
        ((0, 1), "l=1: truncation 3/16 != (2/3)4^-l + (1/3)4^-(2l+1)"),
    ])
    def test_g_limit_closed_form(self, monkeypatch, small_cache, lift, line):
        # at l = 1, depth 3: [5, 11] / 64, so one grid step off either end
        real = verify.g_l_limit

        def planted(l, depth, cache):
            g = real(l, depth, cache)
            return GLimit(g.lo + lift[0], g.hi + lift[1], g.c)

        monkeypatch.setattr(verify, "g_l_limit", planted)
        (check,) = [
            c for c in verify.suite_limits(cache=small_cache)
            if c.name == "g-limit-closed-form"
        ]
        assert check_line(check) == f"[FAIL] g-limit-closed-form: {line}"


def snapshot(cache):
    return (
        {t: level.tolist() for t, level in cache.levels.items()},
        dict(cache.c_entries),
    )


def cache_consistency(cache):
    (check,) = [
        c for c in verify.suite_constants(cache=cache) if c.name == "cache-consistency"
    ]
    return check.run()


class TestCacheConsistency:
    def held(self, level_3):
        # levels 2 and 3 without 1, and C[1,6] without C[1,4] and C[1,5]:
        # the re-sweep sweeps what is missing into its own cache alone
        truth = ConstantCache()
        a_levels(1, 3, truth)
        cache = ConstantCache()
        cache.set_level(2, truth.levels[2])
        cache.set_level(3, level_3)
        cache.set_c(1, 6, c_consts(1, 6, truth)[-1])
        return cache

    def test_pass_leaves_the_loaded_cache_as_it_was(self):
        cache = self.held([3, 3, 2, 1])
        before = snapshot(cache)
        result = cache_consistency(cache)
        assert result.line() == (
            "[PASS] cache-consistency: 6 re-swept A and 1 re-swept C match the cache"
        )
        assert snapshot(cache) == before

    def test_fail_leaves_the_loaded_cache_as_it_was(self):
        # A_{3} and A_{2,3} swapped keep the level rule, so the cache takes them
        cache = self.held([2, 3, 3, 1])
        before = snapshot(cache)
        result = cache_consistency(cache)
        assert result.line() == "[FAIL] cache-consistency: A[3] recomputed as 3, cached 2"
        assert snapshot(cache) == before


def route_table_names():
    """The check names in the route table of ``verify``'s docstring."""
    lines = verify.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.strip().startswith("====")]
    table = "\n".join(lines[rules[0] : rules[-1]])
    return set(re.findall(r"``([a-z0-9]+(?:-[a-z0-9]+)+)``", table))


def test_route_table_names_every_check(shipped_cache):
    # every suite's checks, built and not run; the shipped cache holds A
    # levels and C, so cache-consistency is among them
    built = {
        check.name.split("(")[0]
        for suite in verify.SUITES.values()
        for check in suite(cache=shipped_cache)
    }
    table = route_table_names()
    assert len(built) == 28
    assert built - table <= {"g1-empirical-report"}
    assert table <= built
