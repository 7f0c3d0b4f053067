import math
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from nsdensity import cli, enumeration, limits
from nsdensity.core import DSet
from nsdensity.constants import ConstantCache, a_levels, c_const, cache_store
from nsdensity.limits import (
    GammaEstimate,
    GammaTable,
    Interval,
    a_constant,
    alpha_limit,
    alpha_masks,
    decimal_str,
    enclosure,
    g_l_limit,
    gamma,
    gamma_lower_bound,
    gamma_table,
    ratio_str,
    refined_lo,
    tail_bound,
    truncation_numerators,
)
from nsdensity.verify import check_alpha_partial_telescope, suite_limits

CACHE_PATH = str(Path(__file__).resolve().parents[1] / "nsdensity.cache")


def decimal_oracle(x):
    """The Decimal route decimal_str took before its integer rounding: a
    quotient at 35 digits, quantized half to even at 5 places."""
    x = Fraction(x)
    quantum = Decimal(1).scaleb(-5)
    with localcontext() as ctx:
        ctx.prec = 35
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return str(d.quantize(quantum, rounding=ROUND_HALF_EVEN))


class TestScalars:
    def test_decimal_str(self):
        assert decimal_str(Fraction(1, 3)) == "0.33333"
        assert decimal_str(Fraction(-1, 3)) == "-0.33333"
        assert decimal_str(2) == "2.00000"
        # round-half-even at the last place
        assert decimal_str(Fraction(25, 10**6)) == "0.00002"
        assert decimal_str(Fraction(35, 10**6)) == "0.00004"

    def test_decimal_str_equals_the_decimal_route(self, shipped_cache):
        table = gamma_table(8, 15, shipped_cache)
        q, tail = 4**15, 3**15
        assert sum(s < tail for s in table.numerators) == 247  # raw lo < 0
        values = [
            Fraction(n, q)
            for s, lo in zip(table.numerators, table.refined_lows)
            for n in (s, s - tail, lo)
        ]
        values += [gamma_lower_bound(t) for t in range(1, 9)]
        values += [
            Fraction(-1, 10**7), Fraction(1, 200000), Fraction(3, 200000),
            Fraction(-1, 200000), Fraction(-3, 200000),
            Fraction(0), Fraction(1), Fraction(-1), Fraction(123456789, 7),
        ]
        for x in values:
            assert decimal_str(x) == decimal_oracle(x), x
        assert decimal_str(Fraction(-1, 10**7)) == "-0.00000"
        assert decimal_str(Fraction(1, 200000)) == "0.00000"
        assert decimal_str(Fraction(-3, 200000)) == "-0.00002"
        rng = random.Random(7)
        for _ in range(3000):
            x = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
            assert decimal_str(x) == decimal_oracle(x), x

    def test_dyadic_ratios_equal_the_decimal_route(self):
        # enumerate's mu_decimal: p / 2^(f-1), not reduced first
        for f in range(1, 17):
            sets = 1 << (f - 1)
            for p in range(sets + 1):
                assert ratio_str(p, sets) == decimal_oracle(Fraction(p, sets)), (p, f)

    def test_tail_bound(self):
        assert tail_bound(0) == 1
        assert tail_bound(2) == Fraction(9, 16)

    def test_a_constant(self):
        assert a_constant(0) == Fraction(-1, 12)
        assert a_constant(1) == Fraction(7, 96)
        assert a_constant(2) == Fraction(1, 24) - Fraction(3, 256)
        for l in range(1, 8):
            assert a_constant(l) > 0

    def test_gamma_lower_bound(self):
        assert gamma_lower_bound(1) == Fraction(7, 384)
        assert gamma_lower_bound(0) == Fraction(-1, 24)  # D = ∅: vacuous


class TestInterval:
    def test_basics(self):
        iv = Interval(Fraction(1, 4), Fraction(1, 2))
        assert iv.hi - iv.lo == Fraction(1, 4)
        assert iv.intersects(Interval(Fraction(1, 3), Fraction(1, 3)))
        assert not iv.intersects(Interval(Fraction(3, 5), Fraction(3, 5)))
        assert str(iv) == "[0.25000, 0.50000]"

    def test_intersects(self):
        a = Interval(Fraction(0), Fraction(1, 2))
        b = Interval(Fraction(1, 2), Fraction(1))
        c = Interval(Fraction(3, 4), Fraction(1))
        assert a.intersects(b) and b.intersects(a)  # closed endpoints touch
        assert not a.intersects(c) and not c.intersects(a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))


class TestGamma:
    def test_frozen_truncations(self):
        g = gamma(DSet(), 0)
        assert (g.value, g.a_d, g.terms) == (Fraction(1), 1, ())
        assert gamma(DSet(), 1).value == Fraction(3, 4)
        g2 = gamma(DSet(), 2)
        assert g2.value == Fraction(5, 8)
        assert g2.terms == ((1, 1), (2, 2))
        g3 = gamma(DSet.of([1]), 2)
        assert (g3.value, g3.a_d, g3.terms) == (Fraction(3, 16), 1, ((2, 1),))
        g4 = gamma(DSet.of([1, 3]), 3)
        assert (g4.value, g4.a_d, g4.terms) == (Fraction(3, 64), 3, ())

    def test_depth_below_max_rejected(self):
        with pytest.raises(ValueError):
            gamma(DSet.of([1, 3]), 2)

    def test_interval(self):
        g = gamma(DSet(), 2)
        assert g.interval.lo == Fraction(5, 8) - Fraction(9, 16)
        assert g.interval.hi == Fraction(5, 8)

    def test_refined_interval_clamps(self):
        g = gamma(DSet.of([1]), 2)
        assert g.interval.lo < 0
        assert g.refined_interval.lo == Fraction(7, 384)
        assert g.refined_interval.hi == g.value

    def test_intervals_are_computed_once(self):
        g = gamma(DSet.of([1]), 6)
        assert g.interval is g.interval
        assert g.refined_interval is g.refined_interval

    def test_value_is_the_exact_series(self):
        cache = ConstantCache()
        a_levels(1, 8, cache)
        d = DSet.of([2, 3])
        g = gamma(d, 8, cache)
        want = Fraction(cache.a(d), 4**3) - sum(
            Fraction(cache.a(d.with_added(k)), 4**k) for k in range(4, 9)
        )
        assert g.value == want

    def test_refined_interval_empty_is_an_error(self):
        # a value below the structural bound would refute the constants
        fake = GammaEstimate(
            DSet.of([1]), 5, Fraction(1, 1000), Fraction(0), 1, ()
        )
        with pytest.raises(ValueError):
            fake.refined_interval

    def test_truncations_monotone_and_nested(self):
        cache = ConstantCache()
        prev = None
        for depth in range(1, 11):
            g = gamma(DSet.of([1]), depth, cache)
            if prev is not None:
                assert g.value <= prev.value
                assert g.interval.lo >= prev.interval.lo
                assert g.interval.hi <= prev.interval.hi
            prev = g


class TestEngine:
    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 8), (5, 6), (4, 8), (3, 13), (8, 16), (9, 64)])
    def test_ranges_equal_the_whole_table(self, shipped_cache, lo, hi):
        whole = truncation_numerators(0, 1 << 6, 15, shipped_cache)
        assert truncation_numerators(lo, hi, 15, shipped_cache) == whole[lo:hi]

    def test_rows_equal_gamma_at_every_depth(self, small_cache):
        for depth in range(7):
            got = truncation_numerators(0, 1 << depth, depth, small_cache)
            for m, s in enumerate(got):
                assert Fraction(s, 4**depth) == gamma(DSet(m), depth, small_cache).value

    def test_sweeps_only_levels_max_lo_to_depth(self):
        # the levels the oracle sweeps for one D: Max(D)..depth
        cache, per_d = ConstantCache(), ConstantCache()
        d = DSet.of([2, 5])
        (s,) = truncation_numerators(d.mask, d.mask + 1, 9, cache)
        assert Fraction(s, 4**9) == gamma(d, 9, per_d).value
        assert sorted(cache.levels) == sorted(per_d.levels) == [5, 6, 7, 8, 9]

    @pytest.mark.parametrize("query, levels", [
        (lambda cache: truncation_numerators(0, 8, 12, cache), list(range(1, 13))),
        (lambda cache: truncation_numerators(20, 21, 12, cache), list(range(5, 13))),
        (lambda cache: g_l_limit(2, 13, cache), None),
        (lambda cache: g_l_limit(1, 15, cache), None),
    ])
    def test_one_table_per_call(self, monkeypatch, query, levels):
        # every level or C a query lacks comes from one top-slice table,
        # read once per level
        built, read = [], []
        real_table, real_windows = enumeration._slice_table, enumeration._SliceTable.windows

        def table(digits, forced=0):
            built.append(len(digits))
            return real_table(digits, forced)

        def windows(tbl, t, rows):
            read.append(t)
            return real_windows(tbl, t, rows)

        monkeypatch.setattr(enumeration, "_slice_table", table)
        monkeypatch.setattr(enumeration._SliceTable, "windows", windows)
        cache = ConstantCache()
        query(cache)
        assert len(built) == 1
        if levels is not None:
            assert read == levels and sorted(cache.levels) == levels
        query(cache)  # everything is held now: no second table
        assert len(built) == 1

    def test_one_table_fills_the_gaps_of_a_cache(self, monkeypatch):
        built = []
        real = enumeration._slice_table
        monkeypatch.setattr(
            enumeration, "_slice_table",
            lambda digits, forced=0: built.append(len(digits)) or real(digits, forced),
        )
        full = ConstantCache()
        a_levels(1, 9, full)
        assert built == [8]  # levels 1..9, the free digits of level 9
        cache = ConstantCache()
        for t in (1, 2, 4, 5, 8, 9):
            cache.set_level(t, full.levels[t])
        truncation_numerators(0, 4, 11, cache)  # levels 3, 6, 7, 10 and 11
        assert built == [8, 10] and cache.a_depth() == 11
        assert all((cache.levels[t] == full.levels[t]).all() for t in range(1, 10))

    def test_enclosure_is_the_oracle_interval(self, small_cache, shipped_cache):
        # one D: the oracle's own Fraction interval; the distinct D of
        # [1, 6] together: the sum of their oracle values, with one tail
        depth, q = 6, 4**6
        rows = truncation_numerators(0, 1 << depth, depth, small_cache)
        for m in (0, 1, 5, 32, 63):
            want = gamma(DSet(m), depth, small_cache).interval
            assert Interval.on_grid(*enclosure((rows[m],), depth), depth) == want
        total = sum(gamma(DSet(m), depth, small_cache).value for m in range(1 << depth))
        lo, hi = enclosure(rows, depth)
        assert (Fraction(lo, q), Fraction(hi, q)) == (total - tail_bound(depth), total)
        # the certificate holds: the family's depth-15 enclosure nests inside
        deep = enclosure(truncation_numerators(0, 1 << depth, 15, shipped_cache), 15)
        assert lo * 4**15 <= deep[0] * q <= deep[1] * q <= hi * 4**15

    def test_validation(self):
        for lo, hi, depth in [(-1, 1, 3), (2, 2, 3), (3, 2, 3), (0, 9, 3)]:
            with pytest.raises(ValueError):
                truncation_numerators(lo, hi, depth)


class TestAlpha:
    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_limit(0, 5)
        with pytest.raises(ValueError):
            alpha_limit(-2, 5)
        with pytest.raises(ValueError):
            alpha_limit(3, 2)

    def test_alpha_minus_one_is_gamma_empty(self):
        assert alpha_masks(-1) == range(1)
        assert alpha_limit(-1, 5) == [gamma(DSet(), 5).value * 4**5]

    def test_frozen_values(self):
        assert Fraction(sum(alpha_limit(1, 3)), 4**3) == Fraction(9, 64)
        # gamma_{2}(4) + gamma_{1,2}(4) = 22/256 + 9/256
        assert alpha_limit(2, 4) == [22, 9]
        assert [DSet(m).elements for m in alpha_masks(2)] == [(2,), (1, 2)]

    def test_shared_tail(self):
        # 2^(n-1) summands, one tail: the collapse is the whole point
        parts = alpha_limit(3, 6)
        assert len(parts) == 4
        s = sum(parts)
        shared = Interval.on_grid(s - 3**6, s, 6)
        assert shared.hi - shared.lo == tail_bound(6)
        # one tail in place of the four the summands' intervals add up to
        each = [gamma(DSet(m), 6).interval for m in alpha_masks(3)]
        assert sum((iv.hi - iv.lo for iv in each), Fraction(0)) == 4 * tail_bound(6)
        assert shared.hi == sum((iv.hi for iv in each), Fraction(0))

    @pytest.mark.parametrize("n", [-1, 1, 2, 3, 4, 5, 6, 7, 8])
    def test_rows_equal_gamma(self, shipped_cache, n):
        # each summand's numerator against the per-D Fraction oracle, so
        # the alpha value, their sum, is the sum of the oracle's values
        q = 4**15
        want = [
            gamma(DSet(m), 15, shipped_cache).value for m in alpha_masks(n)
        ]
        parts = alpha_limit(n, 15, shipped_cache)
        assert [Fraction(s, q) for s in parts] == want
        assert Fraction(sum(parts), q) == sum(want)

    def test_partial_sum_is_the_sum_of_gammas(self, small_cache):
        # sum_{n<=n_max} alpha_n is the engine's sum over [0, 2^n_max); verify's
        # telescoped check states its interval
        for n_max in range(5):
            want = sum(
                (gamma(DSet(m), 6, small_cache).value
                 for m in range(1 << n_max)),
                Fraction(0),
            )
            s = sum(truncation_numerators(0, 1 << n_max, 6, small_cache))
            assert Fraction(s, 4**6) == want, n_max
            res = check_alpha_partial_telescope(n_max, 6, small_cache).run()
            iv = Interval(want - tail_bound(6), want)
            assert res.passed, res.detail
            assert res.detail == (
                f"sum_(n<={n_max}) alpha_n = {iv} <= 1, telescoped form agrees"
            )

    def test_partial_sum(self):
        assert sum(truncation_numerators(0, 1, 4)) == gamma(DSet(), 4).value * 4**4
        assert Fraction(sum(truncation_numerators(0, 4, 4)), 4**4) == Fraction(201, 256)
        # n_max = 5 lies above depth 4: the engine refuses the range, so the
        # check FAILs
        res = check_alpha_partial_telescope(5, 4, ConstantCache()).run()
        assert not res.passed and res.detail.startswith("mask range [0, 32)")

    def test_telescope_check_catches_a_wrong_row(self, small_cache, monkeypatch):
        real = truncation_numerators
        monkeypatch.setattr(
            "nsdensity.verify.truncation_numerators",
            lambda *args: [s + (i == 3) for i, s in enumerate(real(*args))],
        )
        res = check_alpha_partial_telescope(2, 6, small_cache).run()
        assert not res.passed
        assert res.detail.startswith("partial alpha sum ") and "telescoped form" in res.detail


class TestGLimit:
    def test_frozen_l1(self):
        g = g_l_limit(1, 3)
        assert (g.lo, g.hi, g.c) == (5, 11, (1, 1, 1))
        assert Interval.on_grid(g.lo, g.hi, 3) == Interval(Fraction(5, 64), Fraction(11, 64))
        assert Fraction(g.lo, 64) >= a_constant(1)

    def test_minimal_depth_closed_form(self):
        # truncating right at 2l+1 uses only unit constants
        for l in (1, 2, 3):
            g = g_l_limit(l, 2 * l + 1)
            assert Fraction(g.hi, 4 ** (2 * l + 1)) == Fraction(2, 3) / 4**l + Fraction(1, 3) / 4 ** (2 * l + 1)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_grid_equals_the_fraction_sum(self, shipped_cache, l):
        # the series and tail of the docstring, summed over Fractions
        depth = 13
        g = g_l_limit(l, depth, shipped_cache)
        c = [c_const(l, k, shipped_cache) for k in range(1, depth + 1)]
        value = Fraction(1, 2**l) - sum(
            Fraction(ck, 2 ** (l + k) if k <= l else 4**k) for k, ck in enumerate(c, 1)
        )
        tail = Fraction(2**l, 3 ** (2 * l)) * tail_bound(depth)
        assert g.c == tuple(c)
        assert Interval.on_grid(g.lo, g.hi, depth) == Interval(value - tail, value)
        assert value - tail >= a_constant(l)

    def test_validation(self):
        with pytest.raises(ValueError):
            g_l_limit(0, 5)
        with pytest.raises(ValueError):
            g_l_limit(1, 2)


def pair_loop_inconclusive(intervals):
    """Pairs of intervals that intersect, one pair at a time."""
    return sum(
        1
        for i in range(len(intervals))
        for j in range(i + 1, len(intervals))
        if intervals[i].intersects(intervals[j])
    )


def refined_intervals(max_t, depth, cache):
    """gamma(D).refined_interval for every D with Max(D) <= max_t."""
    return [
        gamma(DSet(m), depth, cache).refined_interval
        for m in range(1 << max_t)
    ]


class TestGammaTable:
    def test_small_table(self):
        table = gamma_table(3, 6)
        assert len(table.rows) == 8
        assert table.rows[0] == 0
        assert sorted(table.rows) == list(range(8))
        assert list(table.numerators) == sorted(table.numerators, reverse=True)
        distinct, inconclusive = table.distinctness_counts()
        assert distinct + inconclusive == 8 * 7 // 2

    @pytest.mark.parametrize("max_t, depth", [(8, 15), (8, 8), (5, 5), (3, 3), (2, 2), (1, 1)])
    def test_rows_equal_gamma(self, shipped_cache, max_t, depth):
        # order, value, raw lower end and refined lower end of every row,
        # against the per-D Fraction route; depths below 15 hold ties
        table = gamma_table(max_t, depth, shipped_cache)
        q = 4**depth
        ests = sorted(
            (gamma(DSet(m), depth, shipped_cache) for m in range(1 << max_t)),
            key=lambda g: (-g.value, g.d.elements),
        )
        assert list(table.rows) == [g.d.mask for g in ests]
        for s, lo, g in zip(table.numerators, table.refined_lows, ests):
            assert Fraction(s, q) == g.value == g.interval.hi
            assert Fraction(s - 3**depth, q) == g.interval.lo
            assert lo == math.ceil(g.refined_interval.lo * q)
            assert refined_lo(g.d.mask, s, depth) == math.ceil(g.refined_interval.lo * q)

    def test_distinctness_matches_pair_loop(self, shipped_cache):
        table = gamma_table(6, 15, shipped_cache)
        n = len(table.rows)
        inconclusive = pair_loop_inconclusive(refined_intervals(6, 15, shipped_cache))
        assert 0 < inconclusive < n * (n - 1) // 2
        assert table.distinctness_counts() == (
            n * (n - 1) // 2 - inconclusive, inconclusive
        )

    def test_distinctness_matches_pair_loop_small_tables(self, shipped_cache):
        for max_t in range(7):
            table = gamma_table(max_t, 15, shipped_cache)
            n = len(table.rows)
            inconclusive = pair_loop_inconclusive(
                refined_intervals(max_t, 15, shipped_cache)
            )
            assert table.distinctness_counts() == (
                n * (n - 1) // 2 - inconclusive, inconclusive
            ), max_t

    def test_distinctness_with_planted_ties(self):
        # depth 3: q = 64 and tail 27/64; the bound's ceilings on the grid
        # are 2/64 for t = 1 and 1/64 for t = 2, 3.  Ties hi_i == lo_j
        # touch, so they intersect, and D = {1}'s lower end 7/384, just
        # above 1/64, must separate it from a row ending at 1/64
        rows = (0, 2, 4, 1, 6, 3)  # ∅, {2}, {3}, {1}, {2,3}, {1,2}
        nums = (64, 37, 10, 4, 2, 1)
        table = GammaTable(3, 3, rows, nums)
        # [37, 64], [10, 37], [1, 10], [2, 4], [1, 2], [1, 1]
        assert table.refined_lows == [37, 10, 1, 2, 1, 1]
        # {1}, {1,2} and {3} have S <= 27, so their raw lower ends are 0 and
        # their refined ones the bound's ceilings for t = 1, 2, 3
        assert [table.refined_lows[rows.index(m)] for m in (1, 3, 4)] == [2, 1, 1]
        exact = [
            Interval(
                max(Fraction(s - 27, 64), Fraction(0),
                    gamma_lower_bound(m.bit_length()) if m else Fraction(0)),
                Fraction(s, 64),
            )
            for m, s in zip(rows, nums)
        ]
        assert exact[3].lo == Fraction(7, 384) > exact[5].hi == Fraction(1, 64)
        inconclusive = pair_loop_inconclusive(exact)
        assert table.distinctness_counts() == (15 - inconclusive, inconclusive)
        assert inconclusive == 7

    def test_bound_above_a_value_fails_verify_and_table(
        self, shipped_cache, monkeypatch, capsys
    ):
        # a bound above every Max(D) = 3 value empties those refined
        # intervals: verify names the first such row, {3}, and table exits 1
        real = limits.gamma_lower_bound
        monkeypatch.setattr(
            limits, "gamma_lower_bound", lambda t: Fraction(1) if t == 3 else real(t)
        )
        lines = [c.run().line() for c in suite_limits(cache=shipped_cache)]
        assert "[FAIL] positivity-consistency: empty refined interval for D = 3: " \
            f"lower end 1 above upper end {gamma(DSet.of([3]), 10).value * 4**10}" \
            "/4^10" in lines
        code = cli.main(
            ["table", "--max-t", "3", "--depth", "15", "--cache", CACHE_PATH]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("internal inconsistency: empty refined interval for D = 3")

    def test_empty_cache_sweeps_levels_to_depth(self, tmp_path):
        # the per-D route's levels 1..depth, so --write-cache files match it
        cache = ConstantCache()
        gamma_table(3, 6, cache)
        assert sorted(cache.levels) == list(range(1, 7))
        per_d = ConstantCache()
        for m in range(8):
            gamma(DSet(m), 6, per_d)
        cache_store(cache, tmp_path / "table.cache")
        cache_store(per_d, tmp_path / "gamma.cache")
        assert (tmp_path / "table.cache").read_bytes() == (tmp_path / "gamma.cache").read_bytes()

    def test_refined_lo_empty_is_an_error(self):
        # D = {1}: 18/4^5 lies below the bound 7/384, 19/4^5 above it
        assert refined_lo(1, 19, 5) == 19 == math.ceil(Fraction(7, 384) * 4**5)
        with pytest.raises(ValueError, match="empty refined interval for D = 1"):
            refined_lo(1, 18, 5)

    def test_leading_order_at_full_depth(self, shipped_cache):
        table = gamma_table(4, 15, shipped_cache)
        lead = [DSet(m).elements for m in table.rows[:5]]
        assert lead == [(), (1,), (2,), (3,), (1, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_table(-1, 3)
        with pytest.raises(ValueError):
            gamma_table(4, 3)
