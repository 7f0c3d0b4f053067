import contextlib
import functools
import hashlib
import io
import os
from fractions import Fraction

import numpy as np
import pytest

from nsdensity.core import (
    DSet,
    NumericalSet,
    Semigroup,
    a_mask,
    as_semigroup,
    associated_semigroup_definitional,
    multiplicity,
    n_f,
    n_of,
    suffix_pattern,
)
from nsdensity.enumeration import (
    BudgetError,
    DensityTable,
    density_table,
    top_slice_counts,
    window_counts,
    window_restrict,
)
from nsdensity import cli, enumeration
from nsdensity.verify import (
    check_amap_sweep,
    check_preimage_identity,
    check_topslice_sweep,
)

# preimage counts at f = 9, keyed by D(S); computed with the pairwise-scan
# reference route and frozen
TABLE_9 = {
    "∅": 140, "1": 28, "2": 22, "3": 9, "4": 8,
    "1,3": 7, "1,2": 6, "1,4": 6, "2,3": 6,
    "1,2,4": 3, "1,2,5": 3, "3,4": 3,
    "1,2,3": 2, "1,3,4": 2, "1,3,5": 2, "1,5": 2, "2,3,4": 2, "2,4": 2,
    "1,2,3,4": 1, "1,2,3,5": 1, "1,3,5,7": 1,
}


def definitional_window_counts(f, width, prefix_zeros=0):
    """Brute-force window histogram via the pairwise-scan A(T)."""
    counts = {}
    step = 1 << prefix_zeros if prefix_zeros else 1
    for mask in range(0, 1 << (f - 1), 1):
        if mask & (step - 1):
            continue
        a = associated_semigroup_definitional(NumericalSet(f, mask))
        key = suffix_pattern(a, width).mask if width else 0
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestDensityTable:
    def test_f9_fixture(self):
        table = density_table(9)
        assert len(table) == 21
        got = {}
        from nsdensity.core import d_of
        for s, p in table.entries.items():
            got[d_of(s).key] = p
        assert got == TABLE_9

    def test_f3(self):
        table = density_table(3)
        assert dict(table.entries) == {
            as_semigroup(n_of(DSet(), 3, warn_uncertified=False)): 3,
            as_semigroup(n_of(DSet.of([1]), 3, warn_uncertified=False)): 1,
        }

    def test_sum_identity(self):
        for f in range(1, 15):
            table = density_table(f)
            assert sum(table.entries.values()) == 1 << (f - 1)

    def test_mu_and_sorting(self):
        table = density_table(9)
        assert table.mu(n_f(9)) == Fraction(140, 256)
        entries = table.sorted_entries()
        assert [p for _, p in entries] == sorted(
            (p for _, p in entries), reverse=True
        )

    def test_validation(self):
        def table(f, masks, counts, prefix_zeros=0):
            return DensityTable(
                f, prefix_zeros, np.array(masks, dtype=np.uint64),
                np.array(counts, dtype=np.int64),
            )

        with pytest.raises(ValueError, match="expected 2\\^2"):
            table(3, [0], [3])  # sum is 3, not 4
        with pytest.raises(ValueError, match="expected 2\\^1"):
            table(3, [0], [4], prefix_zeros=1)  # avoiding [1, 1] leaves 2 sets
        with pytest.raises(ValueError, match="< 1"):
            table(3, [0, 1], [5, -1])
        # entries are validated by Semigroup when they are built
        with pytest.raises(ValueError, match="out of range for f=3"):
            table(3, [4], [4]).entries  # no gap mask of f = 3 has bit 2
        with pytest.raises(ValueError, match="not closed"):
            table(5, [1], [16]).entries  # {0, 1, 6, ...} lacks 1 + 1
        assert table(3, [0, 2], [3, 1]).entries == density_table(3).entries

    def test_workers_equivalence(self):
        assert density_table(13).entries == density_table(13, workers=3).entries

    def test_workers_capped_at_chunks_and_cpus(self, monkeypatch):
        # a stand-in pool that records its size and runs tasks inline, so
        # no thread starts whatever size is asked for
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(enumeration, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # 8 chunks of 2^16 sets at f = 20, 2 at f = 18
        for f, pool in ((20, 4), (18, 2)):
            want = density_table(f).entries
            assert density_table(f, workers=10**6).entries == want
            assert sizes.pop() == pool
        assert sizes == []

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"\(2\^24 sets\)"):
            density_table(25, budget=24)

    def test_budget_states_the_prefix_sweep(self):
        # avoiding [1, 5] leaves 2^34 of the 2^39 sets at f = 40
        with pytest.raises(BudgetError, match=r"f=40 exceeds budget f<=30 \(2\^34 sets\)"):
            density_table(40, prefix_zeros=5, budget=30)
        with pytest.raises(BudgetError, match=r"\(2\^28 sets\)"):
            window_counts(31, 4, prefix_zeros=2)

    def test_preimage_counts_match_table(self):
        f = 12
        table = density_table(f)
        # n_f may repeat a table entry: duplicates must not double-count
        targets = list(table.entries)[:5] + [n_f(f), n_f(f)]
        got = table.preimages([s.gaps_mask for s in targets])
        assert got.tolist() == [table.entries[s] for s in targets]
        assert table.preimages(0) == table.entries[n_f(f)]
        # masks of no semigroup at f = 12, among and above the swept ones:
        # {0, 1, 13, ...} and {0, 2, ..., 11, 13, ...}, where 2 + 10 = f
        absent = [1, (1 << (f - 1)) - 2, (1 << 63) + 5]
        assert table.preimages(absent).tolist() == [0, 0, 0]
        assert table.preimages([]).tolist() == []


@functools.lru_cache(maxsize=None)
def core_amasks(f, prefix_zeros):
    """A-masks from the pure-python route, in flat-sweep order."""
    return [a_mask(f, i << prefix_zeros) for i in range(1 << (f - 1 - prefix_zeros))]


def sweep_amasks(f, **sweep):
    parts = enumeration._map_chunks(f, lambda amask: amask.copy(), **sweep)
    return np.concatenate(parts).tolist()


# density_table(f) for f = 1..24 and `enumerate --f 24` stdout, recorded
# before the A-map kernel was block-decomposed
TABLE_SIZES = [1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40, 106, 103, 200, 205,
               465, 405, 961, 900, 1828, 1913, 4096, 3578]
TABLES_SHA256 = "bacca686eddd6c7da994247f7444a6ec79e27e90dc9bf70bba736fe35b3b645b"
ENUMERATE_24_SHA256 = {
    "text": "de985aaaa82734f54534ece76f68372e95524cc569f1f0b1921d5a2b4ec82d32",
    "csv": "b4182e1a7dbafb0d767af9f4d2cfecb82eace03e51fc7bbbc18ee5a094db76fa",
    "json": "38ed9abf24753585f03d507d570482fedafd944d188e70e2d86422472129028c",
}


class TestAMapSweep:
    # chunk 2 leaves L1 empty, 8 splits L as 1 + 2 positions, 32 as 2 + 3;
    # None is the default block, which covers every sweep at f <= 14
    @pytest.mark.parametrize("chunk", [2, 8, 32, None])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_core_a_mask(self, chunk, workers):
        for f in range(1, 15):
            for l in range(f):
                got = sweep_amasks(f, prefix_zeros=l, chunk=chunk, workers=workers)
                assert got == core_amasks(f, l), (f, l)

    def test_edge_sizes(self):
        # f = 1: one set, no free position; f = 2: one free position, and
        # 1 never lies in A(T), since (0, 1) or (1, 2) violates
        assert sweep_amasks(1) == [0]
        assert sweep_amasks(2) == core_amasks(2, 0) == [0, 0]
        assert dict(density_table(1).entries) == {n_f(1): 1}
        assert dict(density_table(2).entries) == {n_f(2): 2}
        # a sweep smaller than the block is one chunk of 2^(f-1-l) sets
        calls = []
        enumeration._map_chunks(9, calls.append, chunk=1 << 10)
        assert [len(c) for c in calls] == [1 << 8]
        calls.clear()
        enumeration._map_chunks(12, calls.append, prefix_zeros=6, chunk=1 << 8)
        assert [len(c) for c in calls] == [1 << 5]
        # a block of 2^3 sets leaves the positions above it to the chunks
        calls.clear()
        enumeration._map_chunks(9, calls.append, prefix_zeros=2, chunk=12)
        assert [len(c) for c in calls] == [1 << 3] * (1 << 3)

    def test_merge_across_chunks(self):
        # many chunks, each with its own np.unique tally, merge to the table
        f = 13
        chunked = density_table(f, chunk=4, workers=2)
        table = density_table(f)
        assert chunked.masks.tolist() == sorted(s.gaps_mask for s in table.entries)
        assert chunked.counts.tolist() == [
            table.entries[Semigroup(f, m)] for m in chunked.masks.tolist()
        ]
        assert chunked.entries == table.entries

    def test_verify_check(self):
        res = check_amap_sweep(12, 16)
        assert res.passed, res.detail

    def test_tables_unchanged_through_f24(self):
        h = hashlib.sha256()
        sizes = []
        for f in range(1, 25):
            table = density_table(f)
            sizes.append(len(table))
            h.update(f"{f}:".encode())
            h.update(",".join(f"{s.gaps_mask}:{p}" for s, p in table.entries.items()).encode())
            h.update(b";")
        assert sizes == TABLE_SIZES
        assert h.hexdigest() == TABLES_SHA256

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_enumerate_24_output_unchanged(self, fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["enumerate", "--f", "24", "--format", fmt]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == ENUMERATE_24_SHA256[fmt]


class TestIteration:
    def test_iter_counts(self):
        for f in (1, 2, 5):
            sets = [NumericalSet(f, m) for m in range(1 << (f - 1))]
            assert len(sets) == 1 << (f - 1)
            assert all(t.f == f for t in sets)


class TestWindowCounts:
    @pytest.mark.parametrize("f,width,prefix", [(7, 3, 0), (9, 4, 0), (9, 3, 1), (10, 2, 2)])
    def test_against_definitional(self, f, width, prefix):
        got = window_counts(f, width, prefix_zeros=prefix)
        want = definitional_window_counts(f, width, prefix)
        assert got.sum() == 1 << (f - 1 - prefix)
        for mask in range(1 << width):
            assert int(got[mask]) == want.get(mask, 0)

    def test_restrict_matches_direct(self):
        f = 14
        wide = window_counts(f, 5)
        for t in range(6):
            direct = window_counts(f, t)
            assert np.array_equal(window_restrict(wide, 5, t), direct)

    def test_restrict_validation(self):
        with pytest.raises(ValueError):
            window_restrict(np.zeros(8, dtype=np.int64), 3, 4)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            window_counts(9, 5)  # width beyond (f-1)//2


@functools.lru_cache(maxsize=None)
def flat_top_buckets(t, prefix_zeros):
    """Buckets 2^(t-1) on of the flat width-t window sweep at f = 2t+1."""
    f = 2 * t + 1
    return window_counts(f, t, prefix_zeros=prefix_zeros, budget=f)[1 << (t - 1):]


class TestTopSlice:
    @pytest.mark.parametrize("t,prefix", [(1, 0), (2, 1), (4, 0), (5, 2), (7, 3)])
    def test_is_the_top_of_the_full_sweep(self, t, prefix):
        got = top_slice_counts(t, prefix_zeros=prefix)
        full = window_counts(2 * t + 1, t, prefix_zeros=prefix)
        low = 1 << (t - 1)
        assert got.sum() == 2**prefix * 3 ** (t - 1 - prefix)
        assert not got[:low].any()
        assert np.array_equal(got[low:], full[low:])

    def test_chunks_and_workers(self):
        # 3^13 sets run as several chunks of the trailing-digit table
        one = top_slice_counts(14)
        assert np.array_equal(one, top_slice_counts(14, workers=2))
        assert one.sum() == 3**13

    def test_stray_window_is_an_error(self, monkeypatch):
        # a kernel that loses the top window bit must not go unnoticed
        real = enumeration._slice_trailing_table
        monkeypatch.setattr(
            enumeration, "_slice_trailing_table",
            lambda t, trailing: real(t, trailing) & np.int64((1 << (t - 1)) - 1),
        )
        with pytest.raises(AssertionError, match="below 2\\^2"):
            top_slice_counts(3)

    def test_fourth_pair_state_is_an_error(self, monkeypatch):
        # x in T with x+t+1 out of T puts t+1 outside A(T); the pair rule,
        # not the state list, must see that, in the trailing table and in
        # the per-chunk vectors alike
        monkeypatch.setattr(
            enumeration, "_PAIR_STATES",
            enumeration._PAIR_STATES + ((True, False),),
        )
        with pytest.raises(AssertionError, match="below 2\\^4"):
            top_slice_counts(5)
        t, f = 6, 13
        for chunk in (1, 3, 9, None):
            got = enumeration._window_histogram(
                f, t, budget=f, chunk=chunk
            )
            # every set with a pair in the fourth state lands below 2^(t-1),
            # and the sets without one keep their windows
            assert got[: 1 << (t - 1)].sum() == 4 ** (t - 1) - 3 ** (t - 1)
            assert np.array_equal(got[1 << (t - 1):], flat_top_buckets(t, 0))

    # chunk 3 leaves one trailing digit and the rest leading, 9 and 27 split
    # the trailing digits into two halves; the default covers t <= 10 in one
    @pytest.mark.parametrize("chunk", [3, 9, 27, None])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunked_slice_is_the_top_of_the_flat_sweep(self, chunk, workers):
        for t in range(1, 11):
            f = 2 * t + 1
            for l in range(min(3, t - 1) + 1):
                got = enumeration._window_histogram(
                    f, t, prefix_zeros=l, budget=f,
                    workers=workers, chunk=chunk,
                )
                low = 1 << (t - 1)
                assert not got[:low].any(), (t, l)
                assert np.array_equal(got[low:], flat_top_buckets(t, l)), (t, l)

    def test_chunk_sizes(self):
        # the trailing table takes the most digits that fit the chunk, and
        # a chunk below one digit's states leaves every digit leading
        sizes = []
        enumeration._map_chunks(
            13, lambda w: sizes.append(len(w)), top_slice=True, chunk=27
        )
        assert sizes == [27] * 9
        sizes.clear()
        enumeration._map_chunks(
            13, lambda w: sizes.append(len(w)), top_slice=True,
            prefix_zeros=2, chunk=20,
        )
        assert sizes == [12] * 9
        sizes.clear()
        enumeration._map_chunks(
            9, lambda w: sizes.append(len(w)), top_slice=True, chunk=1
        )
        assert sizes == [1] * 27

    def test_verify_check(self):
        res = check_topslice_sweep(6, 9)
        assert res.passed, res.detail
        assert res.name == "topslice-sweep(t=6,chunk=9)"

    def test_validation(self):
        with pytest.raises(ValueError):
            top_slice_counts(0)
        # the prefix [1, l] is a run of digits: 0 <= l <= t-1
        for t, prefix in ((3, -1), (3, 3), (5, -2), (5, 5), (5, 9)):
            with pytest.raises(ValueError, match="below t"):
                top_slice_counts(t, prefix_zeros=prefix)


class TestBCounters:
    def test_count_B_factorization_spot(self):
        # A_{1} = 1, A_{2} = 2, A_{1,2} = 1 (frozen)
        for f in range(4, 17):
            table = density_table(f)
            assert table.window(1)[DSet.of([1]).mask] == 1 << (f - 3)
            if f >= 6:
                two = table.window(2)
                assert two[DSet.of([2]).mask] == 2 * (1 << (f - 5))
                assert two[DSet.of([1, 2]).mask] == 1 << (f - 5)

    def test_count_B_empty(self):
        # the width-0 window has one pattern, D = ∅, met by every set
        assert density_table(9).window(0).tolist() == [256]
        assert density_table(9, prefix_zeros=3).window(0).tolist() == [32]

    def test_count_B_validation(self):
        with pytest.raises(ValueError):
            density_table(6).window(3)  # needs f > 2t
        with pytest.raises(ValueError):
            density_table(6).window(-1)

    def test_count_B_l_fixture(self):
        # C_{l,k} at minimal f; frozen from the pairwise-scan route
        assert density_table(9, prefix_zeros=1).window(4)[1 << 3] == 3
        assert density_table(11, prefix_zeros=1).window(5)[1 << 4] == 6
        assert density_table(13, prefix_zeros=2).window(6)[1 << 5] == 5

    def test_count_G_l(self):
        assert density_table(9, prefix_zeros=1).preimages(0) == 41
        # prefix partition at l = 0: G_0(f) = P(N_f)
        for f in (8, 9, 10):
            table = density_table(f)
            assert table.preimages(0) == table.entries[n_f(f)]

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_count_G_l_against_definitional(self, l):
        # every set avoiding [1, l], mapped by the pairwise-scan route
        for f in range(7, 12):
            want = sum(
                1 for mask in range(0, 1 << (f - 1), 1 << l)
                if associated_semigroup_definitional(NumericalSet(f, mask)).gaps_mask == 0
            )
            assert density_table(f, prefix_zeros=l).preimages(0) == want, (l, f)

    def test_count_S_residual_not_plain_mult(self):
        # plain "2 m(A(T)) <= f inside B(D,f)" would give 10 here; the
        # partition residual is empty because each such set already lies
        # in some B(D u {k}, f) with 2k < f
        assert density_table(10).census(1).s_counts[DSet.of([1])] == 0

    def test_count_S_against_definitional(self):
        for f in (10, 11):
            wide = (f - 1) // 2
            census = density_table(f).census(3)
            for mask in range(8):
                d = DSet.from_mask(mask)
                want = 0
                for gm in range(1 << (f - 1)):
                    a = associated_semigroup_definitional(NumericalSet(f, gm))
                    am = a.gaps_mask
                    mult = (am & -am).bit_length() if am else f + 1
                    if (suffix_pattern(a, wide) == d) and 2 * mult <= f:
                        want += 1
                assert census.s_counts[d] == want


class TestSuffixCensus:
    @pytest.mark.parametrize("f", [10, 13])
    def test_census_matches_pointwise_counters(self, f):
        # each census column against the semigroup-by-semigroup route over
        # the table's entries, which reads D and m(S) with core's functions
        table = density_table(f)
        census = table.census(3)
        wide = (f - 1) // 2
        for mask in range(8):
            d = DSet.from_mask(mask)
            s = as_semigroup(n_of(d, f, warn_uncertified=False))
            assert census.p_counts[d] == table.entries.get(s, 0)
            assert census.s_counts[d] == sum(
                p for a, p in table.entries.items()
                if suffix_pattern(a, wide) == d and 2 * multiplicity(a) <= f
            )
            if d.max_element >= 1:
                t = d.max_element
                b = window_restrict(census.buckets, census.width, t)
                assert b[d.mask] == table.window(t)[d.mask] == sum(
                    p for a, p in table.entries.items()
                    if suffix_pattern(a, t) == d
                )

    def test_census_validation(self):
        with pytest.raises(ValueError):
            density_table(7).census(4)  # max_t beyond (f-1)//2

    def test_preimage_identity_is_one_sweep(self, monkeypatch):
        # the census and the wide window are two reductions of one table
        calls = []
        real = enumeration._map_chunks

        def counted(f, func, **sweep):
            calls.append((f, sweep.get("prefix_zeros", 0)))
            return real(f, func, **sweep)

        monkeypatch.setattr(enumeration, "_map_chunks", counted)
        res = check_preimage_identity(12)
        assert res.passed, res.detail
        assert calls == [(12, 0)]


class TestWorkers:
    # beyond 2^16 free positions (one BLOCK) a flat sweep has several chunks
    # for the workers to share

    def test_window_counts_with_prefix(self):
        one = window_counts(21, 7, prefix_zeros=2)
        assert np.array_equal(one, window_counts(21, 7, prefix_zeros=2, workers=2))

    def test_suffix_census(self):
        one = density_table(19).census(4)
        two = density_table(19, workers=2).census(4)
        assert np.array_equal(one.buckets, two.buckets)
        assert one.p_counts == two.p_counts and one.s_counts == two.s_counts

    def test_multiplicity_counts(self):
        one, two = density_table(19), density_table(19, workers=2)
        assert one.multiplicities() == two.multiplicities()

    def test_preimage_counts(self):
        f = 19
        goals = [n_of(DSet.from_mask(m), f, warn_uncertified=False).gaps_mask
                 for m in range(16)]
        one, two = density_table(f), density_table(f, workers=2)
        assert np.array_equal(one.preimages(goals), two.preimages(goals))


class TestMultiplicityStats:
    def test_against_definitional(self):
        f = 10
        want = {}
        for gm in range(1 << (f - 1)):
            am = associated_semigroup_definitional(NumericalSet(f, gm)).gaps_mask
            m = (am & -am).bit_length() if am else f + 1
            want[m] = want.get(m, 0) + 1
        assert density_table(f).multiplicities() == want

    def test_small_multiplicity_consistency(self):
        # #{T : m(A(T)) <= bound} from the table against core.a_mask
        f = 14
        counts = density_table(f).multiplicities()
        mults = []
        for gm in range(1 << (f - 1)):
            am = a_mask(f, gm)
            mults.append((am & -am).bit_length() if am else f + 1)
        for bound in (1, 2, 5, 7, f):
            assert sum(c for m, c in counts.items() if m <= bound) == sum(
                1 for m in mults if m <= bound
            )

    def test_alpha_empirical_sums_to_one(self):
        for f in range(1, 13):
            assert sum(density_table(f).alpha().values()) == 1

    def test_alpha_empirical_values(self):
        # R(S) = -1 exactly for the minimal semigroup, so alpha_{-1}(f) is
        # its density
        f = 9
        alpha = density_table(f).alpha()
        assert alpha[-1] == Fraction(TABLE_9["∅"], 256)
        # R(S) = n > 0 collects all D with Max(D) = n
        assert alpha[3] == Fraction(
            TABLE_9["3"] + TABLE_9["1,3"] + TABLE_9["2,3"] + TABLE_9["1,2,3"],
            256,
        )
        assert alpha[2] == Fraction(TABLE_9["2"] + TABLE_9["1,2"], 256)
        # R(S) is -1 or in [1, f-2]: never 0, never below -1
        assert list(alpha) == sorted(alpha)
        assert set(alpha) <= {-1} | set(range(1, f - 1))
