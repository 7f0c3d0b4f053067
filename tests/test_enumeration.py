import contextlib
import functools
import hashlib
import io
import re
from collections import Counter
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
    d_of,
    is_semigroup,
    multiplicity,
    n_of,
    r_value,
    suffix_pattern,
)
from nsdensity.enumeration import (
    BudgetError,
    DensityTable,
    density_table,
    swept_log2,
    top_slice_c,
    top_slice_levels,
    window_counts,
)
from nsdensity import cli, enumeration
from nsdensity.limits import decimal_str
from nsdensity.verify import (
    _window_restrict,
    check_amap_sweep,
    check_preimage_identity,
    check_topslice_sweep,
    suite_core,
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
        for s, p in table.entries.items():
            got[d_of(s).key] = p
        assert got == TABLE_9

    def test_f3(self):
        table = density_table(3)
        assert dict(table.entries) == {
            as_semigroup(n_of(DSet(), 3)): 3,
            as_semigroup(n_of(DSet.of([1]), 3)): 1,
        }

    def test_sum_identity(self):
        for f in range(1, 15):
            table = density_table(f)
            assert sum(table.entries.values()) == 1 << (f - 1)

    def test_mu_and_sorting(self):
        table = density_table(9)
        gaps, _, _, counts = table.ranked()
        assert gaps[0] == Semigroup(9, 0).gaps_mask
        assert Fraction(int(counts[0]), table.sets) == Fraction(140, 256)
        assert counts.tolist() == sorted(counts.tolist(), reverse=True)

    def test_ranked_rows_equal_the_object_route(self):
        # Semigroup objects, d_of, multiplicity, r_value and Fraction are
        # the reference for ranked() and the rows enumerate prints
        for f in range(1, 21):
            table = density_table(f)
            entries = sorted(
                table.entries.items(), key=lambda kv: (-kv[1], kv[0].gaps_mask)
            )
            gaps, d_masks, mults, counts = table.ranked()
            assert gaps.tolist() == [s.gaps_mask for s, _ in entries]
            assert d_masks.tolist() == [d_of(s).mask for s, _ in entries]
            assert mults.tolist() == [multiplicity(s) for s, _ in entries]
            assert counts.tolist() == [p for _, p in entries]
            want = [
                [
                    d_of(s).key, str(multiplicity(s)), str(r_value(s)), str(p),
                    str(Fraction(p, table.sets)),
                    decimal_str(Fraction(p, table.sets)),
                ]
                for s, p in entries
            ]
            args = cli.build_parser().parse_args(["enumerate", "--f", str(f)])
            assert cli.cmd_enumerate(args).rows[:-1] == want, f

    def test_closure_check_equals_is_semigroup(self):
        for f in range(1, 15):
            gaps = range(1 << (f - 1))
            want = [is_semigroup(NumericalSet(f, m)) for m in gaps]
            assert enumeration._closed(np.array(gaps, dtype=np.uint64), f).tolist() == want

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
        # a mask that is no semigroup is refused with Semigroup's message
        with pytest.raises(ValueError, match="out of range for f=3"):
            table(3, [4], [4])  # no gap mask of f = 3 has bit 2
        with pytest.raises(ValueError, match=re.escape(
            "{0, 1, 6->} is not closed under addition"
        )):
            table(5, [1], [16])  # lacks 1 + 1
        # the first bad mask is named: {0, 2, 6, ...} lacks 2 + 2 as well
        with pytest.raises(ValueError, match=re.escape("{0, 1, 6->}")):
            table(5, [0, 1, 2], [14, 1, 1])
        assert table(3, [0, 2], [3, 1]).entries == density_table(3).entries

    def test_closure_disagreement_is_an_error(self, monkeypatch):
        # a closure check that refuses a true semigroup contradicts
        # is_semigroup, which then accepts the mask
        monkeypatch.setattr(
            enumeration, "_closed", lambda gaps, f: np.zeros(gaps.shape, dtype=bool)
        )
        with pytest.raises(AssertionError, match="disagree on 0x0 at f=3"):
            density_table(3)

    def test_preimage_counts_match_table(self):
        f = 12
        table = density_table(f)
        # the minimal semigroup may repeat a table entry: duplicates must
        # not double-count
        targets = list(table.entries)[:5] + [Semigroup(f, 0), Semigroup(f, 0)]
        got = table.preimages([s.gaps_mask for s in targets])
        assert got.tolist() == [table.entries[s] for s in targets]
        assert table.preimages(0) == table.entries[Semigroup(f, 0)]
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
    # each group's array is overwritten by the next group
    return np.concatenate(
        [a.copy() for a in enumeration._flat_groups(f, **sweep)]
    ).tolist()


# the module's GROUP, read before any test patches it
DEFAULT_GROUP = enumeration.GROUP


def partial_group(f, l, chunk):
    """GROUP for 3 chunks in 8 when the 2^(f-1-l) sets make 8 chunks of
    ``chunk`` or more, so that the last group holds 2 of them."""
    return 3 * (1 << (f - 1 - l)) // 8 // (chunk or enumeration.BLOCK) or 1


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
    def test_equals_core_a_mask(self, chunk):
        for f in range(1, 15):
            for l in range(f):
                got = sweep_amasks(f, prefix_zeros=l, chunk=chunk)
                assert got == core_amasks(f, l), (f, l)

    # groups of one chunk, of 4, of 3 in 8 chunks (the last one partial)
    # and the default GROUP; the default chunk is 2^16 sets, so it makes
    # one group
    @pytest.mark.parametrize("chunk", [2, 8, 32, None])
    def test_groups_equal_core_a_mask(self, monkeypatch, chunk):
        for f in range(1, 18):
            for l in range(min(f, 4)):
                groups = [DEFAULT_GROUP, 4, partial_group(f, l, chunk)] + [1] * (f <= 12)
                for group in groups:
                    monkeypatch.setattr(enumeration, "GROUP", group)
                    got = sweep_amasks(f, prefix_zeros=l, chunk=chunk)
                    assert got == core_amasks(f, l), (f, l, group)
        # 64-bit words beyond f = 33, up to the word limit
        for f, l in ((34, 22), (40, 28), (63, 51)):
            for group in (DEFAULT_GROUP, 4, partial_group(f, l, chunk)):
                monkeypatch.setattr(enumeration, "GROUP", group)
                got = sweep_amasks(f, prefix_zeros=l, chunk=chunk)
                assert got == core_amasks(f, l), (f, l, group)

    def test_edge_sizes(self, monkeypatch):
        # f = 1: one set, no free position; f = 2: one free position, and
        # 1 never lies in A(T), since (0, 1) or (1, 2) violates
        assert sweep_amasks(1) == [0]
        assert sweep_amasks(2) == core_amasks(2, 0) == [0, 0]
        assert dict(density_table(1).entries) == {Semigroup(1, 0): 1}
        assert dict(density_table(2).entries) == {Semigroup(2, 0): 2}

        def sizes(f, group=DEFAULT_GROUP, **sweep):
            monkeypatch.setattr(enumeration, "GROUP", group)
            return [len(a) for a in enumeration._flat_groups(f, **sweep)]

        # a sweep smaller than the block is one chunk of 2^(f-1-l) sets
        assert sizes(9, chunk=1 << 10) == [1 << 8]
        assert sizes(12, prefix_zeros=6, chunk=1 << 8) == [1 << 5]
        # a block of 2^3 sets leaves the positions above it to the chunks
        assert sizes(9, prefix_zeros=2, chunk=12, group=1) == [1 << 3] * (1 << 3)
        # GROUP chunks per group, all of them when there are fewer, and a
        # partial last group when GROUP does not divide their number
        assert sizes(9, prefix_zeros=2, chunk=12, group=4) == [1 << 5] * 2
        assert sizes(9, prefix_zeros=2, chunk=1 << 5) == [1 << 6]
        assert sizes(9, prefix_zeros=2, chunk=12, group=3) == [24, 24, 16]
        # the default GROUP: the 2^22 sets visited at f = 24 make 4 groups
        # of 32 chunks, each 2^15 sets as f/2 = 12 halves the low block;
        # 64 chunks of 2^3 make 2 groups, or 3 of 24, 24 and 16 chunks
        assert sizes(24, absent=12) == [1 << 20] * 4
        assert sizes(12, prefix_zeros=2, chunk=12) == [1 << 8] * 2
        assert sizes(12, prefix_zeros=2, chunk=12, group=24) == [192, 192, 128]
        # a group's array is in the tally's word
        assert {a.dtype for a in enumeration._flat_groups(33, prefix_zeros=29)} == {
            np.dtype(np.uint32)
        }
        assert {a.dtype for a in enumeration._flat_groups(34, prefix_zeros=30)} == {
            np.dtype(np.uint64)
        }

    # f/2 lies in L2 at every even f for the default block and at f <= 2,
    # 6 and 10 for chunk 2, 8 and 32, and above the block beyond
    @pytest.mark.parametrize("chunk", [2, 8, 32, None])
    def test_halved_sweep_equals_core_a_mask(self, monkeypatch, chunk):
        for f in range(2, 18, 2):
            for group in (DEFAULT_GROUP, 4, partial_group(f, 1, chunk)):
                monkeypatch.setattr(enumeration, "GROUP", group)
                table = density_table(f, chunk=chunk)
                got = dict(zip(table.masks.tolist(), table.counts.tolist()))
                assert got == Counter(core_amasks(f, 0)), (f, group)
                # T and its dual T* pair up with the same A(T)
                assert (table.counts % 2 == 0).all(), f

    def test_sets_visited(self, monkeypatch):
        # at even f without a prefix the sweep keeps f/2 out of T
        visited = []
        real = enumeration._amask_group

        def counted(*args):
            amask = real(*args)
            visited.append(len(amask))
            return amask

        monkeypatch.setattr(enumeration, "_amask_group", counted)
        for f in range(1, 13):
            for l in range(f):
                for chunk, group in (
                    (4, 4), (4, 3), (4, DEFAULT_GROUP), (None, DEFAULT_GROUP)
                ):
                    monkeypatch.setattr(enumeration, "GROUP", group)
                    visited.clear()
                    density_table(f, prefix_zeros=l, chunk=chunk)
                    halved = f % 2 == 0 and l == 0
                    assert sum(visited) == 1 << (f - 1 - l - halved), (f, l, chunk)
                    assert sum(visited) == 1 << swept_log2(f, prefix_zeros=l)

    def test_merge_across_chunks(self):
        # many groups of chunks, each with its own tally, merge to the table
        f = 13
        chunked = density_table(f, chunk=4)
        table = density_table(f)
        assert chunked.masks.tolist() == sorted(s.gaps_mask for s in table.entries)
        assert chunked.counts.tolist() == [
            table.entries[Semigroup(f, m)] for m in chunked.masks.tolist()
        ]
        assert chunked.entries == table.entries

    def test_verify_check(self):
        res = check_amap_sweep(12, 16).run()
        assert res.passed, res.detail

    def test_verify_sweep_crosses_a_group_boundary(self, monkeypatch):
        # verify's amap-sweep replays the group steps only if its chunked
        # sweep makes two groups or more, each of several chunks
        (check,) = [c for c in suite_core() if c.name.startswith("amap-sweep")]
        f, chunk = check.body.args
        chunks = []
        real = enumeration._amask_group

        def counted(f, prefix_zeros, b, highs, *rest):
            chunks.append(len(highs))
            return real(f, prefix_zeros, b, highs, *rest)

        monkeypatch.setattr(enumeration, "_amask_group", counted)
        density_table(f, chunk=chunk)
        assert len(chunks) >= 2 and min(chunks) >= 2, chunks

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

    def test_width_validation(self):
        with pytest.raises(ValueError):
            window_counts(9, 5)  # width beyond (f-1)//2


def swept_levels(levels, **sweep):
    """Each level's histogram from one table, as the kernel gives it: a
    window below 2^(t-1) is counted, not refused."""
    return dict(enumeration._window_histograms(enumeration._slice_levels(levels, **sweep)))


@functools.lru_cache(maxsize=None)
def flat_top_buckets(t, prefix_zeros):
    """Buckets 2^(t-1) on of the flat width-t window sweep at f = 2t+1."""
    f = 2 * t + 1
    return window_counts(f, t, prefix_zeros=prefix_zeros)[1 << (t - 1):]


class TestTopSlice:
    @pytest.mark.parametrize("t,prefix", [(1, 0), (2, 1), (4, 0), (5, 2), (7, 3)])
    def test_is_the_top_of_the_full_sweep(self, t, prefix):
        ((_, got),) = top_slice_levels([t], prefix_zeros=prefix)
        full = window_counts(2 * t + 1, t, prefix_zeros=prefix)
        low = 1 << (t - 1)
        assert got.sum() == 2**prefix * 3 ** (t - 1 - prefix)
        assert not got[:low].any()
        assert np.array_equal(got[low:], full[low:])

    def test_several_chunks(self, monkeypatch):
        # 3^13 sets run as 9 chunks of the 3^11-row table by default, and
        # as the first rows of one table at CHUNK, to the same histogram
        chunks = []
        real = enumeration._slice_block
        monkeypatch.setattr(
            enumeration, "_slice_block", lambda *a: chunks.append(1) or real(*a)
        )
        several = dict(top_slice_levels([14]))[14]
        assert len(chunks) == 9 and several.sum() == 3**13
        one = swept_levels([14], chunk=enumeration.CHUNK)[14]
        assert len(chunks) == 9 and np.array_equal(several, one)

    def test_stray_window_is_an_error(self, monkeypatch):
        # a kernel that loses the top window bit must not go unnoticed, on
        # a table prefix and in leading-digit chunks alike
        real = enumeration._SliceTable.windows
        monkeypatch.setattr(
            enumeration._SliceTable, "windows",
            lambda table, t, rows: real(table, t, rows) & np.int32((1 << (t - 1)) - 1),
        )
        with pytest.raises(AssertionError, match="below 2\\^2"):
            dict(top_slice_levels([3]))
        with pytest.raises(AssertionError, match="below 2\\^13"):
            dict(top_slice_levels([14]))
        with pytest.raises(AssertionError, match="below 2\\^5"):
            top_slice_c(2, [6, 7])

    def test_fourth_pair_state_is_an_error(self, monkeypatch):
        # x in T with x+t+1 out of T puts t+1 outside A(T); the pair rule,
        # not the state list, must see that, in the table and in the
        # per-chunk vectors alike
        monkeypatch.setattr(
            enumeration, "_PAIR_STATES",
            enumeration._PAIR_STATES + ((True, False),),
        )
        with pytest.raises(AssertionError, match="below 2\\^4"):
            dict(top_slice_levels([5]))
        for chunk in (1, 3, 9, None):
            swept = swept_levels(range(1, 7), chunk=chunk)
            for t, got in swept.items():
                # every set with a pair in the fourth state lands below
                # 2^(t-1), and the sets without one keep their windows
                assert got[: 1 << (t - 1)].sum() == 4 ** (t - 1) - 3 ** (t - 1)
                assert np.array_equal(got[1 << (t - 1):], flat_top_buckets(t, 0))

    # chunk 3 leaves one table digit and the rest leading, 9 and 27 split
    # the table into two halves for the deep levels and read the shallow
    # ones off its first rows; the default reads every level up to 11 off
    # one table of 10 digits
    @pytest.mark.parametrize("chunk", [3, 9, 27, None])
    def test_chunked_slice_is_the_top_of_the_flat_sweep(self, chunk):
        # every level up to 11 from one table (up to 10 at chunk 3, whose
        # 3^9 chunks at level 11 would only repeat level 10's reads)
        top = 10 if chunk == 3 else 11
        for l in range(4):
            swept = swept_levels(range(l + 1, top + 1), prefix_zeros=l, chunk=chunk)
            for t in range(l + 1, top + 1):
                low = 1 << (t - 1)
                assert not swept[t][:low].any(), (t, l)
                assert np.array_equal(swept[t][low:], flat_top_buckets(t, l)), (t, l)

    def test_levels_need_not_be_contiguous(self):
        levels = dict(top_slice_levels([2, 5, 6, 9]))
        assert list(levels) == [2, 5, 6, 9]
        for t, got in levels.items():
            assert np.array_equal(got, dict(top_slice_levels([t]))[t])
        with pytest.raises(ValueError, match="ascend without repeats"):
            top_slice_levels([5, 3])
        with pytest.raises(ValueError, match="ascend without repeats"):
            top_slice_levels([])

    def test_chunk_sizes(self):
        # the table takes the most digits of the deepest level that fit
        # the chunk, a level with no more free digits is its first rows,
        # and a chunk below one digit's states leaves every digit leading
        def sizes(levels, **sweep):
            return [(t, len(w)) for t, w in enumeration._slice_levels(levels, **sweep)]

        assert sizes([6], chunk=27) == [(6, 27)] * 9
        assert sizes([6], prefix_zeros=2, chunk=20) == [(6, 12)] * 9
        assert sizes([4], chunk=1) == [(4, 1)] * 27
        assert sizes([1, 2, 4, 6], chunk=27) == [(1, 1), (2, 3), (4, 27)] + [(6, 27)] * 9
        # C_{2,k}: digits 1, 2 of two states, k-2 and k-1 forced
        assert sizes([5, 6, 8], prefix_zeros=2, forced=2, chunk=12) == (
            [(5, 4), (6, 12)] + [(8, 12)] * 9
        )

    def test_verify_check(self):
        res = check_topslice_sweep(6, 9).run()
        assert res.passed, res.detail
        assert res.name == "topslice-sweep(t=6,chunk=9)"

    def test_validation(self):
        with pytest.raises(ValueError):
            top_slice_levels([0])
        # the prefix [1, l] is a run of digits: 0 <= l <= t-1
        for t, prefix in ((3, -1), (3, 3), (5, -2), (5, 5), (5, 9)):
            with pytest.raises(ValueError, match="below t"):
                dict(top_slice_levels([t], prefix_zeros=prefix))

    def test_word_limit_is_refused_before_the_histogram(self, monkeypatch):
        # t = 31 is the deepest slice a 64-bit word holds (f = 63); t = 32
        # would allocate a 2^32-bin histogram before reaching any kernel
        def histogram(chunks):
            raise AssertionError("histograms allocated")

        monkeypatch.setattr(enumeration, "_window_histograms", histogram)
        with pytest.raises(BudgetError, match="t=32 needs f = 2t\\+1 <= 63"):
            top_slice_levels([32])
        with pytest.raises(BudgetError):
            top_slice_levels([40], prefix_zeros=3)
        with pytest.raises(BudgetError, match="t=32"):
            top_slice_levels(range(30, 33))
        with pytest.raises(BudgetError, match="t=32"):
            top_slice_c(1, [31, 32])


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
            assert table.preimages(0) == table.entries[Semigroup(f, 0)]

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
                d = DSet(mask)
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
            d = DSet(mask)
            s = as_semigroup(n_of(d, f))
            assert census.p_counts[d] == table.entries.get(s, 0)
            assert census.s_counts[d] == sum(
                p for a, p in table.entries.items()
                if suffix_pattern(a, wide) == d and 2 * multiplicity(a) <= f
            )
            if d.max_element >= 1:
                t = d.max_element
                b = _window_restrict(census.buckets, census.width, t)
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
        real = enumeration._flat_groups

        def counted(f, **sweep):
            calls.append((f, sweep.get("prefix_zeros", 0)))
            return real(f, **sweep)

        monkeypatch.setattr(enumeration, "_flat_groups", counted)
        res = check_preimage_identity(12).run()
        assert res.passed, res.detail
        assert calls == [(12, 0)]


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
