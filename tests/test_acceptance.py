"""Acceptance gate: the numbered criteria this package must satisfy.

Each test is one criterion, so ``pytest -v tests/test_acceptance.py`` prints
one pass/fail line per criterion.  Exact criteria compare integers and
Fractions; limit criteria compare certified truncation intervals against
published reference values (5 decimal places, stated error band 0.00212).
Nothing here is tuned: a failure means the mathematics and the code
disagree, and the right response is to find out which one is wrong.

The full depth-15 constant rebuild (criterion 05c) takes a few seconds;
every other criterion reads the shipped cache.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nsdensity.core import DSet, d_of, n_of
from nsdensity.enumeration import density_table
from nsdensity.constants import ConstantCache, a_levels
from nsdensity.limits import (
    Interval,
    gamma,
    gamma_lower_bound,
    truncation_numerators,
)
from nsdensity.verify import (
    check_alpha_partial_telescope,
    check_amap_exhaustive,
    check_amap_random,
    check_c_growth_bound,
    check_c_unit_range,
    check_per_m_bounds,
    check_preimage_identity,
    check_small_multiplicity_bound,
    check_window_factorization,
)

from test_enumeration import TABLE_9

# Published reference values for the 28 largest limit densities, rounded to
# 5 places, with a stated error band of +/- 0.00212.
ERROR_BAND = Fraction("0.00212")
REFERENCE_DENSITIES = {
    "∅": Fraction("0.48660"),
    "1": Fraction("0.09476"),
    "2": Fraction("0.06079"),
    "3": Fraction("0.02538"),
    "1,3": Fraction("0.02035"),
    "4": Fraction("0.01793"),
    "1,2": Fraction("0.01683"),
    "2,3": Fraction("0.01205"),
    "1,4": Fraction("0.01184"),
    "5": Fraction("0.01017"),
    "6": Fraction("0.00700"),
    "3,4": Fraction("0.00443"),
    "7": Fraction("0.00435"),
    "2,5": Fraction("0.00400"),
    "1,3,5": Fraction("0.00332"),
    "1,2,5": Fraction("0.00280"),
    "8": Fraction("0.00269"),
    "1,2,4": Fraction("0.00228"),
    "1,5": Fraction("0.00200"),
    "2,4": Fraction("0.00191"),
    "1,6": Fraction("0.00186"),
    "2,6": Fraction("0.00174"),
    "1,2,3": Fraction("0.00152"),
    "4,5": Fraction("0.00132"),
    "9": Fraction("0.00131"),
    "2,3,4": Fraction("0.00106"),
    "1,2,6": Fraction("0.00091"),
    "1,3,4": Fraction("0.00068"),
}


def _reference_interval(key: str) -> Interval:
    p = REFERENCE_DENSITIES[key]
    return Interval(p - ERROR_BAND, p + ERROR_BAND)


def test_criterion_01_preimage_sums():
    """sum_S P(S) = 2^(f-1) exactly for every f <= 20, within a minute."""
    start = time.monotonic()
    for f in range(1, 21):
        assert int(density_table(f).counts.sum()) == 1 << (f - 1), f
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_02_exact_table_f9():
    """The f = 9 density table has exactly 21 semigroups with these P(S)."""
    table = density_table(9)
    got = {d_of(s).key: p for s, p in table.entries.items()}
    assert got == TABLE_9


def test_criterion_03_window_factorization():
    """B(D,f) = A_D 2^(f-2t-1) exactly for t = Max(D) <= 4, 2t < f <= 24."""
    res = check_window_factorization(24, 4).run()
    assert res.passed, res.detail
    for f in range(1, 13):  # t = 0 degenerates to the full count
        assert density_table(f).window(0).tolist() == [1 << (f - 1)]


def test_criterion_04_preimage_partition_identity():
    """P(N(D,f)) = B(D,f) - sum_k B(D u {k},f) - |S(D,f)|, Max(D) <= 3, f <= 22."""
    for f in range(3, 23):
        res = check_preimage_identity(f, 3).run()
        assert res.passed, res.detail


def test_criterion_05a_depth12_fresh_overlaps_reference():
    """A from-scratch depth-12 run reproduces all 28 reference densities."""
    start = time.monotonic()
    cache = ConstantCache()
    a_levels(1, 12, cache)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"depth-12 build took {elapsed:.1f}s"
    for key in REFERENCE_DENSITIES:
        g = gamma(DSet.parse(key), 12, cache)
        assert g.interval.intersects(_reference_interval(key)), (
            f"D = {key}: {g.interval} misses the reference band"
        )


def test_criterion_05b_depth15_overlaps_reference(shipped_cache):
    """At depth 15 every certified interval still meets its reference band."""
    for key in REFERENCE_DENSITIES:
        g = gamma(DSet.parse(key), 15, shipped_cache)
        assert g.interval.intersects(_reference_interval(key)), (
            f"D = {key}: {g.interval} misses the reference band"
        )


def test_criterion_05c_full_depth15_rebuild(shipped_cache, tmp_path):
    """Rebuilding every constant from scratch reproduces the shipped cache:
    its A entries, and, through `demos/build_cache.py`, the whole file with
    its C records and provenance lines, byte for byte."""
    fresh = ConstantCache()
    a_levels(1, 15, fresh)
    assert fresh.a_entries == shipped_cache.a_entries
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    out = tmp_path / "rebuilt.cache"
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / "build_cache.py"),
         "--depth", "15", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes() == (root / "nsdensity.cache").read_bytes()


def test_criterion_06_external_estimate(shipped_cache):
    """The gamma interval for D = ∅ meets the published 0.484451 +/- 0.005011."""
    g = gamma(DSet(), 15, shipped_cache)
    published = Interval(
        Fraction("0.484451") - Fraction("0.005011"),
        Fraction("0.484451") + Fraction("0.005011"),
    )
    assert g.interval.intersects(published), str(g.interval)


def test_criterion_07_bound_suite():
    """Every stated bound holds on every computed value, at scale."""
    for check in (
        check_c_unit_range(5),
        check_c_growth_bound(3, 5),
        check_per_m_bounds(16),
        check_small_multiplicity_bound(20),
    ):
        res = check.run()
        assert res.passed, res.detail


def test_criterion_08_positivity(shipped_cache):
    """gamma_D > 0 is certified: the structural bound a_t/2^(t+1) sits below
    every computed upper end, and the refined interval of each reference row
    has a strictly positive lower end.

    The raw series enclosure [value - (3/4)^15, value] has a negative lower
    end whenever value < (3/4)^15 ~ 0.01336, which happens for 17 of the 28
    reference rows; positivity there is carried by the structural bound, not
    by the truncation.
    """
    for m in range(1, 1 << 15):
        d = DSet(m)
        g = gamma(d, 15, shipped_cache)
        assert g.value >= gamma_lower_bound(d.max_element), f"D = {d.key}"
    for key in REFERENCE_DENSITIES:
        g = gamma(DSet.parse(key), 15, shipped_cache)
        assert g.refined_interval.lo > 0, f"D = {key}"


def test_criterion_09_alpha_masses(shipped_cache):
    """alpha masses: exactly 1 at every finite f <= 20; the limit masses for
    n <= 9 certifiably capture at least 0.90 and never exceed 1."""
    for f in range(1, 21):
        assert sum(density_table(f).alpha().values()) == 1, f"f = {f}"
    # sum_{n<=9} alpha_n: the engine's rows for every D ⊆ [1, 9], one tail
    s = sum(truncation_numerators(0, 1 << 9, 15, shipped_cache))
    iv = Interval.on_grid(s - 3**15, s, 15)
    res = check_alpha_partial_telescope(9, 15, shipped_cache).run()
    assert res.passed, res.detail
    assert iv.lo >= Fraction(90, 100), str(iv)
    assert iv.hi <= 1, str(iv)


def test_criterion_10_amap_routes_agree():
    """The vectorized A(T) equals the pairwise-scan reference: exhaustively
    at f = 14 and on 100000 random sets with f <= 60."""
    res = check_amap_exhaustive(14).run()
    assert res.passed, res.detail
    res = check_amap_random(100_000, 60).run()
    assert res.passed, res.detail


def test_criterion_11_finite_f_drift(shipped_cache):
    """Empirical densities mu(N(D,f)) for f = 16..24 approach the certified
    truncation value: at f = 24 the gap is below 0.02 for each tracked D."""
    dsets = [DSet(), DSet.of([1]), DSet.of([2]), DSet.of([1, 3])]
    mus = {d.key: {} for d in dsets}
    for f in range(16, 25):
        goals = [n_of(d, f).gaps_mask for d in dsets]
        counts = density_table(f).preimages(goals)
        for d, count in zip(dsets, counts.tolist()):
            mus[d.key][f] = Fraction(count, 1 << (f - 1))
    for d in dsets:
        v = gamma(d, 15, shipped_cache).value
        drift = abs(mus[d.key][24] - v)
        assert drift <= Fraction(2, 100), (
            f"D = {d.key}: |mu(24) - value| = {float(drift):.5f}"
        )
