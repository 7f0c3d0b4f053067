"""Watch finite-f densities drift toward their certified limits.

mu(N(D,f)) = P(N(D,f)) / 2^(f-1) is exact at each f (a full sweep); the
limit is enclosed by the truncated gamma series.  No convergence *rate* is
certified, so this is evidence rather than proof: by f = 24 the empirical
densities sit within 0.02 of the depth-15 truncation value.

    python demos/convergence_drift.py --f-max 24
"""

import argparse
from fractions import Fraction

from nsdensity import DSet, Interval, cache_load, decimal_str, density_table
from nsdensity import enclosure, truncation_numerators
from nsdensity.core import n_of


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cache", default="nsdensity.cache")
    ap.add_argument("--depth", type=int, default=15)
    ap.add_argument("--f-min", type=int, default=16)
    ap.add_argument("--f-max", type=int, default=24)
    ap.add_argument("--d", action="append", default=None,
                    help="D as comma-separated integers (repeatable)")
    args = ap.parse_args()
    cache = cache_load(args.cache)
    dsets = [DSet.parse(x) for x in (args.d or ["", "1", "2", "1,3"])]

    header = f"{'f':>4}" + "".join(f"  {('D=' + d.key):>10}" for d in dsets)
    print(header)
    rows: dict[str, dict[int, Fraction]] = {d.key: {} for d in dsets}
    for f in range(args.f_min, args.f_max + 1):
        goals = [n_of(d, f).gaps_mask for d in dsets]
        counts = density_table(f).preimages(goals)
        for d, count in zip(dsets, counts.tolist()):
            rows[d.key][f] = Fraction(count, 1 << (f - 1))
        print(f"{f:>4}" + "".join(
            f"  {decimal_str(rows[d.key][f]):>10}" for d in dsets
        ))

    # each limit's certified enclosure, whose upper end is the truncation
    s_d = truncation_numerators(0, max(d.mask for d in dsets) + 1, args.depth, cache)
    limits = [Interval.on_grid(*enclosure((s_d[d.mask],), args.depth), args.depth)
              for d in dsets]
    print(f"{'limit':>4}" + "".join(
        f"  {decimal_str(iv.hi):>10}" for iv in limits
    ) + f"   (depth-{args.depth} truncation)")
    for d, iv in zip(dsets, limits):
        drift = abs(rows[d.key][args.f_max] - iv.hi)
        print(f"  D = {d.key}: |mu({args.f_max}) - truncation| = "
              f"{decimal_str(drift)}")


if __name__ == "__main__":
    main()
