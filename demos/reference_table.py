"""Compare certified limit densities against the published reference table.

Each limit density gamma_D is an exact alternating-free series truncated at
depth 15; the truncation overshoots by at most (3/4)^15 ~ 0.01336.  The
published values carry five decimals and an error band of 0.00212.  The two
enclosures must intersect for every row, and do; the demo exits 1 if one
row misses.

Needs the shipped constant cache (or any cache from demos/build_cache.py).

    python demos/reference_table.py --cache nsdensity.cache
"""

import argparse
from fractions import Fraction

from nsdensity import DSet, Interval, cache_load, decimal_str, enclosure
from nsdensity import truncation_numerators

REFERENCE = {
    "∅": "0.48660", "1": "0.09476", "2": "0.06079", "3": "0.02538",
    "1,3": "0.02035", "4": "0.01793", "1,2": "0.01683", "2,3": "0.01205",
    "1,4": "0.01184", "5": "0.01017", "6": "0.00700", "3,4": "0.00443",
    "7": "0.00435", "2,5": "0.00400", "1,3,5": "0.00332", "1,2,5": "0.00280",
    "8": "0.00269", "1,2,4": "0.00228", "1,5": "0.00200", "2,4": "0.00191",
    "1,6": "0.00186", "2,6": "0.00174", "1,2,3": "0.00152", "4,5": "0.00132",
    "9": "0.00131", "2,3,4": "0.00106", "1,2,6": "0.00091", "1,3,4": "0.00068",
}
BAND = Fraction("0.00212")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cache", default="nsdensity.cache")
    ap.add_argument("--depth", type=int, default=15)
    args = ap.parse_args()
    cache = cache_load(args.cache)
    masks = {key: DSet.parse(key).mask for key in REFERENCE}
    rows = truncation_numerators(0, max(masks.values()) + 1, args.depth, cache)

    print(f"{'D':>8}  {'value':>8}  {'certified interval':>21}  "
          f"{'reference':>9}  verdict")
    misses = 0
    for key, ref in REFERENCE.items():
        iv = Interval.on_grid(*enclosure((rows[masks[key]],), args.depth), args.depth)
        p = Fraction(ref)
        ok = iv.intersects(Interval(p - BAND, p + BAND))
        misses += not ok
        print(
            f"{key:>8}  {decimal_str(iv.hi):>8}  {str(iv):>21}  "
            f"{ref:>9}  {'meets band' if ok else 'MISSES BAND'}"
        )
    print(
        f"\n{len(REFERENCE) - misses} of {len(REFERENCE)} rows meet the "
        f"published band of +/- {decimal_str(BAND)}"
    )
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
