"""Regenerate the constant cache shipped at the repository root.

Computes every A_D with Max(D) <= DEPTH with nsdensity.constants.a_levels
(every level read off one top-slice table, 3^(t-1) sets at level t, with the
checks in nsdensity.constants) and the swept C_{l,k} for l <= 3, k <= 2l+6
with nsdensity.constants.c_consts (one table per l), then writes the sorted
cache file.

Depth 15 takes well under a second; every sweep runs on one thread.
Lower --depth for a smaller cache; the library degrades gracefully (wider
intervals, same certificates).

    python demos/build_cache.py --depth 15 --out nsdensity.cache
"""

import argparse
import time

from nsdensity.constants import ConstantCache, a_levels, c_consts, cache_store


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=15)
    ap.add_argument("--out", default="nsdensity.cache")
    ap.add_argument("--c-lmax", type=int, default=3)
    ap.add_argument("--c-extra", type=int, default=5)
    args = ap.parse_args()

    total = time.monotonic()
    cache = ConstantCache()
    a_levels(1, args.depth, cache)
    print(
        f"A: Max(D) <= {args.depth}  {len(cache.a_entries)} constants  "
        f"{time.monotonic() - total:7.2f}s"
    )

    for l in range(1, args.c_lmax + 1):
        top = 2 * l + 1 + args.c_extra
        last = min(top, args.depth)
        if last >= 2 * l + 2:
            start = time.monotonic()
            values = c_consts(l, last, cache)  # one table for every k
            elapsed = time.monotonic() - start
            for k in range(2 * l + 2, last + 1):
                print(f"C[{l},{k}] = {values[k - 1]:6d}")
            print(f"C[{l},k] for k <= {last}: one table  {elapsed:7.2f}s")
        for k in range(max(last + 1, 2 * l + 2), top + 1):
            print(f"C[{l},{k}] skipped: sweep depth {k} over --depth")

    cache.provenance["c-range"] = f"l<={args.c_lmax},k<=2l+{args.c_extra + 1}"
    cache.provenance["format"] = "1"
    cache_store(cache, args.out)
    print(
        f"wrote {args.out}: {len(cache.a_entries)} A constants, "
        f"{len(cache.c_entries)} C constants in {time.monotonic() - total:.2f}s"
    )


if __name__ == "__main__":
    main()
