"""How the image-semigroup statistics R(S) = f - m(S) distribute mass.

At every finite f the masses alpha_n(f) sum to exactly 1.  As f grows each
mass converges to a limit alpha_n, computable as a sum of gamma series over
the 2^(n-1) small-atom sets with maximum n; the summands have pairwise
distinct tails, so the whole sum carries a single (3/4)^depth error bound.
The first handful of limits already capture over 90% of the total mass.

    python demos/alpha_masses.py --cache nsdensity.cache
"""

import argparse
from fractions import Fraction

from nsdensity import Interval, alpha_limit, cache_load, decimal_str, density_table
from nsdensity import enclosure, truncation_numerators


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cache", default="nsdensity.cache")
    ap.add_argument("--depth", type=int, default=15)
    ap.add_argument("--f", type=int, default=20, help="finite-f comparison point")
    ap.add_argument("--n-max", type=int, default=9)
    args = ap.parse_args()
    cache = cache_load(args.cache)
    masses = density_table(args.f).alpha()

    print(f"{'n':>3}  {'alpha_n(' + str(args.f) + ')':>12}  "
          f"{'limit interval':>21}  summands")
    for n in [-1] + list(range(1, args.n_max + 1)):
        # the summands' numerators over 4^depth; their sum carries one tail
        parts = alpha_limit(n, args.depth, cache)
        iv = Interval.on_grid(*enclosure(parts, args.depth), args.depth)
        emp = masses.get(n, Fraction(0))
        print(f"{n:>3}  {decimal_str(emp):>12}  {str(iv):>21}  {len(parts):>8}")

    # sum_{n <= n_max} alpha_n is the sum of gamma_D over every D ⊆ [1, n_max],
    # the rows [0, 2^n_max); distinct D, so again one tail
    rows = truncation_numerators(0, 1 << args.n_max, args.depth, cache)
    iv = Interval.on_grid(*enclosure(rows, args.depth), args.depth)
    print(
        f"\nsum of alpha_n for n <= {args.n_max}: {iv}"
        f"  (certified >= {decimal_str(iv.lo)} of all mass)"
    )


if __name__ == "__main__":
    main()
