"""Walk through the exact density table at one Frobenius number.

For every numerical set T with Frobenius number f, A(T) = {s : s + T ⊆ T}
is a numerical semigroup with the same Frobenius number.  Grouping the
2^(f-1) sets by their image gives the density table: P(S) preimages per
semigroup S, indexed here by the small-atom set D(S) and by
m(S) = min(S \\ {0}), R(S) = f - m(S).

    python demos/density_table_tour.py --f 9
"""

import argparse
from fractions import Fraction

from nsdensity import (
    d_of,
    decimal_str,
    density_table,
    multiplicity,
    r_value,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--f", type=int, default=9)
    args = ap.parse_args()
    f = args.f

    table = density_table(f)
    print(f"f = {f}: {1 << (f - 1)} numerical sets map onto {len(table)} semigroups\n")
    print(f"{'D(S)':>12}  {'m':>3}  {'R':>3}  {'P(S)':>6}  mu(S)")
    for s, p in table.sorted_entries():
        print(
            f"{d_of(s).key:>12}  {multiplicity(s):>3}  {r_value(s):>3}  "
            f"{p:>6}  {decimal_str(table.mu(s))}"
        )
    total = sum(table.entries.values())
    print(f"\nsum of P(S) = {total} = 2^{f - 1}  (every set lands somewhere)")

    half = Fraction(1, 2)
    top = table.sorted_entries()[0]
    print(
        f"top semigroup is N_f = {{0}} ∪ (f, ∞) with mu = "
        f"{decimal_str(table.mu(top[0]))}"
        + ("  (already past 1/2's neighborhood)" if table.mu(top[0]) > half else "")
    )

    print("\nmass by R(S) = f - m(S):")
    for n, mass in table.alpha().items():
        print(f"  alpha_{n}({f}) = {decimal_str(mass)}")


if __name__ == "__main__":
    main()
