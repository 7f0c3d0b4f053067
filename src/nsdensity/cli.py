"""Command-line front end.

Subcommands map one-to-one onto library entry points: ``enumerate`` onto
:func:`nsdensity.enumeration.density_table`, ``gamma``/``table``/``alpha``
onto the series engine :func:`nsdensity.limits.truncation_numerators` and
``glimit`` onto :func:`~nsdensity.limits.g_l_limit`, all rendered from
integers over 4^depth, every series interval from
:func:`~nsdensity.limits.enclosure` (:func:`~nsdensity.limits.gamma` is the
engine's oracle, not a route here), and ``verify`` onto the suites in
:mod:`nsdensity.verify`, which only ``verify`` imports.  Each takes only the
flags it reads, all checked by :func:`validate` before dispatch so that exit
codes stay meaningful: 0 success, 1 failed verification or internal
inconsistency, 2 usage or budget errors (an unusable ``--cache`` path
included).  The budget flags
``--enum-budget`` and ``--depth-budget`` are checked there and nowhere
else: each library function sweeps the size it is given.

Each ``cmd_*`` returns a :class:`Report`, which :func:`render` alone writes
as text, CSV (LF line endings, header row) or JSON (one UTF-8 document with
``schema_version``), in one shot.  The JSON document is byte for byte what
``json.dumps(..., ensure_ascii=False, indent=2)`` writes, but a report's
``rows`` are written by one ``%`` over a row template repeated once per
row, each cell through the encoder's string escaping, and only the other
values go through the encoder; a text table is written through one
format string.  Output is deterministic for fixed inputs and cache
contents.  Sweeps run on one thread: ``--workers`` accepts only 1, its
default, and stays because existing command lines pass ``--workers 1``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring

from .core import DSet, d_keys
from .enumeration import (
    BudgetError,
    density_table,
    swept_log2,
    WORD_LIMIT,
)
from .constants import (
    DEFAULT_DEPTH_BUDGET,
    CacheConflictError,
    ConstantCache,
    TOP_SLICE_LIMIT,
    cache_load,
    cache_store,
    resolve_cache_path,
)
from .limits import (
    alpha_limit,
    alpha_masks,
    decimal_str,
    enclosure,
    g_l_limit,
    gamma_lower_bound,
    gamma_table,
    ratio_str,
    refined_lo,
    truncation_numerators,
)

SCHEMA_VERSION = 1
# what json.dumps(value, ensure_ascii=False, indent=2) encodes with
_JSON = json.JSONEncoder(ensure_ascii=False, indent=2)
# flag default: the largest f swept (2^(f-1) sets); --depth-budget's is
# constants.DEFAULT_DEPTH_BUDGET
DEFAULT_ENUM_BUDGET = 30


class UsageError(Exception):
    """The command line asks for something that cannot run; exit 2."""


@dataclass
class Report:
    """One command's result in every format: the JSON ``payload`` (less
    ``schema_version``), the CSV ``header`` and ``rows``, and the ``text``
    lines, where a list of rows stands for them aligned under ``header``.
    The payload's ``rows``, when it has them, are string rows as well, each
    written as an object keyed by ``header``."""

    payload: dict
    header: list[str]
    rows: list[list[str]]
    text: list[str | list[list[str]]]
    code: int = 0


def render(report: Report, fmt: str) -> str:
    """``report`` as one ``text``, ``csv`` or ``json`` document."""
    if fmt == "json":
        items = []
        for key, value in {"schema_version": SCHEMA_VERSION, **report.payload}.items():
            if key == "rows":
                value = _json_rows(report.header, value)
            else:
                # the encoder escapes every newline inside a string, so each
                # one it writes starts a line, one level deeper in the document
                value = _JSON.encode(value).replace("\n", "\n  ")
            items.append(f"  {encode_basestring(key)}: {value}")
        return "{\n" + ",\n".join(items) + "\n}\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.header)
        writer.writerows(report.rows)
        return buf.getvalue()
    lines = []
    for item in report.text:
        if isinstance(item, str):
            lines.append(item)
            continue
        widths = [max(map(len, column)) for column in zip(report.header, *item)]
        line = "  ".join(f"{{:<{w}}}" for w in widths).format
        rule = ["-" * w for w in widths]
        lines += [line(*row).rstrip() for row in (report.header, rule, *item)]
    return "\n".join(lines) + "\n"


def _json_rows(header: list[str], rows: list[list[str]]) -> str:
    """``rows`` as a JSON array of objects keyed by ``header``, laid out as
    ``json.dumps(..., ensure_ascii=False, indent=2)`` lays out the value
    of a top-level key: one row template, repeated once per row and filled
    by one ``%`` with every cell, each written by the string encoder that
    ``json.dumps`` uses."""
    if not rows:
        return "[]"
    row = "    {\n" + ",\n".join(
        f"      {encode_basestring(key).replace('%', '%%')}: %s" for key in header
    ) + "\n    }"
    cells = tuple(map(encode_basestring, itertools.chain.from_iterable(rows)))
    return "[\n" + ",\n".join([row] * len(rows)) % cells + "\n  ]"


def validate(args: argparse.Namespace) -> None:
    """Check every flag before any work; ``--d`` is parsed into a DSet."""
    if args.subcommand == "gamma":
        try:
            args.d = DSet.parse(args.d)
        except ValueError as e:
            raise UsageError(str(e)) from None
    if "workers" in args and args.workers != 1:
        raise UsageError("--workers must be 1: sweeps run on one thread")
    if "depth_budget" in args and args.depth_budget < 1:
        raise UsageError("--depth-budget must be >= 1")
    if args.subcommand == "enumerate":
        if not 1 <= args.enum_budget <= WORD_LIMIT:
            raise UsageError(f"--enum-budget must lie in [1, {WORD_LIMIT}]")
        if args.f < 1:
            raise UsageError("--f must be >= 1")
        if args.f > args.enum_budget:
            raise BudgetError(
                f"--f {args.f} exceeds enumeration budget {args.enum_budget}: "
                f"its sweep visits 2^{swept_log2(args.f)} sets"
            )
    elif args.subcommand == "verify":
        from .verify import SUITES  # only verify loads the suites

        for s in args.suite or ():
            if s != "all" and s not in SUITES:
                raise UsageError(
                    f"unknown suite {s!r}; choose from {sorted(SUITES)} or 'all'"
                )
        # verify takes no --enum-budget: its sweeps are held to the default
        if args.max_f is not None and not 1 <= args.max_f <= DEFAULT_ENUM_BUDGET:
            raise UsageError(
                f"--max-f must lie in [1, {DEFAULT_ENUM_BUDGET}], the enumeration budget"
            )
    else:
        if args.depth < 0:
            raise UsageError("--depth must be >= 0")
        if args.depth > TOP_SLICE_LIMIT:
            raise UsageError(
                f"--depth must be <= {TOP_SLICE_LIMIT}, the deepest top slice"
            )
        if args.depth > args.depth_budget:
            raise BudgetError(
                f"--depth {args.depth} exceeds depth budget {args.depth_budget}"
            )
        if args.subcommand == "gamma" and args.depth < args.d.max_element:
            raise UsageError(
                f"--depth {args.depth} below Max(D) = {args.d.max_element}"
            )
        if args.subcommand == "table" and not 0 <= args.max_t <= args.depth:
            raise UsageError("--max-t must lie in [0, depth]")
        if args.subcommand == "alpha":
            if args.n == 0 or args.n < -1:
                raise UsageError("--n must be -1 or a positive integer")
            if args.n > args.depth:
                raise UsageError(f"--n {args.n} exceeds --depth {args.depth}")
        if args.subcommand == "glimit":
            if args.l < 1:
                raise UsageError("--l must be >= 1")
            if args.depth < 2 * args.l + 1:
                raise UsageError(f"--depth must be >= 2l+1 = {2 * args.l + 1}")


def _load_cache(path: str) -> ConstantCache:
    """The cache at ``path``, or an empty one when no file is there."""
    try:
        return cache_load(path)
    except FileNotFoundError:
        return ConstantCache()
    except OSError as e:
        raise UsageError(f"cannot read cache {path}: {e.strerror}") from None


def _series(args: argparse.Namespace, func, *lead):
    """``func(*lead, depth, cache)`` on the loaded cache, which ``--write-cache``
    then stores; returns the result and the cache."""
    path = resolve_cache_path(args.cache)
    cache = _load_cache(path)
    result = func(*lead, args.depth, cache)
    if args.write_cache:
        try:
            cache_store(cache, path)
        except OSError as e:
            raise UsageError(f"cannot write cache {path}: {e.strerror}") from None
    return result, cache


def _dyadic(p: int, e: int) -> str:
    """p/2^e in lowest terms, as ``str`` writes it; p & -p is p's lowest bit."""
    z = min((p & -p).bit_length() - 1, e) if p else e
    return f"{p >> z}/{1 << (e - z)}" if z < e else str(p >> z)


def _grid(n: int, depth: int) -> tuple[str, str]:
    """n/4^depth exactly, as :func:`_dyadic` writes it, and in decimals."""
    return _dyadic(n, 2 * depth), ratio_str(n, 4**depth)


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args: argparse.Namespace) -> Report:
    f = args.f
    table = density_table(f)
    _, d_masks, mults, counts = table.ranked()
    total = table.sets  # DensityTable refuses a tally of any other sum
    mults, counts = mults.tolist(), counts.tolist()
    # the cells of each m and each P, written once: many rows share them
    m_cells = {m: [str(m), str(f - m)] for m in set(mults)}
    p_cells = {
        p: [str(p), _dyadic(p, f - 1), ratio_str(p, total)] for p in set(counts)
    }
    rows = [
        [key, *m_cells[m], *p_cells[p]]
        for key, m, p in zip(d_keys(d_masks.tolist(), f - 1), mults, counts)
    ]
    header = ["d", "m", "r", "p", "mu", "mu_decimal"]
    payload = {
        "command": "enumerate",
        "f": f,
        "semigroups": len(table),
        "rows": rows,
        "sum_p": total,
        "sum_p_expected": 1 << (f - 1),
        "sum_identity_ok": True,
    }
    text = [
        f"f = {f}: {len(table)} semigroups, {1 << (f - 1)} numerical sets",
        rows,
        f"sum P(S) = {total} = 2^{f - 1}: ok",
    ]
    csv_rows = rows + [["TOTAL", "", "", str(total), "1", "1.00000"]]
    return Report(payload, header, csv_rows, text)


def cmd_gamma(args: argparse.Namespace) -> Report:
    d, depth, t = args.d, args.depth, args.d.max_element
    parts, cache = _series(args, truncation_numerators, d.mask, d.mask + 1)
    # the entries the engine just read, from levels t..depth
    a_d = cache.a(d)
    terms = [
        (k, cache.a_entries[d.mask | 1 << (k - 1)]) for k in range(t + 1, depth + 1)
    ]
    lo, s = enclosure(parts, depth)
    refined, tail = refined_lo(d.mask, s, depth), _grid(s - lo, depth)[0]
    bound = gamma_lower_bound(t) if t >= 1 else None
    positivity = str(bound) if bound is not None else None
    # above max(lo, 0) only when the off-grid bound is the lower end
    refined, refined_dec = ((positivity, decimal_str(bound)) if refined > max(lo, 0)
                            else _grid(refined, depth))
    (value, value_dec), (lo, lo_dec) = _grid(s, depth), _grid(lo, depth)
    payload = {
        "command": "gamma",
        "d": d.key,
        "depth": depth,
        "value": value,
        "value_decimal": value_dec,
        "interval": {"lo": lo, "hi": value},
        "interval_decimal": {"lo": lo_dec, "hi": value_dec},
        "refined_lo": refined,
        "tail_bound": tail,
        "a_d": a_d,
        "terms": [{"k": k, "a": a} for k, a in terms],
        "positivity_bound": positivity,
    }
    header = [
        "d", "depth", "value", "value_decimal", "lo", "hi",
        "refined_lo", "tail_bound", "a_d", "positivity_bound", "terms",
    ]
    row = [
        d.key, str(depth), value, value_dec, lo, value, refined, tail,
        str(a_d), positivity or "", ";".join(f"{k}:{a}" for k, a in terms),
    ]
    text = [
        f"gamma_D for D = {d.key}, truncated at depth {depth}",
        f"  value     = {value} = {value_dec}",
        f"  interval  = [{lo_dec}, {value_dec}]  (tail bound (3/4)^{depth})",
        f"  refined   = [{refined_dec}, "
        f"{value_dec}]  (nonnegativity and a_t/2^(t+1) folded in)",
        f"  A_D       = {a_d}",
    ]
    if terms:
        text.append("  constants = " + ", ".join(
            f"A_(D u {{{k}}}) = {a}" for k, a in terms
        ))
    text.append(
        f"  positivity: gamma_D >= a_t/2^(t+1) = {positivity} = {decimal_str(bound)}"
        if bound is not None else "  positivity: no structural bound for D = ∅"
    )
    return Report(payload, header, [row], text)


def cmd_table(args: argparse.Namespace) -> Report:
    tbl, _ = _series(args, gamma_table, args.max_t)
    distinct, inconclusive = tbl.distinctness_counts()
    header = ["d", "value_decimal", "lo", "hi", "refined_lo", "positivity_bound"]
    # the bound depends on t = Max(D) alone; none is stated for D = ∅
    bounds = [""] + [
        decimal_str(gamma_lower_bound(t)) for t in range(1, tbl.max_t + 1)
    ]
    q = 4**tbl.depth
    rows = []
    for key, mask, s, refined in zip(
        d_keys(tbl.rows, tbl.max_t), tbl.rows, tbl.numerators, tbl.refined_lows
    ):
        lo, hi = enclosure((s,), tbl.depth)
        value, bound = ratio_str(hi, q), bounds[mask.bit_length()]
        # above max(lo, 0) only when the off-grid bound is the lower end
        refined = bound if refined > max(lo, 0) else ratio_str(refined, q)
        rows.append([key, value, ratio_str(lo, q), value, refined, bound])
    payload = {
        "command": "table",
        "max_t": tbl.max_t,
        "depth": tbl.depth,
        "rows": rows,
        "distinct_pairs": distinct,
        "inconclusive_pairs": inconclusive,
    }
    text = [
        f"gamma_D for all D with Max(D) <= {tbl.max_t}, depth {tbl.depth}",
        rows,
        f"distinctness: {distinct} pairs separated, {inconclusive} "
        f"inconclusive (overlapping intervals) of {len(tbl.rows)} rows",
    ]
    return Report(payload, header, rows, text)


def cmd_alpha(args: argparse.Namespace) -> Report:
    n, depth = args.n, args.depth
    parts, _ = _series(args, alpha_limit, n)
    lo, s = enclosure(parts, depth)  # the summands share one tail
    tail = _grid(s - lo, depth)[0]
    (value, value_dec), (lo, lo_dec) = _grid(s, depth), _grid(lo, depth)
    components = [
        dict(zip(("d", "value", "value_decimal"), (key, *_grid(p, depth))))
        for key, p in zip(d_keys(alpha_masks(n), max(n, 0)), parts)
    ]
    payload = {
        "command": "alpha",
        "n": n,
        "depth": depth,
        "value": value,
        "value_decimal": value_dec,
        "interval": {"lo": lo, "hi": value},
        "interval_decimal": {"lo": lo_dec, "hi": value_dec},
        "tail_bound": tail,
        "components": components,
    }
    header = ["n", "depth", "value", "value_decimal", "lo", "hi", "components"]
    row = [
        str(n), str(depth), value, value_dec, lo, value,
        ";".join(c["d"] for c in components),
    ]
    text = [
        f"alpha_{n} truncated at depth {depth}",
        f"  value    = {value} = {value_dec}",
        f"  interval = [{lo_dec}, {value_dec}]  (shared tail (3/4)^{depth})",
        f"  components ({len(components)}):",
    ]
    text += [f"    gamma_({c['d']}) = {c['value_decimal']}" for c in components]
    return Report(payload, header, [row], text)


def cmd_glimit(args: argparse.Namespace) -> Report:
    l, depth = args.l, args.depth
    g, _ = _series(args, g_l_limit, l)
    (lo, lo_dec), (hi, hi_dec) = _grid(g.lo, depth), _grid(g.hi, depth)
    payload = {
        "command": "glimit",
        "l": l,
        "depth": depth,
        "lo": lo,
        "hi": hi,
        "lo_decimal": lo_dec,
        "hi_decimal": hi_dec,
        "c_constants": [{"k": k, "c": c} for k, c in enumerate(g.c, 1)],
    }
    header = ["l", "depth", "lo", "hi", "lo_decimal", "hi_decimal"]
    row = [str(l), str(depth), lo, hi, lo_dec, hi_dec]
    text = [
        f"limit of |G_{l}(f)|/2^(f-1), truncated at depth {depth}",
        f"  interval = [{lo_dec}, {hi_dec}]",
        f"  C_({l},k) for k <= {depth}: " + ", ".join(map(str, g.c)),
    ]
    return Report(payload, header, [row], text)


def cmd_verify(args: argparse.Namespace) -> Report:
    from .verify import run_suites

    cache = _load_cache(resolve_cache_path(args.cache))
    suites = args.suite or ["all"]
    results = run_suites(suites, max_f=args.max_f, cache=cache)
    all_passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "suites": suites,
        "max_f": args.max_f,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all_passed,
    }
    rows = [[r.name, str(r.passed).lower(), r.detail] for r in results]
    n_fail = sum(1 for r in results if not r.passed)
    text = [r.line() for r in results] + [
        f"{len(results)} checks, {len(results) - n_fail} passed, {n_fail} failed"
    ]
    return Report(payload, ["name", "passed", "detail"], rows, text,
                  0 if all_passed else 1)


# ---------------------------------------------------------------------------
# argument parsing

OPTIONS = {
    "--workers": dict(
        type=int, default=1, help="must be 1: sweeps run on one thread"),
    "--enum-budget": dict(
        type=int, default=DEFAULT_ENUM_BUDGET,
        help=f"largest Frobenius number swept (default {DEFAULT_ENUM_BUDGET})"),
    "--depth-budget": dict(
        type=int, default=DEFAULT_DEPTH_BUDGET,
        help=f"largest constant depth computed (default {DEFAULT_DEPTH_BUDGET})"),
    "--cache": dict(
        default=None,
        help="constant cache path (default: $NSDENSITY_CACHE or ./nsdensity.cache)"),
    "--write-cache": dict(
        action="store_true",
        help="persist newly computed constants back to the cache file"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nsdensity",
        description=(
            "Exact densities of numerical semigroups under the map "
            "T -> A(T) = {s : s + T is contained in T}."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])

    p = sub.add_parser("enumerate", help="exact density table at fixed Frobenius number")
    p.add_argument("--f", type=int, required=True)
    common(p, "--workers", "--enum-budget")

    for name, help_text, lead, kwargs in (
        ("gamma", "limit density gamma_D with certified interval", "--d",
         dict(type=str, help="comma-separated ascending integers; '' means the empty set")),
        ("table", "all gamma_D with Max(D) <= max-t, sorted", "--max-t", dict(type=int)),
        ("alpha", "limit density alpha_n of {R(S) = n}", "--n", dict(type=int)),
        ("glimit", "limit of |G_l(f)|/2^(f-1) with interval", "--l", dict(type=int)),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(lead, required=True, **kwargs)
        p.add_argument("--depth", type=int, default=15)
        common(p, "--workers", "--depth-budget", "--cache", "--write-cache")

    p = sub.add_parser("verify", help="run invariant suites and report pass/fail")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable); default all")
    p.add_argument("--max-f", type=int, default=None,
                   help="scale knob for sweep-based checks "
                        f"(at most {DEFAULT_ENUM_BUDGET})")
    common(p, "--cache")

    return parser


COMMANDS = {
    "enumerate": cmd_enumerate,
    "gamma": cmd_gamma,
    "table": cmd_table,
    "alpha": cmd_alpha,
    "glimit": cmd_glimit,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        validate(args)
        report = COMMANDS[args.subcommand](args)
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (AssertionError, CacheConflictError, ValueError) as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(render(report, args.format))
    return report.code


if __name__ == "__main__":
    sys.exit(main())
