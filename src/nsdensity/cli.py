"""Command-line front end.

Subcommands map one-to-one onto library entry points: ``enumerate`` onto
:func:`nsdensity.enumeration.density_table`, ``gamma``/``table``/``alpha``/
``glimit`` onto :mod:`nsdensity.limits`, and ``verify`` onto the suites in
:mod:`nsdensity.verify`.  All parameter validation happens before dispatch so
that exit codes stay meaningful: 0 success, 1 failed verification or internal
inconsistency, 2 usage or budget errors.

Output is deterministic for fixed inputs and cache contents regardless of
``--workers``; every format is assembled in memory and written in one shot.
CSV uses LF line endings and a header row; JSON is a single UTF-8 document
carrying ``schema_version``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import DSet, d_of, multiplicity, r_value
from .enumeration import (
    BudgetError,
    DEFAULT_ENUM_BUDGET,
    density_table,
    WORD_LIMIT,
)
from .constants import (
    CacheConflictError,
    ConstantCache,
    DEFAULT_DEPTH_BUDGET,
    cache_load,
    cache_store,
    resolve_cache_path,
)
from .limits import (
    alpha_limit,
    decimal_str,
    g_l_limit,
    gamma,
    gamma_lower_bound,
    gamma_table,
)
from .verify import SUITES, run_suites

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Validated command parameters, one instance per invocation."""

    subcommand: str
    format: str = "text"
    cache_path: str | None = None
    write_cache: bool = False
    workers: int = 1
    enum_budget: int = DEFAULT_ENUM_BUDGET
    depth_budget: int = DEFAULT_DEPTH_BUDGET
    f: int | None = None
    d: DSet | None = None
    n: int | None = None
    l: int | None = None
    max_t: int | None = None
    depth: int | None = None
    suites: tuple[str, ...] = ()
    max_f: int | None = None

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("--workers must be >= 1")
        if not 1 <= self.enum_budget <= WORD_LIMIT:
            raise ValueError(f"--enum-budget must lie in [1, {WORD_LIMIT}]")
        if self.depth_budget < 1:
            raise ValueError("--depth-budget must be >= 1")
        if self.subcommand == "enumerate":
            if self.f is None or self.f < 1:
                raise ValueError("--f must be >= 1")
            if self.f > self.enum_budget:
                raise BudgetError(
                    f"--f {self.f} exceeds enumeration budget {self.enum_budget}"
                )
        elif self.subcommand in ("gamma", "table", "alpha", "glimit"):
            if self.depth is None or self.depth < 0:
                raise ValueError("--depth must be >= 0")
            if self.depth > self.depth_budget:
                raise BudgetError(
                    f"--depth {self.depth} exceeds depth budget {self.depth_budget}"
                )
            if self.subcommand == "gamma" and self.depth < self.d.max_element:
                raise ValueError(
                    f"--depth {self.depth} below Max(D) = {self.d.max_element}"
                )
            if self.subcommand == "table" and not 0 <= self.max_t <= self.depth:
                raise ValueError("--max-t must lie in [0, depth]")
            if self.subcommand == "alpha":
                if self.n == 0 or self.n < -1:
                    raise ValueError("--n must be -1 or a positive integer")
                if self.n > self.depth:
                    raise ValueError(f"--n {self.n} exceeds --depth {self.depth}")
            if self.subcommand == "glimit":
                if self.l < 1:
                    raise ValueError("--l must be >= 1")
                if self.depth < 2 * self.l + 1:
                    raise ValueError(f"--depth must be >= 2l+1 = {2 * self.l + 1}")
        elif self.subcommand == "verify":
            for s in self.suites:
                if s != "all" and s not in SUITES:
                    raise ValueError(
                        f"unknown suite {s!r}; choose from {sorted(SUITES)} or 'all'"
                    )
            if self.max_f is not None and not 1 <= self.max_f <= self.enum_budget:
                raise ValueError("--max-f must lie within the enumeration budget")


def _load_cache(config: RunConfig) -> tuple[ConstantCache, str]:
    path = resolve_cache_path(config.cache_path)
    try:
        return cache_load(path), path
    except FileNotFoundError:
        return ConstantCache(), path


def _store_cache(config: RunConfig, cache: ConstantCache, path: str) -> None:
    if config.write_cache:
        cache_store(cache, path)


def _emit_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_json(payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _emit_text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(config: RunConfig) -> tuple[str, int]:
    table = density_table(
        config.f, budget=config.enum_budget, workers=config.workers
    )
    f = config.f
    total = sum(table.entries.values())
    rows = []
    for s, p in table.sorted_entries():
        mu = table.mu(s)
        rows.append([
            d_of(s).key,
            str(multiplicity(s)),
            str(r_value(s)),
            str(p),
            _frac(mu),
            decimal_str(mu),
        ])
    header = ["d", "m", "r", "p", "mu", "mu_decimal"]
    identity_ok = total == 1 << (f - 1)

    if config.format == "json":
        payload = {
            "command": "enumerate",
            "f": f,
            "semigroups": len(table),
            "rows": [dict(zip(header, r)) for r in rows],
            "sum_p": total,
            "sum_p_expected": 1 << (f - 1),
            "sum_identity_ok": identity_ok,
        }
        out = _emit_json(payload)
    elif config.format == "csv":
        out = _emit_csv(header, rows + [["TOTAL", "", "", str(total), "1", "1.00000"]])
    else:
        body = _emit_text_table(header, rows)
        out = (
            f"f = {f}: {len(table)} semigroups, {1 << (f - 1)} numerical sets\n"
            + body
            + f"sum P(S) = {total} = 2^{f - 1}: {'ok' if identity_ok else 'VIOLATED'}\n"
        )
    return out, 0 if identity_ok else 1


def _gamma_payload(est) -> dict:
    t = est.d.max_element
    bound = gamma_lower_bound(est.d) if t >= 1 else None
    return {
        "d": est.d.key,
        "depth": est.depth,
        "value": _frac(est.value),
        "value_decimal": decimal_str(est.value),
        "interval": {"lo": _frac(est.interval.lo), "hi": _frac(est.interval.hi)},
        "interval_decimal": {
            "lo": decimal_str(est.interval.lo),
            "hi": decimal_str(est.interval.hi),
        },
        "refined_lo": _frac(est.refined_interval.lo),
        "tail_bound": _frac(est.tail),
        "a_d": est.a_d,
        "terms": [{"k": k, "a": a} for k, a in est.terms],
        "positivity_bound": _frac(bound) if bound is not None else None,
    }


def cmd_gamma(config: RunConfig) -> tuple[str, int]:
    cache, path = _load_cache(config)
    est = gamma(
        config.d,
        config.depth,
        cache,
        budget=config.depth_budget,
        workers=config.workers,
    )
    _store_cache(config, cache, path)
    payload = _gamma_payload(est)

    if config.format == "json":
        out = _emit_json({"command": "gamma", **payload})
    elif config.format == "csv":
        header = [
            "d", "depth", "value", "value_decimal", "lo", "hi",
            "refined_lo", "tail_bound", "a_d", "positivity_bound", "terms",
        ]
        row = [
            payload["d"], str(est.depth), payload["value"],
            payload["value_decimal"], payload["interval"]["lo"],
            payload["interval"]["hi"], payload["refined_lo"],
            payload["tail_bound"], str(est.a_d),
            payload["positivity_bound"] or "",
            ";".join(f"{k}:{a}" for k, a in est.terms),
        ]
        out = _emit_csv(header, [row])
    else:
        lines = [
            f"gamma_D for D = {est.d.key}, truncated at depth {est.depth}",
            f"  value     = {payload['value']} = {payload['value_decimal']}",
            f"  interval  = [{payload['interval_decimal']['lo']}, "
            f"{payload['interval_decimal']['hi']}]  (tail bound (3/4)^{est.depth})",
            f"  refined   = [{decimal_str(est.refined_interval.lo)}, "
            f"{payload['value_decimal']}]  (nonnegativity and a_t/2^(t+1) folded in)",
            f"  A_D       = {est.a_d}",
        ]
        if est.terms:
            terms = ", ".join(f"A_(D u {{{k}}}) = {a}" for k, a in est.terms)
            lines.append(f"  constants = {terms}")
        if payload["positivity_bound"] is not None:
            lines.append(
                f"  positivity: gamma_D >= a_t/2^(t+1) = {payload['positivity_bound']}"
                f" = {decimal_str(gamma_lower_bound(est.d))}"
            )
        else:
            lines.append("  positivity: no structural bound for D = ∅")
        out = "\n".join(lines) + "\n"
    return out, 0


def cmd_table(config: RunConfig) -> tuple[str, int]:
    cache, path = _load_cache(config)
    tbl = gamma_table(
        config.max_t,
        config.depth,
        cache,
        budget=config.depth_budget,
        workers=config.workers,
    )
    _store_cache(config, cache, path)
    distinct, inconclusive = tbl.distinctness_counts()

    header = ["d", "value_decimal", "lo", "hi", "refined_lo", "positivity_bound"]
    rows = []
    for r in tbl.rows:
        t = r.d.max_element
        rows.append([
            r.d.key,
            decimal_str(r.value),
            decimal_str(r.interval.lo),
            decimal_str(r.interval.hi),
            decimal_str(r.refined_interval.lo),
            decimal_str(gamma_lower_bound(r.d)) if t >= 1 else "",
        ])

    if config.format == "json":
        out = _emit_json({
            "command": "table",
            "max_t": tbl.max_t,
            "depth": tbl.depth,
            "rows": [dict(zip(header, r)) for r in rows],
            "distinct_pairs": distinct,
            "inconclusive_pairs": inconclusive,
        })
    elif config.format == "csv":
        out = _emit_csv(header, rows)
    else:
        body = _emit_text_table(header, rows)
        out = (
            f"gamma_D for all D with Max(D) <= {tbl.max_t}, depth {tbl.depth}\n"
            + body
            + f"distinctness: {distinct} pairs separated, {inconclusive} "
            f"inconclusive (overlapping intervals) of {len(tbl.rows)} rows\n"
        )
    return out, 0


def cmd_alpha(config: RunConfig) -> tuple[str, int]:
    cache, path = _load_cache(config)
    est = alpha_limit(
        config.n,
        config.depth,
        cache,
        budget=config.depth_budget,
        workers=config.workers,
    )
    _store_cache(config, cache, path)

    components = [
        {"d": g.d.key, "value": _frac(g.value), "value_decimal": decimal_str(g.value)}
        for g in est.terms
    ]
    payload = {
        "command": "alpha",
        "n": est.n,
        "depth": est.depth,
        "value": _frac(est.value),
        "value_decimal": decimal_str(est.value),
        "interval": {"lo": _frac(est.interval.lo), "hi": _frac(est.interval.hi)},
        "interval_decimal": {
            "lo": decimal_str(est.interval.lo),
            "hi": decimal_str(est.interval.hi),
        },
        "tail_bound": _frac(est.tail),
        "components": components,
    }
    if config.format == "json":
        out = _emit_json(payload)
    elif config.format == "csv":
        header = ["n", "depth", "value", "value_decimal", "lo", "hi", "components"]
        row = [
            str(est.n), str(est.depth), payload["value"], payload["value_decimal"],
            payload["interval"]["lo"], payload["interval"]["hi"],
            ";".join(c["d"] for c in components),
        ]
        out = _emit_csv(header, [row])
    else:
        lines = [
            f"alpha_{est.n} truncated at depth {est.depth}",
            f"  value    = {payload['value']} = {payload['value_decimal']}",
            f"  interval = [{payload['interval_decimal']['lo']}, "
            f"{payload['interval_decimal']['hi']}]  (shared tail (3/4)^{est.depth})",
            f"  components ({len(components)}):",
        ]
        for c in components:
            lines.append(f"    gamma_({c['d']}) = {c['value_decimal']}")
        out = "\n".join(lines) + "\n"
    return out, 0


def cmd_glimit(config: RunConfig) -> tuple[str, int]:
    cache, path = _load_cache(config)
    iv = g_l_limit(
        config.l,
        config.depth,
        cache,
        budget=config.depth_budget,
        workers=config.workers,
    )
    _store_cache(config, cache, path)
    l = config.l
    # g_l_limit just populated the cache for every swept k; the only absent
    # entries are the closed-form ones with k <= 2l+1, which are all 1
    consts = [
        {"k": k, "c": cache.c(l, k) if cache.c(l, k) is not None else 1}
        for k in range(1, config.depth + 1)
    ]
    payload = {
        "command": "glimit",
        "l": l,
        "depth": config.depth,
        "lo": _frac(iv.lo),
        "hi": _frac(iv.hi),
        "lo_decimal": decimal_str(iv.lo),
        "hi_decimal": decimal_str(iv.hi),
        "c_constants": consts,
    }
    if config.format == "json":
        out = _emit_json(payload)
    elif config.format == "csv":
        header = ["l", "depth", "lo", "hi", "lo_decimal", "hi_decimal"]
        out = _emit_csv(header, [[
            str(l), str(config.depth), payload["lo"], payload["hi"],
            payload["lo_decimal"], payload["hi_decimal"],
        ]])
    else:
        out = (
            f"limit of |G_{l}(f)|/2^(f-1), truncated at depth {config.depth}\n"
            f"  interval = [{payload['lo_decimal']}, {payload['hi_decimal']}]\n"
            f"  C_({l},k) for k <= {config.depth}: "
            + ", ".join(str(c["c"]) for c in consts)
            + "\n"
        )
    return out, 0


def cmd_verify(config: RunConfig) -> tuple[str, int]:
    cache, _ = _load_cache(config)
    results = run_suites(
        list(config.suites) or ["all"],
        max_f=config.max_f,
        cache=cache if cache.a_entries else None,
        workers=config.workers,
    )
    all_passed = all(r.passed for r in results)

    if config.format == "json":
        out = _emit_json({
            "command": "verify",
            "suites": list(config.suites) or ["all"],
            "max_f": config.max_f,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "all_passed": all_passed,
        })
    elif config.format == "csv":
        out = _emit_csv(
            ["name", "passed", "detail"],
            [[r.name, str(r.passed).lower(), r.detail] for r in results],
        )
    else:
        lines = [r.line() for r in results]
        n_fail = sum(1 for r in results if not r.passed)
        lines.append(
            f"{len(results)} checks, {len(results) - n_fail} passed, {n_fail} failed"
        )
        out = "\n".join(lines) + "\n"
    return out, 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdensity",
        description=(
            "Exact densities of numerical semigroups under the map "
            "T -> A(T) = {s : s + T is contained in T}."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, *, cache: bool = True) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--enum-budget", type=int, default=DEFAULT_ENUM_BUDGET,
                       help=f"largest Frobenius number swept (default {DEFAULT_ENUM_BUDGET})")
        p.add_argument("--depth-budget", type=int, default=DEFAULT_DEPTH_BUDGET,
                       help=f"largest constant depth computed (default {DEFAULT_DEPTH_BUDGET})")
        if cache:
            p.add_argument("--cache", default=None,
                           help="constant cache path (default: $NSDENSITY_CACHE "
                                "or ./nsdensity.cache)")
            p.add_argument("--write-cache", action="store_true",
                           help="persist newly computed constants back to the cache file")

    p = sub.add_parser("enumerate", help="exact density table at fixed Frobenius number")
    p.add_argument("--f", type=int, required=True)
    common(p, cache=False)

    p = sub.add_parser("gamma", help="limit density gamma_D with certified interval")
    p.add_argument("--d", type=str, required=True,
                   help="comma-separated ascending integers; '' means the empty set")
    p.add_argument("--depth", type=int, default=15)
    common(p)

    p = sub.add_parser("table", help="all gamma_D with Max(D) <= max-t, sorted")
    p.add_argument("--max-t", type=int, required=True)
    p.add_argument("--depth", type=int, default=15)
    common(p)

    p = sub.add_parser("alpha", help="limit density alpha_n of {R(S) = n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=15)
    common(p)

    p = sub.add_parser("glimit", help="limit of |G_l(f)|/2^(f-1) with interval")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--depth", type=int, default=15)
    common(p)

    p = sub.add_parser("verify", help="run invariant suites and report pass/fail")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable); default all")
    p.add_argument("--max-f", type=int, default=None,
                   help="scale knob for sweep-based checks")
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        subcommand=args.subcommand,
        format=args.format,
        workers=args.workers,
        enum_budget=args.enum_budget,
        depth_budget=args.depth_budget,
        cache_path=getattr(args, "cache", None),
        write_cache=getattr(args, "write_cache", False),
        f=getattr(args, "f", None),
        n=getattr(args, "n", None),
        l=getattr(args, "l", None),
        max_t=getattr(args, "max_t", None),
        depth=getattr(args, "depth", None),
        max_f=getattr(args, "max_f", None),
        suites=tuple(getattr(args, "suite", None) or ()),
    )
    if args.subcommand == "gamma":
        config.d = DSet.parse(args.d)
    return config


COMMANDS = {
    "enumerate": cmd_enumerate,
    "gamma": cmd_gamma,
    "table": cmd_table,
    "alpha": cmd_alpha,
    "glimit": cmd_glimit,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        config.validate()
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    try:
        out, code = COMMANDS[config.subcommand](config)
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 2
    except (AssertionError, CacheConflictError, ValueError) as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
