"""Output checks: every answer against the oracle or a property the method
must have, never against a stored copy of an earlier output.

Each check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import oracle as o


def _csv(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _text_rows(lines: list[str], ncols: int) -> list[list[str]]:
    rows = []
    for line in lines:
        cells = line.split()
        rows.append(cells + [""] * (ncols - len(cells)))
    return rows


def _first_diff(got: list, want: list, what: str) -> list[str]:
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"{what}: row {i} is {got[i]}, expected {want[i]}"]


# ---------------------------------------------------------------------------
# table --max-t T --depth N


TABLE_HEADER = ["d", "value_decimal", "lo", "hi", "refined_lo", "positivity_bound"]


def parse_table(out: str, fmt: str) -> tuple[list[list[str]], tuple | None]:
    """(rows, (distinct, inconclusive) or None when the format omits them)."""
    if fmt == "json":
        doc = json.loads(out)
        rows = [[r[h] if r[h] is not None else "" for h in TABLE_HEADER]
                for r in doc["rows"]]
        return rows, (doc["distinct_pairs"], doc["inconclusive_pairs"])
    if fmt == "csv":
        data = _csv(out)
        if data[0] != TABLE_HEADER:
            raise ValueError(f"csv header {data[0]}")
        return data[1:], None
    lines = out.rstrip("\n").split("\n")
    if lines[1].split() != TABLE_HEADER:
        raise ValueError(f"text header {lines[1]!r}")
    words = lines[-1].split()
    if words[0] != "distinctness:":
        raise ValueError(f"last line {lines[-1]!r}")
    return _text_rows(lines[3:-1], 6), (int(words[1]), int(words[4]))


def band_errors(rows: list[list[str]]) -> list[str]:
    """Printed [lo, hi] of every reference row meets its published band;
    the D = ∅ row also meets the Monte-Carlo estimate."""
    errors = []
    for d, _, lo, hi, *_ in rows:
        lo, hi = Fraction(lo), Fraction(hi)
        if d in o.REFERENCE_DENSITIES and not o.band_meets(lo, hi, d):
            errors.append(f"D = {d}: [{lo}, {hi}] misses the reference band")
        if d == "∅" and not o.empty_mc_meets(lo, hi):
            errors.append(f"D = ∅: [{lo}, {hi}] misses 0.484451 +/- 0.005011")
    return errors


class TableOracle:
    """Expected rows and distinctness counts, recomputed from cache text."""

    def __init__(self, cache: o.CacheText, max_t: int, depth: int):
        rows = o.gamma_rows(max_t, depth, cache)
        self.rows = [g.table_row() for g in rows]
        n = len(rows)
        distinct = o.distinct_pairs([(g.refined_lo, g.value) for g in rows])
        self.counts = (distinct, n * (n - 1) // 2 - distinct)

    def errors(self, out: str, fmt: str) -> list[str]:
        rows, counts = parse_table(out, fmt)
        errors = _first_diff(rows, self.rows, "table")
        if counts is not None and counts != self.counts:
            errors.append(f"distinctness {counts}, expected {self.counts}")
        return errors + band_errors(rows)


# ---------------------------------------------------------------------------
# enumerate --f F


ENUM_HEADER = ["d", "m", "r", "p", "mu", "mu_decimal"]


def parse_enumerate(out: str, fmt: str, f: int) -> tuple[list[list[str]], list[str]]:
    """(rows, errors in the header and summary lines)."""
    total = 1 << (f - 1)
    errors = []
    if fmt == "json":
        doc = json.loads(out)
        rows = [[r[h] for h in ENUM_HEADER] for r in doc["rows"]]
        if (doc["f"], doc["semigroups"], doc["sum_p"], doc["sum_p_expected"],
                doc["sum_identity_ok"]) != (f, len(rows), total, total, True):
            errors.append("json summary fields disagree with the rows")
        return rows, errors
    if fmt == "csv":
        data = _csv(out)
        if data[0] != ENUM_HEADER:
            raise ValueError(f"csv header {data[0]}")
        if data[-1] != ["TOTAL", "", "", str(total), "1", "1.00000"]:
            errors.append(f"csv total row {data[-1]}")
        return data[1:-1], errors
    lines = out.rstrip("\n").split("\n")
    rows = _text_rows(lines[3:-1], 6)
    if lines[0] != f"f = {f}: {len(rows)} semigroups, {total} numerical sets":
        errors.append(f"text first line {lines[0]!r}")
    if lines[-1] != f"sum P(S) = {total} = 2^{f - 1}: ok":
        errors.append(f"text last line {lines[-1]!r}")
    return rows, errors


def enumerate_errors(out: str, fmt: str, f: int,
                     expected: list[tuple[tuple[int, ...], int]] | None = None
                     ) -> list[str]:
    """A124506 row count, sum P = 2^(f-1), closure of every N(D, f), the
    m/r/mu relations, the sort order, and the oracle's table when given."""
    rows, errors = parse_enumerate(out, fmt, f)
    total = 1 << (f - 1)
    if len(rows) != o.A124506[f - 1]:
        errors.append(f"{len(rows)} rows, A124506({f}) = {o.A124506[f - 1]}")
    if sum(int(r[3]) for r in rows) != total:
        errors.append(f"sum of p is {sum(int(r[3]) for r in rows)}, not 2^{f - 1}")
    seen, order = set(), []
    for d_key, m, r, p, mu, mu_dec in rows:
        d = o.parse_key(d_key)
        members = o.semigroup_members(d, f)
        where = f"D = {d_key}"
        if d in seen:
            errors.append(f"{where}: repeated")
        seen.add(d)
        if not o.is_closed(members, f):
            errors.append(f"{where}: N(D, {f}) is not closed under addition")
        want_r = d[-1] if d else -1
        if int(r) != want_r or int(m) != f - int(r) or int(m) != min(members, default=f + 1):
            errors.append(f"{where}: m = {m}, r = {r} break m = f - r, r = Max(D)")
        mu_exact = Fraction(int(p), total)
        if int(p) < 1 or mu != o.frac_str(mu_exact) or mu_dec != o.decimal5(mu_exact):
            errors.append(f"{where}: p = {p}, mu = {mu} = {mu_dec}")
        order.append((-int(p), sum(1 << (s - 1) for s in members)))
        if len(errors) > 5:
            break
    if order != sorted(order):
        errors.append("rows not sorted by descending p, then gap mask")
    if expected is not None:
        got = [(o.parse_key(r[0]), int(r[3])) for r in rows]
        errors += _first_diff(got, expected, f"f = {f} table")
    return errors


# ---------------------------------------------------------------------------
# gamma --d D --depth N --write-cache


def parse_gamma(out: str, fmt: str) -> dict[str, str]:
    """Printed fields, keyed as in the JSON document; only those present."""
    if fmt == "json":
        doc = json.loads(out)
        return {
            "d": doc["d"], "value": doc["value"],
            "value_decimal": doc["value_decimal"],
            "lo": doc["interval"]["lo"], "hi": doc["interval"]["hi"],
            "lo_decimal": doc["interval_decimal"]["lo"],
            "hi_decimal": doc["interval_decimal"]["hi"],
            "refined_lo": doc["refined_lo"], "tail_bound": doc["tail_bound"],
            "a_d": str(doc["a_d"]),
            "terms": ";".join(f"{t['k']}:{t['a']}" for t in doc["terms"]),
            "positivity_bound": doc["positivity_bound"] or "",
        }
    if fmt == "csv":
        header, row = _csv(out)
        return dict(zip(header, row))
    lines = out.rstrip("\n").split("\n")
    head = lines[0].removeprefix("gamma_D for D = ")
    fields = {"d": head.rsplit(", truncated at depth ", 1)[0], "terms": ""}
    for line in lines[1:]:
        label, _, rest = line.strip().partition("=")
        label = label.strip()
        rest = rest.strip()
        if label == "value":
            fields["value"], fields["value_decimal"] = rest.split(" = ")
        elif label == "interval":
            lo, hi = rest.split("]")[0].lstrip("[").split(", ")
            fields["lo_decimal"], fields["hi_decimal"] = lo, hi
        elif label == "refined":
            fields["refined_lo_decimal"] = rest.lstrip("[").split(",")[0]
        elif label == "A_D":
            fields["a_d"] = rest
        elif label == "constants":
            fields["terms"] = ";".join(
                f"{k}:{a}" for k, a in re.findall(r"\{(\d+)\}\) = (\d+)", line)
            )
    return fields


def expected_gamma(g: o.Gamma) -> dict[str, str]:
    return {
        "d": o.key_of(g.d), "depth": str(g.depth),
        "value": o.frac_str(g.value), "value_decimal": o.decimal5(g.value),
        "lo": o.frac_str(g.lo), "hi": o.frac_str(g.value),
        "lo_decimal": o.decimal5(g.lo), "hi_decimal": o.decimal5(g.value),
        "refined_lo": o.frac_str(g.refined_lo),
        "refined_lo_decimal": o.decimal5(g.refined_lo),
        "tail_bound": o.frac_str(g.tail), "a_d": str(g.a_d),
        "terms": ";".join(f"{k}:{a}" for k, a in g.terms),
        "positivity_bound": o.frac_str(g.bound) if g.bound is not None else "",
    }


def written_a_errors(text: str, d: tuple[int, ...], depth: int,
                     brute: dict[int, dict]) -> tuple[list[str], o.CacheText | None]:
    """The written cache holds complete, correctly summing levels
    Max(D)..depth, equal to brute force where computed."""
    try:
        cache = o.CacheText(text)
    except ValueError as e:
        return [f"written cache unreadable: {e}"], None
    errors = o.level_errors(cache, brute)
    need = set(range(max(d[-1] if d else 0, 1), depth + 1))
    if not need <= set(cache.levels()):
        errors.append(f"written cache lacks levels {sorted(need - set(cache.levels()))}")
    return errors, cache


def gamma_errors(out: str, fmt: str, written: str, depth: int,
                 brute: dict[int, dict]) -> list[str]:
    fields = parse_gamma(out, fmt)
    d = o.parse_key(fields["d"])
    errors, cache = written_a_errors(written, d, depth, brute)
    if errors:
        return errors
    want = expected_gamma(o.Gamma(d, depth, cache))
    for key, got in fields.items():
        if key in want and got != want[key]:
            errors.append(f"gamma D = {fields['d']}: {key} = {got}, expected {want[key]}")
    lo = Fraction(fields.get("lo", fields.get("lo_decimal")))
    hi = Fraction(fields.get("hi", fields.get("hi_decimal")))
    return errors + band_errors([[fields["d"], "", lo, hi]])


# ---------------------------------------------------------------------------
# glimit --l L --depth N --write-cache


def parse_glimit(out: str, fmt: str) -> dict[str, str]:
    if fmt == "json":
        doc = json.loads(out)
        fields = {k: doc[k] for k in ("lo", "hi", "lo_decimal", "hi_decimal")}
        fields["c"] = ",".join(str(c["c"]) for c in doc["c_constants"])
        return fields
    if fmt == "csv":
        header, row = _csv(out)
        fields = dict(zip(header, row))
        return {k: fields[k] for k in ("lo", "hi", "lo_decimal", "hi_decimal")}
    lines = out.rstrip("\n").split("\n")
    lo, hi = lines[1].split("= [")[1].rstrip("]").split(", ")
    return {"lo_decimal": lo, "hi_decimal": hi,
            "c": lines[2].split(": ")[1].replace(" ", "")}


def glimit_errors(out: str, fmt: str, written: str, l: int, depth: int,
                  brute_c: dict[int, int]) -> list[str]:
    """Written C_{l,k} match brute force at small k and obey
    C_{l,k} <= 2^l 3^(k-2l-1); the printed interval is the series over
    them and its lower end is at least a_l."""
    try:
        cache = o.CacheText(written)
    except ValueError as e:
        return [f"written cache unreadable: {e}"]
    swept = range(2 * l + 2, depth + 1)
    if sorted(cache.c) != [(l, k) for k in swept]:
        return [f"written C keys {sorted(cache.c)}"]
    errors = []
    for k in swept:
        c = cache.c[(l, k)]
        if c > 2**l * 3 ** (k - 2 * l - 1):
            errors.append(f"C_{l},{k} = {c} exceeds 2^l 3^(k-2l-1)")
        if k in brute_c and c != brute_c[k]:
            errors.append(f"C_{l},{k} = {c}, brute force gives {brute_c[k]}")
    lo, hi = o.g_limit(l, depth, cache.c)
    want = {"lo": o.frac_str(lo), "hi": o.frac_str(hi),
            "lo_decimal": o.decimal5(lo), "hi_decimal": o.decimal5(hi),
            "c": ",".join(str(1 if k <= 2 * l + 1 else cache.c[(l, k)])
                          for k in range(1, depth + 1))}
    fields = parse_glimit(out, fmt)
    for key, got in fields.items():
        if got != want[key]:
            errors.append(f"glimit: {key} = {got}, expected {want[key]}")
    printed = [int(x) for x in fields.get("c", "").split(",") if x]
    for k, c in enumerate(printed, 1):
        if k in brute_c and c != brute_c[k]:
            errors.append(f"printed C_{l},{k} = {c}, brute force gives {brute_c[k]}")
    if lo < o.a_l(l):
        errors.append(f"G_{l} lower end {lo} is below a_{l} = {o.a_l(l)}")
    return errors


# ---------------------------------------------------------------------------
# a whole run


def fmt_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1]


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


class RunChecker:
    """Checks every record of one workload run; brute force made once."""

    def __init__(self, workload: str, params: dict, shipped_cache: str):
        self.workload = workload
        self.p = params
        self.errors: list[str] = []
        self._verdicts: dict[tuple, list[str]] = {}
        if workload in ("certify-cached", "constants-fresh"):
            self.brute = {t: o.brute_a_level(t)
                          for t in range(1, params["brute_levels"] + 1)}
        if workload == "certify-cached":
            cache = o.CacheText(read_text(shipped_cache))
            self.errors += [f"shipped cache: {e}" for e in o.level_errors(cache, self.brute)]
            if sorted(cache.levels()) != list(range(1, params["depth"] + 1)):
                self.errors.append("shipped cache: levels are not 1..depth")
            self.table = TableOracle(cache, params["max_t"], params["depth"])
        if workload == "constants-fresh":
            self.brute_c = {k: o.brute_c(params["l"], k)
                            for k in range(1, params["brute_c"] + 1)}
        if workload == "enumerate-finite":
            self.small_table = o.brute_density_table(params["small_f"])

    def record_errors(self, rec: dict) -> list[str]:
        """Errors in the output of one operation that gave its exit code."""
        fmt = fmt_of(rec["argv"])
        written = read_text(rec["fresh_cache"]) if rec["fresh_cache"] else ""
        key = (rec["argv"][0], fmt, rec["stdout"], written)
        if key in self._verdicts:  # same bytes, same verdict
            return self._verdicts[key]
        try:
            if rec["expect_exit"] != 0:
                errors = []
            elif self.workload == "certify-cached":
                errors = self.table.errors(rec["stdout"], fmt)
            elif self.workload == "enumerate-finite":
                errors = enumerate_errors(rec["stdout"], fmt, self.p["f"])
            elif rec["argv"][0] == "gamma":
                errors = gamma_errors(rec["stdout"], fmt, written,
                                      self.p["depth"], self.brute)
            else:
                errors = glimit_errors(rec["stdout"], fmt, written, self.p["l"],
                                       self.p["g_depth"], self.brute_c)
        except (ValueError, KeyError, IndexError) as e:
            errors = [f"unparsable output: {type(e).__name__}: {e}"]
        self._verdicts[key] = errors
        return errors

    def probe_errors(self, rec: dict) -> list[str]:
        return enumerate_errors(rec["stdout"], fmt_of(rec["argv"]),
                                self.p["small_f"], self.small_table)

    def check(self, result: dict) -> tuple[int, list[str]]:
        """(failed operations, errors); an operation fails when its exit
        code is not the one it must give, and then its output is not read."""
        failed = 0
        errors = list(self.errors)
        for rec in result["records"]:
            if rec["exit"] != rec["expect_exit"]:
                failed += 1
                continue
            errors += [f"op {rec['index']} {' '.join(rec['argv'][:3])}: {e}"
                       for e in self.record_errors(rec)]
        for rec in result["probes"]:
            if rec["exit"] != 0:
                errors.append(f"probe {rec['argv']} exited {rec['exit']}")
            else:
                errors += [f"probe {' '.join(rec['argv'][:3])}: {e}"
                           for e in self.probe_errors(rec)]
        return failed, errors
