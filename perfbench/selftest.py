"""Quick self-test: every workload and every check at tiny sizes, and planted
errors that each check must reject.

    python3 perfbench/run.py --selftest

Exits 0 when every line reads PASS.
"""

from __future__ import annotations

import json
import os

import checks
import oracle as o
from run import ROOT, WORK, measure, metric_units
from workloads import FORMATS, SHIPPED_CACHE, SIZES, WORKLOADS

# layers each workload must reach (calls > 0) and must bypass (calls == 0)
REACHES = {
    "certify-cached": ("constants.cache_load.calls", "limits.gamma.calls"),
    "constants-fresh": ("enumeration.window_counts.calls",
                        "constants.cache_store.calls", "constants.c_const.sweeps"),
    "enumerate-finite": ("enumeration.density_table.calls",
                         "core.is_semigroup.calls"),
}
BYPASSES = {
    "certify-cached": ("enumeration.window_counts.calls",
                       "enumeration.density_table.calls"),
    "constants-fresh": ("enumeration.density_table.calls",),
    "enumerate-finite": ("enumeration.window_counts.calls",
                         "constants.cache_load.calls", "limits.gamma.calls"),
}


class Report:
    def __init__(self):
        self.failures = 0

    def line(self, ok: bool, what: str, detail: str = "") -> None:
        self.failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {what}" + (f": {detail}" if detail and not ok else ""))


def _first(result: dict, argv0: str, fmt: str) -> dict:
    return next(r for r in result["records"]
                if r["argv"][0] == argv0 and checks.fmt_of(r["argv"]) == fmt
                and r["expect_exit"] == 0)


def _write(name: str, text: str) -> str:
    path = os.path.join(WORK, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def main() -> int:
    rep = Report()
    spec = metric_units()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    rep.line(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
             "BENCHMARK.json names the three workloads")

    rep.line([len(o.brute_density_table(f)) for f in range(1, 13)]
             == list(o.A124506[:12]), "oracle table sizes equal A124506 for f <= 12")

    results = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            summary, result, errors = measure(w, 1, 0, trace, size="tiny")
            names = layers if trace else e2e
            rep.line(summary["correct"], f"{w} trace={trace}: every output checks",
                     "; ".join(errors[:3]))
            rep.line(sorted(summary["metrics"]) == sorted(names) and all(
                spec[k] == v["unit"] for k, v in summary["metrics"].items()),
                f"{w} trace={trace}: reports exactly the declared metrics")
            want_failed = summary["attempted"] // 4 if w == "certify-cached" else 0
            rep.line(summary["failed"] == want_failed,
                     f"{w} trace={trace}: failed = {want_failed} of {summary['attempted']}",
                     f"failed = {summary['failed']}")
            if trace:
                vals = {k: v["value"] for k, v in summary["metrics"].items()}
                rep.line(all(vals[k] > 0 for k in REACHES[w]),
                         f"{w}: trace reaches {', '.join(REACHES[w])}")
                rep.line(all(vals[k] == 0 for k in BYPASSES[w]),
                         f"{w}: trace bypasses {', '.join(BYPASSES[w])}")
            else:
                rep.line(all(v["value"] > 0 for v in summary["metrics"].values()),
                         f"{w}: every end-to-end metric is positive")
                results[w] = result

    shipped = os.path.join(ROOT, SHIPPED_CACHE)

    # planted: an interval moved out of its band
    chk = checks.RunChecker("certify-cached", SIZES["tiny"]["certify-cached"], shipped)
    rec = _first(results["certify-cached"], "table", "csv")
    rows = checks.parse_table(rec["stdout"], "csv")[0]
    row = next(r for r in rows if r[0] == "1")
    moved = [row[0], row[1], "0.11000", "0.12000", *row[4:]]
    rep.line(bool(checks.band_errors([moved])), "band check rejects an interval moved out of its band")
    out = rec["stdout"].replace(",".join(row) + "\n", ",".join(moved) + "\n")
    rep.line(bool(chk.record_errors({**rec, "stdout": out})),
             "table check rejects an output with a moved interval")

    # planted: a row dropped
    rec = _first(results["certify-cached"], "table", "text")
    lines = rec["stdout"].split("\n")
    out = "\n".join(lines[:4] + lines[5:])
    rep.line(bool(chk.record_errors({**rec, "stdout": out})), "table check rejects a dropped row")
    chk = checks.RunChecker("enumerate-finite", SIZES["tiny"]["enumerate-finite"], shipped)
    for fmt in FORMATS:
        rec = _first(results["enumerate-finite"], "enumerate", fmt)
        if fmt == "json":
            doc = json.loads(rec["stdout"])
            doc["rows"].pop(3)
            out = json.dumps(doc)
        else:
            lines = rec["stdout"].split("\n")
            out = "\n".join(lines[:5] + lines[6:])
        rep.line(bool(chk.record_errors({**rec, "stdout": out})),
                 f"enumerate check rejects a dropped row ({fmt})")

    # planted: one constant changed in a written cache
    chk = checks.RunChecker("constants-fresh", SIZES["tiny"]["constants-fresh"], shipped)
    for argv0, prefix in (("gamma", "A|"), ("glimit", "C|")):
        rec = next(r for r in results["constants-fresh"]["records"]
                   if r["argv"][0] == argv0)
        text = checks.read_text(rec["fresh_cache"])
        line = next(x for x in text.split("\n") if x.startswith(prefix))
        kind, key, value = line.split("|")
        bad = text.replace(line + "\n", f"{kind}|{key}|{int(value) + 1}\n")
        path = _write(f"planted-{argv0}.cache", bad)
        rep.line(bool(chk.record_errors({**rec, "fresh_cache": path})),
                 f"{argv0} check rejects {kind}|{key} raised by one in the written cache")

    print(f"{rep.failures} failed")
    return 1 if rep.failures else 0
