"""nsdensity benchmark: one workload, checked answers, one JSON result line.

    python3 perfbench/run.py --workload certify-cached --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The workload runs in a fresh child process
(``child.py``) as a closed loop: one client, ``--workers 1``, the next
query only after the previous one returned.  Set-up (interpreter start,
``import nsdensity``, input generation) is timed in several extra children
and reported as the median.  With ``--trace 1`` the run reports per-layer
figures from traced twins of its queries instead of the end-to-end
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import RunChecker  # noqa: E402
from workloads import SHIPPED_CACHE, SIZES, WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_SAMPLES = 5  # set-ups timed per run, the workload child's included
TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, size: str, trace: int,
              work: str, setup_only: bool = False) -> tuple[float, dict]:
    """Start one child; returns (its set-up seconds, its result)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--size", size, "--trace", str(trace), "--work", work]
    if setup_only:
        argv.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    if setup_only:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    else:
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    return result["ready"] - start, result


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full") -> tuple[dict, dict, list[str]]:
    """(summary line, child result, check errors) for one run."""
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(workload, seed, seconds, size, trace, work,
                                    setup_only=True)[0])
    setup_s, result = run_child(workload, seed, seconds, size, trace, work)
    setups.append(setup_s)

    checker = RunChecker(workload, SIZES[size][workload],
                         os.path.join(ROOT, SHIPPED_CACHE))
    failed, errors = checker.check(result)
    records = result["records"]
    if trace:
        metrics = result["layers"]
    else:
        ok = [r["latency_s"] for r in records if r["exit"] == r["expect_exit"]]
        if not ok:
            raise RuntimeError("no operation succeeded")
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(ok) / result["elapsed_s"],
            "op_p50_s": statistics.median(ok),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = metric_units()
    summary = {
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return summary, result, errors


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="every workload and check at tiny sizes, with planted errors")
    args = ap.parse_args()

    missing = [p for p in (os.path.join("src", "nsdensity", "__init__.py"),
                           SHIPPED_CACHE, "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"benchmark needs {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        summary, _, errors = measure(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
