"""One workload in one fresh process: set up, run rounds for a time, report.

Run by ``run.py``; the working directory is the checkout root.  Every
operation is an in-process call of ``nsdensity.cli.main(argv)`` with its
standard streams captured, so it does the work of one CLI invocation,
cache load included, without the interpreter start.  Results go to
``<work>/result.json``; the output checks run in the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import Workload  # noqa: E402


def run_op(cli, op, index: int) -> dict:
    if op.fresh_cache is not None:
        open(op.fresh_cache, "w").close()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is one failed operation, kept for the log
            traceback.print_exc(file=err)
            code = -1
    latency = time.perf_counter() - start
    return {**asdict(op), "index": index, "exit": code, "latency_s": latency,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()

    # -- set-up: import (numpy included) and input generation
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nsdensity.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"nsdensity imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = Workload(args.workload, args.seed, args.size, root, args.work)
    wl.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # -- timed phase: whole rounds until the time is used.  A traced run
    # follows each query at once with a traced twin, so that the pair sees
    # the same machine state and their difference is the tracing overhead.
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    records, pairs = [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        for op in wl.next_round():
            records.append(run_op(cli, op, len(records)))
            if args.trace:
                tracer.op = len(records)
                restore = tracer.install()
                records.append(run_op(cli, wl.twin(op), len(records)))
                restore()
                pairs.append((records[-2], records[-1]))
        if peak_rss_mb is None:
            # the memory one process needs to run each query of the round
            # once; later rounds add only allocator drift, which varies
            # with how many rounds the time allowed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start

    result = {"ready": ready, "elapsed_s": elapsed, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        tracer.write(os.path.join(args.work, "spans.jsonl"))
        result["layers"] = layer_metrics(
            tracer.spans,
            len(pairs),
            sum(len(t["stdout"].encode()) for _, t in pairs),
            statistics.median(t["latency_s"] - u["latency_s"] for u, t in pairs),
        )

    result["probes"] = [run_op(cli, op, -1) for op in wl.probes()]
    result["records"] = records
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
