"""Spans around the public functions of each nsdensity layer.

The program has no tracing of its own yet, so the benchmark wraps the
functions from outside.  ``from .x import y`` binds ``y`` in every module
that imports it, so a wrapper replaces every binding of the original in
every ``nsdensity`` module, not only the defining one.

Spans are kept in memory (id, parent, operation, name, start, end, info)
and written as JSON lines when the traced run ends.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _sets_window(args, kwargs, result):
    return {"sets": 1 << (args[0] - 1 - kwargs.get("prefix_zeros", 0))}


def _sets_table(args, kwargs, result):
    return {"sets": 1 << (args[0] - 1)}


def _load_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]),
            "entries": len(result.a_entries) + len(result.c_entries)}


def _store_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _batch_info(args, kwargs, result):
    return {"useful": sum(result.values())}


def _c_info(args, kwargs, result):
    return {"value": result}


def _pairs_info(args, kwargs, result):
    n = len(args[0].rows)
    return {"pairs": n * (n - 1) // 2}


# (layer, module, qualified name, info taken from arguments and result)
TARGETS = (
    ("enumeration", "nsdensity.enumeration", "window_counts", _sets_window),
    ("enumeration", "nsdensity.enumeration", "density_table", _sets_table),
    ("constants", "nsdensity.constants", "cache_load", _load_info),
    ("constants", "nsdensity.constants", "cache_store", _store_info),
    ("constants", "nsdensity.constants", "ConstantCache.a_depth", None),
    ("constants", "nsdensity.constants", "a_const", None),
    ("constants", "nsdensity.constants", "a_consts_batch", _batch_info),
    ("constants", "nsdensity.constants", "c_const", _c_info),
    ("limits", "nsdensity.limits", "gamma", None),
    ("limits", "nsdensity.limits", "gamma_table", None),
    ("limits", "nsdensity.limits", "GammaTable.distinctness_counts", _pairs_info),
    ("limits", "nsdensity.limits", "alpha_limit", None),
    ("limits", "nsdensity.limits", "g_l_limit", None),
    ("cli", "nsdensity.cli", "main", None),
    ("core", "nsdensity.core", "is_semigroup", None),
    ("core", "nsdensity.core", "d_of", None),
    ("core", "nsdensity.core", "multiplicity", None),
    ("core", "nsdensity.core", "r_value", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.op = -1  # index of the operation being traced

    def wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            span = [len(self.spans), parent, self.op, name, perf_counter(), 0.0, None]
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; returns a function that undoes it."""
        undo = []
        for layer, modname, qual, info in TARGETS:
            mod = sys.modules[modname]
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self.wrap(name, orig, info))
                undo.append((owner, meth, orig))
                continue
            orig = getattr(mod, qual)
            wrapped = self.wrap(name, orig, info)
            for m in [m for n, m in sys.modules.items()
                      if n == "nsdensity" or n.startswith("nsdensity.")]:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    setattr(m, attr, wrapped)
                    undo.append((m, attr, orig))

        def restore():
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

        return restore

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = dict(zip(keys, span))
                rec.update(span[6] or {})
                fh.write(json.dumps(rec) + "\n")


CORE = ("core.is_semigroup", "core.d_of", "core.multiplicity", "core.r_value")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer did no work at all."""
    return num / den if den else 0.0


def layer_metrics(spans: list[list], n_ops: int, output_bytes: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-operation layer figures from the spans of ``n_ops`` operations;
    ``overhead_s`` is traced minus untraced latency of one operation."""
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
        children.setdefault(s[1], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s[5] - s[4] for s in named(name))

    def self_time(name):
        return sum(
            (s[5] - s[4]) - sum(c[5] - c[4] for c in children.get(s[0], []))
            for s in named(name)
        )

    def info_sum(name, key, where=lambda s: True):
        return sum((s[6] or {}).get(key, 0) for s in named(name) if where(s))

    def swept(s):
        return any(c[3] == "enumeration.window_counts"
                   for c in children.get(s[0], []))

    name_of = {s[0]: s[3] for s in spans}
    m = {}
    for kernel in ("window_counts", "density_table"):
        name = f"enumeration.{kernel}"
        sets = info_sum(name, "sets")
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.sets"] = sets
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.sets_per_s"] = _ratio(sets, busy(name))

    name = "constants.cache_load"
    m[f"{name}.calls"] = len(named(name))
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.bytes"] = info_sum(name, "bytes")
    m[f"{name}.entries_per_s"] = _ratio(info_sum(name, "entries"), busy(name))
    name = "constants.cache_store"
    m[f"{name}.calls"] = len(named(name))
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.bytes"] = info_sum(name, "bytes")
    name = "constants.ConstantCache.a_depth"
    m[f"{name}.calls"] = len(named(name))
    m[f"{name}.busy_s"] = busy(name)

    a_calls = named("constants.a_const")
    m["constants.a_const.calls"] = len(a_calls)
    m["constants.a_const.hit_ratio"] = _ratio(
        sum(1 for s in a_calls if not children.get(s[0])), len(a_calls)
    )
    m["constants.a_consts_batch.calls"] = len(named("constants.a_consts_batch"))
    m["constants.a_consts_batch.self_s"] = self_time("constants.a_consts_batch")
    m["constants.c_const.sweeps"] = sum(
        1 for s in named("constants.c_const") if swept(s)
    )
    m["constants.c_const.self_s"] = self_time("constants.c_const")
    # sets swept on behalf of the constants layer whose bucket became a
    # stored constant: the top buckets of a batch, the one C bucket
    useful = info_sum("constants.a_consts_batch", "useful") + info_sum(
        "constants.c_const", "value", swept
    )
    total = sum(
        (s[6] or {}).get("sets", 0) for s in named("enumeration.window_counts")
        if name_of.get(s[1]) in ("constants.a_consts_batch", "constants.c_const")
    )
    m["constants.sweep_useful_ratio"] = _ratio(useful, total)

    m["limits.gamma.calls"] = len(named("limits.gamma"))
    for name in ("limits.gamma", "limits.gamma_table", "limits.alpha_limit",
                 "limits.g_l_limit"):
        m[f"{name}.self_s"] = self_time(name)
    name = "limits.GammaTable.distinctness_counts"
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.pairs"] = info_sum(name, "pairs")

    m["cli.main.calls"] = len(named("cli.main"))
    m["cli.main.self_s"] = self_time("cli.main")
    m["cli.output_bytes"] = output_bytes

    m["core.is_semigroup.calls"] = len(named("core.is_semigroup"))
    # union of core time: count only core spans not nested in another
    m["core.busy_s"] = sum(
        s[5] - s[4] for n in CORE for s in named(n) if name_of.get(s[1]) not in CORE
    )

    ratios = ("sets_per_s", "entries_per_s", "hit_ratio", "useful_ratio")
    m = {k: (v if k.endswith(ratios) else v / n_ops) for k, v in m.items()}
    m["trace.overhead_s"] = overhead_s
    return m
