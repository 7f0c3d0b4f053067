"""Workload definitions: the CLI queries each workload sends, made from a seed.

A workload is a stream of rounds.  Every round holds the same operations
in kind and number, so a run that stops between rounds has attempted the
same mix whatever its length, and the share of failed operations is the
same in every run.  The seed picks only the inputs inside a round.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from oracle import REFERENCE_DENSITIES, parse_key

FORMATS = ("text", "csv", "json")

# Problem sizes.  "full" is what the benchmark measures; "tiny" runs every
# workload and check in a few seconds for the self-test.
SIZES = {
    "full": {
        "certify-cached": {"max_t": 8, "depth": 15, "brute_levels": 7},
        "constants-fresh": {"depth": 12, "l": 2, "g_depth": 13,
                            "brute_levels": 7, "brute_c": 7},
        "enumerate-finite": {"f": 24, "small_f": 13},
    },
    "tiny": {
        "certify-cached": {"max_t": 3, "depth": 15, "brute_levels": 5},
        "constants-fresh": {"depth": 7, "l": 2, "g_depth": 8,
                            "brute_levels": 5, "brute_c": 7},
        "enumerate-finite": {"f": 12, "small_f": 9},
    },
}
WORKLOADS = tuple(SIZES["full"])

SHIPPED_CACHE = "nsdensity.cache"
# The corrupted-cache query raises this constant by one.  It is a row of
# every table the workload asks for, so the query reads it.
CORRUPT_KEY = "1,3"


@dataclass
class Op:
    """One in-process CLI invocation and the exit code it must give."""

    argv: list[str]
    expect_exit: int = 0
    fresh_cache: str | None = None  # emptied before the call, checked after


class Workload:
    """Seeded round generator; ``setup`` writes the inputs it needs."""

    def __init__(self, name: str, seed: int, size: str, root: str, work: str):
        self.name = name
        self.params = SIZES[size][name]
        self.rng = random.Random(f"{name}:{seed}")
        self.root = root
        self.work = work
        self.n_ops = 0

    def setup(self) -> None:
        if self.name == "certify-cached":
            with open(os.path.join(self.root, SHIPPED_CACHE), encoding="utf-8",
                      newline="") as fh:
                text = fh.read()
            old = next(
                line for line in text.split("\n")
                if line.startswith(f"A|{CORRUPT_KEY}|")
            )
            new = f"A|{CORRUPT_KEY}|{int(old.split('|')[2]) + 1}"
            with open(self.corrupt_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text.replace(old + "\n", new + "\n", 1))
        elif self.name == "constants-fresh":
            os.makedirs(os.path.join(self.work, "fresh"), exist_ok=True)

    @property
    def corrupt_path(self) -> str:
        return os.path.join(self.work, "corrupt.cache")

    def _fresh(self) -> str:
        self.n_ops += 1
        return os.path.join(self.work, "fresh", f"op{self.n_ops}.cache")

    def next_round(self) -> list[Op]:
        p = self.params
        if self.name == "certify-cached":
            base = ["table", "--max-t", str(p["max_t"]), "--depth",
                    str(p["depth"]), "--workers", "1"]
            ops = [
                Op(base + ["--cache", SHIPPED_CACHE, "--format", fmt])
                for fmt in self.rng.sample(FORMATS, 3)
            ]
            # fixed, seed-independent input: the program must refuse it
            ops.append(Op(base + ["--cache", self.corrupt_path, "--format",
                                  "text"], expect_exit=1))
            return ops
        if self.name == "constants-fresh":
            keys = [k for k in REFERENCE_DENSITIES
                    if max(parse_key(k), default=0) <= p["depth"]]
            d = self.rng.choice(keys)
            fmt_g, fmt_l = self.rng.choice(FORMATS), self.rng.choice(FORMATS)
            g, c = self._fresh(), self._fresh()
            return [
                Op(["gamma", "--d", d, "--depth", str(p["depth"]),
                    "--workers", "1", "--format", fmt_g, "--cache", g,
                    "--write-cache"], fresh_cache=g),
                Op(["glimit", "--l", str(p["l"]), "--depth", str(p["g_depth"]),
                    "--workers", "1", "--format", fmt_l, "--cache", c,
                    "--write-cache"], fresh_cache=c),
            ]
        return [
            Op(["enumerate", "--f", str(p["f"]), "--workers", "1",
                "--format", fmt])
            for fmt in self.rng.sample(FORMATS, 3)
        ]

    def twin(self, op: Op) -> Op:
        """The same query again, its fresh cache at a new path."""
        if op.fresh_cache is None:
            return op
        path = self._fresh()
        argv = [path if a == op.fresh_cache else a for a in op.argv]
        return Op(argv, op.expect_exit, path)

    def probes(self) -> list[Op]:
        """Untimed extra queries some checks need (small-f tables)."""
        if self.name != "enumerate-finite":
            return []
        return [
            Op(["enumerate", "--f", str(self.params["small_f"]), "--workers",
                "1", "--format", fmt])
            for fmt in FORMATS
        ]
