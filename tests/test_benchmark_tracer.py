"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name, so a rename or deletion of a traced name breaks ``run.py --trace 1``
without failing any library test.  This guard loads the tracer as it is
and checks that every name it wraps still resolves and still returns what
its info function reads."""

import importlib.util
import sys
from collections.abc import Mapping
from pathlib import Path

import nsdensity.cli  # noqa: F401  (every traced module loaded)
from nsdensity import constants
from nsdensity.core import DSet

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname, qual):
    obj = sys.modules[modname]
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_target_resolves_and_the_tracer_restores_it():
    tracing = load_tracing()
    originals = [resolve(mod, qual) for _, mod, qual, _ in tracing.TARGETS]
    assert all(callable(fn) for fn in originals)

    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert all(
            resolve(mod, qual) is not fn
            for (_, mod, qual, _), fn in zip(tracing.TARGETS, originals)
        )
        cache = constants.ConstantCache()
        assert constants.a_const(DSet.of([1, 3]), cache) == 3
        assert isinstance(constants.a_consts_batch(4, cache), Mapping)
        assert constants.c_const(1, 4, cache) == 3
    finally:
        restore()
    assert [resolve(mod, qual) for _, mod, qual, _ in tracing.TARGETS] == originals
    infos = {s[3]: s[6] for s in tracer.spans}
    assert infos["constants.a_consts_batch"] == {"useful": 27}  # 3^(4-1)
    assert infos["constants.c_const"] == {"value": 3}
