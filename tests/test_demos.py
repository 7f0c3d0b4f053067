"""The demos, run with the arguments the CI workflow gives them, against
their whole stdout under tests/golden/demo-<name>.text."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = {
    "alpha_masses": ["--cache", "nsdensity.cache"],
    "convergence_drift": ["--f-max", "24"],
    "density_table_tour": ["--f", "9"],
    "reference_table": ["--cache", "nsdensity.cache"],
}


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py"), *DEMOS[name]],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / "tests" / "golden" / f"demo-{name}.text").read_bytes()


def test_reference_table_exits_1_on_a_miss(monkeypatch, capsys):
    # loaded by path, as a module: one published value planted off its band
    path = ROOT / "demos" / "reference_table.py"
    spec = importlib.util.spec_from_file_location("reference_table", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "REFERENCE", {**demo.REFERENCE, "1,3": "0.10000"})
    monkeypatch.setattr(
        sys, "argv", [str(path), "--cache", str(ROOT / "nsdensity.cache")]
    )
    assert demo.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith("MISSES BAND")] == ["1,3"]
    assert lines[-1] == "27 of 28 rows meet the published band of +/- 0.00212"
