"""The demos, run with the arguments the CI workflow gives them, against
their whole stdout under tests/golden/demo-<name>.text."""

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
