"""Demos 01-03 run to completion with nothing on stderr. Demo 04 writes
CSV files next to itself, so it is left out. README's python quick start
runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_operator_bases.py", "02_bloch_vectors.py", "03_isotropic_geometry.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_quick_start_runs():
    """README's python block runs as written."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
