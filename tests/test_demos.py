"""Smoke test: every script under demos/ runs to completion."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy runs from tmp_path, so files a demo writes next to itself
    # stay out of the checkout
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
