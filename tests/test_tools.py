"""Every script under tools/ starts from the repository root on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("tool", TOOLS, ids=lambda p: p.name)
def test_help_runs_without_pythonpath(tool):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tool.relative_to(ROOT)), "--help"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "usage:" in proc.stdout
