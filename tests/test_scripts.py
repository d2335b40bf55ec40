"""The demo scripts run end to end against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrange as mr

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["moment_roundtrip_demo.py", "showcase_shift2.py"])
def test_script_exits_cleanly(script):
    src = os.path.dirname(os.path.dirname(mr.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(SCRIPTS / script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
