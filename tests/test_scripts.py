"""The demo scripts run end to end against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrange as mr

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(script, timeout):
    src = os.path.dirname(os.path.dirname(mr.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, str(SCRIPTS / script)], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("script", ["moment_roundtrip_demo.py", "showcase_shift2.py"])
def test_script_exits_cleanly(script):
    out = run_script(script, 120)
    assert out.returncode == 0, out.stderr


def test_acceptance_script_passes_every_criterion():
    out = run_script("run_acceptance.py", 300)
    assert out.returncode == 0, out.stdout + out.stderr
    passed, total = out.stdout.splitlines()[-1].split(" criteria passed")[0].split("/")
    assert int(total) > 0 and passed == total
