"""The demo scripts run end to end against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(script, timeout, cwd):
    """The script as README runs it from a checkout: no PYTHONPATH, and
    here from a directory outside the repository, so mrange is found only
    where the script itself looks for it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / script)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("script", ["moment_roundtrip_demo.py", "showcase_shift2.py"])
def test_script_exits_cleanly(script, tmp_path):
    out = run_script(script, 120, tmp_path)
    assert out.returncode == 0, out.stderr


def test_acceptance_script_passes_every_criterion(tmp_path):
    out = run_script("run_acceptance.py", 300, tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    passed, total = out.stdout.splitlines()[-1].split(" criteria passed")[0].split("/")
    assert int(total) > 0 and passed == total
