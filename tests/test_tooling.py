"""The test configuration itself: a failing property test is reported as a
failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_keeps_the_run_going(tmp_path):
    # on a failure hypothesis imports libcst, whose DeprecationWarning the
    # "error" filter would raise inside a pytest hook: INTERNALERROR, exit 3,
    # and no later test runs. The run works in tmp_path, so hypothesis'
    # patch files land there too
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    out = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                          "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
