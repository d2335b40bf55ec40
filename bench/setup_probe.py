"""Set-up probe: a fresh interpreter imports mrange and runs one warm-up
operation of the named workload, then exits. run.py times it from the
start of the interpreter to its exit and reports the median as setup_s.

    python3 bench/setup_probe.py radius-scan
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path


def warm_up(workload):
    """One small operation on the workload's main path."""
    import numpy as np

    import mrange

    E21 = np.array([[0, 0], [1, 0]], dtype=complex)
    if workload == "radius-scan":
        mrange.radius_characterizations(E21)
    elif workload == "extremal-boundary":
        mrange.ando_decompose(2.0 * E21)
    elif workload == "psd-feasibility":
        mrange.member_shift_ball(E21 / 2.0, 16)
    elif workload == "cli-interior":
        from mrange import cli

        with redirect_stdout(io.StringIO()):
            cli.run(["bilateral"])
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up(sys.argv[1])
