import os

# one BLAS thread, as the benchmark runs: on few cores the default thread
# count makes the small dense solves of the suite several times slower.
# These must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

import mrange as mr  # noqa: E402

# numeric property tests: no wall-clock deadlines, and a fixed example set so
# the suite is reproducible run to run
settings.register_profile(
    "mrange",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mrange")


@pytest.fixture
def herm_eig_calls(monkeypatch):
    """The shapes of the matrices passed to linalg.herm_eig, in call order;
    ``mrange.herm_eig``, the package's own name for it, is left unpatched
    for reference computations."""
    calls = []
    herm_eig = mr.linalg.herm_eig

    def counted(H):
        calls.append(np.shape(H))
        return herm_eig(H)
    monkeypatch.setattr(mr.linalg, "herm_eig", counted)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test and returns
    a list that grows by the positional arguments of each call."""
    def count(module, name):
        calls = []
        target = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return target(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls
    return count
