"""The start-grid radius bound: entry points that print no radius take it
in place of the level set, away from w = 1, with results bit-identical to
a radius-first run."""

import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange import ando
from mrange.dilation import _two_dilation
from mrange.errors import MrangeError, RadiusTooLarge
from mrange.linalg import BAND, DEFAULT_TOL
from mrange.numrange import _radius_or_bound

from helpers import E21, random_with_radius

_SEC = 1.0 / np.cos(np.pi / 16)
_WINDOW = 8


def _scaled(n, w, seed, real=False):
    T = mr.random_matrix(n, n, seed)
    T = T.real.astype(complex) if real else T
    return T * (w / mr.num_radius(T))


def _outcome(run):
    """A run's result as pickled bytes, or its error's type and message."""
    try:
        out = run()
    except MrangeError as exc:
        return type(exc).__name__, str(exc)
    return pickle.dumps(dataclasses.astuple(out) if dataclasses.is_dataclass(out) else out)


def _two_dilation_reference(A, t):
    w = mr.num_radius(A)
    x, U = ando._extremal_X(A, w, t)[2]
    return _two_dilation(A, ando._ando_factor(A, x, U)[1], _WINDOW)


def _ucp_reference(M, t):
    w, X = ando._e21_witness(M, t, mr.num_radius)
    if X is None:
        raise RadiusTooLarge(f"numerical radius {w / 2.0:.12f} exceeds 1/2")
    return ando._e21_map(M, X)


def _lmi_reference(M, t):
    X = ando._e21_witness(M, t, mr.num_radius)[1]
    return X is not None, X


def _mismatches(A, t=DEFAULT_TOL):
    """What differs from a radius-first run: the entry points whose results or
    errors are not bit-identical to it, and "bracket" unless
    w <= bound <= w sec(pi/16) (1 + 1e-12), with bound = w off the bound route.
    The E21 entry points take A/2, so each entry point solves for A."""
    A = np.asarray(A, dtype=complex)
    w, bound = mr.num_radius(A), _radius_or_bound(A)
    out = []
    if not (w <= bound <= w * _SEC * (1.0 + 1e-12) and (bound == w or bound < 1.0 - BAND)):
        out.append("bracket")
    pairs = {
        "ando_decompose": (lambda: mr.ando_decompose(A),
                           lambda: ando._ando_decompose(A, mr.num_radius(A), t)),
        "two_dilation": (lambda: mr.two_dilation(A, _WINDOW),
                         lambda: _two_dilation_reference(A, t)),
        "radius_lmi": (lambda: mr.radius_lmi(A / 2.0), lambda: _lmi_reference(A / 2.0, t)),
        "ucp_from_e21": (lambda: mr.ucp_from_e21(A / 2.0), lambda: _ucp_reference(A / 2.0, t)),
    }
    out += [name for name, (run, ref) in pairs.items() if _outcome(run) != _outcome(ref)]
    return out


_SEAM = float(np.cos(np.pi / 16))
_RADII = st.one_of(
    st.floats(0.05, 1.3),
    # below cos(pi/16) every input takes the bound; above it, some do
    st.floats(-1e-3, 1e-3).map(lambda e: _SEAM * (1.0 + e)),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -3.0)).map(
        lambda p: 1.0 + p[0] * 10.0 ** p[1]),
)


class TestRadiusOrBound:
    @settings(max_examples=60)
    @given(n=st.integers(1, 12), w=_RADII, seed=st.integers(0, 2**32), real=st.booleans())
    def test_bracket_and_identity(self, n, w, seed, real):
        assert _mismatches(_scaled(n, w, seed, real)) == []

    @pytest.mark.parametrize("A", [
        2.0 ** 990 * random_with_radius(3, 0.9, 1),
        2.0 ** -990 * random_with_radius(3, 0.9, 1),
        2.0 ** -990 * random_with_radius(3, 1.0, 1),
        _scaled(5, 0.9, 2, real=True),
        _scaled(5, 1.0, 2, real=True),
        np.diag([0.9, -0.5j, 0.3]),
        np.diag([1.0, np.exp(2j), -0.5]),
        # the maximum half a grid step off the start angles: bound = w sec(pi/16)
        np.diag([0.99 * np.exp(1j * np.pi / 16), 0.5]),
        np.diag([np.exp(1j * np.pi / 16), 0.5]),
        E21, 2 * E21, mr.shift(5), mr.shift(5) / np.cos(np.pi / 6), np.zeros((3, 3)),
    ], ids=["2^990", "2^-990", "2^-990 at w=1", "real w=0.9", "real w=1", "normal",
            "normal w=1", "off-grid w=0.99", "off-grid w=1", "E21", "2 E21", "S_5",
            "S_5 at w=1", "zero"])
    def test_fixed_inputs(self, A):
        assert _mismatches(A) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_rounding_allowance(self, n):
        # the maximum exactly half a grid step off the start angles, on a
        # rotated normal matrix: the largest start value times sec(pi/16)
        # alone falls under the computed radius by an ulp or two on about
        # a third of these inputs
        for seed in range(10):
            U = mr.random_isometry(n, n, seed)
            d = np.full(n, 0.3 + 0j)
            d[0] = 0.9 * np.exp(1j * np.pi / 16)
            A = U @ np.diag(d) @ U.conj().T
            assert mr.num_radius(A) <= _radius_or_bound(A) < 1.0 - BAND

    def test_under_optimize(self):
        # the library's checks run under python -O too, and so does the route
        tests = os.path.dirname(__file__)
        code = "\n".join([
            "import sys", f"sys.path.insert(0, {tests!r})",
            "import test_radius_bound as t",
            "print(__debug__, t._mismatches(t._scaled(6, 0.9, 4)) == [])",
        ])
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "True"], out.stderr


_ENTRY_POINTS = {
    "ando_decompose": lambda A: mr.ando_decompose(A),
    "two_dilation": lambda A: mr.two_dilation(A, _WINDOW),
    "radius_lmi": lambda A: mr.radius_lmi(A / 2.0),
    "ucp_from_e21": lambda A: mr.ucp_from_e21(A / 2.0),
}


class TestLevelSetCalls:
    """The four entry points that print no radius solve a level set only
    when the start values leave w near 1; member_e21 prints its margin, so
    it always solves one."""

    @pytest.mark.parametrize("name", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("w, levels", [(0.4, 0), (0.9, 0), (1.0, 1)])
    def test_level_sets_per_call(self, name, w, levels, count_calls):
        A = random_with_radius(6, w, 7)
        starts = count_calls(mr.numrange, "_start_grid")
        solves = count_calls(mr.numrange, "_level_set_max")
        pencils = count_calls(mr.numrange, "_pencil_eigenvalues")
        _ENTRY_POINTS[name](A)
        assert (len(starts), len(solves)) == (1, levels)
        assert (len(pencils) == 0) == (levels == 0)

    @pytest.mark.parametrize("w", [0.2, 0.45, 0.5])
    def test_member_e21_keeps_its_radius(self, w, count_calls):
        T = random_with_radius(6, w, 8)
        solves = count_calls(mr.numrange, "_level_set_max")
        assert mr.member_e21(T).member
        assert len(solves) == 1
