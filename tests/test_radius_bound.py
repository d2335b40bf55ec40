"""The entry points that print no radius solve no level set where the start
values or Ando's X settle w: they take the start-grid bound in its place
away from w = 1, and near it the first ascent's provisional radius, which
their X certifies by its LMI, with the level set only as the fallback. Every
result is bit-identical to a radius-first run."""

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
from mrange.errors import MrangeError, NoConvergence, RadiusTooLarge
from mrange.linalg import BAND, DEFAULT_TOL
from mrange.numrange import _Radius, _radius_or_bound

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


def _bound(A):
    """The radius or bound that _radius_or_bound hands a witness that
    rejects every provisional radius: its bound under 1 - BAND, else w."""
    def certified(w):
        if w.provisional:
            raise NoConvergence("provisional")
        return w
    return _radius_or_bound(A, certified)


def _two_dilation_reference(A, t):
    w = mr.num_radius(A)
    x, U = ando._extremal_X(A, w, t)[2]
    return _two_dilation(A, ando._ando_factor(A, x, U)[1], _WINDOW)


def _ucp_reference(M, t):
    w, X = ando._e21_X(2.0 * M, mr.num_radius(2.0 * M), t)
    if X is None:
        raise RadiusTooLarge(f"numerical radius {w / 2.0:.12f} exceeds 1/2")
    return ando._e21_map(M, X)


def _lmi_reference(M, t):
    X = ando._e21_X(2.0 * M, mr.num_radius(2.0 * M), t)[1]
    return X is not None, X


def _mismatches(A, t=DEFAULT_TOL):
    """What differs from a radius-first run: the entry points whose results or
    errors are not bit-identical to it, and "bracket" unless
    w <= bound <= w sec(pi/16) (1 + 1e-12), with bound = w off the bound route.
    The E21 entry points take A/2, so each entry point solves for A."""
    A = np.asarray(A, dtype=complex)
    w, bound = mr.num_radius(A), _bound(A)
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
        # real inputs attaining w = 1 at +-theta: a shift from one angle fails
        _scaled(4, 1.0, 9, real=True),
        *(_scaled(8, 1.0, seed, real=True) for seed in range(4)),
        # the maximum half a grid step off the start angles: bound = w sec(pi/16)
        np.diag([0.99 * np.exp(1j * np.pi / 16), 0.5]),
        np.diag([np.exp(1j * np.pi / 16), 0.5]),
        # the first ascent climbs to 0.999 at angle 0; w = 1 is attained off
        # the grid, where a plain run needs 20 steps and ends 4e-7 from X
        np.diag([0.999, np.exp(1j * np.pi / 16)]),
        E21, 2 * E21, mr.shift(5), mr.shift(5) / np.cos(np.pi / 6), np.zeros((3, 3)),
    ], ids=["2^990", "2^-990", "2^-990 at w=1", "real w=0.9", "real w=1", "normal",
            "normal w=1", "real n=4 +-theta", *(f"real n=8 +-theta {s}" for s in range(4)),
            "off-grid w=0.99", "off-grid w=1", "w=1 behind 0.999", "E21", "2 E21", "S_5",
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
            assert mr.num_radius(A) <= _bound(A) < 1.0 - BAND

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


_LOOSE = mr.Tolerances(psd_eps=1e-4)


class TestProvisionalRadius:
    """Near w = 1 the first ascent's value stands in for w until X certifies
    it: its LMI's min eigenvalue of at least -BAND/2 proves w <= 1 + BAND,
    whatever psd_eps."""

    def test_loose_tolerance_admits_no_radius_above_one(self, count_calls):
        # the ascent from the best start angle, 0, reads 1; w = 1 + 1e-6 is
        # attained half a grid step away, where no start value reaches 1.
        # Each entry point tries that provisional radius, then one level set
        T = np.diag([1.0, (1.0 + 1e-6) * np.exp(-1j * np.pi / 16)])
        solves = count_calls(mr.ando, "_extremal_X")
        levels = count_calls(mr.numrange, "_level_pencil")
        message = "numerical radius 1.000001000000 exceeds 1"
        with pytest.raises(RadiusTooLarge, match=f"^{message}$"):
            mr.ando_decompose(T, _LOOSE)
        with pytest.raises(RadiusTooLarge, match=f"^{message}$"):
            mr.two_dilation(T, _WINDOW, _LOOSE)
        assert mr.radius_lmi(T / 2.0, _LOOSE) == (False, None)
        with pytest.raises(RadiusTooLarge, match="^numerical radius 0.500000500000 exceeds 1/2$"):
            mr.ucp_from_e21(T / 2.0, _LOOSE)
        assert [w.provisional for _, w, *_ in solves] == [True, False] * 4
        assert [w for _, w, *_ in solves] == pytest.approx([1.0, 1.0 + 1e-6] * 4, rel=1e-12)
        assert len(levels) == 4

    def test_failed_shift_falls_back_to_the_level_set_alone(self, monkeypatch, count_calls):
        # attained at +-theta, w = 1 defeats the one-angle shift of the
        # provisional run. No plain run follows it: 20 linear steps would end
        # 4e-7 from X. The level set continues from the provisional ascent,
        # so the call takes the ascents of num_radius, no more
        A = _scaled(4, 1.0, 9, real=True)
        runs, reduce = [], ando._cyclic_reduction

        def traced(*args, **kwargs):
            runs.append(kwargs.get("shift") is not None)
            return reduce(*args, **kwargs)

        monkeypatch.setattr(ando, "_cyclic_reduction", traced)
        ascents = count_calls(mr.numrange, "_ascend")
        mr.num_radius(A)
        radius_ascents = len(ascents)
        mr.two_dilation(A, _WINDOW)
        assert runs == [True, True]
        assert len(ascents) == 2 * radius_ascents

    def test_lmi_bound_refuses_what_psd_eps_admits(self):
        # (1 + 1e-6) 2 E21 stops after one plain step at X with eigenvalue
        # -2e-6: its LMI passes psd_eps = 1e-4, so only w refuses it, and a
        # provisional w of 1 (an ascent that missed the top) must not
        A = (1.0 + 1e-6) * 2.0 * E21
        x = ando._extremal_X(A, _Radius(1.0, np.empty(0)), _LOOSE)[2][0]
        assert x[0] == pytest.approx(-2e-6, rel=1e-5)
        with pytest.raises(NoConvergence, match=r"^LMI min eig -2\.000e-06 certifies no"):
            ando._extremal_X(A, _Radius(1.0, np.empty(0), provisional=True), _LOOSE)

    def test_lmi_bound_under_optimize(self):
        tests = os.path.dirname(__file__)
        code = "\n".join([
            "import sys", f"sys.path.insert(0, {tests!r})",
            "import test_radius_bound as t",
            "try:",
            "    t.TestProvisionalRadius().test_lmi_bound_refuses_what_psd_eps_admits()",
            "    print(__debug__, True)",
            "except Exception as exc:",
            "    print(__debug__, False, repr(exc))",
        ])
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "True"], out.stdout + out.stderr


class TestLevelSetCalls:
    """The four entry points that print no radius solve a level set only
    when neither the start values nor X at the first ascent's provisional
    radius settle w; member_e21 prints its margin, so it always solves one."""

    @pytest.mark.parametrize("name", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("w, levels", [(0.4, 0), (0.9, 0), (1.0, 0)])
    def test_level_sets_per_call(self, name, w, levels, count_calls):
        A = random_with_radius(6, w, 7)
        starts = count_calls(mr.numrange, "_start_grid")
        solves = count_calls(mr.numrange, "_level_pencil")
        pencils = count_calls(mr.numrange, "_pencil_eigenvalues")
        _ENTRY_POINTS[name](A)
        assert (len(starts), len(solves)) == (1, levels)
        assert (len(pencils) == 0) == (levels == 0)

    @pytest.mark.parametrize("w", [0.2, 0.45, 0.5])
    def test_member_e21_keeps_its_radius(self, w, count_calls):
        T = random_with_radius(6, w, 8)
        solves = count_calls(mr.numrange, "_level_pencil")
        assert mr.member_e21(T).member
        assert len(solves) == 1

    @pytest.mark.parametrize("name", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("A, levels", [
        (2.0 * E21, 0), (mr.shift(4) / np.cos(np.pi / 5), 0),
        (np.diag([1.0, np.exp(2j), -0.5]), 1), (_scaled(4, 1.0, 9, real=True), 1),
        (_scaled(8, 1.0, 2, real=True), 1),
    ], ids=["2 E21", "S_4 at w=1", "normal two maxima", "real n=4 +-theta", "real n=8 +-theta"])
    def test_boundary_inputs(self, name, A, levels, count_calls):
        # flat support functions certify with no level set; inputs attaining
        # w = 1 at two angles fail the one-angle shift and solve exactly one
        starts = count_calls(mr.numrange, "_start_grid")
        solves = count_calls(mr.numrange, "_level_pencil")
        pencils = count_calls(mr.numrange, "_pencil_eigenvalues")
        _ENTRY_POINTS[name](A)
        assert (len(starts), len(solves), len(pencils)) == (1, levels, levels)
