import copy
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange.errors import NonSquare, VerificationFailed
from mrange.rng import split

from helpers import E21, radius_bruteforce, random_with_radius, support_residual


class TestNumRadius:
    def test_lower_unit_is_half(self):
        assert mr.num_radius(E21) == pytest.approx(0.5, abs=1e-10)

    def test_identity(self):
        for n in (1, 2, 5):
            assert mr.num_radius(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    def test_shift3_against_bruteforce(self):
        S3 = mr.shift(3)
        w = mr.num_radius(S3)
        assert w == pytest.approx(np.cos(np.pi / 4), abs=1e-10)
        assert w == pytest.approx(radius_bruteforce(S3, vectors=100_000), abs=1e-8)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            mr.num_radius(np.zeros((2, 3)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), dim=st.integers(2, 5))
    def test_unitary_invariance(self, seed, dim):
        T = mr.random_matrix(dim, dim, split(seed, 0))
        U = mr.random_isometry(dim, dim, split(seed, 1))
        w1 = mr.num_radius(T)
        w2 = mr.num_radius(U @ T @ np.conj(U).T)
        assert abs(w1 - w2) <= 1e-10 * (1.0 + w1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32),
           scale=st.floats(0.01, 10.0), angle=st.floats(0.0, 6.28))
    def test_absolute_homogeneity(self, seed, scale, angle):
        T = mr.random_matrix(3, 3, seed)
        alpha = scale * np.exp(1j * angle)
        assert mr.num_radius(alpha * T) == pytest.approx(
            abs(alpha) * mr.num_radius(T), abs=1e-10 * (1 + abs(alpha)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), dim=st.integers(1, 6))
    def test_two_sided_norm_bound(self, seed, dim):
        T = mr.random_matrix(dim, dim, seed)
        w = mr.num_radius(T)
        nrm = mr.op_norm(T)
        assert nrm / 2 - 1e-10 <= w <= nrm + 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), dim=st.integers(2, 6))
    def test_normal_radius_is_spectral(self, seed, dim):
        lam = mr.random_matrix(1, dim, split(seed, 0))[0]
        U = mr.random_isometry(dim, dim, split(seed, 1))
        T = U @ np.diag(lam) @ np.conj(U).T
        assert mr.num_radius(T) == pytest.approx(np.abs(lam).max(), abs=1e-9)

    def test_dim_64_accuracy(self):
        lam = mr.random_matrix(1, 64, split(64, 0))[0]
        U = mr.random_isometry(64, 64, split(64, 1))
        T = U @ np.diag(lam) @ np.conj(U).T
        assert abs(mr.num_radius(T) - np.abs(lam).max()) <= 1e-10

    def test_near_tied_basins(self):
        # two separated directions within refinement error of each other
        T = np.diag([1.0, (1.0 - 3e-7) * np.exp(1.7j)])
        assert mr.num_radius(T) == pytest.approx(1.0, abs=1e-10)


class TestRadiusCopies:
    """A radius keeps its value, maxima and provisional flag through copy and
    pickle, also inside the reports that hold one."""

    @staticmethod
    def _same(a, b):
        assert type(a) is type(b) and float(a) == float(b)
        assert a.provisional == b.provisional
        np.testing.assert_array_equal(a.maxima, b.maxima)

    def test_round_trips(self):
        T = random_with_radius(4, 0.8, 11)
        w = mr.num_radius(T)
        assert w.maxima.size == 1
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            self._same(w, twin)
        rep = mr.radius_characterizations(T)
        twin = copy.deepcopy(rep)
        assert twin == rep
        self._same(rep.radius, twin.radius)
        suite = mr.equivalence_suite(T)
        twin = pickle.loads(pickle.dumps(suite))
        assert twin == suite
        self._same(suite.radius, twin.radius)

    def test_provisional_flag_survives(self):
        w = mr.numrange._Radius(0.5, np.array([1.0, 2.0]), provisional=True)
        self._same(w, pickle.loads(pickle.dumps(w)))


class TestRangeBoundary:
    def test_real_segment(self):
        pts = mr.range_boundary(np.diag([0.0, 1.0]), 4)
        for p in pts:
            assert abs(p.imag) < 1e-12
            assert -1e-12 <= p.real <= 1 + 1e-12

    def test_disk_of_radius_half(self):
        pts = mr.range_boundary(E21, 360)
        mods = np.abs(pts)
        assert mods.max() <= 0.5 + 1e-9
        assert mods.min() >= 0.5 - 1e-9  # support points sit on the circle

    def test_identity_point(self):
        for p in mr.range_boundary(np.eye(2), 12):
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_hull_inside_range(self):
        # every support point of a normal matrix lies in the hull of the spectrum
        lam = np.array([1.0, 1j, -1.0])
        pts = mr.range_boundary(np.diag(lam), 100)
        for p in pts:
            assert abs(p) <= 1.0 + 1e-9

    def test_matches_per_angle_eigh_at_64(self):
        # the one-pass ?heevr scan against one scipy eigh per angle; a top
        # eigenvector, and so its point, is only defined up to the top gap
        T = mr.random_matrix(64, 64, split(930, 0))
        K = 64
        pts = mr.range_boundary(T, K)
        simple = 0
        for k, p in enumerate(pts):
            H = np.exp(-2j * np.pi * k / K) * T
            w, V = scipy.linalg.eigh((H + np.conj(H).T) / 2.0)
            if w[-1] - w[-2] > 1e-2:
                simple += 1
                assert p == pytest.approx(np.vdot(V[:, -1], T @ V[:, -1]), abs=1e-12)
        assert simple >= K // 2


# split tridiagonals: a normal matrix and a direct sum of E21 blocks with
# multiple eigenvalues, where the bottom end's block can follow the top end's
_BOUNDARY_INPUTS = {
    "random5": mr.random_matrix(5, 5, split(940, 0)),
    "diag4": np.diag([1.0, 1j, -1.0, -1j]),
    "e21_sum": np.kron(np.eye(3), E21) + np.diag([0, 0, 0.5, 0.5, -0.3j, -0.3j]),
    "n1": np.array([[0.3 - 0.7j]]),
    "n2": mr.random_matrix(2, 2, split(940, 1)),
    "zero": np.zeros((3, 3), dtype=complex),
    "identity": np.eye(3, dtype=complex),
    "tiny": 1e-150 * mr.random_matrix(6, 6, split(940, 2)),
    "huge": 1e150 * mr.random_matrix(6, 6, split(940, 2)),
}


@pytest.fixture
def hetrd_calls(monkeypatch):
    """Counts the ?hetrd reductions made through the LAPACK handles the
    module looks up."""
    calls = []
    lookup = scipy.linalg.get_lapack_funcs

    def counted(f):
        def call(*args, **kwargs):
            calls.append(1)
            return f(*args, **kwargs)
        return call

    def counted_lookup(names, *args, **kwargs):
        found = lookup(names, *args, **kwargs)
        if isinstance(names, str):
            return counted(found) if names == "hetrd" else found
        return [counted(f) if name == "hetrd" else f for name, f in zip(names, found)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted_lookup)
    return calls


class TestBoundaryByAntipodalPairs:
    @pytest.mark.parametrize("K", [3, 4, 7, 255, 256])
    @pytest.mark.parametrize("name", sorted(_BOUNDARY_INPUTS))
    def test_points_on_support_lines(self, name, K):
        T = _BOUNDARY_INPUTS[name]
        pts = mr.range_boundary(T, K)
        assert len(pts) == K
        scale = 1.0 + np.linalg.norm(T, 2)
        assert support_residual(T, pts) <= 1e-13 * scale
        assert np.abs(pts).max() <= mr.num_radius(T) + 1e-12 * scale

    @pytest.mark.parametrize("K", [3, 4, 7, 255, 256])
    def test_one_reduction_per_antipodal_pair(self, hetrd_calls, K):
        mr.range_boundary(mr.random_matrix(8, 8, split(941, K)), K)
        assert len(hetrd_calls) == (K // 2 if K % 2 == 0 else K)

    @pytest.mark.parametrize("exponent", [-990, 990])
    def test_scaling_by_a_power_of_two_is_exact(self, exponent):
        # the points scale with T bit for bit, out to where the tridiagonal's
        # squares would leave the floating-point range unscaled
        T = mr.random_matrix(6, 6, split(940, 3))
        for K in (7, 8):
            scaled = mr.range_boundary(T * 2.0 ** exponent, K)
            assert scaled == [p * 2.0 ** exponent for p in mr.range_boundary(T, K)]

    def test_scalar_needs_no_reduction(self, hetrd_calls):
        assert mr.range_boundary(np.array([[2.0 - 1j]]), 6) == [2.0 - 1j] * 6
        assert hetrd_calls == []


class TestRadiusCharacterizations:
    def test_boundary_case_all_true(self):
        rep = mr.radius_characterizations(2 * E21)
        assert rep.conditions == (True, True, True, True)
        assert rep.radius == pytest.approx(1.0, abs=1e-12)
        assert rep.worst_margin >= -1e-9

    def test_scaled_identity_all_false(self):
        rep = mr.radius_characterizations(1.1 * np.eye(2))
        assert rep.conditions == (False, False, False, False)
        assert rep.worst_margin < 0

    def test_zero_all_true(self):
        rep = mr.radius_characterizations(np.zeros((2, 2)))
        assert rep.conditions == (True, True, True, True)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32), target=st.floats(0.3, 1.8))
    def test_conditions_agree_off_threshold(self, seed, target):
        if abs(target - 1.0) <= 1e-4:
            target += 2e-4
        T = random_with_radius(3, target, seed)
        rep = mr.radius_characterizations(T)
        expected = target <= 1.0
        assert all(c == expected for c in rep.conditions)

    def test_agreement_checked_next_to_the_band(self, monkeypatch):
        # |w - 1| = 5e-7 lies outside the rounding band: a radius reported
        # on the wrong side of 1 makes (1) disagree with (2) to (4)
        T = random_with_radius(3, 1.0 - 5e-7, 29)
        monkeypatch.setattr(mr.numrange._RadiusSolve, "maximum", (1.0 + 5e-7, 0.0))
        with pytest.raises(VerificationFailed, match="radius conditions disagree"):
            mr.radius_characterizations(T)

    def test_disagreement_raises_under_optimize(self):
        # a wrong radius makes the conditions disagree; the check must not
        # vanish with assert statements under python -O
        code = textwrap.dedent("""
            import numpy as np
            from mrange import numrange
            from mrange.errors import VerificationFailed
            numrange._RadiusSolve.maximum = (2.0, 0.0)
            try:
                numrange.radius_characterizations(np.array([[0, 0], [1, 0]], dtype=complex))
            except VerificationFailed as exc:
                print(__debug__, exc.name)
        """)
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "VerificationFailed"], out.stderr

    def test_false_certificate_raises_under_optimize(self):
        # the level test patched to claim "exceeds" on E21, whose |E21| = 1
        # certifies the opposite: (2) to (4) then disagree with w = 1/2 <= 1,
        # and the check must not vanish with assert statements under python -O
        code = textwrap.dedent("""
            import numpy as np
            from mrange import numrange
            from mrange.errors import VerificationFailed
            numrange._RadiusSolve.exceeds = lambda *args: True
            try:
                numrange.radius_characterizations(np.array([[0, 0], [1, 0]], dtype=complex))
            except VerificationFailed as exc:
                print(__debug__, exc.name)
        """)
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "VerificationFailed"], out.stderr
