import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange.errors import NonSquare
from mrange.rng import split

from helpers import E21, radius_bruteforce, random_with_radius


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

    def test_disagreement_raises_under_optimize(self):
        # a wrong radius makes the conditions disagree; the check must not
        # vanish with assert statements under python -O
        code = textwrap.dedent("""
            import numpy as np
            from mrange import numrange
            from mrange.errors import VerificationFailed
            numrange._radius_and_angle = lambda T, tol: (2.0, 0.0)
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
