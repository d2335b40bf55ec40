"""The level-set radius: inputs with tangencies, symmetric maxima and
degenerate pencils, checked against exact values and the brute-force oracle."""

import numpy as np
import pytest

import mrange as mr
from mrange.numrange import _support_grid
from mrange.rng import split

from helpers import radius_bruteforce, random_with_radius


def _attained(T, angle):
    return float(_support_grid(T, np.array([angle]))[0])


class TestLevelSetRadius:
    @pytest.mark.parametrize("dim, k", [(2, 120), (3, 44)])
    def test_real_input_with_local_min_at_zero(self, dim, k):
        # the start level f(0) touches the support function at a local
        # minimum between two symmetric maxima; that tangent crossing leaves
        # the unit circle by about sqrt(machine eps), and dropping it stops
        # the iteration at f(0), more than 1e-3 below the radius
        T = mr.random_matrix(dim, dim, split(dim, k)).real.astype(complex)
        f0, f_near = _support_grid(T, np.array([0.0, 1e-3]))
        w = mr.num_radius(T)
        assert f_near > f0 and w > f0 + 1e-3
        assert w == pytest.approx(radius_bruteforce(T), abs=1e-8)

    def test_shift_128(self):
        assert mr.num_radius(mr.shift(128)) == pytest.approx(np.cos(np.pi / 129), abs=1e-12)

    def test_zero(self):
        for n in (1, 3):
            assert mr.num_radius(np.zeros((n, n))) == 0.0

    def test_scalar(self):
        c = 0.7 * np.exp(2.1j)
        w, angle = mr.numrange._radius_and_angle(np.array([[c]]), None)
        assert w == pytest.approx(0.7, abs=1e-14)
        assert _attained(np.array([[c]]), angle) == pytest.approx(0.7, abs=1e-14)

    def test_scalar_times_identity(self):
        T = 1.5j * np.eye(4)
        assert mr.num_radius(T) == pytest.approx(1.5, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_nilpotent_jordan_block(self, n):
        # the support function is constant, so every pencil is singular
        J = 2.5 * np.exp(0.3j) * mr.shift(n).T
        assert mr.num_radius(J) == pytest.approx(2.5 * np.cos(np.pi / (n + 1)), abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_against_bruteforce(self, dim):
        for k in range(3):
            T = mr.random_matrix(dim, dim, split(700 + dim, k))
            w, angle = mr.numrange._radius_and_angle(T, None)
            brute = radius_bruteforce(T, seed=k, vectors=50_000)
            # the oracle's values are attained, so it can only fall short
            assert brute <= w + 1e-12
            assert w - brute <= 1e-7 * (1.0 + w)
            assert _attained(T, angle) == pytest.approx(w, abs=1e-12)


class TestCharacterizationsByLevelSet:
    @pytest.mark.parametrize("target", [0.8, 1.2])
    def test_negated_input(self, target):
        T = random_with_radius(4, target, 17)
        rep, neg = mr.radius_characterizations(T), mr.radius_characterizations(-T)
        assert neg.radius == pytest.approx(rep.radius, abs=1e-12)
        assert neg.conditions == rep.conditions == (target <= 1.0,) * 4

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_ring_condition_at_its_margin(self, offset):
        # 0.9 w(T) = 1 + offset: only the ring condition sits at its margin,
        # and every condition must still read False
        T = random_with_radius(3, (1.0 + offset) / 0.9, 5)
        rep = mr.radius_characterizations(T)
        assert rep.conditions == (False, False, False, False)
        assert rep.worst_margin == pytest.approx(1.0 - 1.0 / 0.9, abs=1e-8)
