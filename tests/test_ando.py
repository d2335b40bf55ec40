import numpy as np
import pytest

import mrange as mr
from mrange.cpmaps import Feasible
from mrange.errors import RadiusTooLarge
from mrange.rng import split

from helpers import E21, random_with_radius


class TestAndoX:
    def test_lower_unit_exact(self):
        X, iters = mr.ando_X(E21)
        np.testing.assert_allclose(X, np.diag([0.75, 1.0]), atol=1e-12)
        assert iters <= 3

    def test_doubled_lower_unit_exact(self):
        X, _ = mr.ando_X(2 * E21)
        np.testing.assert_allclose(X, np.diag([0.0, 1.0]), atol=1e-12)

    def test_zero(self):
        X, _ = mr.ando_X(np.zeros((2, 2)))
        np.testing.assert_allclose(X, np.eye(2), atol=1e-14)

    def test_radius_precondition(self):
        with pytest.raises(RadiusTooLarge):
            mr.ando_X(random_with_radius(3, 1.2, 0))

    @pytest.mark.parametrize("dim", [2, 5])
    def test_radius_just_above_one(self, dim):
        # inside the 1e-9 admission band no maximal solution exists, so the
        # iteration cannot settle; the radius is what is wrong with the input
        T = random_with_radius(dim, 1.0 + 1e-10, split(83, dim))
        with pytest.raises(RadiusTooLarge, match="numerical radius 1.0000000001"):
            mr.ando_X(T)

    def test_fixed_point_consistency(self):
        for seed in range(5):
            T = random_with_radius(3, 0.9, seed)
            X, _ = mr.ando_X(T)
            F = np.eye(3) - 0.25 * np.conj(T).T @ mr.pinv(X) @ T
            assert mr.op_norm(X - (F + np.conj(F).T) / 2) <= 1e-8

    def test_boundary_radius_one(self):
        for seed in range(3):
            T = random_with_radius(3, 1.0, seed + 50)
            X, _ = mr.ando_X(T)
            lmi = np.block([[np.eye(3) - X, np.conj(T).T / 2], [T / 2, X]])
            assert mr.psd_check(lmi)[1] >= -1e-9 * (1 + mr.op_norm(lmi))

    @pytest.mark.parametrize("dim, k", [(2, 117), (2, 118), (2, 133), (3, 121)])
    def test_boundary_ymin_below_ymax(self, dim, k):
        # at w(T) = 1, Y_max - Y_min is singular at the exact solution; a stop
        # on step size or stagnation runs on to the rounding floor, where X
        # can end slightly below the maximal solution and Y_min then rises
        # above Y_max on these inputs
        T = random_with_radius(dim, 1.0, split(61, k))
        dec = mr.ando_decompose(T)
        assert dec.residuals["ymin_below_ymax"] >= -1e-9 * (1 + mr.op_norm(T))


def _lmi_feasible_point(T, start, tol=None, max_iter=4000):
    """Project a random Hermitian pair into {[[I-Y, T*/2],[T/2, Y]] >= 0}."""
    d = T.shape[0]
    # one cone, a 2 x 2 grid of d x d blocks: the (2, 1) block is pinned to
    # T/2 and the diagonal blocks sum to the identity
    K = [[np.array([[0, 0], [1, 0]])], [np.eye(2)]]
    out = mr.solve_feasibility(K, [T / 2, np.eye(d)], tol, max_iter=max_iter,
                               start=start)
    if not isinstance(out, Feasible):
        return None
    return out.matrix[0, d:, d:]


class TestAndoDecompose:
    def test_lower_unit_values(self):
        dec = mr.ando_decompose(E21)
        np.testing.assert_allclose(dec.Y_max, np.diag([0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(dec.Y_min, np.diag([-1.0, -0.5]), atol=1e-12)
        np.testing.assert_allclose(dec.Z, E21, atol=1e-12)
        np.testing.assert_allclose(dec.C, E21 / 2, atol=1e-12)

    def test_doubled_lower_unit_values(self):
        dec = mr.ando_decompose(2 * E21)
        np.testing.assert_allclose(dec.Y_max, np.diag([-1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(dec.Y_min, dec.Y_max, atol=1e-12)
        np.testing.assert_allclose(dec.Z, E21, atol=1e-12)
        np.testing.assert_allclose(dec.C, E21, atol=1e-12)

    def test_radius_computed_once(self, monkeypatch):
        # w(T*) = w(T), so the adjoint problem reuses the radius
        calls = []
        radius = mr.ando.num_radius
        monkeypatch.setattr(mr.ando, "num_radius", lambda T, tol: calls.append(1) or radius(T, tol))
        mr.ando_decompose(E21)
        assert len(calls) == 1

    def test_zero(self):
        dec = mr.ando_decompose(np.zeros((2, 2)))
        np.testing.assert_allclose(dec.Y_max, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(dec.Z, np.zeros((2, 2)), atol=1e-12)

    def test_reconstructions_on_random_inputs(self):
        for seed in range(6):
            target = 0.3 + 0.14 * seed  # up to ~1.0
            T = random_with_radius(3, min(target, 1.0), seed)
            dec = mr.ando_decompose(T)
            I = np.eye(3)
            scale = 1 + mr.op_norm(T)
            assert mr.op_norm(mr.sqrt_psd(I + dec.Y_max) @ dec.Z
                              @ mr.sqrt_psd(I - dec.Y_max) - T) <= 1e-8 * scale
            assert mr.op_norm(2 * mr.sqrt_psd(I - np.conj(dec.C).T @ dec.C)
                              @ dec.C - T) <= 1e-8 * scale
            assert mr.op_norm(dec.Z) <= 1 + 1e-8
            assert np.linalg.eigvalsh(dec.Y_max - dec.Y_min)[0] >= -1e-9

    def test_adjoint_symmetry_by_construction(self):
        T = random_with_radius(3, 0.8, 17)
        dec = mr.ando_decompose(T)
        Xstar, _ = mr.ando_X(np.conj(T).T)
        np.testing.assert_allclose(dec.Y_min, -(2 * Xstar - np.eye(3)), atol=1e-12)

    def test_maximality_against_sampled_feasible_points(self):
        T = random_with_radius(2, 0.9, 23)
        X, _ = mr.ando_X(T)
        hits = 0
        for k in range(100):
            Y0 = mr.random_hermitian(2, split(404, k)) * 0.4 + 0.5 * np.eye(2)
            start = np.block([[np.eye(2) - Y0, np.conj(T).T / 2], [T / 2, Y0]])
            Y = _lmi_feasible_point(T, start)
            if Y is None:
                continue
            hits += 1
            assert np.linalg.eigvalsh(X - Y)[0] >= -1e-6
        assert hits >= 90  # the sampler must actually produce feasible points


class TestRadiusLmi:
    def test_lower_unit(self):
        ok, A = mr.radius_lmi(E21)
        assert ok
        block = np.block([[A, E21.T], [E21, np.eye(2) - A]])
        assert mr.psd_check(block)[1] >= -1e-9
        np.testing.assert_allclose(A, np.diag([1.0, 0.0]), atol=1e-10)

    def test_zero(self):
        ok, A = mr.radius_lmi(np.zeros((2, 2)))
        assert ok
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12

    def test_large_radius_rejected(self):
        ok, A = mr.radius_lmi(0.51 * np.eye(2))
        assert not ok and A is None

    def test_matches_radius_threshold_on_samples(self):
        for seed in range(12):
            target = 0.2 + 0.05 * seed  # 0.2 .. 0.75, skipping the 1e-3 band
            if abs(target - 0.5) < 1e-3:
                continue
            T = random_with_radius(2, target, split(31, seed))
            ok, _ = mr.radius_lmi(T)
            assert ok == (target <= 0.5)


class TestUcpFromE21:
    def test_lower_unit_witness(self):
        phi = mr.ucp_from_e21(E21)
        assert mr.is_cp(phi)[0]
        assert phi.unital_defect() <= 1e-12
        np.testing.assert_allclose(phi.value(2, 1), E21, atol=1e-12)
        np.testing.assert_allclose(phi.value(1, 2), E21.T, atol=1e-12)
        np.testing.assert_allclose(phi.value(1, 1) + phi.value(2, 2),
                                   np.eye(2), atol=1e-12)

    def test_zero(self):
        phi = mr.ucp_from_e21(np.zeros((2, 2)))
        assert mr.is_cp(phi)[0]
        assert phi.unital_defect() <= 1e-12

    def test_normal_boundary_input(self):
        T = np.diag([0.5, -0.5]).astype(complex)  # radius 1/2 by normality
        phi = mr.ucp_from_e21(T)
        ok, mn = mr.is_cp(phi)
        assert ok and mn >= -1e-9

    def test_rejects_large_radius(self):
        with pytest.raises(RadiusTooLarge):
            mr.ucp_from_e21(0.6 * np.eye(2))
