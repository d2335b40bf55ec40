import numpy as np
import pytest

import mrange as mr
from mrange.cpmaps import Feasible
from mrange.errors import BadShape, BoundaryBand, VerificationFailed
from mrange.rng import split

from helpers import E21, random_partition_of_identity, random_ucp_map, random_with_radius


class TestMemberE21:
    def test_lower_unit_on_boundary(self):
        v = mr.member_e21(E21)
        assert v.member
        assert abs(v.margin) <= 1e-9
        assert v.witness is not None
        assert mr.is_cp(v.witness)[0]

    def test_scaled_identity_outside(self):
        v = mr.member_e21(0.6 * np.eye(2))
        assert not v.member and v.witness is None

    def test_normal_boundary(self):
        v = mr.member_e21(np.diag([0.5, -0.5]).astype(complex))
        assert v.member

    def test_witness_surjectivity(self):
        for seed in range(100):
            T = random_with_radius(2, 0.49 * (seed + 1) / 100, split(5, seed))
            v = mr.member_e21(T)
            assert v.member and v.witness is not None
            assert mr.op_norm(v.witness.value(2, 1) - T) <= 1e-12
            assert mr.is_cp(v.witness)[0]

    def test_radius_computed_once(self, monkeypatch):
        # the witness constructor and its LMI reuse the verdict's radius
        T = random_with_radius(8, 0.4, 3)
        calls = []
        solve = mr.numrange._radius_and_angle
        monkeypatch.setattr(mr.numrange, "_radius_and_angle",
                            lambda T: calls.append(1) or solve(T))
        v = mr.member_e21(T)
        assert v.member and v.witness is not None
        assert len(calls) == 1


class TestMemberShiftBall:
    def test_zero_with_witness(self):
        v = mr.member_shift_ball(np.zeros((2, 2)), nodes=16)
        assert v.member and v.witness is not None

    def test_interior_witness_verified(self):
        v = mr.member_shift_ball(0.9 * E21, nodes=64)
        assert v.member
        assert v.witness is not None and not v.unverified
        total = sum(v.witness)
        first = sum(np.exp(1j * 2 * np.pi * j / 64) * H
                    for j, H in enumerate(v.witness))
        assert mr.op_norm(total - np.eye(2)) <= 1e-6
        assert mr.op_norm(first - 0.9 * E21) <= 1e-6

    def test_outside(self):
        assert not mr.member_shift_ball(1.05 * np.eye(2)).member


class TestMemberNormal:
    def test_midpoint(self):
        v = mr.member_normal([0.0, 1.0], np.eye(2) / 2)
        assert v.member

    def test_single_point(self):
        v = mr.member_normal([1.0], np.eye(2))
        assert v.member
        np.testing.assert_allclose(v.witness[0], np.eye(2), atol=1e-7)

    def test_outside_hull(self, monkeypatch):
        monkeypatch.setattr(mr.cpmaps, "MAX_ITER", 1500)
        v = mr.member_normal([1.0, -1.0], 1.2 * np.eye(2))
        assert not v.member
        assert v.unverified

    def test_empty_spectrum(self):
        with pytest.raises(BadShape):
            mr.member_normal([], np.eye(2))

    def test_inconsistent_moments_checked_non_member(self):
        # H1 + H2 = I forces 0.5 H1 + 0.5 H2 = I/2: no Hermitian weights at
        # all match X, so the verdict is checked, with the least-squares
        # residual sqrt(0.104) of the moment system as margin
        v = mr.member_normal([0.5, 0.5], np.diag([0.2, 0.7]))
        assert not v.member and not v.unverified and v.witness is None
        assert v.margin == pytest.approx(np.sqrt(0.104), abs=1e-12)

    @pytest.mark.parametrize("member", [
        lambda: mr.member_normal([0.0, 1.0], np.eye(2) / 2),
        lambda: mr.member_shift_ball(0.5 * E21, nodes=8),
    ])
    def test_witness_is_verified(self, member, monkeypatch):
        def wrong(K, B, *args, **kwargs):
            return Feasible(matrix=np.zeros((np.shape(K)[1], 2, 2)), residual=0.0)
        monkeypatch.setattr(mr.cpmaps, "solve_feasibility", wrong)
        with pytest.raises(VerificationFailed, match="witness residual"):
            member()


class TestSpatialSamples:
    def test_scalar_compressions_lie_in_segment(self):
        samples = mr.spatial_samples(np.diag([0.0, 1.0]).astype(complex), 1, 50, 3)
        for s in samples:
            val = complex(s[0, 0])
            assert abs(val.imag) <= 1e-12
            assert -1e-12 <= val.real <= 1 + 1e-12

    def test_radius_never_grows(self):
        for s in mr.spatial_samples(E21, 2, 100, 11):
            assert mr.num_radius(s) <= 0.5 + 1e-9

    def test_deterministic_per_index(self):
        a = mr.spatial_samples(E21, 2, 5, 21)
        b = mr.spatial_samples(E21, 2, 5, 21)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_rejects_oversize(self):
        with pytest.raises(BadShape):
            mr.spatial_samples(E21, 3, 1, 0)


class TestSmithWard:
    def test_lower_unit(self):
        nu, comp = mr.smith_ward_nu(E21, 2)
        assert nu == pytest.approx(1.0, abs=1e-10)
        # compression is unitarily equivalent to the unit: singular values {1, 0}
        np.testing.assert_allclose(np.linalg.svd(comp, compute_uv=False), [1.0, 0.0],
                                   atol=1e-10)
        assert mr.op_norm(comp @ comp) <= 1e-10

    def test_diagonal(self):
        nu, _ = mr.smith_ward_nu(np.diag([3.0, 1.0]).astype(complex), 2)
        assert nu == pytest.approx(3.0, abs=1e-10)

    def test_random_meets_norm(self):
        for seed in range(10):
            T = mr.random_matrix(5, 5, split(42, seed))
            nu, comp = mr.smith_ward_nu(T, 2)
            assert nu >= mr.op_norm(T) - 1e-8
            assert comp.shape == (2, 2)

    def test_bad_sizes(self):
        with pytest.raises(BadShape):
            mr.smith_ward_nu(E21, 3)
        with pytest.raises(BadShape):
            mr.smith_ward_nu(E21, 1)


class TestOpsysProbe:
    def test_unitary_conjugation_gap_free(self):
        T = mr.random_matrix(3, 3, 1)
        U = mr.random_isometry(3, 3, 2)
        rep = mr.opsys_probe(T, U @ T @ np.conj(U).T, 2, 40, 7)
        assert rep.max_gap <= 1e-9

    def test_distinguishes_shifted_projections(self):
        S = np.diag([1.0, 0.0]).astype(complex)
        T = np.diag([1.0, 2.0]).astype(complex)
        rep = mr.opsys_probe(S, T, 2, 100, 7)
        assert rep.max_gap > 0.4

    def test_transposed_units_indistinguishable(self):
        rep = mr.opsys_probe(E21, E21.T.copy(), 2, 50, 13)
        assert rep.max_gap <= 1e-9

    def test_deterministic_under_seed(self):
        a = mr.opsys_probe(E21, 2 * E21, 2, 10, 99)
        b = mr.opsys_probe(E21, 2 * E21, 2, 10, 99)
        np.testing.assert_array_equal(a.gaps, b.gaps)


class TestEquivalenceSuite:
    def test_half_identity_all_true(self):
        rep = mr.equivalence_suite(0.5 * np.eye(2))
        assert all(rep.all_conditions())

    def test_scaled_unit_inside(self):
        rep = mr.equivalence_suite(1.5 * E21)  # radius 0.75
        assert all(rep.all_conditions())
        assert rep.radius == pytest.approx(0.75, abs=1e-10)

    def test_scaled_unit_outside(self):
        rep = mr.equivalence_suite(2.1 * E21)  # radius 1.05
        assert not any(rep.all_conditions())

    def test_boundary_band_rejected(self):
        with pytest.raises(BoundaryBand):
            mr.equivalence_suite(random_with_radius(2, 1.005, 3))

    @pytest.mark.parametrize("T", [0.3 * E21 + 0.1 * np.eye(2), 2.1 * E21])
    def test_one_radius_and_one_decomposition(self, T, monkeypatch):
        # the dilation, the factorizations and the halved LMI and UCP map all
        # reuse the suite's radius and its single decomposition
        calls = {"radius": 0, "decompose": 0}
        solve = mr.numrange._radius_and_angle
        decompose = mr.ando._ando_decompose

        def counted_solve(A):
            calls["radius"] += 1
            return solve(A)

        def counted_decompose(A, w, t):
            calls["decompose"] += 1
            return decompose(A, w, t)

        monkeypatch.setattr(mr.numrange, "_radius_and_angle", counted_solve)
        monkeypatch.setattr(mr.ando, "_ando_decompose", counted_decompose)
        rep = mr.equivalence_suite(T)
        assert len(set(rep.all_conditions())) == 1
        assert calls == {"radius": 1, "decompose": 1}

    def test_extremal_X_twice(self, monkeypatch):
        # X(T) and X(T*) for the decomposition; the halved LMI and UCP map
        # take the decomposition's X(T*) instead of solving for it again
        calls = []
        extremal = mr.ando._extremal_X

        def counted(*args):
            calls.append(args[0])
            return extremal(*args)

        monkeypatch.setattr(mr.ando, "_extremal_X", counted)
        rep = mr.equivalence_suite(0.3 * E21 + 0.1 * np.eye(2))
        assert all(rep.all_conditions())
        assert len(calls) == 2


class TestKnownSetClosure:
    def test_cstar_combinations_stay_inside(self):
        for seed in range(20):
            r = 2 + seed % 3
            Xs = [random_with_radius(2, 0.5 * (k + 1) / r, split(split(1000, seed), k))
                  for k in range(r)]
            As = random_partition_of_identity(2, r, split(2000, seed))
            Y = mr.cstar_convex(Xs, As)
            assert mr.num_radius(Y) <= 0.5 + 1e-8

    def test_random_ucp_image_of_unit(self):
        for seed in range(20):
            phi = random_ucp_map(2, 3, split(3000, seed))
            out = mr.apply_map(phi, E21)
            assert mr.num_radius(out) <= 0.5 + 1e-8
