import cProfile
import os
import pstats
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mrange as mr
from mrange.cpmaps import Feasible
from mrange.errors import (BadShape, BoundaryBand, NoConvergence, RadiusTooLarge,
                           VerificationFailed)
from mrange.rng import children, split

from helpers import E21, random_partition_of_identity, random_ucp_map, random_with_radius


class TestMemberE21:
    def test_lower_unit_on_boundary(self):
        v = mr.member_e21(E21)
        assert v.member
        assert abs(v.margin) <= 1e-9
        assert v.witness is not None
        assert mr.is_cp(v.witness)[0]

    def test_constant_support_summand_beside_an_interior_block(self):
        # w = 1/2; the doubled LMI's cyclic reduction meets a singular, PSD
        # C_1 on the 2 E21 summand
        T = mr.direct_sum([E21, np.array([[0.25]])])
        v = mr.member_e21(T)
        assert v.member and v.witness is not None
        assert mr.op_norm(v.witness.value(2, 1) - T) <= 1e-12

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

    @pytest.mark.parametrize("name", ["member_e21", "radius_lmi", "ucp_from_e21"])
    def test_radius_computed_once(self, name, count_calls):
        # each E21 entry point reads ando._e21_X, whose solve of the
        # doubled LMI reuses the radius it took; at w(2T) = 1 the start
        # values settle nothing. member_e21 prints its margin, so it solves
        # one level set from them; the other two print no radius, and X at
        # the first ascent's provisional radius certifies it with none
        T = random_with_radius(8, 0.5, 3)
        witnesses = count_calls(mr.ando, "_e21_X")
        starts = count_calls(mr.numrange, "_start_grid")
        levels = count_calls(mr.numrange, "_level_pencil")
        out = getattr(mr, name)(T)
        assert len(witnesses) == len(starts) == 1
        assert len(levels) == (name == "member_e21")
        # each found its witness (ucp_from_e21 raises RadiusTooLarge without)
        assert {"member_e21": lambda: out.member, "radius_lmi": lambda: out[0],
                "ucp_from_e21": lambda: True}[name]()

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("excess", [1e-6, 1e-5, 5e-5])
    def test_loose_tolerance_keeps_the_radius_threshold(self, d, excess):
        # psd_eps loosens the witness's PSD check, not w <= 1/2: just above
        # it no witness exists, and the verdict, the LMI and the UCP map all
        # say so without an unverified flag
        T = random_with_radius(d, 0.5 + excess, split(71, d))
        loose = mr.Tolerances(psd_eps=1e-4)
        v = mr.member_e21(T, loose)
        assert not v.member and v.witness is None and not v.unverified
        assert mr.radius_lmi(T, loose) == (False, None)
        with pytest.raises(RadiusTooLarge, match="exceeds 1/2"):
            mr.ucp_from_e21(T, loose)


def reference_shift_ball(X, nodes):
    """Reference verdict: the N-gon weights up to norm cos(pi / nodes)
    (nodes >= 3), and beyond that, for every member, the block moment
    measure of X / max(1, |X|); never unverified."""
    nrm = mr.op_norm(X)
    omega = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    witness = None
    if nodes >= 3 and nrm <= np.cos(np.pi / nodes):
        witness = mr.matrange._dilation_weights(X, omega, mr.default_tolerances())
    elif nrm <= 1.0 + 1e-9:
        spec = mr.BlockToeplitzSpec(blocks=(np.eye(len(X)), X / max(1.0, nrm)))
        witness = mr.block_measure_from_toeplitz(spec)
    return mr.MembershipVerdict(member=nrm <= 1.0 + 1e-9, margin=1.0 - nrm, witness=witness)


def zero_feasible(K, B, *args, **kwargs):
    """A solve_feasibility stand-in returning all-zero weights."""
    return Feasible(matrix=np.zeros((np.shape(K)[1], 2, 2)), residual=0.0)


def short_weights(A, omega, t):
    """A _dilation_weights stand-in whose 2 x 2 weights sum to (1 - 1/N) I."""
    return [np.eye(2) / omega.size] * (omega.size - 1) + [np.zeros((2, 2))]


def seeded_unitary(d, seed):
    return np.linalg.qr(mr.random_matrix(d, d, seed))[0]


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

    @pytest.mark.parametrize("nodes", [0, -3])
    @pytest.mark.parametrize("scale", [0.5, 0.97, 1.05])
    def test_nodes_must_be_positive_whatever_the_norm(self, nodes, scale):
        with pytest.raises(BadShape, match="nodes >= 1"):
            mr.member_shift_ball(scale * np.eye(2), nodes)

    @pytest.mark.parametrize("nodes", [3, 4, 10, 16, 64])
    @pytest.mark.parametrize("d", range(1, 17))
    def test_dilation_weights(self, nodes, d):
        # |X| <= c = cos(pi / nodes): a partition of I into PSD weights
        # whose moment at the roots of unity is X, to rounding
        c = np.cos(np.pi / nodes)
        omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        G = mr.random_matrix(d, d, split(41, d))
        inputs = [np.zeros((d, d)), c * np.eye(d), c * mr.shift(d), 0.5 * c * mr.shift(d),
                  min(0.7, c) * seeded_unitary(d, split(43, d)), c * G / mr.op_norm(G)]
        for X in inputs:
            H = np.array(mr.matrange._dilation_weights(X, omega, mr.default_tolerances()))
            assert H.shape == (nodes, d, d)
            assert mr.op_norm(H.sum(axis=0) - np.eye(d)) <= 1e-12
            assert mr.op_norm(np.tensordot(omega, H, axes=1) - X) <= 1e-12 * (1 + mr.op_norm(X))
            assert np.linalg.eigvalsh(H)[:, 0].min() >= -1e-13

    @pytest.mark.parametrize("nodes,norm,d", [
        (1, 0.5, 2), (2, 0.0, 2), (2, 0.5, 2), (2, 0.5, 3),  # nodes <= 2
        (3, 0.6, 2), (4, 0.8, 2), (8, 0.94, 2), (9, 0.95, 3),  # |X| > cos(pi/nodes)
        (16, 0.97, 2), (64, 1.0, 2), (64, 1.2, 3),  # the same, or outside
        (16, 0.7, 2), (64, 0.7, 3),  # N-gon weights
    ])
    def test_verdict_matches_solver_reference(self, nodes, norm, d):
        G = mr.random_matrix(d, d, split(11, 10 * nodes + d))
        X = norm * G / mr.op_norm(G)
        v, ref = mr.member_shift_ball(X, nodes), reference_shift_ball(X, nodes)
        assert (v.member, v.margin, v.unverified) == (ref.member, ref.margin, False)
        assert type(v.witness) is type(ref.witness)
        if isinstance(ref.witness, mr.AtomicMeasure):
            np.testing.assert_array_equal(v.witness.nodes, ref.witness.nodes)
            np.testing.assert_array_equal(v.witness.weights, ref.witness.weights)
        elif ref.witness is not None:
            np.testing.assert_array_equal(np.array(v.witness), np.array(ref.witness))

    @pytest.mark.parametrize("norm", [0.96, 0.99, 0.998])
    def test_closed_form_witness_up_to_the_inscribed_disk(self, norm):
        # cos(pi / 64) = 0.9988: the closed form serves above the solver
        # band's 0.95 too, so these members carry a verified witness
        G = mr.random_matrix(3, 3, split(53, int(1000 * norm)))
        X = norm * G / mr.op_norm(G)
        v = mr.member_shift_ball(X, nodes=64)
        assert v.member and not v.unverified and len(v.witness) == 64
        omega = np.exp(2j * np.pi * np.arange(64) / 64)
        assert mr.op_norm(sum(v.witness) - np.eye(3)) <= 1e-12
        assert mr.op_norm(np.tensordot(omega, v.witness, axes=1) - X) <= 1e-12
        assert np.linalg.eigvalsh(np.array(v.witness))[:, 0].min() >= -1e-13

    def test_checked_surrogate_non_member_is_not_unverified(self):
        # nodes = 2: no Hermitian weights on +-1 match a non-Hermitian X, a
        # checked verdict of the surrogate, not solver non-convergence; the
        # ball's own witness is the unitary dilation's measure, on no nodes
        G = mr.random_matrix(2, 2, split(11, 22))
        X = 0.5 * G / mr.op_norm(G)
        surrogate = mr.member_normal([1.0, -1.0], X)
        assert not surrogate.member and not surrogate.unverified
        v = mr.member_shift_ball(X, nodes=2)
        assert v.member and not v.unverified and isinstance(v.witness, mr.AtomicMeasure)

    def test_closed_form_takes_two_svds(self):
        # one for |X|, one for the polar factor of the block moment measure
        # of [[I, X*/c], [X/c, I]]; the witness residuals settle on the
        # Frobenius norm. A profiler also counts the SVD inside op_norm,
        # which numpy calls by its module-internal name
        X = 0.7 * seeded_unitary(4, 5)
        profile = cProfile.Profile()
        v = profile.runcall(mr.member_shift_ball, X, nodes=64)
        svds = sum(stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
                   if name == "svd" and "linalg" in path)
        assert v.member and v.witness is not None and svds == 2

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("nodes", [16, 32, 64])
    def test_interior_points_need_no_solver(self, d, nodes, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("solve_feasibility called")
        monkeypatch.setattr(mr.matrange, "solve_feasibility", no_solver)
        X = 0.7 * seeded_unitary(d, split(47, 10 * d + nodes))
        v = mr.member_shift_ball(X, nodes)
        assert v.member and not v.unverified and len(v.witness) == nodes
        omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        assert mr.op_norm(np.tensordot(omega, v.witness, axes=1) - X) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("nodes", [1, 2, 3, 8, 9, 16, 64])
    def test_every_member_has_a_witness_without_the_solver(self, nodes, d, monkeypatch):
        # up to cos(pi / nodes) the N-gon weights, beyond it the unitary
        # dilation's measure of X / max(1, |X|): never the feasibility solver
        def no_solver(*args, **kwargs):
            raise AssertionError("solver called")
        monkeypatch.setattr(mr.matrange, "solve_feasibility", no_solver)
        monkeypatch.setattr(mr.matrange, "member_normal", no_solver)
        G = mr.random_matrix(d, d, split(59, 10 * nodes + d))
        for norm in [0.0, 0.5, 0.94, 0.97, 0.999, 1.0 - 1e-6, 1.0, 1.0 + 0.5 * mr.linalg.BAND]:
            X = norm * G / mr.op_norm(G)
            v = mr.member_shift_ball(X, nodes)
            assert v.member and not v.unverified and v.witness is not None
            if isinstance(v.witness, mr.AtomicMeasure):
                assert nodes < 3 or norm > np.cos(np.pi / nodes)
                assert mr.op_norm(v.witness.moment(0) - np.eye(d)) <= 1e-12
                target = X / max(1.0, mr.op_norm(X))
                assert mr.op_norm(v.witness.moment(1) - target) <= 1e-12
            else:
                omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
                assert mr.op_norm(np.tensordot(omega, v.witness, axes=1) - X) <= 1e-12

    def test_measure_witness_checked_under_optimize(self):
        # the dilation's measure is checked inside toeplitz._unitary_measure
        # alone: a factor off by 1% must still fail its moments under python -O
        code = textwrap.dedent("""
            import numpy as np
            import mrange as mr
            from mrange import toeplitz
            from mrange.errors import MomentResidualTooLarge
            factor = toeplitz._psd_factor
            toeplitz._psd_factor = lambda *args: 1.01 * factor(*args)
            U = np.linalg.qr(mr.random_matrix(3, 3, 5))[0]
            try:
                mr.member_shift_ball(0.999 * U, 64)
            except MomentResidualTooLarge as exc:
                print(__debug__, exc.name)
        """)
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "MomentResidualTooLarge"], out.stderr


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf),
                                     complex(np.inf, np.inf)],
                             ids=["nan", "inf", "imaginary-inf", "complex-inf"])
    def test_non_finite_spectrum(self, bad, monkeypatch):
        # refused before the feasibility solver runs
        monkeypatch.setattr(mr.matrange, "solve_feasibility", None)
        with pytest.raises(BadShape, match="spectrum must be nonempty and finite"):
            mr.member_normal([bad, 1.0], np.eye(2) / 2)

    def test_inconsistent_moments_checked_non_member(self):
        # H1 + H2 = I forces 0.5 H1 + 0.5 H2 = I/2: no Hermitian weights at
        # all match X, so the verdict is checked, with the least-squares
        # residual sqrt(0.104) of the moment system as margin
        v = mr.member_normal([0.5, 0.5], np.diag([0.2, 0.7]))
        assert not v.member and not v.unverified and v.witness is None
        assert v.margin == pytest.approx(np.sqrt(0.104), abs=1e-12)

    @pytest.mark.parametrize("member", [
        lambda: mr.member_normal([0.0, 1.0], np.eye(2) / 2),
        # the solver's weights on the 8th roots of unity at |X| = 0.94 >
        # cos(pi / 8), where member_shift_ball takes the measure instead
        lambda: mr.member_normal(np.exp(2j * np.pi * np.arange(8) / 8), 0.94 * E21),
        # |X| = 0.5 <= cos(pi / 8): the N-gon weights
        lambda: mr.member_shift_ball(0.5 * E21, nodes=8),
    ])
    def test_witness_is_verified(self, member, monkeypatch):
        monkeypatch.setattr(mr.matrange, "solve_feasibility", zero_feasible)
        monkeypatch.setattr(mr.matrange, "_dilation_weights", short_weights)
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

    @pytest.mark.parametrize("n, count", [(0, 1), (-1, 1), (2, -1)])
    def test_rejects_empty_size_and_negative_count(self, n, count):
        with pytest.raises(BadShape):
            mr.spatial_samples(E21, n, count, 0)

    def test_zero_count(self):
        assert mr.spatial_samples(E21, 2, 0, 5).shape == (0, 2, 2)

    def test_sample_depends_on_its_index_alone(self):
        few, many = mr.spatial_samples(E21, 1, 3, 9), mr.spatial_samples(E21, 1, 16, 9)
        assert few.tobytes() == many[:3].tobytes()


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

    @pytest.mark.parametrize("n, count", [(0, 1), (2, -1)])
    def test_rejects_empty_size_and_negative_count(self, n, count):
        with pytest.raises(BadShape):
            mr.opsys_probe(E21, E21, n, count, 0)

    def test_zero_count(self):
        rep = mr.opsys_probe(E21, 2 * E21, 2, 0, 1)
        assert rep.samples == 0 and rep.max_gap == 0.0 and rep.gaps.shape == (0,)

    def test_gaps_bit_equal_to_the_two_norms(self):
        # the batched singular values give the bits of np.linalg.norm(., 2)
        # on each sample's kron(A_i, I) + kron(B_i, M)
        S, T = mr.random_matrix(3, 3, 4), mr.random_matrix(3, 3, 5)
        n, samples, seed = 2, 6, 11
        A, B = np.moveaxis(mr.random_matrix(n, n, children(children(seed, samples), 2)), 1, 0)
        norm = [lambda M, i=i: np.linalg.norm(np.kron(A[i], np.eye(3)) + np.kron(B[i], M), 2)
                for i in range(samples)]
        expected = [abs(f(S) - f(T)) for f in norm]
        assert np.array_equal(mr.opsys_probe(S, T, n, samples, seed).gaps, expected)

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
        # |w - 1| <= BAND (1 + |T|): radius one to rounding
        for T in [2 * E21, mr.shift(4) / np.cos(np.pi / 5),
                  random_with_radius(3, 1.0 + 1e-10, 4)]:
            with pytest.raises(BoundaryBand, match="rounding band"):
                mr.equivalence_suite(T)

    def test_just_outside_the_old_window_decided(self):
        # w = 1.005 lay inside the former 1e-2 window
        rep = mr.equivalence_suite(random_with_radius(2, 1.005, 3))
        assert not any(rep.all_conditions())

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_decided_up_to_the_rounding_band(self, d, real):
        # w = 1 +- 10^-k for k = 2..8 and 1 +- 1.5 BAND (1 + |T|): nine
        # equal answers, w <= 1, on both sides of the threshold
        for seed in range(3):
            G = mr.random_matrix(d, d, split(97, 100 * d + 10 * real + seed))
            if real:
                G = G.real.astype(complex)
            U = G / mr.num_radius(G)
            band = mr.linalg.BAND * (1.0 + mr.op_norm(U))
            for delta in [10.0 ** -k for k in range(2, 9)] + [1.5 * band]:
                for sign in (1, -1):
                    rep = mr.equivalence_suite(U * (1.0 + sign * delta))
                    assert rep.all_conditions() == (sign < 0,) * 9, (seed, sign * delta)

    def test_disagreement_raises_under_optimize(self):
        # condition (2) patched to fail on an interior input: the agreement
        # check must not vanish with assert statements under python -O
        code = textwrap.dedent("""
            import numpy as np
            from mrange import matrange, numrange
            from mrange.errors import VerificationFailed
            numrange._RadiusSolve.exceeds = lambda *args: True
            try:
                matrange.equivalence_suite(0.5 * np.eye(2, dtype=complex))
            except VerificationFailed as exc:
                print(__debug__, exc.name, str(exc).startswith("radius conditions disagree"))
        """)
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "VerificationFailed", "True"], out.stderr

    @pytest.mark.parametrize("T", [0.3 * E21 + 0.1 * np.eye(2), 2.1 * E21])
    def test_composes_the_radius_checks(self, T, count_calls):
        # w and (2) are those of the one radius_characterizations call
        radii = count_calls(mr.matrange, "radius_characterizations")
        rep = mr.equivalence_suite(T)
        direct = mr.radius_characterizations(T)
        assert len(radii) == 1
        assert repr(rep.radius) == repr(direct.radius)
        assert rep.radius.maxima.tolist() == direct.radius.maxima.tolist()
        assert rep.grid_real_part == direct.conditions[1]

    def test_failed_decomposition_inside_raises(self, monkeypatch):
        # w < 1 with no decomposition: (6) to (9) disagree with (1)
        def fail(*args):
            raise NoConvergence("patched")

        monkeypatch.setattr(mr.ando, "_ando_decompose", fail)
        with pytest.raises(VerificationFailed, match="equivalence conditions disagree"):
            mr.equivalence_suite(0.3 * E21 + 0.1 * np.eye(2))

    def test_outside_takes_one_extremal_solve(self, count_calls):
        # w = 1.05: X(T) is refused by its gate, and nothing asks for X(T*)
        extremal = count_calls(mr.ando, "_extremal_X")
        adjoint = count_calls(mr.ando, "_adjoint_X")
        rep = mr.equivalence_suite(2.1 * E21)
        assert rep.all_conditions() == (False,) * 9
        assert (len(extremal), len(adjoint)) == (1, 0)

    @pytest.mark.parametrize("T", [0.3 * E21 + 0.1 * np.eye(2), 2.1 * E21])
    def test_one_radius_and_one_decomposition(self, T, monkeypatch, count_calls):
        # the dilations, the factorizations and the halved LMI and UCP map all
        # reuse the suite's radius and its single decomposition: X(T) and
        # X(T*), two cyclic reductions inside the radius, none beyond it. The
        # order-2 margin (4) is 1 - w and the order-2 dilation (5) is Ando's
        # [C; X^{1/2}], so the one level set is the radius's, and only the
        # radius and the level test (2) solve pencils
        reductions = 2 if mr.num_radius(T) < 1.0 else 0
        calls = {"decompose": 0, "reduce": 0}
        pencil_callers = []
        decompose = mr.ando._ando_decompose
        reduce = mr.ando._cyclic_reduction
        pencil = mr.numrange._pencil_eigenvalues

        def counted_decompose(A, w, t):
            calls["decompose"] += 1
            return decompose(A, w, t)

        def counted_reduce(*args, **kwargs):
            calls["reduce"] += 1
            return reduce(*args, **kwargs)

        def traced_pencil(*args):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            pencil_callers.append(names & {"maximum", "exceeds"})
            return pencil(*args)

        starts = count_calls(mr.numrange, "_start_grid")
        levels = count_calls(mr.numrange, "_level_pencil")
        monkeypatch.setattr(mr.ando, "_ando_decompose", counted_decompose)
        monkeypatch.setattr(mr.ando, "_cyclic_reduction", counted_reduce)
        monkeypatch.setattr(mr.toeplitz, "_cyclic_reduction", counted_reduce)
        monkeypatch.setattr(mr.numrange, "_pencil_eigenvalues", traced_pencil)
        rep = mr.equivalence_suite(T)
        assert len(set(rep.all_conditions())) == 1
        assert calls == {"decompose": 1, "reduce": reductions}
        assert len(starts) == 1 and [np.shape(D) for D, in levels] == [(1, 1, 2, 2)]
        assert pencil_callers and all(pencil_callers)

    @pytest.mark.parametrize("T", [0.3 * E21 + 0.1 * np.eye(2), 2.1 * E21])
    def test_halved_lmi_and_ucp_map_build_no_map(self, T, monkeypatch):
        # (7) and (9) read whether X(T*) exists; no UCP map is built and dropped
        built = []
        monkeypatch.setattr(mr.ando, "_e21_map", lambda *args: built.append(args))
        rep = mr.equivalence_suite(T)
        assert len(set(rep.all_conditions())) == 1 and built == []

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

    def test_each_block_checked_once(self, monkeypatch):
        # the LMIs of X(T) and X(T*): two checks, no block twice. The halved
        # LMI block, which is also the UCP map's Choi matrix, is X(T*)'s LMI
        # block with its block rows and columns swapped, so it is not checked
        # again
        checked = []
        psd_check = mr.ando.psd_check

        def traced(H, tol=None):
            checked.append(H.copy())
            return psd_check(H, tol)

        monkeypatch.setattr(mr.ando, "psd_check", traced)
        rep = mr.equivalence_suite(random_with_radius(3, 0.6, 11))
        assert all(rep.all_conditions())
        assert len(checked) == 2
        assert not any(np.array_equal(H, G) for i, H in enumerate(checked)
                       for G in checked[:i])


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
