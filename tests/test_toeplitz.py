import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange.errors import BadShape, NotPSD, NotStrictlyPositive, ShapeMismatch
from mrange.rng import SplitMix64, split

from helpers import E21


def random_trig_poly(deg, seed, floor=0.01):
    """Strictly positive |q|^2 + floor with seeded coefficients."""
    q = SplitMix64(seed).complex_normals(deg + 1)
    tau = mr.trig_poly_from_factor(q)
    coeffs = tau.coeffs.copy()
    coeffs[0] = coeffs[0].real + floor
    return mr.TrigPoly(coeffs=coeffs)


class TestTrigPoly:
    def test_real_on_circle(self):
        tau = random_trig_poly(4, 3)
        vals = tau.eval_at_angle(np.linspace(0, 2 * np.pi, 64))
        assert np.isrealobj(vals)

    def test_degree_is_the_top_coefficient_index(self):
        assert mr.TrigPoly(coeffs=np.array([1.0])).degree == 0
        assert mr.TrigPoly(coeffs=np.array([2.0, 0.5j, 0.0])).degree == 2

    def test_rejects_complex_mean(self):
        with pytest.raises(BadShape):
            mr.TrigPoly(coeffs=np.array([1j, 0.0]))

    def test_factor_square_matches(self):
        q = np.array([1.0, 2.0 - 1j])
        tau = mr.trig_poly_from_factor(q)
        th = np.linspace(0, 2 * np.pi, 17)
        lam = np.exp(1j * th)
        np.testing.assert_allclose(tau.eval_at_angle(th),
                                   np.abs(np.polyval(q[::-1], lam)) ** 2,
                                   atol=1e-12)


class TestFejerRiesz:
    def test_constant(self):
        p = mr.fejer_riesz(mr.TrigPoly(coeffs=np.array([1.0 + 0j])))
        np.testing.assert_allclose(p, [1.0], atol=1e-14)

    def test_shifted_cosine(self):
        # 2 + 2cos is only nonnegative; the +0.01 lift makes it strict
        tau = mr.TrigPoly(coeffs=np.array([2.01, 1.0]))
        p = mr.fejer_riesz(tau)
        th = 2 * np.pi * np.arange(4096) / 4096
        lam = np.exp(1j * th)
        err = np.abs(tau.eval_at_angle(th) - np.abs(np.polyval(p[::-1], lam)) ** 2)
        assert err.max() <= 1e-7 * (1 + tau.eval_at_angle(th).max())

    def test_rejects_vanishing(self):
        with pytest.raises(NotStrictlyPositive):
            mr.fejer_riesz(mr.TrigPoly(coeffs=np.array([2.0, 1.0])))

    @pytest.mark.parametrize("N, delta, grid_min", [(256, -5e-3, 4.6e-3), (512, -3e-2, 8.1e-3)])
    def test_dip_between_the_grid_samples(self, N, delta, grid_min):
        # tau = 1/2 + delta - cos(N theta - phi)/2 dips to delta < 0 half a
        # grid step off the grid, where every sample is positive: the lost
        # definiteness of the factorization refutes it
        a = np.zeros(N + 1, dtype=complex)
        a[0], a[N] = 0.5 + delta, -0.25 * np.exp(-1j * N * np.pi / 4096)
        tau = mr.TrigPoly(coeffs=a)
        th = 2 * np.pi * np.arange(4096) / 4096
        assert tau.eval_at_angle(th).min() == pytest.approx(grid_min, abs=1e-4)
        assert tau.eval_at_angle(np.pi / 4096) == pytest.approx(delta, abs=1e-12)
        with pytest.raises(NotStrictlyPositive, match="^tau is not positive between the grid "
                                                      "samples: cyclic reduction lost "
                                                      "definiteness at step [0-9]+$"):
            mr.fejer_riesz(tau)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(16, 128), depth=st.floats(0.0, 1.0), positive=st.booleans())
    def test_off_grid_dip_refuted_or_factored(self, N, depth, positive):
        # the input of test_dip_between_the_grid_samples for any N: its minimum
        # is exactly delta, half a grid step off the grid, and its grid minimum
        # lies above delta by at most lift (by lift itself when N is a power of
        # two). delta in [-lift, -1e-8] is refuted, by the grid check only
        # where a sample is at most 1e-8; delta in [1e-6, 1e-1] gets a
        # verified factor
        lift = 0.5 * (1.0 - np.cos(N * np.pi / 4096))
        delta = 10.0 ** (-6.0 + 5.0 * depth) if positive else -1e-8 * (lift / 1e-8) ** depth
        a = np.zeros(N + 1, dtype=complex)
        a[0], a[N] = 0.5 + delta, -0.25 * np.exp(-1j * N * np.pi / 4096)
        tau = mr.TrigPoly(coeffs=a)
        if positive:
            assert mr.fejer_riesz(tau).size == N + 1
        else:
            on_grid = tau.eval_at_angle(2 * np.pi * np.arange(4096) / 4096).min() <= 1e-8
            with pytest.raises(NotStrictlyPositive, match="^min over grid" if on_grid else
                               "^tau is not positive between the grid samples: cyclic "
                               "reduction lost definiteness"):
                mr.fejer_riesz(tau)

    def test_degree_five_round_trip(self):
        tau = random_trig_poly(5, 42)
        p = mr.fejer_riesz(tau)
        assert p.size <= tau.coeffs.size
        th = 2 * np.pi * np.arange(4096) / 4096
        lam = np.exp(1j * th)
        err = np.abs(tau.eval_at_angle(th) - np.abs(np.polyval(p[::-1], lam)) ** 2)
        assert err.max() <= 1e-8 * (1 + tau.eval_at_angle(th).max())

    def test_trailing_coefficients_trimmed(self):
        tau = mr.TrigPoly(coeffs=np.array([2.01, 1.0, 1e-15]))
        p = mr.fejer_riesz(tau)
        assert p.size == 2  # degree drops to the genuinely nonzero top

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), deg=st.integers(1, 8))
    def test_leading_coefficient_formula(self, seed, deg):
        tau = random_trig_poly(deg, seed)
        a = tau.coeffs
        N = a.size - 1
        p = mr.fejer_riesz(tau)
        g = np.concatenate([np.conj(a[1:][::-1]), a])
        roots = np.roots(g[::-1])
        inside = roots[np.abs(roots) < 1.0]
        assert abs(abs(p[-1]) ** 2 - abs(a[N] / np.prod(inside))) <= 1e-8

    @pytest.mark.parametrize("deg", [48, 64, 96, 128])
    def test_high_degree_coefficient_identity(self, deg):
        for seed in range(3):
            tau = random_trig_poly(deg, split(31, seed))
            p = mr.fejer_riesz(tau)
            assert p.size == deg + 1
            # conv(p, conj(p reversed)) holds the two-sided coefficients of |p|^2
            err = np.abs(np.convolve(p, np.conj(p[::-1]))[deg:] - tau.coeffs)
            th = 2 * np.pi * np.arange(4096) / 4096
            assert err[0] + 2 * err[1:].sum() <= 1e-9 * (1 + tau.eval_at_angle(th).max())

    def test_no_root_finding(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np, "roots", forbidden)
        p = mr.fejer_riesz(random_trig_poly(24, 5))
        assert p.size == 25


class TestToeplitzAssembly:
    def test_identity(self):
        X = mr.toeplitz_assemble(mr.ToeplitzSpec(coeffs=np.array([1.0, 0, 0])))
        np.testing.assert_array_equal(X, np.eye(3))
        assert mr.toeplitz_psd(mr.ToeplitzSpec(coeffs=np.array([1.0, 0, 0])))[0]

    def test_all_ones(self):
        spec = mr.ToeplitzSpec(coeffs=np.array([1.0, 1.0]))
        X = mr.toeplitz_assemble(spec)
        np.testing.assert_array_equal(X, np.ones((2, 2)))
        ok, mn = mr.toeplitz_psd(spec)
        assert ok and abs(mn) <= 1e-12

    def test_orientation_lower_subdiagonal(self):
        X = mr.toeplitz_assemble(mr.ToeplitzSpec(coeffs=np.array([1.0, 2.0 + 1j])))
        assert X[1, 0] == 2.0 + 1j
        assert X[0, 1] == 2.0 - 1j

    def test_block_case(self):
        spec = mr.BlockToeplitzSpec(blocks=(np.eye(2), E21))
        X = mr.toeplitz_assemble(spec)
        expect = np.block([[np.eye(2), E21.T], [E21, np.eye(2)]])
        np.testing.assert_array_equal(X, expect)
        ok, mn = mr.toeplitz_psd(spec)
        assert ok == (np.linalg.eigvalsh(expect)[0] >= -1e-12)

    def test_hermitian_by_construction(self):
        spec = mr.BlockToeplitzSpec(
            blocks=(np.eye(2), mr.random_matrix(2, 2, 5), mr.random_matrix(2, 2, 6)))
        X = mr.toeplitz_assemble(spec)
        assert mr.op_norm(X - np.conj(X).T) <= 1e-12


class TestScalarMeasures:
    def test_point_mass_at_one(self):
        mu = mr.measure_from_toeplitz(mr.ToeplitzSpec(coeffs=np.array([1.0, 1, 1])))
        assert mu.nodes.size == 1
        assert mu.nodes[0] == pytest.approx(0.0, abs=1e-12)
        assert mu.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_moments(self):
        mu = mr.measure_from_toeplitz(mr.ToeplitzSpec(coeffs=np.array([1.0, 0, 0])))
        for k in range(3):
            target = 1.0 if k == 0 else 0.0
            assert abs(mu.moment(k) - target) <= 1e-6

    def test_interior_spec(self):
        spec = mr.ToeplitzSpec(coeffs=np.array([1.0, 0.5]))
        mu = mr.measure_from_toeplitz(spec)
        assert np.all(mu.weights >= 0)
        for k in range(2):
            assert abs(mu.moment(k) - spec.coeffs[k]) <= 1e-6

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            mr.measure_from_toeplitz(mr.ToeplitzSpec(coeffs=np.array([1.0, 0.9, 0.9j])))


class TestToeplitzFromMeasure:
    def test_point_mass_gives_all_ones(self):
        mu = mr.AtomicMeasure(nodes=np.array([0.0]), weights=np.array([1.0]))
        spec = mr.toeplitz_from_measure(mu, 3)
        np.testing.assert_allclose(mr.toeplitz_assemble(spec), np.ones((3, 3)),
                                   atol=1e-14)

    def test_list_of_scalar_weights_is_a_scalar_measure(self):
        # a list of numbers is read as the (r,) weight array, as a 1-D array is
        mu = mr.AtomicMeasure(nodes=[0.0, np.pi], weights=[0.5, 0.5])
        assert not mu.is_block and mu.weights.shape == (2,)
        spec = mr.toeplitz_from_measure(mu, 3)
        assert isinstance(spec, mr.ToeplitzSpec)
        np.testing.assert_allclose(spec.coeffs, [1.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("weights", [
        [1.0, 2.0, 3.0],            # three weights for two nodes
        np.ones((2, 2)),            # (r, d): neither scalar nor d x d blocks
        np.ones((2, 2, 3)),         # non-square blocks
        np.ones((3, 2, 2)),         # three blocks for two nodes
        1.0,
    ])
    def test_weights_must_fit_the_nodes(self, weights):
        with pytest.raises(ShapeMismatch, match="do not fit 2 nodes"):
            mr.AtomicMeasure(nodes=[0.0, 1.0], weights=weights)

    @pytest.mark.parametrize("nodes", [np.zeros((2, 3)), [0.0, np.nan], [np.inf, 1.0]])
    def test_nodes_must_be_finite_angles(self, nodes):
        with pytest.raises(BadShape, match="nodes must be a 1-D array of finite angles"):
            mr.AtomicMeasure(nodes=nodes, weights=[0.5, 0.5])

    @pytest.mark.parametrize("weights", [
        [-1.0, 0.5],                              # a negative atom
        [1.0 + 0.5j, 0.5],                        # a complex atom
        [np.inf, 0.5], [np.nan, 0.5],
        [np.diag([1.0, -1e-3]), np.eye(2)],       # an indefinite block
        [np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)],   # a non-Hermitian block
    ])
    def test_weights_must_be_psd(self, weights):
        with pytest.raises(NotPSD, match="weights must be"):
            mr.AtomicMeasure(nodes=[0.0, 1.0], weights=weights)

    def test_weights_within_the_psd_slack_pass(self):
        mr.AtomicMeasure(nodes=[0.0, 1.0], weights=[-1e-10, 0.5])
        mr.AtomicMeasure(nodes=[0.0, 1.0], weights=[np.diag([1.0, -1e-10]), np.eye(2)])

    def test_block_measure_round_trip_keeps_its_weights(self):
        blocks = mr.halved_power_blocks(2 * E21, 2)
        mu = mr.block_measure_from_toeplitz(mr.BlockToeplitzSpec(blocks=tuple(blocks)))
        again = mr.AtomicMeasure(nodes=mu.nodes, weights=mu.weights)
        spec = mr.toeplitz_from_measure(again, 3)
        for k in range(3):
            assert mr.op_norm(spec.blocks[k] - blocks[k]) <= 1e-6

    @pytest.mark.parametrize("n", [0, -1])
    def test_coefficient_count_must_be_positive(self, n):
        mu = mr.AtomicMeasure(nodes=[0.0], weights=[1.0])
        with pytest.raises(BadShape, match="n >= 1"):
            mr.toeplitz_from_measure(mu, n)

    @pytest.mark.parametrize("spec", [mr.ToeplitzSpec, mr.TrigPoly])
    def test_coefficients_must_be_finite(self, spec):
        for coeffs in ([1.0, np.nan], [1.0, 0.5 + 1j * np.inf], [np.inf]):
            with pytest.raises(BadShape, match="finite coefficient array"):
                spec(coeffs=np.array(coeffs))

    def test_roots_of_unity_give_identity(self):
        G = 8
        mu = mr.AtomicMeasure(nodes=2 * np.pi * np.arange(G) / G,
                              weights=np.full(G, 1.0 / G))
        spec = mr.toeplitz_from_measure(mu, 4)
        np.testing.assert_allclose(mr.toeplitz_assemble(spec), np.eye(4), atol=1e-14)

    def test_block_uniform(self):
        G = 12
        mu = mr.AtomicMeasure(nodes=2 * np.pi * np.arange(G) / G,
                              weights=tuple(np.eye(2) / G for _ in range(G)))
        spec = mr.toeplitz_from_measure(mu, 3)
        np.testing.assert_allclose(spec.blocks[0], np.eye(2), atol=1e-14)
        for k in (1, 2):
            assert mr.op_norm(spec.blocks[k]) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), atoms=st.integers(1, 6), n=st.integers(1, 5))
    def test_always_psd_scalar(self, seed, atoms, n):
        gen = SplitMix64(seed)
        nodes = np.array([2 * np.pi * gen.uniform() for _ in range(atoms)])
        weights = np.array([gen.uniform() for _ in range(atoms)])
        mu = mr.AtomicMeasure(nodes=nodes, weights=weights)
        ok, mn = mr.toeplitz_psd(mr.toeplitz_from_measure(mu, n))
        assert ok, f"min eig {mn}"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32), atoms=st.integers(1, 4))
    def test_always_psd_block(self, seed, atoms):
        gen = SplitMix64(seed)
        nodes = np.array([2 * np.pi * gen.uniform() for _ in range(atoms)])
        weights = []
        for _ in range(atoms):
            G = gen.complex_matrix(2, 2)
            weights.append(G @ np.conj(G).T)
        mu = mr.AtomicMeasure(nodes=nodes, weights=tuple(weights))
        ok, mn = mr.toeplitz_psd(mr.toeplitz_from_measure(mu, 3))
        assert ok, f"min eig {mn}"

    def test_round_trip_preserves_moments(self):
        for seed in range(8):
            spec = _random_psd_spec(4, split(99, seed))
            mu = mr.measure_from_toeplitz(spec)
            spec2 = mr.toeplitz_from_measure(mu, spec.n)
            assert np.abs(spec2.coeffs - spec.coeffs).max() <= 1e-6

    def test_phase_rotation_invariance(self):
        spec = _random_psd_spec(5, 123)
        _, mn0 = mr.toeplitz_psd(spec)
        for alpha in (0.3, 1.2, 4.0):
            rotated = mr.ToeplitzSpec(coeffs=spec.coeffs *
                                      np.exp(1j * alpha * np.arange(spec.n)))
            _, mn = mr.toeplitz_psd(rotated)
            assert abs(mn - mn0) <= 1e-10


def _random_psd_spec(n, seed):
    """Moments of a strictly positive density restricted to n coefficients."""
    tau = random_trig_poly(n - 1, seed, floor=0.05)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[:tau.coeffs.size] = tau.coeffs
    coeffs[0] = coeffs[0].real
    return mr.ToeplitzSpec(coeffs=coeffs[:n])


class TestBlockMeasures:
    def test_identity_head(self):
        spec = mr.BlockToeplitzSpec(blocks=(np.eye(2), np.zeros((2, 2))))
        mu = mr.block_measure_from_toeplitz(spec)
        assert mr.op_norm(mu.moment(0) - np.eye(2)) <= 1e-6
        assert mr.op_norm(mu.moment(1)) <= 1e-6

    def test_from_power_blocks(self):
        blocks = mr.halved_power_blocks(2 * E21, 2)  # {I, E21, 0}
        spec = mr.BlockToeplitzSpec(blocks=tuple(blocks))
        mu = mr.block_measure_from_toeplitz(spec)
        for k in range(3):
            assert mr.op_norm(mu.moment(k) - blocks[k]) <= 1e-6
        for G in mu.weights:
            assert mr.psd_check(G)[1] >= -1e-9

    def test_scalar_embedding_matches_scalar_solver(self):
        spec = _random_psd_spec(3, 7)
        bspec = mr.BlockToeplitzSpec(blocks=tuple(
            np.array([[c]]) for c in spec.coeffs))
        bmu = mr.block_measure_from_toeplitz(bspec)
        mu = mr.measure_from_toeplitz(spec)
        for k in range(3):
            assert abs(complex(bmu.moment(k)[0, 0]) - mu.moment(k)) <= 1e-6


def _moment_spec(nodes, weights, n):
    """The first n moments of atoms at ``nodes``: scalar weights as a 1-D
    array, matrix weights as a stack."""
    w = weights if np.ndim(weights) == 1 else tuple(weights)
    return mr.toeplitz_from_measure(mr.AtomicMeasure(nodes=nodes, weights=w), n)


def _rank_one_stack(rng, atoms, d):
    g = rng.standard_normal((atoms, d)) + 1j * rng.standard_normal((atoms, d))
    return np.conj(g)[:, :, None] * g[:, None, :]


def _assert_represents(mu, spec):
    """Moments within 1e-8 relative (the rank cutoff at rank_rel = 1e-10
    alone leaves errors of that order), at most rank(T) atoms, every weight
    PSD of rank at most one."""
    T = mr.toeplitz_assemble(spec)
    w = np.linalg.eigvalsh(T)
    rank = int(np.sum(w > 1e-10 * max(w[-1], np.finfo(float).tiny)))
    assert len(mu.nodes) <= rank
    A = np.array([spec.coeffs] if isinstance(spec, mr.ToeplitzSpec) else spec.blocks)
    A = A.reshape(spec.n, -1)
    M = np.array([np.ravel(mu.moment(k)) for k in range(spec.n)])
    assert np.abs(M - A).max() <= 1e-8 * (1.0 + np.abs(A).max())
    for G in (np.atleast_2d(G) for G in mu.weights):
        s = np.linalg.svd(G, compute_uv=False)
        assert mr.op_norm(G - np.conj(G).T) <= 1e-14 * (1.0 + s[0])
        assert np.linalg.eigvalsh(G)[0] >= -1e-14 * (1.0 + s[0])
        assert s.size == 1 or s[1] <= 1e-12 * (1.0 + s[0])


class TestUnitaryExtension:
    def test_scalar_past_the_grid_solver_iteration_limit(self):
        # 26 atoms on the 192-point grid at n = 24: nonnegative least squares
        # on that grid stopped on its iteration limit for this input
        n, rng = 24, np.random.default_rng(3)
        nodes = 2 * np.pi * rng.choice(8 * n, size=n + 2, replace=False) / (8 * n)
        spec = _moment_spec(nodes, rng.random(n + 2) + 0.1, n)
        mu = mr.measure_from_toeplitz(spec)
        assert mu.weights.ndim == 1 and np.all(mu.weights >= 0)
        _assert_represents(mu, spec)

    def test_sparse_off_grid_block(self):
        # five atoms off the 40-point grid at d = 2, n = 5: Dykstra on that
        # grid stalled at a residual of 4e-3
        d, n, atoms, rng = 2, 5, 5, np.random.default_rng(0)
        nodes = 2 * np.pi * (rng.choice(8 * n, size=atoms, replace=False)
                             + rng.uniform(0.2, 0.8, atoms)) / (8 * n)
        g = rng.standard_normal((atoms, d, d)) + 1j * rng.standard_normal((atoms, d, d))
        spec = _moment_spec(nodes, g @ np.conj(np.swapaxes(g, 1, 2)) / (d * atoms), n)
        _assert_represents(mr.block_measure_from_toeplitz(spec), spec)

    @pytest.mark.parametrize("d, n, atoms, arc", [(2, 8, 5, 0.3), (3, 6, 4, 2 * np.pi),
                                                  (4, 5, 7, 0.3), (1, 12, 3, 0.05),
                                                  (2, 10, 12, 0.3)])
    def test_clustered_and_rank_deficient_block(self, d, n, atoms, arc):
        rng = np.random.default_rng(d * 100 + n)
        nodes = 1.0 + arc * rng.random(atoms)
        spec = _moment_spec(nodes, _rank_one_stack(rng, atoms, d), n)
        assert np.linalg.cond(mr.toeplitz_assemble(spec)) >= 1e12
        _assert_represents(mr.block_measure_from_toeplitz(spec), spec)

    def test_single_coefficient(self):
        mu = mr.measure_from_toeplitz(mr.ToeplitzSpec(coeffs=np.array([2.0])))
        _assert_represents(mu, mr.ToeplitzSpec(coeffs=np.array([2.0])))
        assert mu.weights.sum() == pytest.approx(2.0, rel=1e-14)
        A0 = np.array([[2.0, 1j], [-1j, 1.0]])
        spec = mr.BlockToeplitzSpec(blocks=(A0,))
        _assert_represents(mr.block_measure_from_toeplitz(spec), spec)

    def test_zero_spec_has_no_atoms(self):
        mu = mr.measure_from_toeplitz(mr.ToeplitzSpec(coeffs=np.zeros(4)))
        assert mu.nodes.size == 0 and mu.weights.size == 0
        spec = mr.BlockToeplitzSpec(blocks=(np.zeros((2, 2)),) * 3)
        mu = mr.block_measure_from_toeplitz(spec)
        assert len(mu.weights) == 0
        assert np.array_equal(mu.moment(1), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_atoms_within_rank_and_rank_one_weights(self, seed):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        atoms = int(rng.integers(1, 2 * n * d))
        spec = _moment_spec(2 * np.pi * rng.random(atoms), _rank_one_stack(rng, atoms, d), n)
        _assert_represents(mr.block_measure_from_toeplitz(spec), spec)

    def test_block_of_size_one_is_the_scalar_measure(self):
        spec = _random_psd_spec(6, 11)
        mu = mr.measure_from_toeplitz(spec)
        bmu = mr.block_measure_from_toeplitz(mr.BlockToeplitzSpec(
            blocks=tuple(np.array([[c]]) for c in spec.coeffs)))
        assert np.array_equal(bmu.nodes, mu.nodes)
        assert np.array_equal(np.array(bmu.weights)[:, 0, 0].real, mu.weights)

    @pytest.mark.parametrize("block", [False, True])
    def test_one_eigendecomposition_per_measure(self, herm_eig_calls, block):
        rng = np.random.default_rng(5)
        d, n, atoms = (2, 5, 4) if block else (1, 6, 3)
        spec = _moment_spec(2 * np.pi * rng.random(atoms), _rank_one_stack(rng, atoms, d), n)
        if not block:
            spec = mr.ToeplitzSpec(coeffs=np.array([B[0, 0] for B in spec.blocks]))
        # reference: the atoms read off F = diag(sqrt w) U* as a separate
        # eigendecomposition, PSD verdict and rank cutoff give it
        T = mr.toeplitz_assemble(spec)
        eig = mr.herm_eig(T)
        assert mr.linalg._psd_verdict(eig.eigenvalues, 1e-9)[0]
        keep = mr.linalg._rank_mask(eig.eigenvalues)
        F = np.sqrt(eig.eigenvalues[keep])[:, None] * np.conj(eig.eigenvectors[:, keep]).T
        X, _, Yh = np.linalg.svd(F[:, d:] @ np.conj(F[:, :-d]).T)
        L, Z = scipy.linalg.schur(X @ Yh, output="complex")
        g = np.conj(Z).T @ F[:, :d]
        weights = np.conj(g)[:, :, None] * g[:, None, :]

        if block:
            mu = mr.block_measure_from_toeplitz(spec)
        else:
            mu, weights = mr.measure_from_toeplitz(spec), weights[:, 0, 0].real
        assert herm_eig_calls == [(n * d, n * d)]
        np.testing.assert_array_equal(mu.nodes, -np.angle(np.diagonal(L)))
        np.testing.assert_array_equal(mu.weights, weights)

    def test_import_leaves_out_scipy_optimize(self):
        src = os.path.dirname(os.path.dirname(mr.__file__))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, mrange; print('scipy.optimize' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False"], out.stderr
