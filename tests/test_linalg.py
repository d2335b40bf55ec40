import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange.errors import BadShape, NonSquare, NotHermitian, NotPSD

from helpers import E21


class TestHermEig:
    def test_identity(self):
        res = mr.herm_eig(np.eye(2))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        res = mr.herm_eig(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(res.eigenvalues, [-1.0, 3.0])

    def test_real_part_of_lower_unit(self):
        # characteristic polynomial x^2 - 1/4 by hand
        res = mr.herm_eig((E21 + E21.T) / 2)
        np.testing.assert_allclose(res.eigenvalues, [-0.5, 0.5], atol=1e-14)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            mr.herm_eig(np.zeros((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            mr.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("delta, accepted", [
        (1.0e-8, True),   # passes the Frobenius test
        (1.5e-8, True),   # fails the Frobenius test, passes the exact one
        (2.5e-8, False),  # fails both
    ])
    def test_asymmetry_threshold(self, delta, accepted):
        # H - H* = delta (E_12 - E_21): spectral norm delta, Frobenius norm
        # delta sqrt(2), against the bound 1e-8 (1 + |H|) ~ 2e-8
        H = np.diag([1.0, 0.5, -0.25]).astype(complex)
        H[0, 1] = delta
        if not accepted:
            with pytest.raises(NotHermitian):
                mr.herm_eig(H)
            return
        res = mr.herm_eig(H)
        w, V = np.linalg.eigh((H + np.conj(H).T) / 2)
        assert np.array_equal(res.eigenvalues, w)
        assert np.array_equal(res.eigenvectors, V)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), dim=st.integers(1, 8))
    def test_reconstruction_and_orthonormality(self, seed, dim):
        H = mr.random_hermitian(dim, seed)
        res = mr.herm_eig(H)
        V, w = res.eigenvectors, res.eigenvalues
        scale = 1.0 + mr.op_norm(H)
        assert mr.op_norm((V * w) @ np.conj(V).T - H) <= 1e-9 * scale
        assert mr.op_norm(np.conj(V).T @ V - np.eye(dim)) <= 1e-10
        for k in range(dim):
            assert np.linalg.norm(H @ V[:, k] - w[k] * V[:, k]) <= 1e-10 * scale


class TestPsdCheck:
    def test_zero(self):
        ok, mn = mr.psd_check(np.zeros((2, 2)))
        assert ok and mn == 0.0

    def test_all_ones(self):
        # eigenvalues {0, 2} by hand
        ok, mn = mr.psd_check(np.ones((2, 2)))
        assert ok
        assert abs(mn) <= 1e-12

    def test_small_negative(self):
        ok, mn = mr.psd_check(np.diag([1.0, -1e-3]))
        assert not ok
        assert mn == pytest.approx(-1e-3)


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(mr.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_diagonal(self):
        np.testing.assert_allclose(mr.pinv(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-14)

    def test_matrix_unit(self):
        np.testing.assert_allclose(mr.pinv(E21), E21.T, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), dim=st.integers(2, 6), rank=st.integers(1, 3))
    def test_penrose_identities(self, seed, dim, rank):
        rank = min(rank, dim)
        from mrange.rng import split
        A = mr.random_matrix(dim, rank, split(seed, 0)) @ \
            mr.random_matrix(rank, dim, split(seed, 1))
        P = mr.pinv(A)
        for lhs, rhs in [(A @ P @ A, A), (P @ A @ P, P),
                         (np.conj(A @ P).T, A @ P), (np.conj(P @ A).T, P @ A)]:
            assert mr.op_norm(lhs - rhs) <= 1e-8 * (1.0 + mr.op_norm(A))


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(mr.sqrt_psd(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(mr.sqrt_psd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_rank_one(self):
        np.testing.assert_allclose(mr.sqrt_psd(2 * np.diag([1.0, 0.0])),
                                   np.sqrt(2) * np.diag([1.0, 0.0]), atol=1e-14)

    def test_square_recovers(self):
        H = mr.random_hermitian(4, 11)
        H = H @ H  # PSD
        R = mr.sqrt_psd(H)
        assert mr.op_norm(R @ R - H) <= 1e-9 * (1.0 + mr.op_norm(H))
        assert mr.psd_check(R)[0]

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            mr.sqrt_psd(np.diag([1.0, -1.0]))


class TestOpNorm:
    def test_values(self):
        assert mr.op_norm(E21) == pytest.approx(1.0)
        assert mr.op_norm(np.zeros((2, 2))) == 0.0
        assert mr.op_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)


class TestRandomIsometry:
    def test_square_is_unitary(self):
        V = mr.random_isometry(2, 2, 1)
        assert mr.op_norm(np.conj(V).T @ V - np.eye(2)) < 1e-12
        assert mr.op_norm(V @ np.conj(V).T - np.eye(2)) < 1e-12

    def test_column(self):
        V = mr.random_isometry(3, 1, 2)
        assert np.linalg.norm(V[:, 0]) == pytest.approx(1.0, abs=1e-13)

    def test_seed_42_reproducible(self):
        V1 = mr.random_isometry(4, 2, 42)
        V2 = mr.random_isometry(4, 2, 42)
        np.testing.assert_array_equal(V1, V2)
        assert mr.op_norm(np.conj(V1).T @ V1 - np.eye(2)) < 1e-12

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            mr.random_isometry(2, 3, 0)


class TestStructuredMatrices:
    def test_matrix_unit_relations_exact(self):
        n = 3
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                for h in range(1, n + 1):
                    for l in range(1, n + 1):
                        prod = mr.matrix_unit(n, k, j) @ mr.matrix_unit(n, h, l)
                        expect = mr.matrix_unit(n, k, l) if j == h else np.zeros((n, n))
                        assert np.array_equal(prod, expect)
                assert np.array_equal(np.conj(mr.matrix_unit(n, k, j)).T,
                                      mr.matrix_unit(n, j, k))
        total = sum(mr.matrix_unit(n, k, k) for k in range(1, n + 1))
        assert np.array_equal(total, np.eye(n))

    def test_shift_nilpotency_exact(self):
        for n in range(2, 6):
            S = mr.shift(n)
            P = np.linalg.matrix_power(S, n)
            assert np.count_nonzero(P) == 0
            for k in range(1, n):
                assert np.count_nonzero(np.linalg.matrix_power(S, k)) > 0

    def test_shift2_is_lower_unit(self):
        assert np.array_equal(mr.shift(2), E21)

    def test_kron_and_direct_sum(self):
        A = np.array([[1, 2], [3, 4]], dtype=complex)
        B = np.eye(2)
        assert mr.kron(A, B).shape == (4, 4)
        D = mr.direct_sum([A, B])
        assert D.shape == (4, 4)
        np.testing.assert_array_equal(D[:2, :2], A)
        np.testing.assert_array_equal(D[2:, 2:], B)
        assert np.count_nonzero(D[:2, 2:]) == 0


class TestTolerances:
    def test_defaults(self):
        t = mr.Tolerances()
        assert t.psd_eps == 1e-9 and t.rank_rel == 1e-10
        assert t.fixpoint_eps == 1e-12 and t.feas_eps == 1e-7
        assert t.grid_angles == 720

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mr.Tolerances(psd_eps=0.0)
        with pytest.raises(ValueError):
            mr.Tolerances(grid_angles=-1)

    def test_process_default_swap(self):
        original = mr.default_tolerances()
        try:
            loose = mr.Tolerances(psd_eps=1e-6)
            mr.set_default_tolerances(loose)
            assert mr.default_tolerances() is loose
            # a -1e-7 perturbation passes at 1e-6 but not at 1e-9
            H = np.diag([1.0, -1e-7])
            assert mr.psd_check(H)[0]
            assert not mr.psd_check(H, original)[0]
        finally:
            mr.set_default_tolerances(original)


def test_splitmix_stream_is_deterministic():
    from mrange.rng import SplitMix64, split

    a = SplitMix64(123).normals(8)
    b = SplitMix64(123).normals(8)
    np.testing.assert_array_equal(a, b)
    assert split(7, 0) != split(7, 1)


def _scalar_splitmix(seed):
    """The splitmix64 recurrence one draw at a time, in Python integers."""
    mask, state = (1 << 64) - 1, seed & ((1 << 64) - 1)
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 7, 2024, 2**64 - 1])
def test_splitmix_batches_match_the_scalar_recurrence(seed):
    from mrange.rng import SplitMix64

    ref = _scalar_splitmix(seed)
    gen = SplitMix64(seed)
    assert [gen.next_u64() for _ in range(5)] == [next(ref) for _ in range(5)]
    assert gen.uniform() == (next(ref) >> 11) * 2.0 ** -53
    # Box-Muller on consecutive pairs; an odd count still uses up the pair
    for count in (1, 6, 9):
        expect = []
        for _ in range((count + 1) // 2):
            u1 = max((next(ref) >> 11) * 2.0 ** -53, 2.0 ** -53)
            u2 = (next(ref) >> 11) * 2.0 ** -53
            r = np.sqrt(-2.0 * np.log(u1))
            expect += [r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)]
        np.testing.assert_array_equal(gen.normals(count), expect[:count])


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("count", [1, 4, 7])
def test_complex_normals_pair_two_normal_draws(seed, count):
    from mrange.rng import SplitMix64

    gen = SplitMix64(seed)
    x, y = gen.normals(count), gen.normals(count)
    np.testing.assert_array_equal(SplitMix64(seed).complex_normals(count),
                                  (x + 1j * y) / np.sqrt(2.0))
