import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange.errors import BadShape, NonSquare, NotHermitian, NotPSD, ShapeMismatch

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

    def test_eigenvalues_alone(self, count_calls):
        # herm_eig's NotHermitian test, then one eigvalsh and no eigenvectors
        H = mr.random_hermitian(6, 4)
        w = np.linalg.eigvalsh(mr.linalg.herm_part(H))
        eigh, eigvalsh = count_calls(np.linalg, "eigh"), count_calls(np.linalg, "eigvalsh")
        assert mr.psd_check(H) == (w[0] >= 0.0, w[0])
        assert (len(eigh), len(eigvalsh)) == (0, 1)
        with pytest.raises(NotHermitian):
            mr.psd_check(np.array([[0, 1], [0, 0]], dtype=complex))


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

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (6, 6), (0, 0), (0, 3), (3, 0)])
    def test_bit_equal_to_the_two_norm(self, shape):
        # the largest singular value comes from np.linalg.svd, which the
        # two-norm of np.linalg.norm calls internally: the same bits
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            expected = np.linalg.norm(A, 2) if A.size else 0.0
            assert mr.op_norm(A) == expected


def _wide_range(rng, shape, dtype):
    """Entries spread over 16 decades, so that a different summation order
    would show in the last bits of a norm."""
    M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    if dtype is complex:
        M = M + 1j * rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    return M


_LAYOUTS = {
    "C": lambda M: np.ascontiguousarray(M),
    "F": lambda M: np.asfortranarray(M),
    "transposed": lambda M: M.T,
    "dagger": lambda M: mr.linalg.dagger(M),
    "sliced": lambda M: M[1:, ::2],
    "reversed": lambda M: M[::-1, ::-3],
}


class TestFroNorm:
    """linalg._fro_norm computes np.linalg.norm(M) bit for bit, so every
    gate that used the one takes the same branch with the other."""

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("dtype", [complex, float], ids=["complex", "real"])
    def test_equals_numpy_on_every_layout(self, layout, dtype):
        rng = np.random.default_rng([7, list(_LAYOUTS).index(layout)])
        for shape in [(9, 7), (16, 16), (1, 5)] * 4:
            M = _LAYOUTS[layout](_wide_range(rng, shape, dtype))
            assert mr.linalg._fro_norm(M) == np.linalg.norm(M)

    def test_stack_and_its_views(self):
        S = _wide_range(np.random.default_rng(11), (3, 6, 6), complex)
        for M in [S, S.swapaxes(-1, -2), mr.linalg.dagger(S), S[::2, 1:], np.asfortranarray(S)]:
            assert mr.linalg._fro_norm(M) == np.linalg.norm(M)

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_empty(self, dtype):
        M = np.zeros((0, 0), dtype=dtype)
        assert mr.linalg._fro_norm(M) == np.linalg.norm(M) == 0.0

    def test_block_assembly_equals_numpy(self):
        # float zero blocks beside complex ones, as in the dilation's core
        rng = np.random.default_rng(5)
        A, B = _wide_range(rng, (3, 3), complex), _wide_range(rng, (3, 2), complex)
        rows = [[A, B], [np.zeros((1, 3)), _wide_range(rng, (1, 2), float)]]
        got, want = mr.linalg._blocks(rows), np.block(rows)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEmptyMatrix:
    @pytest.mark.parametrize("call", [
        mr.num_radius, lambda A: mr.range_boundary(A, 8), mr.ando_X, mr.member_e21,
        lambda A: mr.nilpotent_condition(A, 2), mr.sqrt_psd,
    ])
    def test_square_operations_reject_it(self, call):
        with pytest.raises(BadShape, match="requires a nonempty matrix"):
            call(np.zeros((0, 0)))

    def test_norm_and_pseudo_inverse_keep_their_empty_case(self):
        assert mr.op_norm(np.zeros((0, 0))) == 0.0
        assert mr.pinv(np.zeros((0, 3))).shape == (3, 0)


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
        # no summands: the 0 x 0 matrix (scipy's block_diag() would give 1 x 0)
        empty = mr.direct_sum([])
        assert empty.shape == (0, 0) and empty.dtype == complex


class TestTolerances:
    def test_defaults(self):
        t = mr.Tolerances()
        assert t.psd_eps == 1e-9 and t.feas_eps == 1e-7
        assert mr.default_tolerances() == t
        assert mr.linalg.RANK_REL == 1e-10 and mr.linalg.FIXPOINT_EPS == 1e-12
        assert mr.cpmaps.MAX_ITER == 20000
        # feas_eps follows psd_eps once it is looser than 1e-7
        assert mr.Tolerances(psd_eps=1e-8).feas_eps == 1e-7
        assert mr.Tolerances(psd_eps=1e-4).feas_eps == 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mr.Tolerances(psd_eps=0.0)
        with pytest.raises(ValueError):
            mr.Tolerances(psd_eps=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, value):
        from mrange.errors import BadTolerance, MrangeError
        with pytest.raises(BadTolerance) as info:
            mr.Tolerances(psd_eps=value)
        assert isinstance(info.value, ValueError) and isinstance(info.value, MrangeError)

    def test_process_default_swap(self):
        # a -1e-7 perturbation passes at 1e-6 but not at the default 1e-9
        H = np.diag([1.0, -1e-7])
        assert mr.psd_check(H, mr.Tolerances(psd_eps=1e-6))[0]
        assert not mr.psd_check(H)[0]
        assert not mr.psd_check(H, mr.default_tolerances())[0]


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


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (4, 4), (5, 3)])
@pytest.mark.parametrize("count", [0, 1, 16])
def test_batched_draws_match_each_seed_alone(n, m, count):
    # odd and even n * m; one batch over the child seeds of 11
    from mrange.rng import children, split

    seeds = children(11, count)
    assert seeds.tolist() == [split(11, k) for k in range(count)]
    G, V = mr.random_matrix(n, m, seeds), mr.random_isometry(n, m, seeds)
    assert G.shape == V.shape == (count, n, m)
    for k, seed in enumerate(seeds.tolist()):
        assert G[k].tobytes() == mr.random_matrix(n, m, seed).tobytes()
        assert V[k].tobytes() == mr.random_isometry(n, m, seed).tobytes()


_POINT = mr.AtomicMeasure(nodes=[0.0], weights=[1.0])


@pytest.mark.parametrize("call", [
    lambda: mr.halved_power_blocks(E21, 2.5),
    lambda: mr.toeplitz_from_measure(_POINT, 2.5),
    lambda: mr.two_dilation(E21, 4.5),
    lambda: mr.bilateral_e21_model(3.5),
    lambda: mr.spatial_samples(E21, 1, 2.5, 0),
    lambda: mr.spatial_samples(E21, 1.5, 2, 0),
    lambda: mr.opsys_probe(E21, E21, 1, 2.5, 0),
    lambda: mr.range_boundary(E21, 4.5),
    lambda: mr.nilpotent_condition(E21 / 4, 2.5),
    lambda: mr.nilpotent_dilation(E21 / 4, 2.5),
    lambda: mr.smith_ward_nu(np.eye(3), 2.5),
    lambda: mr.member_shift_ball(E21 / 2, 2.5),
    lambda: mr.two_dilation(2 * E21, 8).center_block_of_power(2.5),
    lambda: mr.two_dilation(2 * E21, 8).center_blocks_of_powers(2.5),
], ids=["halved_power_blocks", "toeplitz_from_measure", "two_dilation",
        "bilateral_e21_model", "spatial_samples-count", "spatial_samples-size",
        "opsys_probe", "range_boundary", "nilpotent_condition", "nilpotent_dilation",
        "smith_ward_nu", "member_shift_ball", "center_block_of_power",
        "center_blocks_of_powers"])
def test_non_integer_counts_are_bad_shapes(call):
    # a library error, not a bare TypeError or an answer on nodes off the roots of unity
    with pytest.raises(BadShape, match=r"^count must be an integer, got \d\.5$"):
        call()


def test_numpy_integer_counts_keep_their_range_checks():
    from mrange.errors import WindowTooSmall

    assert len(mr.range_boundary(E21, np.int64(4))) == 4
    assert mr.member_shift_ball(E21 / 2, np.int32(16)).member
    with pytest.raises(WindowTooSmall, match=r"^window M >= 4 required, got 3$"):
        mr.two_dilation(E21, np.int64(3))
    with pytest.raises(BadShape, match=r"^nodes >= 1 required, got 0$"):
        mr.member_shift_ball(E21 / 2, np.int64(0))
    with pytest.raises(BadShape, match=r"^range_boundary needs K >= 3, got 2$"):
        mr.range_boundary(E21, np.int64(2))


_ID2 = mr.identity_map(2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: mr.linalg.as_cmat(np.ones(3)), BadShape, "expected a 2-D matrix, got ndim=1"),
    (lambda: mr.linalg.as_cmat(np.ones((1, 2, 2))), BadShape,
     "expected a 2-D matrix, got ndim=3"),
    (lambda: mr.linalg.as_cmat([[1.0, np.nan]]), BadShape, "matrix entries must be finite"),
    (lambda: mr.linalg.as_cmat([[complex(0.0, np.inf)]]), BadShape,
     "matrix entries must be finite"),
    (lambda: mr.apply_map(_ID2, np.eye(3)), ShapeMismatch, "argument must be 2 x 2, got (3, 3)"),
    (lambda: mr.amplify(_ID2, 2, np.eye(2)), ShapeMismatch,
     "amplification argument must be 4 square"),
    (lambda: mr.cstar_convex([E21], []), ShapeMismatch,
     "need equally many operators and coefficients"),
    (lambda: mr.cstar_convex([], []), ShapeMismatch,
     "need equally many operators and coefficients"),
    (lambda: mr.pd_function_check([]), BadShape, "need at least the k = 0 block"),
    (lambda: mr.pd_function_check([np.eye(2), np.eye(3)]), BadShape,
     "all blocks must share one square dimension"),
    (lambda: mr.BlockToeplitzSpec(blocks=()), BadShape, "need at least one block"),
    (lambda: mr.BlockToeplitzSpec(blocks=(np.eye(2), np.eye(3))), BadShape,
     "all blocks must be square of one size"),
    (lambda: mr.BlockToeplitzSpec(blocks=(np.ones((2, 3)),)), BadShape,
     "all blocks must be square of one size"),
    (lambda: mr.BlockToeplitzSpec(blocks=(E21,)), BadShape, "A_0 must be Hermitian"),
], ids=["as_cmat-1d", "as_cmat-3d", "as_cmat-nan", "as_cmat-inf", "apply_map", "amplify",
        "cstar_convex-unequal", "cstar_convex-empty", "pd_function_check-empty",
        "pd_function_check-ragged", "BlockToeplitzSpec-empty", "BlockToeplitzSpec-ragged",
        "BlockToeplitzSpec-non-square", "BlockToeplitzSpec-non-hermitian"])
def test_malformed_inputs_are_library_errors(call, error, message):
    # each input check raises its own error, not a numpy exception or an answer
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
