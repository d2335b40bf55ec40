import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mrange as mr
from mrange.errors import (
    BadShape,
    ConditionFails,
    NotContraction,
    RadiusTooLarge,
    VerificationFailed,
    WindowTooSmall,
)
from mrange.rng import split

from helpers import E21, random_with_radius


class TestHalmosUnitary:
    def test_zero(self):
        U = mr.halmos_unitary(np.zeros((2, 2)))
        np.testing.assert_allclose(U, np.block([[np.zeros((2, 2)), np.eye(2)],
                                                [np.eye(2), np.zeros((2, 2))]]),
                                   atol=1e-14)

    def test_identity(self):
        U = mr.halmos_unitary(np.eye(2))
        np.testing.assert_allclose(U, np.block([[np.eye(2), np.zeros((2, 2))],
                                                [np.zeros((2, 2)), -np.eye(2)]]),
                                   atol=1e-7)

    def test_lower_unit(self):
        U = mr.halmos_unitary(E21)
        np.testing.assert_array_equal(U[:2, :2], E21)
        assert mr.op_norm(np.conj(U).T @ U - np.eye(4)) <= 1e-10

    def test_compression_returns_corner_exactly(self):
        C = random_with_radius(3, 0.9, 3) / 2  # a strict contraction
        U = mr.halmos_unitary(C)
        np.testing.assert_array_equal(U[:3, :3], C)

    def test_rejects_expansion(self):
        with pytest.raises(NotContraction):
            mr.halmos_unitary(1.2 * np.eye(2))


class TestTwoDilation:
    def test_doubled_lower_unit(self):
        win = mr.two_dilation(2 * E21, 8)
        np.testing.assert_allclose(win.center_block_of_power(1), E21, atol=1e-12)
        for n in (2, 3):
            assert mr.op_norm(win.center_block_of_power(n)) <= 1e-12

    def test_zero(self):
        win = mr.two_dilation(np.zeros((2, 2)), 4)
        assert mr.op_norm(win.center_block_of_power(1)) <= 1e-14

    def test_boundary_random_window16(self):
        T = random_with_radius(3, 1.0, 9)
        win = mr.two_dilation(T, 16)
        Tn = np.eye(3, dtype=complex)
        for n in range(1, 8):
            Tn = Tn @ T
            assert mr.op_norm(win.center_block_of_power(n) - Tn / 2) <= 1e-9

    def test_band_width(self):
        win = mr.two_dilation(0.5 * E21, 6)
        assert all(abs(i - j) <= 2 for (i, j) in win.blocks)

    def test_truncation_stability(self):
        T = random_with_radius(2, 0.8, 4)
        small = mr.two_dilation(T, 8)
        large = mr.two_dilation(T, 12)
        for n in range(1, 4):  # the exactness window of the smaller M
            assert mr.op_norm(small.center_block_of_power(n)
                              - large.center_block_of_power(n)) <= 1e-12

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            mr.two_dilation(E21, 3)

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            mr.two_dilation(random_with_radius(2, 1.3, 1), 8)

    def test_window_is_checked_before_any_solve(self, monkeypatch):
        T = random_with_radius(3, 0.9, 5)

        def forbidden(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(mr.numrange, "_start_grid", forbidden)
        monkeypatch.setattr(mr.ando, "_cyclic_reduction", forbidden)
        with pytest.raises(WindowTooSmall, match=r"^window M >= 4 required, got 3$"):
            mr.two_dilation(T, 3)
        with pytest.raises(BadShape, match=r"^count must be an integer, got 4\.5$"):
            mr.two_dilation(T, 4.5)

    @pytest.mark.parametrize("T", [2 * E21, random_with_radius(3, 1.0, 9),
                                   random_with_radius(5, 0.9, 10)])
    def test_one_radius_and_one_extremal_solve(self, T, count_calls):
        # the dilation needs X(T) alone: no X(T*) and no decomposition. No
        # level set either: at w = 0.9 the start values bound the radius
        # below 1, and at w = 1 X certifies the first ascent's provisional one
        starts = count_calls(mr.numrange, "_start_grid")
        levels = count_calls(mr.numrange, "_level_pencil")
        pencils = count_calls(mr.numrange, "_pencil_eigenvalues")
        solves = {name: count_calls(mr.ando, name)
                  for name in ("_extremal_X", "_adjoint_X", "_ando_decompose")}
        mr.two_dilation(T, 8)
        assert (len(starts), len(levels), len(pencils)) == (1, 0, 0)
        assert {name: len(c) for name, c in solves.items()} == \
            {"_extremal_X": 1, "_adjoint_X": 0, "_ando_decompose": 0}

    @pytest.mark.parametrize("n", [-3, -1])
    def test_negative_power_index_is_a_bad_shape(self, n):
        # non-integer indices are test_linalg's test_non_integer_counts_are_bad_shapes
        win = mr.two_dilation(2 * E21, 8)
        with pytest.raises(BadShape, match=f"^power index >= 0 required, got {n}$"):
            win.center_block_of_power(n)
        with pytest.raises(BadShape, match=f"^power index >= 0 required, got {n}$"):
            win.center_blocks_of_powers(n)
        assert win.center_blocks_of_powers(0) == []
        np.testing.assert_array_equal(win.center_block_of_power(0), np.eye(2))


def _parity_inputs():
    yield 2 * E21
    yield mr.shift(4) / np.cos(np.pi / 5)   # w(S_n) = cos(pi / (n + 1))
    yield mr.shift(8) / np.cos(np.pi / 9)
    for w in (1.0, 0.9):
        for d in (1, 2, 3, 5, 8):
            yield random_with_radius(d, w, split(3307, 10 * d + int(10 * w)))


class TestDilationFromXAlone:
    """two_dilation builds C from X(T) alone, through the same ando._ando_factor
    that ando_decompose calls, and takes its compression norms, like the
    decomposition's residual norms, from one stacked SVD."""

    @pytest.mark.parametrize("T", list(_parity_inputs()))
    def test_matches_the_dilation_of_the_decomposition(self, T, monkeypatch):
        stacks = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            values = svd(a, *args, **kwargs)
            if np.ndim(a) == 3:
                stacks.append((np.array(a), values))
            return values

        monkeypatch.setattr(np.linalg, "svd", recorded)
        A = np.asarray(T, dtype=complex)
        win = mr.two_dilation(A, 12)
        dec = mr.ando_decompose(A)
        ref = mr.dilation._two_dilation(A, dec.C, 12)
        assert win.dense().tobytes() == ref.dense().tobytes()
        assert win.residuals == ref.residuals
        # powers 1 to 5, the decomposition's three residuals and |A|, powers 1 to 5
        assert [len(stack) for stack, _ in stacks] == [5, 4, 5]
        for stack, values in stacks:
            assert values.max(axis=-1).tolist() == [mr.op_norm(R) for R in stack]
        np.testing.assert_array_equal(stacks[1][0][3], A)
        assert stacks[1][1].max(axis=-1)[:3].tolist() == [
            dec.residuals[k] for k in ("reconstruction_ymax", "reconstruction_c", "fixed_point")]
        assert win.residuals["compression"] == max(stacks[0][1].max(axis=-1))

    def test_checks_run_under_optimize(self):
        # the |Z| <= 1 + 1e-8 check of ando._ando_factor, and the batched
        # compression check, must not vanish with assert statements. Z's
        # columns are capped at norm 1, so X^{+1/2} is scaled unevenly, which
        # leaves them unit but no longer orthogonal
        code = textwrap.dedent("""
            import numpy as np
            import mrange as mr
            from mrange import ando, dilation
            from mrange.errors import VerificationFailed
            T = mr.random_matrix(3, 3, 5)
            T /= mr.num_radius(T)
            of_X = ando._of_X
            ando._of_X = lambda U, fx: of_X(U, fx * (1 + 1e-6 * np.arange(fx.size)))
            try:
                mr.two_dilation(T, 8)
            except VerificationFailed as exc:
                print(__debug__, exc.name, str(exc).split()[:2])
            ando._of_X = of_X
            blocks = dilation.WindowedOperator.center_blocks_of_powers

            def moved(self, k):
                out = blocks(self, k)
                out[-1] = out[-1] + 1e-6 * np.eye(self.block_dim)
                return out

            dilation.WindowedOperator.center_blocks_of_powers = moved
            try:
                mr.two_dilation(T, 8)
            except VerificationFailed as exc:
                print(__debug__, exc.name, str(exc).split()[:6])
        """)
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.splitlines() == [
            "False VerificationFailed ['Z', 'norm']",
            "False VerificationFailed ['compression', 'identity', 'fails', 'at', 'power', '3:']",
        ], out.stderr


class TestTwoDilationBand:
    """The two-dilation is checked on its band: unitarity on the 3d x 3d core
    W = U[block rows -1..1, block columns -2..0], the compression identity on
    the block column U^n E_0. These tests pin the structure that makes both
    exact and compare them with the dense computations they replace."""

    CORE_COLS, CORE_ROWS = (-2, -1, 0), (-1, 0, 1)

    @staticmethod
    def _inputs():
        for d in (1, 2, 3, 5, 8):
            for w in (0.7, 1.0):
                yield random_with_radius(d, w, split(1307, 10 * d + int(10 * w)))

    @pytest.mark.parametrize("M", [4, 5, 12, 16])
    def test_columns_outside_core_are_isolated_identities(self, M):
        for T in (2 * E21, random_with_radius(3, 1.0, 11)):
            d = T.shape[0]
            win = mr.two_dilation(T, M)
            rows = [i for i, _ in win.blocks]
            for j in range(-M, M + 1):
                col = [i for i, jj in win.blocks if jj == j]
                if j in self.CORE_COLS:
                    assert set(col) <= set(self.CORE_ROWS)
                    continue
                assert len(col) == (0 if j == M else 1)   # column M lies past the band
                for i in col:
                    assert np.array_equal(win.blocks[(i, j)], np.eye(d))
                    assert rows.count(i) == 1
            # the rows that meet the core hold no block outside it
            assert all(j in self.CORE_COLS for i, j in win.blocks if i in self.CORE_ROWS)

    @pytest.mark.parametrize("M", [4, 5, 12])
    def test_core_defect_equals_dense_interior_defect(self, M):
        for T in self._inputs():
            d = T.shape[0]
            win = mr.two_dilation(T, M)
            U = win.dense()
            size = U.shape[0]
            inner = slice(2 * d, size - 2 * d)
            G = (np.conj(U).T @ U - np.eye(size))[inner, inner]
            dense = mr.op_norm(G)
            core = mr.dilation._core_unitarity_defect(win.blocks, d)
            assert abs(core - dense) <= 1e-14 * (1 + mr.op_norm(T))
            # outside the core columns, U*U - I is exactly zero; the interior
            # starts at block 2 - M, so block -2 starts at (M - 4) d
            lo = (M - 4) * d
            G[lo:lo + 3 * d, lo:lo + 3 * d] = 0.0
            assert np.count_nonzero(G) == 0

    @pytest.mark.parametrize("M", [4, 5, 12])
    def test_power_recursion_matches_dense_powers(self, M):
        for T in self._inputs():
            d = T.shape[0]
            win = mr.two_dilation(T, M)
            U, c = win.dense(), slice(M * d, (M + 1) * d)
            blocks = list(win.center_blocks_of_powers(M))
            assert len(blocks) == M
            for n, block in enumerate(blocks, 1):
                dense = np.linalg.matrix_power(U, n)[c, c]
                assert mr.op_norm(block - dense) <= 1e-13 * (1 + mr.op_norm(T))
                np.testing.assert_array_equal(win.center_block_of_power(n), block)
            np.testing.assert_array_equal(win.center_block_of_power(0), np.eye(d))

    def test_scaled_defect_root_fails_unitarity(self, monkeypatch):
        roots = mr.dilation._defect_roots

        def scaled(C):
            DCs, DC = roots(C)
            return DCs, DC * (1 + 1e-6)

        monkeypatch.setattr(mr.dilation, "_defect_roots", scaled)
        with pytest.raises(VerificationFailed, match="interior unitarity defect"):
            mr.two_dilation(random_with_radius(3, 0.9, 5), 8)

    def test_operator_other_than_the_factorization_fails_compression(self):
        T = random_with_radius(3, 0.9, 5)
        C = mr.ando_decompose(T).C
        with pytest.raises(VerificationFailed, match="compression identity"):
            mr.dilation._two_dilation(T + 1e-6 * np.eye(3), C, 8)


class TestBilateralModel:
    @pytest.mark.parametrize("M", [3, 8])
    def test_compression_is_single_entry(self, M):
        rep = mr.bilateral_e21_model(M)
        assert rep.is_lower_unit
        assert rep.flipped_is_upper_unit
        assert np.count_nonzero(rep.compression) == 1
        assert rep.compression[1, 0] == 1.0

    def test_square_compresses_to_zero(self):
        assert mr.bilateral_e21_model(8).square_is_zero

    def test_rejects_tiny_window(self):
        with pytest.raises(BadShape):
            mr.bilateral_e21_model(2)


class TestPdFunctionCheck:
    def test_identity_alone(self):
        ok, _ = mr.pd_function_check([np.eye(2)])
        assert ok

    def test_halved_powers_of_doubled_unit(self):
        blocks = mr.halved_power_blocks(2 * E21, 3)
        ok, mn = mr.pd_function_check(blocks)  # 8x8 Gram matrix
        assert ok and mn >= -1e-12

    @pytest.mark.parametrize("N", [-1, -2])
    def test_negative_power_count_is_a_bad_shape(self, N):
        with pytest.raises(BadShape, match="N >= 0"):
            mr.halved_power_blocks(E21, N)
        assert len(mr.halved_power_blocks(E21, 0)) == 1

    def test_scalar_failure(self):
        ok, mn = mr.pd_function_check([np.eye(1), 1.2 * np.eye(1)])
        assert not ok
        assert mn == pytest.approx(-0.2, abs=1e-12)

    def test_requires_identity_head(self):
        with pytest.raises(BadShape):
            mr.pd_function_check([2 * np.eye(2)])

    def test_bridge_feasible_side(self):
        for seed in range(6):
            T = random_with_radius(3, 0.2 + 0.16 * seed, split(77, seed))
            ok, _ = mr.pd_function_check(mr.halved_power_blocks(T, 6))
            assert ok  # radius <= 1 guarantees every finite section

    def test_bridge_infeasible_side(self):
        # the 7-block section separates reliably from radius ~1.1 upward
        for seed in range(6):
            T = random_with_radius(3, 1.2 + 0.2 * seed, split(78, seed))
            ok, _ = mr.pd_function_check(mr.halved_power_blocks(T, 6))
            assert not ok


class TestNilpotentCondition:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shift_is_feasible(self, n):
        assert mr.nilpotent_condition(mr.shift(n), n) >= -1e-9

    def test_doubled_unit_margin(self):
        # eigenvalues of I + 4 Re(lambda E21) are 1 +- 2
        assert mr.nilpotent_condition(2 * E21, 2) == pytest.approx(-1.0, abs=1e-10)

    def test_lower_unit_boundary(self):
        assert mr.nilpotent_condition(E21, 2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_radius_identity_for_order_two(self):
        for seed in range(8):
            T = mr.random_matrix(3, 3, split(55, seed))
            margin = mr.nilpotent_condition(T, 2)
            assert margin == pytest.approx(1 - 2 * mr.num_radius(T), abs=1e-8)


class TestNilpotentDilation:
    @pytest.mark.parametrize("w", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_order_two_bottom_block_is_ando_X(self, n, w):
        # the spectral factor of I + 2 Re(l T/2) is Ando's pair: its bottom
        # block P_0 has P_0* P_0 = X(T), so the order-2 dilation of T/2 is
        # [C; X^{1/2}] up to a unitary
        for seed in (1, 2):
            T = random_with_radius(n, w, seed)
            P0 = mr.nilpotent_dilation(T / 2, 2).V[n:]
            assert mr.op_norm(np.conj(P0).T @ P0 - mr.ando_X(T)[0]) <= 1e-10

    def test_lower_unit(self):
        nd = mr.nilpotent_dilation(E21, 2)
        assert mr.op_norm(np.conj(nd.V).T @ nd.N @ nd.V - E21) <= 1e-7
        assert np.count_nonzero(np.linalg.matrix_power(nd.N, 2)) == 0

    def test_nonvanishing_power_of_the_shift_is_refused(self, monkeypatch):
        # N^n = 0 is checked entry by entry: a shift with a corner entry has
        # N^n != 0, and the dilation built on it is refused
        monkeypatch.setattr(mr.dilation, "shift", lambda n: np.eye(n, k=-1) + np.eye(n, k=n - 1))
        with pytest.raises(VerificationFailed, match="N\\^n must vanish exactly"):
            mr.nilpotent_dilation(E21, 2)

    def test_shift3_via_identity_embedding(self):
        S3 = mr.shift(3)
        nd = mr.nilpotent_dilation(S3, 3)
        P = np.eye(3 * nd.r, dtype=complex)
        Q = np.eye(3, dtype=complex)
        for j in range(1, 3):
            P = P @ nd.N
            Q = Q @ S3
            assert mr.op_norm(np.conj(nd.V).T @ P @ nd.V - Q) <= 1e-7

    def test_rejects_large_radius(self):
        with pytest.raises(ConditionFails):
            mr.nilpotent_dilation(0.9 * np.eye(2), 2)

    def test_interior_random(self):
        T = random_with_radius(3, 0.4, 5)
        nd = mr.nilpotent_dilation(T, 2)
        assert mr.op_norm(np.conj(nd.V).T @ nd.V - np.eye(3)) <= 1e-10
        assert mr.op_norm(np.conj(nd.V).T @ nd.N @ nd.V - T) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_orders_and_sizes(self, n, d):
        # |T| = 0.3 keeps I + 2 Re sum_k l^k T^k >= (1 - 0.86) I up to order 5
        T = mr.random_matrix(d, d, split(91, 10 * n + d))
        T *= 0.3 / mr.op_norm(T)
        nd = mr.nilpotent_dilation(T, n)
        assert nd.r == d and nd.V.shape == (n * d, d)
        assert mr.op_norm(np.conj(nd.V).T @ nd.V - np.eye(d)) <= 1e-10
        P = np.eye(n * d, dtype=complex)
        for j in range(1, n):
            P = P @ nd.N
            assert mr.op_norm(np.conj(nd.V).T @ P @ nd.V
                              - np.linalg.matrix_power(T, j)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_margin_shift(self, n):
        # I + 2 Re sum_k l^k S^k is singular on the whole circle; it is
        # factored lifted by 10 rank_rel, which the compression carries
        nd = mr.nilpotent_dilation(mr.shift(n), n)
        assert nd.r == n
        assert mr.op_norm(np.conj(nd.V).T @ nd.V - np.eye(n)) <= 1e-10
        assert mr.op_norm(np.conj(nd.V).T @ nd.N @ nd.V - mr.shift(n)) <= 1e-8

    @pytest.mark.parametrize("eps", [-1e-10, -1e-12, 1e-12, 1e-10])
    def test_next_to_zero_margin(self, eps):
        # margins within 1e-9 of zero, on both sides
        for n in (3, 4):
            T = (1 + eps) * mr.shift(n)
            nd = mr.nilpotent_dilation(T, n)
            assert mr.op_norm(np.conj(nd.V).T @ nd.V - np.eye(n)) <= 1e-10
            assert mr.op_norm(np.conj(nd.V).T @ nd.N @ nd.V - T) <= 1e-8

    @pytest.mark.parametrize("n, norm", [(2, 0.45), (3, 0.3), (5, 0.2)])
    def test_norm_bound_replaces_the_margin_solve(self, n, norm, monkeypatch):
        # 1 - 2 sum_{0<k<n} |T|^k > 10 RANK_REL admits the dilation with no
        # lift, as the exact margin does: the same V and N, no level set
        T = mr.random_matrix(3, 3, split(92, n))
        T *= norm / mr.op_norm(T)
        ref = mr.dilation._nilpotent_dilation(T, n, mr.nilpotent_condition(T, n))

        def forbidden(*args):
            raise AssertionError("nilpotent_condition called")

        monkeypatch.setattr(mr.dilation, "nilpotent_condition", forbidden)
        nd = mr.nilpotent_dilation(T, n)
        np.testing.assert_array_equal(nd.V, ref.V)
        np.testing.assert_array_equal(nd.N, ref.N)
        assert nd.residuals == ref.residuals

    def test_margin_solved_where_the_bound_says_nothing(self, monkeypatch):
        calls = []
        condition = mr.dilation.nilpotent_condition

        def counted(A, n):
            calls.append(n)
            return condition(A, n)

        monkeypatch.setattr(mr.dilation, "nilpotent_condition", counted)
        # |0.9 E21| = 0.9 bounds nothing at order 2; its margin is 1 - 0.9
        assert mr.nilpotent_dilation(0.9 * E21, 2).order == 2
        assert calls == [2]
        with pytest.raises(BadShape):
            mr.nilpotent_dilation(0.1 * E21, 1)

    def test_no_feasibility_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_feasibility called")

        monkeypatch.setattr(mr.cpmaps, "solve_feasibility", forbidden)
        nd = mr.nilpotent_dilation(random_with_radius(3, 0.4, 5), 2)
        assert nd.r == 3


def _seeded_inputs(d, radius, seed):
    """A seeded Gaussian scaled to the radius, E21-type shifts, and zero."""
    return [random_with_radius(d, radius, seed), radius * mr.shift(d), np.zeros((d, d))]


class TestCarriedResiduals:
    """Each dilation carries the residuals it was verified on: the values a
    caller would get by recomputing them with dense powers."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_nilpotent_dilation(self, n, d):
        for T in _seeded_inputs(d, 0.3, split(97, 10 * n + d)):
            nd = mr.nilpotent_dilation(T, n)
            Vh = np.conj(nd.V).T
            compression = max(mr.op_norm(Vh @ np.linalg.matrix_power(nd.N, j) @ nd.V
                                         - np.linalg.matrix_power(T, j)) for j in range(n))
            assert nd.residuals == {"isometry": mr.op_norm(Vh @ nd.V - np.eye(d)),
                                    "compression": compression}

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_two_dilation(self, d):
        for T in _seeded_inputs(d, 0.9, split(98, d)):
            win = mr.two_dilation(T, 8)
            halves = mr.halved_power_blocks(T, 3)[1:]
            compression = max(mr.op_norm(block - half) for block, half
                              in zip(win.center_blocks_of_powers(len(halves)), halves))
            assert win.residuals == {
                "unitarity": mr.dilation._core_unitarity_defect(win.blocks, d),
                "compression": compression}
