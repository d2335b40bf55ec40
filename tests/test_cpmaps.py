import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrange as mr
from mrange.cpmaps import Feasible, Undetermined
from mrange.errors import (
    BadShape,
    InconsistentAffine,
    NotCP,
    NotPartitionOfIdentity,
    NotPSD,
    NotUnital,
    ShapeMismatch,
)
from mrange.rng import split

from helpers import E21, random_ucp_map


def trace_halving_map():
    """phi(X) = tr(X)/2 * I_2."""
    I = np.eye(2, dtype=complex)
    return mr.map_on_units(2, 2, [[I / 2, np.zeros((2, 2))],
                                  [np.zeros((2, 2)), I / 2]])


class TestChoi:
    def test_identity_map_choi(self):
        C = mr.choi(mr.identity_map(2))
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = expect[0, 3] = expect[3, 0] = expect[3, 3] = 1.0
        np.testing.assert_array_equal(C.block, expect)
        w = np.linalg.eigvalsh(C.block)
        np.testing.assert_allclose(w, [0, 0, 0, 2], atol=1e-14)  # rank one, PSD

    def test_transpose_map_choi_eigenvalues(self):
        C = mr.choi(mr.transpose_map(2))
        w = np.linalg.eigvalsh(C.block)
        np.testing.assert_allclose(w, [-1, 1, 1, 1], atol=1e-14)

    def test_trace_map_choi(self):
        C = mr.choi(trace_halving_map())
        np.testing.assert_allclose(C.block, np.eye(4) / 2, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 3), m=st.integers(1, 3))
    def test_choi_map_round_trip(self, seed, n, m):
        vals = [[mr.random_matrix(m, m, split(seed, i * n + j)) for j in range(n)]
                for i in range(n)]
        phi = mr.map_on_units(n, m, vals)
        back = mr.map_from_choi(mr.choi(phi))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert mr.op_norm(back.value(i, j) - phi.value(i, j)) <= 1e-10


class TestMapValues:
    """A map's values are one (n, n, m, m) array, checked once."""

    @pytest.mark.parametrize("n, m, values", [
        (2, 2, [[np.eye(2), np.eye(2)], [np.eye(2)]]),              # ragged rows
        (2, 2, [[np.eye(2), np.eye(2)], [np.eye(2), np.eye(3)]]),   # ragged blocks
        (2, 3, [[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]]),   # wrong block size
        (3, 2, [[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]]),   # wrong n
    ])
    def test_wrong_shapes_raise_shape_mismatch(self, n, m, values):
        with pytest.raises(ShapeMismatch):
            mr.map_on_units(n, m, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entries_raise_bad_shape(self, bad):
        B = np.eye(2, dtype=complex)
        B[1, 0] = bad
        with pytest.raises(BadShape, match="finite"):
            mr.map_on_units(2, 2, [[np.eye(2), B], [B, np.eye(2)]])

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2)])
    def test_choi_round_trip_is_exact(self, n, m):
        vals = [[mr.random_matrix(m, m, split(7 * n + m, i * n + j)) for j in range(n)]
                for i in range(n)]
        phi = mr.map_on_units(n, m, vals)
        back = mr.map_from_choi(mr.choi(phi))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                np.testing.assert_array_equal(back.value(i, j), vals[i - 1][j - 1])
                np.testing.assert_array_equal(mr.choi(phi).block_at(i, j), vals[i - 1][j - 1])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_and_transpose_on_matrix_units(self, n):
        ident, trans = mr.identity_map(n), mr.transpose_map(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                np.testing.assert_array_equal(ident.value(i, j), mr.matrix_unit(n, i, j))
                np.testing.assert_array_equal(trans.value(i, j), mr.matrix_unit(n, j, i))

    @pytest.mark.parametrize("n, m, rank", [(2, 2, 1), (2, 3, 4), (3, 2, 6), (1, 2, 2)])
    def test_kraus_reconstruct_gives_back_the_choi_block(self, n, m, rank):
        G = mr.random_matrix(n * m, rank, 100 * n + 10 * m + rank)
        C = mr.ChoiMat(n=n, m=m, block=G @ np.conj(G).T)
        back = mr.choi(mr.kraus_from_choi(C).reconstruct(n, m)).block
        np.testing.assert_allclose(back, C.block, rtol=0, atol=1e-12 * mr.op_norm(C.block))

    @pytest.mark.parametrize("size", [3, 5])
    def test_choi_block_of_the_wrong_size_raises_shape_mismatch(self, size):
        with pytest.raises(ShapeMismatch):
            mr.map_from_choi(mr.ChoiMat(n=2, m=2, block=np.eye(size)))

    def test_kraus_operators_of_the_wrong_shape_raise_shape_mismatch(self):
        ops = mr.kraus_from_choi(mr.choi(mr.identity_map(2))).operators
        with pytest.raises(ShapeMismatch):
            mr.KrausSet(operators=ops).reconstruct(1, 4)

    def test_empty_kraus_set_is_the_zero_map(self):
        phi = mr.KrausSet(operators=()).reconstruct(2, 3)
        np.testing.assert_array_equal(mr.choi(phi).block, np.zeros((6, 6)))

    @pytest.mark.parametrize("i, j", [(0, 1), (3, 1), (1, 0), (2, 3), (-1, 2)])
    def test_indices_outside_one_to_n_raise_bad_shape(self, i, j):
        # 1-based: numpy's negative indexing would read phi(E_21) at (0, 1),
        # and a slice past the end an empty block
        phi = mr.transpose_map(2)
        with pytest.raises(BadShape) as unit:
            mr.matrix_unit(2, i, j)
        with pytest.raises(BadShape, match=f"^{re.escape(str(unit.value))}$"):
            phi.value(i, j)
        with pytest.raises(BadShape, match=f"^{re.escape(str(unit.value))}$"):
            mr.choi(phi).block_at(i, j)


class TestIsCp:
    def test_identity_cp(self):
        assert mr.is_cp(mr.identity_map(2))[0]

    def test_transpose_not_cp(self):
        ok, mn = mr.is_cp(mr.transpose_map(2))
        assert not ok
        assert mn == pytest.approx(-1.0, abs=1e-12)

    def test_lower_unit_witness_map_cp(self):
        phi = mr.ucp_from_e21(E21)
        ok, mn = mr.is_cp(phi)
        assert ok
        assert mn >= -1e-12


class TestApplyAmplify:
    def test_apply_identity(self):
        T = mr.random_matrix(2, 2, 3)
        np.testing.assert_allclose(mr.apply_map(mr.identity_map(2), T), T, atol=1e-14)

    def test_apply_transpose(self):
        np.testing.assert_array_equal(mr.apply_map(mr.transpose_map(2), E21), E21.T)

    def test_amplify_reproduces_choi(self):
        phi = mr.ucp_from_e21(0.3 * E21)
        n = 2
        unit_block = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                unit_block[i * n:(i + 1) * n, j * n:(j + 1) * n] = \
                    mr.matrix_unit(n, i + 1, j + 1)
        out = mr.amplify(phi, n, unit_block)
        np.testing.assert_allclose(out, mr.choi(phi).block, atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_cp_maps_preserve_positivity(self, seed):
        phi = random_ucp_map(2, 3, split(seed, 0))
        G = mr.random_matrix(2, 2, split(seed, 1))
        P = G @ np.conj(G).T
        out = mr.apply_map(phi, P)
        assert mr.psd_check(out)[1] >= -1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_ucp_maps_contract_norm_and_radius(self, seed):
        phi = random_ucp_map(3, 2, split(seed, 0))
        T = mr.random_matrix(3, 3, split(seed, 1))
        out = mr.apply_map(phi, T)
        assert mr.op_norm(out) <= mr.op_norm(T) + 1e-8
        assert mr.num_radius(out) <= mr.num_radius(T) + 1e-8


class TestKraus:
    def test_identity_single_operator(self):
        ks = mr.kraus_from_choi(mr.choi(mr.identity_map(2)))
        assert len(ks.operators) == 1
        K = ks.operators[0]
        # identity up to a global phase
        phase = K[0, 0] / abs(K[0, 0])
        np.testing.assert_allclose(K / phase, np.eye(2), atol=1e-10)

    def test_depolarizing_choi(self):
        C = mr.ChoiMat(n=2, m=2, block=np.eye(4, dtype=complex) / 2)
        ks = mr.kraus_from_choi(C)
        assert len(ks.operators) == 4
        back = ks.reconstruct(2, 2)
        for i in range(1, 3):
            for j in range(1, 3):
                target = np.eye(2) / 2 if i == j else np.zeros((2, 2))
                assert mr.op_norm(back.value(i, j) - target) <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), rank=st.integers(1, 4))
    def test_kraus_count_matches_rank(self, seed, rank):
        G = mr.random_matrix(4, rank, seed)
        C = mr.ChoiMat(n=2, m=2, block=G @ np.conj(G).T)
        ks = mr.kraus_from_choi(C)
        svd_rank = int(np.sum(np.linalg.svd(C.block, compute_uv=False)
                              > 1e-10 * mr.op_norm(C.block)))
        assert len(ks.operators) == svd_rank
        back = ks.reconstruct(2, 2)
        for i in range(1, 3):
            for j in range(1, 3):
                assert mr.op_norm(back.value(i, j) - C.block_at(i, j)) <= 1e-8

    @pytest.mark.parametrize("n, m, rank", [(2, 2, 1), (2, 3, 4), (3, 2, 5)])
    def test_one_eigendecomposition_per_kraus_set(self, herm_eig_calls, n, m, rank):
        G = mr.random_matrix(n * m, rank, 10 * n + m)
        C = mr.ChoiMat(n=n, m=m, block=G @ np.conj(G).T)
        # reference: the Kraus operators as sqrt(w) times eigenvectors, reshaped
        eig = mr.herm_eig(C.block)
        keep = mr.linalg._rank_mask(eig.eigenvalues)
        vecs = eig.eigenvectors[:, keep] * np.sqrt(eig.eigenvalues[keep])
        expect = [v.reshape(n, m).T for v in vecs.T]

        ops = mr.kraus_from_choi(C).operators
        assert herm_eig_calls == [(n * m, n * m)]
        assert len(ops) == len(expect) == rank
        for K, E in zip(ops, expect):
            np.testing.assert_array_equal(K, E)


class TestStinespring:
    def test_identity_map(self):
        st_form = mr.stinespring(mr.identity_map(2))
        assert st_form.r == 1
        assert mr.op_norm(np.conj(st_form.V).T @ st_form.V - np.eye(2)) <= 1e-12

    def test_dephasing(self):
        Z = np.zeros((2, 2), dtype=complex)
        phi = mr.map_on_units(2, 2, [[np.diag([1.0, 0.0]), Z],
                                     [Z, np.diag([0.0, 1.0])]])
        st_form = mr.stinespring(phi)
        assert st_form.r == 2
        assert mr.op_norm(np.conj(st_form.V).T @ st_form.V - np.eye(2)) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 3), m=st.integers(1, 3))
    def test_reconstruction_on_random_ucp(self, seed, n, m):
        phi = random_ucp_map(n, m, seed)
        st_form = mr.stinespring(phi)
        V, r = st_form.V, st_form.r
        assert mr.op_norm(np.conj(V).T @ V - np.eye(m)) <= 1e-10
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                X = mr.matrix_unit(n, i, j)
                lhs = np.conj(V).T @ mr.kron(X, np.eye(r)) @ V
                assert mr.op_norm(lhs - phi.value(i, j)) <= 1e-8


    def test_one_choi_eigendecomposition(self, monkeypatch):
        phi = mr.ucp_from_e21(0.4 * mr.shift(3))
        # reference: the CP check and the Kraus operators each decompose C
        C = mr.choi(phi)
        assert mr.psd_check(C.block)[0]
        ops = np.array(mr.kraus_from_choi(C).operators)
        V = np.conj(ops).transpose(2, 0, 1).reshape(-1, phi.m)
        w, Q = np.linalg.eigh(mr.linalg.herm_part(np.conj(V).T @ V))
        V = V @ ((Q * (1.0 / np.sqrt(np.clip(w, np.finfo(float).tiny, None)))) @ np.conj(Q).T)

        calls = []
        herm_eig = mr.linalg.herm_eig

        def counted(H):
            calls.append(np.shape(H))
            return herm_eig(H)
        monkeypatch.setattr(mr.linalg, "herm_eig", counted)
        st_form = mr.stinespring(phi)
        assert calls == [(6, 6)]
        assert st_form.r == len(ops)
        np.testing.assert_array_equal(st_form.V, V)

    def test_rejections(self):
        with pytest.raises(NotCP, match="Choi min eigenvalue -1.000e"):
            mr.stinespring(mr.transpose_map(2))
        with pytest.raises(NotUnital, match="unital defect 1.000e"):
            mr.stinespring(mr.map_from_choi(mr.ChoiMat(n=2, m=2,
                                                       block=2 * mr.choi(mr.identity_map(2)).block)))
        # one PSD verdict, with slack psd_eps (1 + |C|): min eigenvalue -1e-10
        # passes at the default 1e-9 and fails at 1e-11, as NotCP from
        # stinespring and NotPSD from kraus_from_choi
        C = mr.choi(mr.identity_map(2)).block.copy()
        C[1, 1] = -1e-10
        C = mr.ChoiMat(n=2, m=2, block=C)
        assert mr.stinespring(mr.map_from_choi(C)).r == 1
        assert len(mr.kraus_from_choi(C).operators) == 1
        tight = mr.Tolerances(psd_eps=1e-11)
        with pytest.raises(NotCP, match="Choi min eigenvalue -1.000e-10"):
            mr.stinespring(mr.map_from_choi(C), tight)
        with pytest.raises(NotPSD, match="Choi min eigenvalue -1.000e-10 below tolerance"):
            mr.kraus_from_choi(C, tight)


def test_rejections_hold_under_python_O():
    """The PSD verdict of the Choi and Toeplitz factors, and the check of a
    map's values, are runtime checks: they raise under python -O too."""
    code = textwrap.dedent("""
        import numpy as np
        import mrange as mr

        def name(call):
            try:
                call()
            except mr.errors.MrangeError as exc:
                return exc.name
            return "none"

        T = mr.transpose_map(2)
        print(__debug__)
        print(name(lambda: mr.stinespring(T)))
        print(name(lambda: mr.kraus_from_choi(mr.choi(T))))
        spec = mr.ToeplitzSpec(coeffs=np.array([1.0, 0.9, 0.9j]))
        print(name(lambda: mr.measure_from_toeplitz(spec)))
        print(name(lambda: mr.map_on_units(2, 2, [[np.eye(2), np.eye(2)], [np.eye(2)]])))
    """)
    src = os.path.dirname(os.path.dirname(mr.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False", "NotCP", "NotPSD", "NotPSD", "ShapeMismatch"], \
        out.stderr


class TestCstarConvex:
    def test_single_identity(self):
        X = mr.random_matrix(2, 2, 5)
        np.testing.assert_allclose(mr.cstar_convex([X], [np.eye(2)]), X, atol=1e-14)

    def test_projection_pinch(self):
        X = mr.random_matrix(2, 2, 6)
        P1, P2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        out = mr.cstar_convex([X, X], [P1.astype(complex), P2.astype(complex)])
        np.testing.assert_allclose(out, np.diag(np.diag(X)), atol=1e-14)

    def test_scalars(self):
        alpha = 0.3 - 0.1j
        Xs = [alpha * np.eye(2)] * 3
        from helpers import random_partition_of_identity
        As = random_partition_of_identity(2, 3, 9)
        np.testing.assert_allclose(mr.cstar_convex(Xs, As), alpha * np.eye(2),
                                   atol=1e-12)

    def test_rejects_non_partition(self):
        with pytest.raises(NotPartitionOfIdentity):
            mr.cstar_convex([np.eye(2)], [2 * np.eye(2)])


class TestSolveFeasibility:
    def test_unital_with_zero_corner(self):
        out = mr.solve_map_problem(2, 2, [(E21, np.zeros((2, 2)))])
        assert isinstance(out, Feasible)
        assert out.residual <= 1e-7

    def test_shift_witness_inside(self):
        T = 0.4 * E21  # radius 0.2 <= 1/2 by the halved-norm bound
        out = mr.solve_map_problem(2, 2, [(E21, T)])
        assert isinstance(out, Feasible)
        assert out.residual <= 1e-7
        ok, _ = mr.psd_check(out.matrix)
        assert ok

    def test_inconsistent_affine_raises(self):
        # one 2 x 2 cone of 1 x 1 blocks whose (1, 1) entry is pinned to 1 and 2
        E11 = np.diag([1.0, 0.0])
        with pytest.raises(InconsistentAffine):
            mr.solve_feasibility([[E11], [E11]], [[[1.0]], [[2.0]]])

    def test_undetermined_on_infeasible_without_certificate(self, monkeypatch):
        # radius of 0.8*I is 0.8 > 1/2: no unital CP map can send E21 there
        monkeypatch.setattr(mr.cpmaps, "MAX_ITER", 800)
        out = mr.solve_map_problem(2, 2, [(E21, 0.8 * np.eye(2, dtype=complex))])
        assert isinstance(out, Undetermined)

    def test_best_iterate_within_feas_eps_is_feasible(self, monkeypatch):
        # no iterate reaches the target feas_eps / 20, but the best one is
        # within feas_eps: it is returned, with its residual, after MAX_ITER.
        # The Choi problem of a unital map sending E21 to 0.8 I, which has no
        # solution, keeps the residual of the first iterate away from 0
        K, B = np.array([np.eye(2), E21])[:, None], np.array([np.eye(2), 0.8 * np.eye(2)])
        first = mr.solve_feasibility(K, B, target=np.inf)
        assert isinstance(first, Feasible) and first.residual > 0.0
        monkeypatch.setattr(mr.cpmaps, "MAX_ITER", 1)
        out = mr.solve_feasibility(K, B, mr.Tolerances(psd_eps=2.0 * first.residual))
        assert isinstance(out, Feasible) and out.residual == first.residual
        assert np.array_equal(out.matrix, first.matrix)
        out = mr.solve_feasibility(K, B, mr.Tolerances(psd_eps=first.residual / 2.0))
        assert isinstance(out, Undetermined) and out.residual == first.residual

    def test_block_cone_partition(self):
        # two 1x1 blocks forced to x and 1-x with x PSD: feasible
        out = mr.solve_feasibility(np.ones((1, 2, 1, 1)), [[[1.0]]])
        assert isinstance(out, Feasible)

    def test_choi_value_mixing_diagonal_and_offdiagonal_blocks(self):
        # phi(E11 + E21) ties diagonal entries of the (1, 1) block to
        # off-diagonal entries of the Choi matrix in the (2, 1) block
        psi = random_ucp_map(2, 3, 77)
        X = np.array([[1, 0], [1, 0]], dtype=complex)
        out = mr.solve_map_problem(2, 3, [(X, mr.apply_map(psi, X))])
        feas_eps = mr.default_tolerances().feas_eps
        assert isinstance(out, Feasible)
        assert np.linalg.eigvalsh(out.matrix)[0] >= -feas_eps
        phi = mr.map_from_choi(mr.ChoiMat(n=2, m=3, block=out.matrix))
        defect = max(phi.unital_defect(),
                     mr.op_norm(mr.apply_map(phi, X) - mr.apply_map(psi, X)))
        assert defect <= feas_eps
