"""Shared test utilities: independent oracles and seeded input generators.

The oracles here deliberately avoid the library's own code paths: the
brute-force radius uses random unit vectors plus a dense one-shot angle
grid over numpy primitives, so it can stand as independent evidence.
"""

import numpy as np

import mrange as mr


def radius_bruteforce(T, seed=0, vectors=200_000, angles=20_000):
    """max |<T xi, xi>| over random unit vectors plus a dense angle grid."""
    T = np.asarray(T, dtype=complex)
    d = T.shape[0]
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((vectors, d)) + 1j * rng.standard_normal((vectors, d))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    vec_best = float(np.abs(np.einsum("ni,ij,nj->n", Z.conj(), T, Z)).max())

    th = 2.0 * np.pi * np.arange(angles) / angles
    stack = np.exp(1j * th)[:, None, None] * T[None, :, :]
    stack = (stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0
    grid_best = float(np.linalg.eigvalsh(stack)[:, -1].max())
    return max(vec_best, grid_best)


def support_residual(T, points):
    """max_k |Re(e^{-i theta_k} p_k) - lambda_max(Re(e^{-i theta_k} T))| over
    theta_k = 2 pi k / K, K = len(points): how far each point falls from the
    support line at its angle, from one batched eigensolve."""
    T = np.asarray(T, dtype=complex)
    K = len(points)
    phases = np.exp(-2j * np.pi * np.arange(K) / K)
    stack = phases[:, None, None] * T[None, :, :]
    tops = np.linalg.eigvalsh((stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0)[:, -1]
    return float(np.abs((phases * np.asarray(points)).real - tops).max())


def nilpotent_margin_bracket(T, n, angles=20_000):
    """[lower, upper] around min over the circle of
    lambda_min(I + 2 Re sum_{k=1}^{n-1} l^k T^k) from a dense angle grid.

    The grid minimum is attained, so it is an upper bound. The derivative
    of the matrix function has norm at most L = sum_k 2k |T^k|, and every
    angle lies within pi / angles of a grid angle, so no value falls below
    the grid minimum by more than L pi / angles.
    """
    T = np.asarray(T, dtype=complex)
    powers = [np.linalg.matrix_power(T, k) for k in range(1, n)]
    lam = np.exp(2j * np.pi * np.arange(angles) / angles)
    S = sum((lam ** k)[:, None, None] * P[None, :, :] for k, P in enumerate(powers, 1))
    stack = np.eye(T.shape[0]) + S + np.conj(np.swapaxes(S, 1, 2))
    upper = float(np.linalg.eigvalsh(stack)[:, 0].min())
    lip = sum(2 * k * np.linalg.norm(P, 2) for k, P in enumerate(powers, 1))
    return upper - lip * np.pi / angles, upper


def random_with_radius(dim, target, seed):
    """Seeded complex Gaussian matrix rescaled to numerical radius ``target``."""
    T = mr.random_matrix(dim, dim, seed)
    w = mr.num_radius(T)
    return T * (target / w)


def random_partition_of_identity(m, count, seed):
    """Matrices A_1..A_count in M_m with sum A_k* A_k = I."""
    from mrange.rng import split

    Bs = [mr.random_matrix(m, m, split(seed, k)) for k in range(count)]
    G = sum(np.conj(B).T @ B for B in Bs)
    w, V = np.linalg.eigh((G + np.conj(G).T) / 2)
    G_inv_half = (V * (1.0 / np.sqrt(w))) @ np.conj(V).T
    return [B @ G_inv_half for B in Bs]


def random_ucp_map(n, m, seed):
    """Random unital CP map: PSD Choi, symmetrically corrected to unital."""
    G = mr.random_matrix(n * m, n * m, seed)
    C = G @ np.conj(G).T
    D = sum(C[i * m:(i + 1) * m, i * m:(i + 1) * m] for i in range(n))
    w, V = np.linalg.eigh((D + np.conj(D).T) / 2)
    D_inv_half = (V * (1.0 / np.sqrt(np.clip(w, 1e-300, None)))) @ np.conj(V).T
    corr = np.kron(np.eye(n), D_inv_half)
    C = corr @ C @ np.conj(corr).T
    return mr.map_from_choi(mr.ChoiMat(n=n, m=m, block=C))


def _psd_function(H, f, rank_rel=1e-10):
    """f applied to the eigenvalues of the Hermitian part of H, its own eigh."""
    w, V = np.linalg.eigh((H + np.conj(H).T) / 2)
    keep = np.abs(w) > rank_rel * max(np.abs(w).max(), np.finfo(float).tiny)
    return (V * f(w, keep)) @ np.conj(V).T


def _sqrt(w, keep):
    return np.sqrt(np.clip(w, 0.0, None))


def _pinv_sqrt(w, keep):
    keep = keep & (w > 0)
    return np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)


def _projector(w, keep):
    return keep.astype(float)


def ando_reference(T, X):
    """Z and C of Ando's factorization for T and its extremal X, each
    operator from an eigendecomposition of its own:
    Z = P_X X^{+1/2} (T/2) (I - X)^{+1/2} P_{I-X} and C = Z (I - X)^{1/2},
    with range projectors P and the 1e-10 rank cutoff."""
    T = np.asarray(T, dtype=complex)
    IX = np.eye(T.shape[0]) - X
    Z = (_psd_function(X, _projector) @ _psd_function(X, _pinv_sqrt) @ (T / 2)
         @ _psd_function(IX, _pinv_sqrt) @ _psd_function(IX, _projector))
    return Z, Z @ _psd_function(IX, _sqrt)


def two_dilation_reference(C, M):
    """The dense banded unitary of the two-dilation on the window -M..M for
    a given C, with (I - C*C)^{1/2} and (I - CC*)^{1/2} from an eigh each."""
    d = C.shape[0]
    I = np.eye(d)
    Cs = np.conj(C).T
    DC, DCs = _psd_function(I - Cs @ C, _sqrt), _psd_function(I - C @ Cs, _sqrt)
    blocks = {(k, k - 1): I for k in range(1 - M, M + 1) if abs(k) >= 2}
    blocks.update({(1, 0): DC, (1, -1): -Cs, (-1, 0): C @ C, (-1, -1): C @ DCs,
                   (-1, -2): DCs, (0, 0): DC @ C, (0, -1): DC @ DCs, (0, -2): -Cs})
    U = np.zeros(((2 * M + 1) * d, (2 * M + 1) * d), dtype=complex)
    for (i, j), B in blocks.items():
        U[(i + M) * d:(i + M + 1) * d, (j + M) * d:(j + M + 1) * d] = B
    return U


E21 = np.array([[0, 0], [1, 0]], dtype=complex)
