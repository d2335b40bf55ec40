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


E21 = np.array([[0, 0], [1, 0]], dtype=complex)
