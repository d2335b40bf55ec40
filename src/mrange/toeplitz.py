"""Scalar and block Toeplitz positivity, spectral factorization of strictly
positive trigonometric polynomials, and constructive moment representations
by atomic measures on the unit circle.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import (
    BadShape,
    MomentResidualTooLarge,
    NotPSD,
    NotStrictlyPositive,
    RootPairingFailed,
    SolverUndetermined,
    verify,
)
from .linalg import (
    _tol,
    as_cmat,
    dagger,
    herm_part,
    op_norm,
    psd_check,
    psd_part,
    shift,
)

_PRECHECK_GRID = 4096


@dataclass(frozen=True)
class TrigPoly:
    """Hermitian trigonometric polynomial a_0 + sum_{k>=1} (a_k l^k + conj(a_k) l^-k).

    Stored by the one-sided coefficients a_0..a_N with a_0 real.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise BadShape("TrigPoly needs a 1-D, nonempty coefficient array")
        if abs(c[0].imag) > 1e-12 * (1.0 + np.abs(c).max()):
            raise BadShape("a_0 must be real")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return self.coeffs.size - 1

    def eval_at_angle(self, theta):
        lam = np.exp(1j * np.asarray(theta))
        val = np.full_like(lam, self.coeffs[0].real, dtype=float)
        for k in range(1, self.coeffs.size):
            val = val + 2.0 * np.real(self.coeffs[k] * lam ** k)
        return val


def trig_poly_from_factor(q):
    """The polynomial |q(l)|^2 on the circle as a TrigPoly (q lowest-first)."""
    q = np.asarray(q, dtype=complex)
    full = np.convolve(q, np.conj(q[::-1]))
    mid = q.size - 1
    coeffs = full[mid:].copy()
    coeffs[0] = coeffs[0].real
    return TrigPoly(coeffs=coeffs)


def fejer_riesz(tau, tol=None):
    """Spectral factor p (lowest-first) with |p|^2 = tau on the circle.

    tau must be strictly positive on a 4096-point grid. The factor collects
    the roots of z^N tau(z) that lie strictly inside the unit disk; a root
    within 1e-6 of the circle aborts with RootPairingFailed since the
    pairing of roots across the circle is then numerically meaningless.
    """
    a = np.asarray(tau.coeffs, dtype=complex)
    # trim trailing coefficients so the top coefficient is genuinely nonzero
    cut = 1e-12 * max(np.abs(a).max(), np.finfo(float).tiny)
    N = a.size - 1
    while N > 0 and abs(a[N]) <= cut:
        N -= 1
    a = a[:N + 1]
    poly = TrigPoly(coeffs=a)

    grid = poly.eval_at_angle(2.0 * np.pi * np.arange(_PRECHECK_GRID) / _PRECHECK_GRID)
    if grid.min() <= 1e-8:
        raise NotStrictlyPositive(f"min over grid {grid.min():.3e} <= 1e-8")

    if N == 0:
        return np.array([np.sqrt(a[0].real)], dtype=complex)

    # g(z) = z^N tau(z): coefficients conj(a_N)..conj(a_1), a_0, a_1..a_N
    g = np.concatenate([np.conj(a[1:][::-1]), a])
    roots = np.roots(g[::-1])
    if np.any(np.abs(np.abs(roots) - 1.0) < 1e-6):
        raise RootPairingFailed("a root lies within 1e-6 of the unit circle")
    inside = roots[np.abs(roots) < 1.0]
    if inside.size != N:
        raise RootPairingFailed(
            f"expected {N} roots inside the disk, found {inside.size}")
    c = np.sqrt(abs(a[N] / np.prod(inside)))
    p = c * np.poly(inside)[::-1]

    lam = np.exp(2j * np.pi * np.arange(_PRECHECK_GRID) / _PRECHECK_GRID)
    fit = np.abs(np.polyval(p[::-1], lam)) ** 2
    err = np.abs(grid - fit).max()
    verify(err <= 1e-7 * (1.0 + grid.max()), f"factorization grid error {err:.3e}")
    return p


@dataclass(frozen=True)
class ToeplitzSpec:
    """Hermitian Toeplitz matrix by first-column coefficients a_0..a_{n-1}."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise BadShape("ToeplitzSpec needs a 1-D, nonempty coefficient array")
        if abs(c[0].imag) > 1e-12 * (1.0 + np.abs(c).max()):
            raise BadShape("a_0 must be real")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self):
        return self.coeffs.size


@dataclass(frozen=True)
class BlockToeplitzSpec:
    """Hermitian block Toeplitz matrix by blocks A_0..A_{n-1}, A_0 Hermitian."""

    blocks: tuple

    def __post_init__(self):
        mats = tuple(as_cmat(B) for B in self.blocks)
        if not mats:
            raise BadShape("need at least one block")
        d = mats[0].shape[0]
        for B in mats:
            if B.shape != (d, d):
                raise BadShape("all blocks must be square of one size")
        if op_norm(mats[0] - dagger(mats[0])) > 1e-12 * (1.0 + op_norm(mats[0])):
            raise BadShape("A_0 must be Hermitian")
        object.__setattr__(self, "blocks", mats)

    @property
    def n(self):
        return len(self.blocks)

    @property
    def block_dim(self):
        return self.blocks[0].shape[0]


def toeplitz_assemble(spec):
    """Dense matrix a_0 I + sum_k (a_k S^k + conj(a_k) S*^k), blockwise for
    BlockToeplitzSpec."""
    if isinstance(spec, ToeplitzSpec):
        n = spec.n
        a = spec.coeffs
        X = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                X[i, j] = a[i - j] if i >= j else np.conj(a[j - i])
        X[np.arange(n), np.arange(n)] = a[0].real
        return X
    n = spec.n
    d = spec.block_dim
    S = shift(n)
    X = np.kron(np.eye(n), herm_part(spec.blocks[0]))
    for k in range(1, n):
        Sk = np.linalg.matrix_power(S, k)
        X = X + np.kron(Sk, spec.blocks[k]) + np.kron(Sk.T, dagger(spec.blocks[k]))
    return X


def toeplitz_psd(spec, tol=None):
    return psd_check(toeplitz_assemble(spec), tol)


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms on the circle: angles plus nonnegative scalar weights, or PSD
    matrix weights in the block case."""

    nodes: np.ndarray
    weights: object  # 1-D array (scalar case) or tuple of PSD matrices

    @property
    def is_block(self):
        return not isinstance(self.weights, np.ndarray) or \
            np.asarray(self.weights).ndim != 1

    def moment(self, k):
        phases = np.exp(1j * k * np.asarray(self.nodes))
        if not self.is_block:
            return complex(np.sum(np.asarray(self.weights) * phases))
        out = 0
        for ph, G in zip(phases, self.weights):
            out = out + ph * np.asarray(G)
        return out


def measure_from_toeplitz(spec, grid_size=None, tol=None):
    """Nonnegative atoms on equispaced nodes reproducing the coefficients of
    a PSD Toeplitz spec as moments, by nonnegative least squares."""
    t = _tol(tol)
    ok, min_eig = toeplitz_psd(spec, t)
    if not ok:
        raise NotPSD(f"Toeplitz matrix min eigenvalue {min_eig:.3e}")
    n = spec.n
    G = grid_size or 8 * n
    th = 2.0 * np.pi * np.arange(G) / G
    Phi = np.exp(1j * np.outer(np.arange(n), th))
    A = np.vstack([Phi.real, Phi.imag])
    b = np.concatenate([spec.coeffs.real, spec.coeffs.imag])
    w, _ = nnls(A, b)
    keep = w > 1e-10
    nodes, weights = th[keep], w[keep]
    mom = np.array([np.sum(weights * np.exp(1j * k * nodes)) for k in range(n)])
    resid = np.abs(mom - spec.coeffs).max() if n else 0.0
    bound = 1e-6 * (1.0 + float(np.abs(spec.coeffs).max()))
    if resid > bound:
        raise MomentResidualTooLarge(
            f"moment residual {resid:.3e} exceeds {bound:.3e}; grid too coarse")
    return AtomicMeasure(nodes=nodes, weights=weights)


def toeplitz_from_measure(mu, n):
    """Coefficients a_k = sum_j w_j e^{i k theta_j} (blockwise for matrix
    weights); the resulting spec is PSD by construction."""
    if not mu.is_block:
        coeffs = np.array([mu.moment(k) for k in range(n)])
        coeffs[0] = coeffs[0].real
        return ToeplitzSpec(coeffs=coeffs)
    blocks = []
    for k in range(n):
        blocks.append(as_cmat(mu.moment(k)))
    blocks[0] = herm_part(blocks[0])
    return BlockToeplitzSpec(blocks=tuple(blocks))


def block_measure_from_toeplitz(spec, grid_size=None, tol=None, max_iter=20000):
    """PSD matrix weights G_j on equispaced nodes with
    sum_j e^{i k theta_j} G_j = A_k, via the PSD-affine feasibility solver
    over the product cone of the blocks."""
    from .cpmaps import Feasible, solve_feasibility

    t = _tol(tol)
    ok, min_eig = toeplitz_psd(spec, t)
    if not ok:
        raise NotPSD(f"block Toeplitz min eigenvalue {min_eig:.3e}")
    G = grid_size or 8 * spec.n
    th = 2.0 * np.pi * np.arange(G) / G
    K = np.exp(1j * np.outer(np.arange(spec.n), th))[:, :, None, None]
    outcome = solve_feasibility(K, spec.blocks, t, max_iter=max_iter, target=t.feas_eps)
    if not isinstance(outcome, Feasible):
        raise SolverUndetermined(
            f"moment feasibility residual {outcome.residual:.3e}")
    return AtomicMeasure(nodes=th, weights=tuple(psd_part(outcome.matrix)))
