"""Scalar and block Toeplitz positivity, spectral factorization of strictly
positive trigonometric polynomials, and constructive moment representations
by atomic measures on the unit circle.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .ando import _cyclic_reduction
from .errors import (
    BadShape,
    MomentResidualTooLarge,
    NotPSD,
    NotStrictlyPositive,
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
)

_PRECHECK_GRID = 4096


@dataclass(frozen=True)
class TrigPoly:
    """Hermitian trigonometric polynomial a_0 + sum_{k>=1} (a_k l^k + conj(a_k) l^-k).

    Stored by the one-sided coefficients a_0..a_N with a_0 real.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        _store_coeffs(self, "TrigPoly")

    @property
    def degree(self):
        return self.coeffs.size - 1

    def eval_at_angle(self, theta):
        powers = np.exp(1j * np.multiply.outer(np.asarray(theta), np.arange(1, self.coeffs.size)))
        return self.coeffs[0].real + 2.0 * np.real(powers @ self.coeffs[1:])


def _store_coeffs(spec, name):
    """Validate spec.coeffs as one-sided coefficients a_0..a_N with a_0 real,
    and store them as a complex array."""
    c = np.asarray(spec.coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise BadShape(f"{name} needs a 1-D, nonempty coefficient array")
    if abs(c[0].imag) > 1e-12 * (1.0 + np.abs(c).max()):
        raise BadShape("a_0 must be real")
    object.__setattr__(spec, "coeffs", c)


def trig_poly_from_factor(q):
    """The polynomial |q(l)|^2 on the circle as a TrigPoly (q lowest-first)."""
    q = np.asarray(q, dtype=complex)
    full = np.convolve(q, np.conj(q[::-1]))
    mid = q.size - 1
    coeffs = full[mid:].copy()
    coeffs[0] = coeffs[0].real
    return TrigPoly(coeffs=coeffs)


def _circle_sums(c, size=_PRECHECK_GRID):
    """sum_k c_k l^k at the size-th roots of unity l = e^{2 pi i j / size},
    j = 0..size-1, by one FFT (coefficients beyond size fold onto k mod size)."""
    folded = np.zeros(-(-c.size // size) * size, dtype=complex)
    folded[:c.size] = c
    return np.fft.ifft(folded.reshape(-1, size).sum(axis=0)) * size


def _trig_grid(a):
    """a_0 + 2 Re sum_{k>=1} a_k l^k, the Hermitian polynomial of a, on the
    _PRECHECK_GRID roots of unity."""
    return 2.0 * _circle_sums(a).real - a[0].real


def _block_toeplitz(Q, n, offset=0):
    """The n x n block matrix [Q_{i-j-offset}] for a stack Q_0..Q_K of equal
    square blocks, with Q_{-k} = Q_k* and Q_k = 0 for |k| > K."""
    K, m = Q.shape[0] - 1, Q.shape[1]
    # Q_{-K} .. Q_K, then one zero block
    full = np.concatenate([dagger(Q[:0:-1]), Q, np.zeros((1, m, m), dtype=complex)])
    k = np.subtract.outer(np.arange(n), np.arange(n)) - offset
    idx = np.where(np.abs(k) <= K, k + K, 2 * K + 1)
    return full[idx].transpose(0, 2, 1, 3).reshape(n * m, n * m)


def _spectral_factor(Q, t):
    """Coefficients P_0..P_N (m x m) of an outer P(l) = sum_k l^k P_k with
    P(l)* P(l) = Q(l) >= 0 on the circle, Q given by Q_0..Q_N (Q_{-k} = Q_k*).

    In blocks of N, [Q_{i-j}] is block tridiagonal with diagonal
    A0 = [Q_{i-j}] and superdiagonal A1 = [Q_{i-j-N}]. The maximal solution of
    X + A1 X^{-1} A1* = A0 is L*L for L = [P_{i-j}], so X's last block row is
    P_0* [P_{N-1}, ..., P_0], and P_0* P_N = Q_N. With P_0* P_0 = U w U*,
    P_k = w^{-1/2} U* (P_0* P_k), zero in the rows where w is under the
    rank_rel cutoff, so Q singular on the whole circle factors too.
    """
    N, m = Q.shape[0] - 1, Q.shape[1]
    X, _ = _cyclic_reduction(_block_toeplitz(Q, N), _block_toeplitz(Q, N, N), t, polish=True)
    w, U = np.linalg.eigh(X[-m:, -m:])
    keep = w > t.rank_rel * max(w[-1], np.finfo(float).tiny)
    root = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)[:, None] * dagger(U)
    last = X[-m:].reshape(m, N, m).transpose(1, 0, 2)[::-1]   # P_0* P_k, k < N
    return root @ np.concatenate([last, Q[N:]])


def fejer_riesz(tau, tol=None):
    """Spectral factor p (lowest-first) with |p|^2 = tau on the circle.

    tau must be strictly positive on a 4096-point grid. The scalar case of
    _spectral_factor, on tau / a_0, gives the outer factor, with its roots
    outside the unit disk; p is its conjugate reversal
    l^N conj(p(1/conj(l))), which collects the roots inside the disk and has
    a real positive leading coefficient. It is verified by the exact
    coefficient identity conv(p, conj(p[::-1])) = tau, to a bound that
    implies |tau - |p|^2| <= 1e-7 (1 + max tau) on the grid.
    """
    t = _tol(tol)
    a = np.asarray(tau.coeffs, dtype=complex)
    # trim trailing coefficients so the top coefficient is genuinely nonzero
    cut = 1e-12 * max(np.abs(a).max(), np.finfo(float).tiny)
    N = a.size - 1
    while N > 0 and abs(a[N]) <= cut:
        N -= 1
    a = a[:N + 1]

    grid = _trig_grid(a)
    if grid.min() <= 1e-8:
        raise NotStrictlyPositive(f"min over grid {grid.min():.3e} <= 1e-8")

    if N == 0:
        return np.array([np.sqrt(a[0].real)], dtype=complex)

    outer = _spectral_factor((a / a[0].real)[:, None, None], t)[:, 0, 0]
    p = np.sqrt(a[0].real) * np.conj(outer[::-1])
    # |tau - |p|^2| on the circle is at most |e_0| + 2 sum_{k>=1} |e_k|
    e = np.abs(np.convolve(p, np.conj(p[::-1]))[N:] - a)
    err = e[0] + 2.0 * e[1:].sum()
    verify(err <= 1e-7 * (1.0 + grid.max()), f"factorization coefficient error {err:.3e}")
    return p


@dataclass(frozen=True)
class ToeplitzSpec:
    """Hermitian Toeplitz matrix by first-column coefficients a_0..a_{n-1}."""

    coeffs: np.ndarray

    def __post_init__(self):
        _store_coeffs(self, "ToeplitzSpec")

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
        if any(B.shape != (d, d) for B in mats):
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
        Q = spec.coeffs[:, None, None].copy()
    else:
        Q = np.array(spec.blocks)
    Q[0] = herm_part(Q[0])
    return _block_toeplitz(Q, spec.n)


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
        return np.tensordot(phases, np.asarray(self.weights), axes=1)


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
    try:
        w, _ = nnls(A, b)
    except RuntimeError as exc:   # scipy's nnls stops on its iteration limit
        raise MomentResidualTooLarge(f"nonnegative least squares failed: {exc}")
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
    moments = [mu.moment(k) for k in range(n)]
    if not mu.is_block:
        return ToeplitzSpec(coeffs=np.array([moments[0].real] + moments[1:]))
    return BlockToeplitzSpec(blocks=(herm_part(as_cmat(moments[0])), *moments[1:]))


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
