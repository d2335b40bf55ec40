"""Scalar and block Toeplitz positivity, spectral factorization of strictly
positive trigonometric polynomials, and constructive moment representations
by atomic measures on the unit circle, read off a unitary extension.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ando import _cyclic_reduction
from .errors import (
    BadShape,
    LostDefiniteness,
    MomentResidualTooLarge,
    NotPSD,
    NotStrictlyPositive,
    ShapeMismatch,
    verify,
)
from .linalg import (
    _count,
    _pinv_sqrt,
    _psd_factor,
    _psd_verdict,
    _tol,
    as_cmat,
    dagger,
    herm_part,
    op_norm,
    psd_check,
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
    if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
        raise BadShape(f"{name} needs a 1-D, nonempty, finite coefficient array")
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


def _circle_sums(c):
    """sum_k c_k l^k at the _PRECHECK_GRID-th roots of unity l, by one FFT
    (coefficients beyond the grid fold onto k mod its size)."""
    folded = np.zeros(-(-c.size // _PRECHECK_GRID) * _PRECHECK_GRID, dtype=complex)
    folded[:c.size] = c
    return np.fft.ifft(folded.reshape(-1, _PRECHECK_GRID).sum(axis=0)) * _PRECHECK_GRID


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


def _spectral_factor(Q):
    """Coefficients P_0..P_N (m x m) of an outer P(l) = sum_k l^k P_k with
    P(l)* P(l) = Q(l) >= 0 on the circle, Q given by Q_0..Q_N (Q_{-k} = Q_k*).

    In blocks of N, [Q_{i-j}] is block tridiagonal with diagonal
    A0 = [Q_{i-j}] and superdiagonal A1 = [Q_{i-j-N}]. The maximal solution of
    X + A1 X^{-1} A1* = A0 is L*L for L = [P_{i-j}], so X's last block row is
    P_0* [P_{N-1}, ..., P_0], and P_0* P_N = Q_N. With P_0* P_0 = U w U*,
    P_k = w^{-1/2} U* (P_0* P_k), zero in the rows where w is under the
    RANK_REL cutoff, so Q singular on the whole circle factors too.
    """
    N, m = Q.shape[0] - 1, Q.shape[1]
    X, _ = _cyclic_reduction(_block_toeplitz(Q, N), _block_toeplitz(Q, N, N))
    w, U = np.linalg.eigh(X[-m:, -m:])
    root = _pinv_sqrt(w)[:, None] * dagger(U)
    last = X[-m:].reshape(m, N, m).transpose(1, 0, 2)[::-1]   # P_0* P_k, k < N
    return root @ np.concatenate([last, Q[N:]])


def fejer_riesz(tau):
    """Spectral factor p (lowest-first) with |p|^2 = tau on the circle.

    NotStrictlyPositive when a sample of tau on a 4096-point grid is at most
    1e-8, or when the factorization loses definiteness: every Toeplitz
    section [tau_{i-j}] of a nonnegative tau is PSD, and so is each Schur
    complement that cyclic reduction takes of them, so an indefinite one
    (beyond the RANK_REL cutoff) shows tau < 0 between the samples. The
    scalar case of _spectral_factor, on tau / a_0, gives the outer factor,
    with its roots outside the unit disk; p is its conjugate reversal
    l^N conj(p(1/conj(l))), which collects the roots inside the disk and has
    a real positive leading coefficient. It is verified by the exact
    coefficient identity conv(p, conj(p[::-1])) = tau, to a bound that
    implies |tau - |p|^2| <= 1e-7 (1 + max tau) on the grid.
    """
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

    try:
        outer = _spectral_factor((a / a[0].real)[:, None, None])[:, 0, 0]
    except LostDefiniteness as exc:
        raise NotStrictlyPositive(f"tau is not positive between the grid samples: {exc}") from exc
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
    """Atoms on the circle: r finite angles (else BadShape) and r weights (r,) or (r, d, d)
    (else ShapeMismatch), finite, Hermitian and PSD within the default psd_eps (else NotPSD)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes, weights = np.asarray(self.nodes), np.asarray(self.weights)
        if nodes.ndim != 1 or not np.isfinite(nodes).all():
            raise BadShape(f"nodes must be a 1-D array of finite angles, got shape {nodes.shape}")
        r = len(nodes)
        if weights.shape[:1] != (r,) or weights.shape[1:] not in ((), weights.shape[-1:] * 2):
            raise ShapeMismatch(f"weights of shape {weights.shape} do not fit {r} nodes")
        G = weights.reshape(r, *(weights.shape[1:] or (1, 1)))
        if not (np.isfinite(G).all() and np.abs(G - dagger(G)).max(initial=0.0)
                <= 1e-12 * (1.0 + np.abs(G).max(initial=0.0))
                and _psd_verdict(np.linalg.eigvalsh(G), _tol(None).psd_eps)[0]):
            raise NotPSD("weights must be finite nonnegative numbers or PSD matrices")
        object.__setattr__(self, "weights", weights)

    @property
    def is_block(self):
        return self.weights.ndim != 1

    def moment(self, k):
        phases = np.exp(1j * k * np.asarray(self.nodes))
        if not self.is_block:
            return complex(np.sum(self.weights * phases))
        return np.tensordot(phases, self.weights, axes=1)


def _unitary_measure(T, d, t):
    """Nodes theta_j and rank-one PSD weights G_j (an (r, d, d) stack,
    r <= rank T) with sum_j e^{i k theta_j} G_j = A_k for k < n, for the
    Hermitian block Toeplitz T = [A_{i-j}] of n blocks of size d: Gauss-Szego
    quadrature (Jones, Njastad & Thron, 1989; Gragg, 1993).

    T = F*F for F = diag(sqrt w) U* over T's eigenvalues above
    RANK_REL * w_max (linalg._psd_factor), so F_i* F_j = A_{i-j} for its
    column blocks, and F_a = [F_0..F_{n-2}], F_b = [F_1..F_{n-1}] share a
    Gram matrix. The
    polar factor W of F_b F_a* is then unitary with W F_a = F_b, also for a
    rank-deficient F_a, and A_k = F_0* W^{-k} F_0. The complex Schur form
    W = Z diag(l) Z* keeps Z unitary for clustered l: theta_j = -angle(l_j)
    and G_j = g_j* g_j for the rows g_j of Z* F_0. NotPSD as toeplitz_psd;
    MomentResidualTooLarge beyond 1e-6 (1 + max|A_k|) in a moment entry.
    """
    n = T.shape[0] // d
    F = _psd_factor(T, t.psd_eps, NotPSD, "Toeplitz matrix min eigenvalue {:.3e}")
    # at n = 1 F_a is empty and any unitary, such as this one, extends it
    X, _, Yh = np.linalg.svd(F[:, d:] @ dagger(F[:, :-d]))
    L, Z = scipy.linalg.schur(X @ Yh, output="complex")
    g = dagger(Z) @ F[:, :d]
    nodes = -np.angle(np.diagonal(L))
    weights = np.conj(g)[:, :, None] * g[:, None, :]
    moments = np.exp(1j * np.outer(np.arange(n), nodes)) @ weights.reshape(-1, d * d)
    A = T[:, :d].reshape(n, d * d)   # the first block column: A_0..A_{n-1}
    resid = float(np.abs(moments - A).max())
    bound = 1e-6 * (1.0 + float(np.abs(A).max()))
    if not resid <= bound:
        raise MomentResidualTooLarge(f"moment residual {resid:.3e} exceeds {bound:.3e}")
    return nodes, weights


def measure_from_toeplitz(spec, tol=None):
    """At most rank T nonnegative atoms with the coefficients of a PSD
    Toeplitz spec as moments: the scalar case of _unitary_measure."""
    nodes, weights = _unitary_measure(toeplitz_assemble(spec), 1, _tol(tol))
    return AtomicMeasure(nodes=nodes, weights=weights[:, 0, 0].real)


def toeplitz_from_measure(mu, n):
    """Coefficients a_k = sum_j w_j e^{i k theta_j} (blockwise for matrix
    weights); the resulting spec is PSD by construction."""
    if _count(n) < 1:
        raise BadShape(f"coefficient count n >= 1 required, got {n}")
    moments = [mu.moment(k) for k in range(n)]
    if not mu.is_block:
        return ToeplitzSpec(coeffs=np.array([moments[0].real] + moments[1:]))
    return BlockToeplitzSpec(blocks=(herm_part(as_cmat(moments[0])), *moments[1:]))


def block_measure_from_toeplitz(spec, tol=None):
    """An (r, d, d) stack of r <= rank T rank-one PSD weights with
    sum_j e^{i k theta_j} G_j = A_k (_unitary_measure)."""
    return AtomicMeasure(*_unitary_measure(toeplitz_assemble(spec), spec.block_dim, _tol(tol)))
