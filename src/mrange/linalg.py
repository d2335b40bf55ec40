"""Dense complex linear algebra foundation.

Matrices are plain ``numpy.ndarray`` with dtype ``complex128`` throughout the
library ("CMat"); they must be 2-D, finite, and are treated as immutable by
every operation (inputs are never written to, outputs are fresh arrays).

All positivity thresholds are *relative*: a Hermitian H counts as PSD when
``min_eig >= -psd_eps * (1 + op_norm(H))``, which keeps every test scale
invariant. Threshold verdicts (a radius or norm against 1, a margin against
0) round by the fixed ``BAND`` instead, whatever psd_eps.
"""

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadShape, BadTolerance, NonSquare, NotHermitian, NotPSD
from .rng import SplitMix64


# relative singular/eigen cutoff for pseudo-inverses and ranks
RANK_REL = 1e-10
# stop on the fixed-point residual (operator norm), relative to max(1, |A0|_1)
FIXPOINT_EPS = 1e-12
# rounding band of every threshold verdict: w, |X| <= 1 + BAND, margin >= -BAND
BAND = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """The relative PSD slack ``psd_eps``, the toolkit's one numeric setting.

    It loosens PSD checks only; threshold verdicts keep the fixed BAND.
    feas_eps, the joint residual the feasibility solver accepts, follows
    from it as max(psd_eps, 1e-7).
    """

    psd_eps: float = 1e-9

    def __post_init__(self):
        if not (self.psd_eps > 0 and np.isfinite(self.psd_eps)):
            raise BadTolerance(f"Tolerances.psd_eps must be finite and strictly positive, "
                               f"got {self.psd_eps!r}")

    @property
    def feas_eps(self):
        return max(self.psd_eps, 1e-7)


DEFAULT_TOL = Tolerances()


def default_tolerances():
    return DEFAULT_TOL


def _tol(tol):
    return DEFAULT_TOL if tol is None else tol


def as_cmat(M):
    """Coerce to a finite 2-D complex128 array."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise BadShape(f"expected a 2-D matrix, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise BadShape("matrix entries must be finite")
    return A


def _count(n):
    """n as an int; BadShape unless it is an integer (numpy integers are)."""
    try:
        return operator.index(n)
    except TypeError:
        raise BadShape(f"count must be an integer, got {n!r}") from None


def require_square(M, op=""):
    A = as_cmat(M)
    if A.shape[0] != A.shape[1]:
        raise NonSquare(f"{op or 'operation'} requires a square matrix, got {A.shape}")
    if A.size == 0:
        raise BadShape(f"{op or 'operation'} requires a nonempty matrix, got {A.shape}")
    return A


def dagger(M):
    """Conjugate transpose of an ndarray, of each matrix on a stack; a view if real."""
    return M.swapaxes(-1, -2).conj()


def herm_part(M):
    """(M + M*) / 2 of an ndarray, of each matrix on a stack."""
    return (M + dagger(M)) / 2.0


def _fro_norm(M):
    """np.linalg.norm(M) of a float or complex ndarray, bit for bit, without its dispatch."""
    x = M.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _blocks(rows):
    """np.block(rows) for a grid of 2-D arrays, without its dispatch."""
    return np.concatenate([np.concatenate(row, axis=-1) for row in rows], axis=-2)


def op_norm(M):
    """Largest singular value; 0 for an empty matrix."""
    A = as_cmat(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _norm_within(R, eps):
    """op_norm(R) <= eps. |R| <= |R|_F <= sqrt(n) |R| settles most cases by
    the Frobenius norm; the SVD norm is taken only between the two."""
    fro = float(_fro_norm(R))
    if fro <= eps or fro > np.sqrt(R.shape[0]) * eps:
        return fro <= eps
    return op_norm(R) <= eps


@dataclass(frozen=True)
class EigResult:
    """Hermitian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(H):
    """Eigendecomposition of a Hermitian-within-tolerance matrix.

    The input is symmetrized as (H + H*)/2 before solving; asymmetry beyond
    ``1e-8 * (1 + op_norm(H))`` raises NotHermitian.
    """
    A = require_square(H, "herm_eig")
    w, V = np.linalg.eigh(herm_part(A))
    _require_hermitian(A, w)
    return EigResult(eigenvalues=w, eigenvectors=V)


def _require_hermitian(A, w):
    """NotHermitian unless |A - A*| <= 1e-8 * (1 + |A|), for a square A whose
    Hermitian part has the eigenvalues w."""
    # |A - A*|_F bounds |A - A*| from above and max|w| = |(A + A*)/2| <= |A|,
    # so passing this cheap test implies passing the exact one
    if _fro_norm(A - dagger(A)) > 1e-8 * (1.0 + np.abs(w).max(initial=0.0)):
        asym = op_norm(A - dagger(A))
        if asym > 1e-8 * (1.0 + op_norm(A)):
            raise NotHermitian(f"asymmetry {asym:.3e} exceeds 1e-8*(1+|H|)")


def _psd_verdict(w, eps):
    """(is_psd, min_eig) for eigenvalues w, with the slack -eps * (1 + max|w|)."""
    min_eig = float(w.min()) if w.size else 0.0
    return bool(min_eig >= -eps * (1.0 + float(np.abs(w).max(initial=0.0)))), min_eig


def _psd_factor(H, eps, error, what):
    """F = diag(sqrt w) U* over the eigenvalues w of H above the rank cutoff,
    so F*F = H, from one herm_eig: error(what.format(min_eig)) unless H is
    PSD within -eps * (1 + max|w|)."""
    eig = herm_eig(H)
    ok, min_eig = _psd_verdict(eig.eigenvalues, eps)
    if not ok:
        raise error(what.format(min_eig))
    keep = _rank_mask(eig.eigenvalues)
    return np.sqrt(eig.eigenvalues[keep])[:, None] * dagger(eig.eigenvectors[:, keep])


def _defect_roots(C, svd=None):
    """(I - CC*)^{1/2} and (I - C*C)^{1/2} from one SVD C = W diag(s) Vh
    (``svd``, when the caller has taken it): both have the eigenvalues
    1 - s^2, clipped at 0: each caller has already bounded |C| by 1 + rounding."""
    W, s, Vh = np.linalg.svd(C) if svd is None else svd
    r = np.sqrt(np.clip((1.0 - s) * (1.0 + s), 0.0, None))
    return (W * r) @ dagger(W), (dagger(Vh) * r) @ Vh


def psd_check(H, tol=None):
    """(is_psd, min_eig) with the relative threshold -psd_eps*(1+|H|), from
    the eigenvalues alone: herm_eig's NotHermitian test, without eigenvectors."""
    A = require_square(H, "psd_check")
    w = np.linalg.eigvalsh(herm_part(A))
    _require_hermitian(A, w)
    return _psd_verdict(w, _tol(tol).psd_eps)


def psd_part(H):
    """Nearest PSD matrix in the Frobenius norm: the Hermitian part with its
    negative eigenvalues set to zero. On a stack, of each matrix."""
    w, V = np.linalg.eigh(herm_part(H))
    return (V * np.clip(w, 0.0, None)[..., None, :]) @ dagger(V)


def pinv(M):
    """Moore-Penrose pseudo-inverse with singular values below
    RANK_REL * sigma_max treated as zero."""
    A = as_cmat(M)
    if A.size == 0:
        return A.T.copy()
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    keep = _rank_mask(s)
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return dagger(Vh) @ (inv[:, None] * dagger(U))


def _rank_mask(w):
    """Which eigenvalues of a PSD operator, or singular values, w lie above
    the library's one rank cutoff RANK_REL * max(w, tiny), which is positive."""
    return w > RANK_REL * max(w.max(initial=0.0), np.finfo(float).tiny)


def _pinv_sqrt(w):
    """1 / sqrt(w) above the rank cutoff, else 0: the eigenvalues of
    the pseudo-inverse square root of a PSD operator with eigenvalues w."""
    keep = _rank_mask(w)
    return np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)


def sqrt_psd(H, tol=None):
    """PSD square root; eigenvalues within -psd_eps of zero are clipped to 0."""
    eig = herm_eig(H)
    ok, min_eig = _psd_verdict(eig.eigenvalues, _tol(tol).psd_eps)
    if not ok:
        raise NotPSD(f"min eigenvalue {min_eig:.3e} below PSD tolerance")
    V = eig.eigenvectors
    return (V * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))) @ dagger(V)


def kron(A, B):
    return np.kron(as_cmat(A), as_cmat(B))


def direct_sum(mats):
    mats = [as_cmat(M) for M in mats]
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    return scipy.linalg.block_diag(*mats)


def _check_unit_indices(n, k, j):
    """BadShape unless E_kj is a matrix unit of M_n, 1 <= k, j <= n."""
    if not (1 <= k <= n and 1 <= j <= n):
        raise BadShape(f"matrix unit indices ({k},{j}) out of range for n={n}")


def matrix_unit(n, k, j):
    """E_kj in M_n (1-based indices): maps the j-th basis vector to the k-th."""
    _check_unit_indices(n, k, j)
    E = np.zeros((n, n), dtype=complex)
    E[k - 1, j - 1] = 1.0
    return E


def shift(n):
    """Lower unilateral shift: sum of E_{k+1,k}, so shift(2) = E_21."""
    return np.eye(n, k=-1, dtype=complex)


def random_matrix(n, m, seed):
    """Seeded complex standard Gaussian matrix; an array of seeds gives a
    stack of them, each bit-identical to its own seed's."""
    return SplitMix64(seed).complex_matrix(n, m)


def random_isometry(n, m, seed):
    """n x m matrix with V*V = I_m, from QR of a seeded complex Gaussian; an
    array of seeds gives a stack of them from one batched QR."""
    if m > n:
        raise BadShape(f"isometry needs m <= n, got ({n},{m})")
    G = random_matrix(n, m, seed)
    Q, R = np.linalg.qr(G)
    # fix column phases so the result is independent of LAPACK sign choices
    d = np.diagonal(R, axis1=-2, axis2=-1)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return Q * np.conj(phase)[..., None, :]


def random_hermitian(n, seed):
    G = random_matrix(n, n, seed)
    return herm_part(G)
