"""Dense complex linear algebra foundation.

Matrices are plain ``numpy.ndarray`` with dtype ``complex128`` throughout the
library ("CMat"); they must be 2-D, finite, and are treated as immutable by
every operation (inputs are never written to, outputs are fresh arrays).

All positivity thresholds are *relative*: a Hermitian H counts as PSD when
``min_eig >= -psd_eps * (1 + op_norm(H))``, which keeps every test scale
invariant.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadShape, BadTolerance, NonSquare, NotHermitian, NotPSD
from .rng import SplitMix64


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across the toolkit.

    psd_eps      relative PSD slack
    rank_rel     relative singular/eigen cutoff for pseudo-inverses and ranks
    fixpoint_eps stop on the fixed-point residual (operator norm)
    feas_eps     joint residual accepted by the feasibility solver
    grid_angles  kept for compatibility; no routine reads it (the radius and
                 the nilpotent condition use level sets)
    """

    psd_eps: float = 1e-9
    rank_rel: float = 1e-10
    fixpoint_eps: float = 1e-12
    feas_eps: float = 1e-7
    grid_angles: int = 720

    def __post_init__(self):
        for name in ("psd_eps", "rank_rel", "fixpoint_eps", "feas_eps", "grid_angles"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise BadTolerance(f"Tolerances.{name} must be finite and strictly positive, "
                                   f"got {value!r}")


DEFAULT_TOL = Tolerances()


def default_tolerances():
    return DEFAULT_TOL


def set_default_tolerances(tol):
    """Replace the process-wide default. Intended to be called once at startup."""
    global DEFAULT_TOL
    if not isinstance(tol, Tolerances):
        raise TypeError("expected a Tolerances instance")
    DEFAULT_TOL = tol


def _tol(tol):
    return DEFAULT_TOL if tol is None else tol


def as_cmat(M):
    """Coerce to a finite 2-D complex128 array."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise BadShape(f"expected a 2-D matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise BadShape("matrix entries must be finite")
    return A


def require_square(M, op=""):
    A = as_cmat(M)
    if A.shape[0] != A.shape[1]:
        raise NonSquare(f"{op or 'operation'} requires a square matrix, got {A.shape}")
    return A


def dagger(M):
    """Conjugate transpose; on a stack, of each matrix."""
    return np.conj(np.swapaxes(M, -1, -2))


def herm_part(M):
    """(M + M*) / 2."""
    return (M + dagger(M)) / 2.0


def op_norm(M):
    """Largest singular value; 0 for an empty matrix."""
    A = as_cmat(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


@dataclass(frozen=True)
class EigResult:
    """Hermitian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(H, tol=None):
    """Eigendecomposition of a Hermitian-within-tolerance matrix.

    The input is symmetrized as (H + H*)/2 before solving; asymmetry beyond
    ``1e-8 * (1 + op_norm(H))`` raises NotHermitian.
    """
    A = require_square(H, "herm_eig")
    w, V = np.linalg.eigh(herm_part(A))
    # |H - H*|_F bounds |H - H*| from above and max|w| = |(H + H*)/2| <= |H|,
    # so passing this cheap test implies passing the exact one
    if np.linalg.norm(A - dagger(A)) > 1e-8 * (1.0 + np.abs(w).max(initial=0.0)):
        asym = op_norm(A - dagger(A))
        if asym > 1e-8 * (1.0 + op_norm(A)):
            raise NotHermitian(f"asymmetry {asym:.3e} exceeds 1e-8*(1+|H|)")
    return EigResult(eigenvalues=w, eigenvectors=V)


def _psd_verdict(w, t):
    """(is_psd, min_eig) for ascending eigenvalues w."""
    min_eig = float(w[0]) if w.size else 0.0
    scale = 1.0 + (float(np.abs(w).max()) if w.size else 0.0)
    return bool(min_eig >= -t.psd_eps * scale), min_eig


def psd_check(H, tol=None):
    """(is_psd, min_eig) with the relative threshold -psd_eps*(1+|H|)."""
    return _psd_verdict(herm_eig(H).eigenvalues, _tol(tol))


def psd_part(H):
    """Nearest PSD matrix in the Frobenius norm: the Hermitian part with its
    negative eigenvalues set to zero. On a stack, of each matrix."""
    w, V = np.linalg.eigh(herm_part(H))
    return (V * np.clip(w, 0.0, None)[..., None, :]) @ dagger(V)


def pinv(M, tol=None):
    """Moore-Penrose pseudo-inverse with singular values below
    rank_rel * sigma_max treated as zero."""
    t = _tol(tol)
    A = as_cmat(M)
    if A.size == 0:
        return A.T.copy()
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    cut = t.rank_rel * (s[0] if s.size else 0.0)
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return dagger(Vh) @ (inv[:, None] * dagger(U))


def sqrt_psd(H, tol=None):
    """PSD square root; eigenvalues within -psd_eps of zero are clipped to 0."""
    eig = herm_eig(H)
    ok, min_eig = _psd_verdict(eig.eigenvalues, _tol(tol))
    if not ok:
        raise NotPSD(f"min eigenvalue {min_eig:.3e} below PSD tolerance")
    w = np.clip(eig.eigenvalues, 0.0, None)
    V = eig.eigenvectors
    return (V * np.sqrt(w)) @ dagger(V)


def pinv_sqrt_psd(H, tol=None):
    """Pseudo-inverse of the PSD square root (eigenvalues below
    rank_rel * max treated as zero)."""
    t = _tol(tol)
    eig = herm_eig(H)
    w = eig.eigenvalues
    top = float(np.abs(w).max()) if w.size else 0.0
    keep = w > t.rank_rel * max(top, np.finfo(float).tiny)
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    V = eig.eigenvectors
    return (V * inv) @ dagger(V)


def range_projector(H, tol=None):
    """Orthogonal projector onto the numerical range (column space) of a
    Hermitian matrix, using the rank_rel eigenvalue cutoff."""
    t = _tol(tol)
    eig = herm_eig(H)
    w = eig.eigenvalues
    top = float(np.abs(w).max()) if w.size else 0.0
    keep = np.abs(w) > t.rank_rel * max(top, np.finfo(float).tiny)
    V = eig.eigenvectors[:, keep]
    return V @ dagger(V)


def kron(A, B):
    return np.kron(as_cmat(A), as_cmat(B))


def direct_sum(mats):
    mats = [as_cmat(M) for M in mats]
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    return scipy.linalg.block_diag(*mats)


def matrix_unit(n, k, j):
    """E_kj in M_n (1-based indices): maps the j-th basis vector to the k-th."""
    if not (1 <= k <= n and 1 <= j <= n):
        raise BadShape(f"matrix unit indices ({k},{j}) out of range for n={n}")
    E = np.zeros((n, n), dtype=complex)
    E[k - 1, j - 1] = 1.0
    return E


def shift(n):
    """Lower unilateral shift: sum of E_{k+1,k}, so shift(2) = E_21."""
    return np.eye(n, k=-1, dtype=complex)


def random_matrix(n, m, seed):
    """Seeded complex standard Gaussian matrix."""
    return SplitMix64(seed).complex_matrix(n, m)


def random_isometry(n, m, seed):
    """n x m matrix with V*V = I_m, from QR of a seeded complex Gaussian."""
    if m > n:
        raise BadShape(f"isometry needs m <= n, got ({n},{m})")
    G = random_matrix(n, m, seed)
    Q, R = np.linalg.qr(G)
    # fix column phases so the result is independent of LAPACK sign choices
    d = np.diagonal(R)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return Q * np.conj(phase)


def random_hermitian(n, seed):
    G = random_matrix(n, n, seed)
    return herm_part(G)
