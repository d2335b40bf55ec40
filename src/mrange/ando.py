"""Extremal numerical-radius machinery, and the cyclic-reduction solver that
also serves the spectral factorizations of :mod:`mrange.toeplitz`.

For a contraction-in-radius T (w(T) <= 1) there is a largest positive
contraction X with

    [[I - X, T*/2], [T/2, X]]  PSD,

and T factors as (I + Y)^{1/2} Z (I - Y)^{1/2} with Y = 2X - I and a
contraction Z that is isometric on range(I - Y). The operator
C = Z (I - X)^{1/2} then satisfies T = 2 (I - C*C)^{1/2} C and feeds the
explicit banded unitary in :mod:`mrange.dilation`.

X is the maximal solution of X + A1 X^{-1} A1* = A0 for A0 = I, A1 = T*/2
(the degree-1 case of matrix spectral factorization), computed by cyclic
reduction (Meini, Math. Comp. 71, 2002): from X_0 = C_0 = A0, B_0 = A1*,

    X_{k+1} = X_k - B_k* C_k^{-1} B_k,
    C_{k+1} = C_k - B_k C_k^{-1} B_k* - B_k* C_k^{-1} B_k,
    B_{k+1} = -B_k C_k^{-1} B_k,

each step through one Cholesky factor of C_k (a pseudo-inverse only when
C_k is not numerically definite). The iterates decrease to X, quadratically
when w(T) < 1 and linearly with rate 1/2 when w(T) = 1 (Guo, SIAM J. Matrix
Anal. Appl., 2001). The loop stops on the fixed-point residual, never on
step size: at w(T) = 1 the step stalls at the rounding floor, where X can
end slightly below the maximal solution, while the residual stop leaves it
just above. The result is verified against the defining LMI and X <= I.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergence, RadiusTooLarge, RangeViolation, verify
from .linalg import (
    _tol,
    dagger,
    herm_eig,
    herm_part,
    op_norm,
    pinv,
    pinv_sqrt_psd,
    psd_check,
    range_projector,
    require_square,
    sqrt_psd,
)
from .numrange import num_radius

# at w(T) = 1 the residual falls like 4^-k and reaches fixpoint_eps in about
# 20 steps; elsewhere convergence is quadratic
_MAX_STEPS = 100


def _congruence_pinv(X, A1, t):
    """A1 X^+ A1* for Hermitian X, X^+ at the rank_rel cutoff: by a Cholesky
    solve when LAPACK's pocon puts X far above the cutoff (its 1-norm estimate
    is within n of the 2-norm condition; 1e3 covers the estimate's own
    error), by one eigh of X otherwise."""
    L, info = lapack.zpotrf(X, lower=1)
    if info == 0:
        rcond, info = lapack.zpocon(L, np.abs(X).sum(axis=0).max(), uplo="L")
        if info == 0 and rcond > 1e3 * X.shape[0] * t.rank_rel:
            W = lapack.ztrtrs(L, dagger(A1), lower=1)[0]
            return dagger(W) @ W
    w, U = np.linalg.eigh(X)
    keep = np.abs(w) > t.rank_rel * np.abs(w).max(initial=0.0)
    AU = A1 @ U[:, keep]
    return (AU / w[keep]) @ dagger(AU)


def _fixpoint_defect(A0, A1, X, t):
    """X - (A0 - A1 X^+ A1*), zero at a solution of X + A1 X^{-1} A1* = A0."""
    return X - herm_part(A0 - _congruence_pinv(X, A1, t))


def _norm_within(R, eps):
    """op_norm(R) <= eps. |R| <= |R|_F <= sqrt(n) |R| settles most cases by
    the Frobenius norm; the SVD norm is taken only between the two."""
    fro = float(np.linalg.norm(R))
    if fro <= eps or fro > np.sqrt(R.shape[0]) * eps:
        return fro <= eps
    return op_norm(R) <= eps


def _cyclic_reduction(A0, A1, t, polish=False):
    """Maximal Hermitian solution X of X + A1 X^{-1} A1* = A0, and the step count.

    Stops once op_norm(X - (A0 - A1 X^+ A1*)) <= fixpoint_eps. With
    ``polish`` it takes one more step, which in the quadratic regime brings X
    to the rounding floor: a spectral factor read off X needs that accuracy.
    Raises NoConvergence after _MAX_STEPS steps.
    """
    X, C, B = A0.copy(), A0.copy(), dagger(A1)
    for k in range(_MAX_STEPS):
        R = _fixpoint_defect(A0, A1, X, t)
        done = _norm_within(R, t.fixpoint_eps)
        if done and not polish:
            return X, k
        L, info = lapack.zpotrf(C, lower=1)
        if info == 0:
            # C^{-1} = L^{-*} L^{-1}: each product pairs W = L^{-1} B, V = L^{-1} B*
            W, V = np.split(lapack.ztrtrs(L, np.hstack([B, dagger(B)]), lower=1)[0], 2, axis=1)
            BCB, BCBs, BCB2 = dagger(W) @ W, dagger(V) @ V, dagger(V) @ W
        else:
            Cp = pinv(C, t)
            BCB, BCBs, BCB2 = dagger(B) @ Cp @ B, B @ Cp @ dagger(B), B @ Cp @ B
        X = herm_part(X - BCB)
        if done:
            return X, k + 1
        C = herm_part(C - BCBs - BCB)
        B = -BCB2
    raise NoConvergence(
        f"no fixed point after {_MAX_STEPS} steps (residual {op_norm(R):.3e})")


def ando_X(T, tol=None):
    """Extremal positive contraction X for T with w(T) <= 1.

    Returns (X, iterations). Raises RadiusTooLarge when w(T) > 1 + 1e-9 or
    the iteration does not settle at w(T) > 1, RangeViolation when X maps T
    outside its column space (the defining infimum would be -infinity), and
    NoConvergence when the iteration fails to settle or its limit fails the
    defining LMI.
    """
    t = _tol(tol)
    A = require_square(T, "ando_X")
    return _extremal_X(A, num_radius(A, t), t)


def _extremal_X(A, w, t):
    """ando_X for a square A whose numerical radius w is already known."""
    if w > 1.0 + 1e-9:
        raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1")
    I = np.eye(A.shape[0], dtype=complex)
    try:
        X, k = _cyclic_reduction(I, dagger(A) / 2.0, t)
    except NoConvergence as exc:
        if w > 1.0:
            raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1: {exc}")
        raise

    if op_norm((I - X @ pinv(X, t)) @ A) > 1e-6:
        raise RangeViolation("X no longer covers the range of T")
    scale = 1.0 + op_norm(A)
    lmi = np.block([[I - X, dagger(A) / 2.0], [A / 2.0, X]])
    ok, min_eig = psd_check(lmi, t)
    if not ok:
        raise NoConvergence(f"limit violates the defining LMI (min eig {min_eig:.3e})")
    if float(np.linalg.eigvalsh(X)[-1]) > 1.0 + t.psd_eps * scale:
        raise NoConvergence("limit exceeds the identity")
    return X, k


@dataclass(frozen=True)
class AndoDecomposition:
    """Extremal factorization data for one input T.

    X        extremal positive contraction
    Xstar    the extremal positive contraction of T*
    Y_max    2X - I, the largest admissible selfadjoint contraction
    Y_min    smallest admissible one, -(2 ando_X(T*) - I)
    Z        contraction with T = (I+Y_max)^{1/2} Z (I-Y_max)^{1/2},
             supported on range(I-X) -> range(X)
    C        Z (I-X)^{1/2}, realizing T = 2 (I - C*C)^{1/2} C
    """

    X: np.ndarray
    Xstar: np.ndarray
    Y_max: np.ndarray
    Y_min: np.ndarray
    Z: np.ndarray
    C: np.ndarray
    iterations: int
    residuals: dict


def ando_decompose(T, tol=None):
    t = _tol(tol)
    A = require_square(T, "ando_decompose")
    return _ando_decompose(A, num_radius(A, t), t)


def _ando_decompose(A, w, t):
    """ando_decompose for a square A whose numerical radius w is already known."""
    I = np.eye(A.shape[0], dtype=complex)
    X, iters = _extremal_X(A, w, t)   # w(T*) = w(T)
    Xstar, iters2 = _extremal_X(dagger(A), w, t)
    Y_max = 2.0 * X - I
    Y_min = -(2.0 * Xstar - I)

    sq_x_inv = pinv_sqrt_psd(X, t)
    sq_ix_inv = pinv_sqrt_psd(I - X, t)
    Z = range_projector(X, t) @ (sq_x_inv @ (A / 2.0) @ sq_ix_inv) @ range_projector(I - X, t)
    C = Z @ sqrt_psd(I - X, t)

    rec_y = op_norm(sqrt_psd(I + Y_max, t) @ Z @ sqrt_psd(I - Y_max, t) - A)
    rec_c = op_norm(2.0 * sqrt_psd(I - dagger(C) @ C, t) @ C - A)
    fixres = op_norm(_fixpoint_defect(I, dagger(A) / 2.0, X, t))
    lmi_min = psd_check(np.block([[I - X, dagger(A) / 2.0], [A / 2.0, X]]), t)[1]
    ymin_gap = float(np.linalg.eigvalsh(Y_max - Y_min)[0])

    # Z is isometric on range(I - Y_max): check on an eigenbasis of that range
    IY = I - Y_max
    eig = herm_eig(IY)
    w = eig.eigenvalues
    IYv = IY @ eig.eigenvectors[:, w > t.rank_rel * max(np.abs(w).max(initial=0.0),
                                                        np.finfo(float).tiny)]
    iso_defect = float(np.abs(np.linalg.norm(Z @ IYv, axis=0)
                              - np.linalg.norm(IYv, axis=0)).max(initial=0.0))

    scale = 1.0 + op_norm(A)
    z_norm = op_norm(Z)
    residuals = {
        "reconstruction_ymax": rec_y,
        "reconstruction_c": rec_c,
        "fixed_point": fixres,
        "lmi_min_eig": lmi_min,
        "z_norm_excess": max(0.0, z_norm - 1.0),
        "z_isometry_defect": iso_defect,
        "ymin_below_ymax": ymin_gap,
    }
    verify(rec_y <= 1e-8 * scale, f"factorization residual {rec_y:.3e}")
    verify(rec_c <= 1e-8 * scale, f"C-form residual {rec_c:.3e}")
    verify(z_norm <= 1.0 + 1e-8, f"Z norm {z_norm:.12f}")
    verify(iso_defect <= 1e-7, f"Z isometry defect {iso_defect:.3e}")
    verify(ymin_gap >= -t.psd_eps * scale, f"Y_min above Y_max by {-ymin_gap:.3e}")
    return AndoDecomposition(X=X, Xstar=Xstar, Y_max=Y_max, Y_min=Y_min, Z=Z, C=C,
                             iterations=iters + iters2, residuals=residuals)


def radius_lmi(T, tol=None):
    """Radius-at-most-one-half test via the block LMI.

    When w(T) <= 1/2 returns (True, A) with 0 <= A <= I and
    [[A, T*], [T, I-A]] PSD; A is the extremal operator of the adjoint
    problem at doubled scale, A = ando_X((2T)*). Otherwise (False, None).
    """
    t = _tol(tol)
    M = require_square(T, "radius_lmi")
    return _radius_lmi(M, num_radius(M, t), t)


def _radius_lmi(M, w, t, A=None):
    """radius_lmi for a square M whose numerical radius w is already known;
    A, when given, is ando_X((2M)*) (an ando_decompose's Xstar of 2M)."""
    if w > 0.5 + t.psd_eps:
        return False, None
    if A is None:
        A, _ = _extremal_X(dagger(2.0 * M), 2.0 * w, t)
    block = np.block([[A, dagger(M)], [M, np.eye(M.shape[0]) - A]])
    ok, min_eig = psd_check(block, t)
    verify(ok, f"radius LMI block not PSD (min eig {min_eig:.3e})")
    return True, A


def ucp_from_e21(T, tol=None):
    """Unital CP map on M_2 sending the lower matrix unit E_21 to T.

    Requires w(T) <= 1/2 (+ tolerance); the Choi matrix of the returned map
    is exactly the verified block [[A, T*], [T, I-A]].
    """
    t = _tol(tol)
    M = require_square(T, "ucp_from_e21")
    return _ucp_from_e21(M, num_radius(M, t), t)


def _ucp_from_e21(M, w, t, A=None):
    """ucp_from_e21 for a square M whose numerical radius w is already known;
    A as for _radius_lmi."""
    from .cpmaps import is_cp, map_on_units

    if w > 0.5 + 1e-9:
        raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1/2")
    ok, A = _radius_lmi(M, w, t, A)
    if not ok:
        raise RadiusTooLarge("radius LMI infeasible")
    I = np.eye(M.shape[0], dtype=complex)
    phi = map_on_units(2, M.shape[0], [[A, dagger(M)], [M, I - A]])
    cp_ok, min_eig = is_cp(phi, t)
    verify(cp_ok, f"witness map not CP (min eig {min_eig:.3e})")
    return phi
