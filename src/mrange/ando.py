"""Extremal numerical-radius machinery.

For a contraction-in-radius T (w(T) <= 1) there is a largest positive
contraction X with

    [[I - X, T*/2], [T/2, X]]  PSD,

and T factors as (I + Y)^{1/2} Z (I - Y)^{1/2} with Y = 2X - I and a
contraction Z that is isometric on range(I - Y). The operator
C = Z (I - X)^{1/2} then satisfies T = 2 (I - C*C)^{1/2} C and feeds the
explicit banded unitary in :mod:`mrange.dilation`.

X is the maximal solution of X + B* X^{-1} B = I with B = T/2, computed by
cyclic reduction (Meini, Math. Comp. 71, 2002): from X_0 = C_0 = I, B_0 = B,

    X_{k+1} = X_k - B_k* C_k^+ B_k,
    C_{k+1} = C_k - B_k C_k^+ B_k* - B_k* C_k^+ B_k,
    B_{k+1} = -B_k C_k^+ B_k.

The iterates decrease to X, quadratically when w(T) < 1 and linearly with
rate 1/2 when w(T) = 1 (Guo, SIAM J. Matrix Anal. Appl., 2001). The loop
stops on the fixed-point residual, never on step size: at w(T) = 1 the step
stalls at the rounding floor, where X can end slightly below the maximal
solution, while the residual stop leaves it just above. The result is
verified against the defining LMI and X <= I.
"""

from dataclasses import dataclass

import numpy as np

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


def _fixpoint_residual(T, X, tol):
    """op_norm(X - (I - (1/4) T* X^+ T)), the defect of the fixed-point equation."""
    I = np.eye(T.shape[0], dtype=complex)
    return op_norm(X - herm_part(I - 0.25 * dagger(T) @ pinv(X, tol) @ T))


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
    n = A.shape[0]
    I = np.eye(n, dtype=complex)

    # cyclic reduction for X + B* X^{-1} B = I with B = T/2
    X, C, B = I.copy(), I.copy(), A / 2.0
    for k in range(_MAX_STEPS):
        res = _fixpoint_residual(A, X, t)
        if res <= t.fixpoint_eps:
            break
        Cp = pinv(C, t)
        BCB = dagger(B) @ Cp @ B
        X = herm_part(X - BCB)
        C = herm_part(C - B @ Cp @ dagger(B) - BCB)
        B = -B @ Cp @ B
    else:
        msg = f"no fixed point after {_MAX_STEPS} steps (residual {res:.3e})"
        if w > 1.0:
            raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1: {msg}")
        raise NoConvergence(msg)

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
    Y_max    2X - I, the largest admissible selfadjoint contraction
    Y_min    smallest admissible one, -(2 ando_X(T*) - I)
    Z        contraction with T = (I+Y_max)^{1/2} Z (I-Y_max)^{1/2},
             supported on range(I-X) -> range(X)
    C        Z (I-X)^{1/2}, realizing T = 2 (I - C*C)^{1/2} C
    """

    X: np.ndarray
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
    n = A.shape[0]
    I = np.eye(n, dtype=complex)

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
    fixres = _fixpoint_residual(A, X, t)
    lmi_min = psd_check(np.block([[I - X, dagger(A) / 2.0], [A / 2.0, X]]), t)[1]
    ymin_gap = float(np.linalg.eigvalsh(Y_max - Y_min)[0])

    # Z is isometric on range(I - Y_max): check on an eigenbasis of that range
    eig = herm_eig(I - Y_max)
    top = float(np.abs(eig.eigenvalues).max()) if n else 0.0
    iso_defect = 0.0
    IY = I - Y_max
    for kk in range(n):
        if eig.eigenvalues[kk] > t.rank_rel * max(top, np.finfo(float).tiny):
            v = eig.eigenvectors[:, kk]
            lhs = float(np.linalg.norm(Z @ (IY @ v)))
            rhs = float(np.linalg.norm(IY @ v))
            iso_defect = max(iso_defect, abs(lhs - rhs))

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
    return AndoDecomposition(X=X, Y_max=Y_max, Y_min=Y_min, Z=Z, C=C,
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


def _radius_lmi(M, w, t):
    """radius_lmi for a square M whose numerical radius w is already known."""
    if w > 0.5 + t.psd_eps:
        return False, None
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


def _ucp_from_e21(M, w, t):
    """ucp_from_e21 for a square M whose numerical radius w is already known."""
    from .cpmaps import is_cp, map_on_units

    if w > 0.5 + 1e-9:
        raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1/2")
    ok, A = _radius_lmi(M, w, t)
    if not ok:
        raise RadiusTooLarge("radius LMI infeasible")
    I = np.eye(M.shape[0], dtype=complex)
    phi = map_on_units(2, M.shape[0], [[A, dagger(M)], [M, I - A]])
    cp_ok, min_eig = is_cp(phi, t)
    verify(cp_ok, f"witness map not CP (min eig {min_eig:.3e})")
    return phi
