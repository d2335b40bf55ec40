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

each step through one Cholesky factor of C_k, or one eigendecomposition
where C_k is singular but PSD; an indefinite C_k (w(T) > 1) ends the run.
The iterates decrease to X, quadratically when w(T) < 1. The loop stops on
the fixed-point residual; the step size only decides when it is evaluated.

At w(T) = 1 the minimal solvent G of A1* + G + A1 G^2 = 0 (X = I + A1 G)
has unimodular eigenvalues, and the iteration converges only linearly with
rate 1/2 (Guo, SIAM J. Matrix Anal. Appl. 23, 2001), stopping about 4e-7
above the maximal solution. There it runs instead on Brauer's shifted
equation (He, Meini and Rhee, SIAM J. Matrix Anal. Appl. 23, 2001), whose
shift, built from the angles where w(T) is attained, moves those
eigenvalues to 0: quadratic, 4 to 10 steps, and at the maximal solution
itself. A shifted run that misses the stop falls back to the plain one.
The result is verified against the defining LMI and X <= I.

That LMI is also a certificate: LMI + (BAND/2) I PSD proves w(T) <= 1 + BAND.
So the entry points that print no radius try X first at a provisional radius
near w = 1, the first ascent of the radius solve (``numrange._RadiusSolve``),
and solve the level set only when that X fails (``numrange._radius_or_bound``).

X of T* (``_adjoint_X``) gives Y_min and, for 2T, the E21 witness of T: the
Choi matrix [[X, T*], [T, I - X]] of the unital CP map sending E21 to T.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .cpmaps import map_on_units
from .errors import LostDefiniteness, NoConvergence, RadiusTooLarge, RangeViolation, verify
from .linalg import (
    BAND,
    FIXPOINT_EPS,
    RANK_REL,
    _blocks,
    _defect_roots,
    _fro_norm,
    _norm_within,
    _pinv_sqrt,
    _rank_mask,
    _tol,
    dagger,
    herm_part,
    op_norm,
    psd_check,
    require_square,
)
from .numrange import _Radius, _radius_or_bound, num_radius

# at w(T) = 1 the residual falls like 4^-k and reaches FIXPOINT_EPS in about
# 20 steps; elsewhere convergence is quadratic
_MAX_STEPS = 100
# the shifted iteration is quadratic and took at most 10 steps, polish
# included, on every boundary input tried (n = 2 to 128); a run still going
# after 12 has a wrong shift, and the unshifted iteration takes over. A run
# on a provisional radius has the same budget, shifted or not: one that
# needs more is at w = 1 with a wrong shift, or plain within about 1e-6 of
# it, where the level set is solved instead
_SHIFT_STEPS = 12
# the shift is taken only at w = 1 to within rounding: at 1 - w = 1e-12 its
# unimodular z misses G's eigenvalue by enough to fail the stop
_SHIFT_BAND = 64.0 * np.finfo(float).eps
# W = V (V*V)^{-1} amplifies rounding by about cond(V*V) = cond(V)^2
_SHIFT_RCOND_MIN = 1e-8
# the stop is FIXPOINT_EPS s for s = max(1, |A0|_1), and a quadratic step
# leaves a residual of about update^2 / |A0|, which can pass only once the
# update is under sqrt(FIXPOINT_EPS s |A0|): the gate is this constant times
# sqrt(s), at or below that for |A0| >= 1. At w(T) = 1 (A0 = I), where the
# error halves per step, the update falls under it about two steps before the
# residual passes. A late gate would only add a step, never accept an X
_RESIDUAL_GATE = np.sqrt(FIXPOINT_EPS)


def _congruence_pinv(X, A1):
    """A1 X^+ A1* for Hermitian X, X^+ at the RANK_REL cutoff: by a Cholesky
    solve when LAPACK's pocon puts X far above the cutoff (its 1-norm estimate
    is within n of the 2-norm condition; 1e3 covers the estimate's own
    error), by one eigh of X otherwise."""
    L, info = lapack.zpotrf(X, lower=1)
    if info == 0:
        rcond, info = lapack.zpocon(L, np.abs(X).sum(axis=0).max(), uplo="L")
        if info == 0 and rcond > 1e3 * X.shape[0] * RANK_REL:
            W = lapack.ztrtrs(L, dagger(A1), lower=1)[0]
            return dagger(W) @ W
    w, U = np.linalg.eigh(X)
    keep = _rank_mask(w)
    AU = A1 @ U[:, keep]
    return (AU / w[keep]) @ dagger(AU)


def _fixpoint_defect(A0, A1, X):
    """X - (A0 - A1 X^+ A1*), zero at a solution of X + A1 X^{-1} A1* = A0."""
    return X - herm_part(A0 - _congruence_pinv(X, A1))


def _lu_solve(M, B):
    """M^{-1} B by one LU factor of M; NoConvergence when M is singular."""
    lu, piv, info = lapack.zgetrf(M)
    if info != 0:
        raise NoConvergence(f"singular cyclic-reduction step (getrf info={info})")
    return lapack.zgetrs(lu, piv, B)[0]


def _cyclic_reduction(A0, A1, polish=False, shift=None, steps=None):
    """Maximal Hermitian solution X of X + A1 X^{-1} A1* = A0, and the step count.

    X = A0 + A1 G for the minimal solvent G of A1* + A0 G + A1 G^2 = 0. Each
    step of cyclic reduction on A_{-1} + A_0 G + A_1 G^2 = 0 takes K = A_0^{-1},

        Ah     <- Ah - A_1 K A_{-1},
        A_0    <- A_0 - A_{-1} K A_1 - A_1 K A_{-1},
        A_{-1} <- -A_{-1} K A_{-1},   A_1 <- -A_1 K A_1,

    from Ah = A_0, and G = -Ah^{-1} A_{-1} (the initial A_{-1}) in the
    limit. Unshifted, A_{-1} = A_1* = A1* keeps every iterate Hermitian and
    Ah is X itself; a step takes one Cholesky factor of A_0 (one eigh when
    A_0 is singular but PSD), and an indefinite A_0 raises LostDefiniteness.

    ``shift`` = (S, P) = (V diag(z) W*, V W*), with G V = V diag(z) and
    W* V = I, runs it instead on Brauer's shifted equation for G - S:
    A_{-1} = A1* (I - P), A_0 = A0 + A1 S, A_1 = A1. G - S has eigenvalue 0
    on V where G has z, so unimodular z no longer slow it down. A step then
    takes one LU factor. Ah tends to A_0 + A_1 (G - S) = A0 + A1 G = X, and
    herm(Ah) is the X checked and returned. The shifted run must stop within
    its budget (by default _SHIFT_STEPS steps, polish included) with
    rho(G) <= 1 + 1e-8 for G = S - Ah^{-1} A_{-1} (the minimal solvent's
    bound), or it raises NoConvergence: a wrong shift never passes.

    Either way the loop stops once op_norm(X - (A0 - A1 X^+ A1*)) <=
    FIXPOINT_EPS s, s = max(1, |A0|_1): the rounding floor of X grows with
    |A0|. That residual costs a Cholesky factor and a solve, so it is
    evaluated only when the last step's update of X (of Ah, shifted) or the
    current A_{-1} has Frobenius norm at most sqrt(FIXPOINT_EPS s). With
    ``polish`` it takes one more step, which in the quadratic regime brings X
    to the rounding floor: a spectral factor read off X needs that accuracy.
    Raises NoConvergence after ``steps`` steps, by default _MAX_STEPS.
    """
    Am, C, Ap, X = dagger(A1), A0.copy(), A1, A0.copy()
    if steps is None:
        steps = _MAX_STEPS if shift is None else _SHIFT_STEPS
    if shift is not None:
        S, P = shift
        Am0 = Am = Am - Am @ P
        C = Ah = A0 + A1 @ S
        X = herm_part(Ah)
    # |A0|_1 bounds |A0| for Hermitian A0
    scale = max(1.0, np.abs(A0).sum(axis=0).max())
    gate = _RESIDUAL_GATE * np.sqrt(scale)
    update, n = np.inf, A0.shape[0]
    for k in range(steps):
        done = (update <= gate or _fro_norm(Am) <= gate) and \
            _norm_within(_fixpoint_defect(A0, A1, X), FIXPOINT_EPS * scale)
        if done and not polish:
            break
        if shift is None:
            BB = np.concatenate([Am, dagger(Am)], axis=1)   # B = A_{-1} and B*
            L, info = lapack.zpotrf(C, lower=1)
            if info == 0:   # C^{-1} = F* F for F = L^{-1}; FBB = [F B, F B*]
                FBB = lapack.ztrtrs(L, BB, lower=1)[0]
            else:   # C = U c U* singular (a summand at its fixed point): F = c^{-1/2} U*
                c, U = np.linalg.eigh(C)
                if c[0] < -RANK_REL * c[-1]:   # beyond the rank cutoff
                    raise LostDefiniteness(f"cyclic reduction lost definiteness at step {k}")
                FBB = (_pinv_sqrt(c)[:, None] * dagger(U)) @ BB
            W, V = FBB[:, :n], FBB[:, n:]
            BCB, BCBs, Am = dagger(W) @ W, dagger(V) @ V, -(dagger(V) @ W)
            update = _fro_norm(BCB)
            X = herm_part(X - BCB)
            C = herm_part(C - BCBs - BCB)
        else:
            try:
                K = _lu_solve(C, np.concatenate([Am, Ap], axis=1))
            except NoConvergence:
                if done:   # a singular polishing step: keep the X that met the stop
                    break
                raise
            KAm, KAp = K[:, :n], K[:, n:]
            ApKAm = Ap @ KAm
            update = _fro_norm(ApKAm)
            Ah = Ah - ApKAm
            X = herm_part(Ah)
            C = C - Am @ KAp - ApKAm
            Am, Ap = -Am @ KAm, -Ap @ KAp
        if done:
            k += 1
            break
    else:
        raise NoConvergence(f"no fixed point after {steps} steps "
                            f"(residual {op_norm(_fixpoint_defect(A0, A1, X)):.3e})")
    if shift is not None and \
            np.abs(np.linalg.eigvals(S - _lu_solve(Ah, Am0))).max() > 1.0 + 1e-8:
        raise NoConvergence("shifted solvent is not the minimal one")
    return X, k


def _boundary_shifts(A, w, maxima):
    """The shifts (S, P) of _cyclic_reduction at w(A) = 1 for X(A) and for
    X(A*), or None.

    At an angle theta where lambda_max(Re(e^{i theta} A)) = 1 with top
    eigenvector v, A1* + z I + z^2 A1 = -e^{-i theta} (I - Re(e^{i theta} A))
    for A1 = A*/2 and z = -e^{-i theta}, so v is an eigenvector of the
    minimal solvent G for its unimodular eigenvalue z. A* attains w at
    -theta, where Re(e^{-i theta} A*) is Re(e^{i theta} A) bit for bit: the
    same V and W, and z = -e^{i theta}. None unless |w - 1| <= _SHIFT_BAND
    and 1 <= len(maxima) <= n, or when the Gram matrix V*V is too
    ill-conditioned to give W* = (V*V)^{-1} V*.
    """
    n = A.shape[0]
    if abs(w - 1.0) > _SHIFT_BAND or not 1 <= len(maxima) <= n:
        return None
    V = np.linalg.eigh(herm_part(np.exp(1j * maxima)[:, None, None] * A))[1][:, :, -1].T
    gram = dagger(V) @ V
    L, info = lapack.zpotrf(gram, lower=1)
    if info == 0:
        rcond, info = lapack.zpocon(L, np.abs(gram).sum(axis=0).max(), uplo="L")
    if info != 0 or not rcond >= _SHIFT_RCOND_MIN:
        return None
    Ws = lapack.zpotrs(L, dagger(V), lower=1)[0]
    P = V @ Ws
    return ((V * -np.exp(-1j * maxima)) @ Ws, P), ((V * -np.exp(1j * maxima)) @ Ws, P)


def ando_X(T, tol=None):
    """Extremal positive contraction X for T with w(T) <= 1.

    Returns (X, iterations). Raises RadiusTooLarge when w(T) > 1 + BAND or
    the iteration does not settle at w(T) > 1, RangeViolation when X maps T
    outside its column space (the defining infimum would be -infinity), and
    NoConvergence when the iteration fails to settle or its limit fails the
    defining LMI.
    """
    A = require_square(T, "ando_X")
    return _extremal_X(A, num_radius(A), _tol(tol))[:2]


def _extremal_X(A, w, t, shift=None):
    """ando_X for a square A whose numerical radius w is already known, a
    _Radius with the ``maxima`` and ``provisional`` flag of
    ``numrange._RadiusSolve`` (no maxima: no shift is tried); also returns
    X's eigendecomposition (x, U) and the LMI's min eigenvalue. w is read
    only by the gate w > 1 + BAND, the shift (at |w - 1| <= _SHIFT_BAND) and
    RadiusTooLarge, raised by a failed run at w > 1 only. So a proven bound
    under 1 - BAND (``numrange._radius_or_bound``) may stand in for w, with
    no maxima, and gives the same X, count and errors.
    ``shift`` is X's (S, P) when the caller built it (``_boundary_shifts``);
    None builds it here.

    At w = 1 the shifted cyclic reduction runs first; when it fails (a
    wrong shift) the unshifted one does, and the iteration count adds the
    rejected run's whole budget of _SHIFT_STEPS.

    A provisional w takes no fallback: the one run, shifted or plain, has
    _SHIFT_STEPS steps, and X is accepted only when the LMI's min eigenvalue
    is at least -BAND/2, whatever psd_eps. Then LMI + (BAND/2) I is PSD,
    which is the LMI of A / (1 + BAND) for (X + (BAND/2) I) / (1 + BAND): so
    w(A) <= 1 + BAND.
    Every failure raises MrangeError, on which the caller solves for w."""
    if w > 1.0 + BAND:
        raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1")
    I = np.eye(A.shape[0], dtype=complex)
    A1 = dagger(A) / 2.0
    X, k = None, 0
    if shift is None:
        shift = (_boundary_shifts(A, w, w.maxima) or (None,))[0]
    if shift is not None:
        try:
            # a wrong shift can also overflow: that falls back as well
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                X, k = _cyclic_reduction(I, A1, polish=True, shift=shift)
        except (NoConvergence, FloatingPointError, np.linalg.LinAlgError) as exc:
            if w.provisional:
                raise NoConvergence(f"shifted cyclic reduction failed: {exc}")
            k = _SHIFT_STEPS
    if X is None:
        try:
            X, k_plain = _cyclic_reduction(I, A1, steps=_SHIFT_STEPS if w.provisional else None)
        except NoConvergence as exc:
            if w > 1.0:
                raise RadiusTooLarge(f"numerical radius {w:.12f} exceeds 1: {exc}")
            raise
        k += k_plain

    x, U = np.linalg.eigh(X)
    # I - X X^+ projects onto the eigenvectors pinv would drop
    kernel = U[:, ~_rank_mask(x)]
    if op_norm(dagger(kernel) @ A) > 1e-6:
        raise RangeViolation("X no longer covers the range of T")
    ok, min_eig = psd_check(_blocks([[I - X, A1], [A / 2.0, X]]), t)
    if not ok:
        raise NoConvergence(f"limit violates the defining LMI (min eig {min_eig:.3e})")
    if x[-1] > 1.0 + t.psd_eps and x[-1] > 1.0 + t.psd_eps * (1.0 + op_norm(A)):
        raise NoConvergence("limit exceeds the identity")
    if w.provisional and not min_eig >= -BAND / 2.0:
        raise NoConvergence(f"LMI min eig {min_eig:.3e} certifies no w <= 1 + BAND")
    return X, k, (x, U), min_eig


def _adjoint_X(A, w, t, shift=None):
    """(X, iterations) of ando_X(A*) for A of numerical radius w, which A* attains
    at the negated angles; ``shift`` as in _extremal_X. It gives Y_min's X(T*)
    and, at A = 2T, T's E21 witness."""
    return _extremal_X(dagger(A), _Radius(w, -w.maxima, w.provisional), t, shift)[:2]


def _e21_X(D, w, t):
    """(w, X) for the E21 witness X = ando_X(D*) of M = D/2, D of numerical
    radius w, or X = None when none exists; a provisional w raises instead."""
    try:
        return w, _adjoint_X(D, w, t)[0]
    except RadiusTooLarge:
        if w.provisional:
            raise
        return w, None


def _e21_witness(M, t):
    """_e21_X of 2M witness-first (``numrange._radius_or_bound``): for the
    entry points that print no radius."""
    D = 2.0 * M
    return _radius_or_bound(D, lambda w: _e21_X(D, w, t))


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
    X_eig    (x, U) with X = U diag(x) U*, the eigendecomposition X was checked on
    """

    X: np.ndarray
    Xstar: np.ndarray
    Y_max: np.ndarray
    Y_min: np.ndarray
    Z: np.ndarray
    C: np.ndarray
    iterations: int
    residuals: dict
    X_eig: tuple


def ando_decompose(T, tol=None):
    t = _tol(tol)
    A = require_square(T, "ando_decompose")
    return _radius_or_bound(A, lambda w: _ando_decompose(A, w, t))


def _of_X(U, fx):
    """f(X) = U diag(fx) U* for the eigenvalues fx = f(x) of X = U diag(x) U*."""
    return (U * fx) @ dagger(U)


def _ando_factor(A, x, U):
    """(Z, C, |Z|) from X = U diag(x) U*, which _extremal_X checked, 0 <= X <= I;
    verifies |Z| <= 1 + 1e-8. C = X^{+1/2} (A/2) on range(I - X) takes no division.
    Z's columns C u_j / sqrt(1 - x_j) are unit vectors in exact arithmetic, but the
    division amplifies the Riccati residual, so any above norm 1 is scaled to 1."""
    iroot = _pinv_sqrt(1.0 - x)
    CU = _of_X(U, _pinv_sqrt(x)) @ (A / 2.0) @ U * (iroot > 0.0)
    ZU = CU * iroot
    ZU /= np.maximum(1.0, np.linalg.norm(ZU, axis=0))
    z_norm = op_norm(ZU)
    verify(z_norm <= 1.0 + 1e-8, f"Z norm {z_norm:.12f}")
    return ZU @ dagger(U), CU @ dagger(U), z_norm


def _ando_decompose(A, w, t):
    """ando_decompose for a square A whose numerical radius w is already known.

    Every operator is a function of X from the one eigendecomposition that
    _extremal_X checked; Z and C (|Z| checked first) come from _ando_factor,
    which the two-dilation shares, as it needs X(T) alone. One stacked SVD
    gives |A| and the reconstruction, C-form and fixed-point residuals."""
    I = np.eye(A.shape[0], dtype=complex)
    # X(T*)'s shift differs from X(T)'s in its phases only: both built at once
    shift, adjoint_shift = _boundary_shifts(A, w, w.maxima) or (None, None)
    X, iters, (x, U), lmi_min = _extremal_X(A, w, t, shift)
    Xstar, iters2 = _adjoint_X(A, w, t, adjoint_shift)
    Y_max = 2.0 * X - I
    Y_min = -(2.0 * Xstar - I)
    Z, C, z_norm = _ando_factor(A, x, U)

    # I + Y_max = 2X, I - Y_max = 2(I - X)
    x0, ix0 = np.clip(x, 0.0, None), np.clip(1.0 - x, 0.0, None)
    defects = np.array([_of_X(U, np.sqrt(2.0 * x0)) @ Z @ _of_X(U, np.sqrt(2.0 * ix0)) - A,
                        2.0 * _defect_roots(C)[1] @ C - A,
                        _fixpoint_defect(I, dagger(A) / 2.0, X), A])
    rec_y, rec_c, fixres, a_norm = np.linalg.svd(defects, compute_uv=False).max(axis=-1).tolist()
    ymin_gap = float(np.linalg.eigvalsh(Y_max - Y_min)[0])

    # Z is isometric on range(I - Y_max): | |Z v| - |v| | on its eigenvectors
    # v = 2(1 - x_j) u_j
    on = _rank_mask(1.0 - x)
    iso_defect = float((2.0 * (1.0 - x[on]) * np.abs(np.linalg.norm(Z @ U[:, on], axis=0)
                                                     - 1.0)).max(initial=0.0))

    scale = 1.0 + a_norm
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
    verify(iso_defect <= 1e-7, f"Z isometry defect {iso_defect:.3e}")
    verify(ymin_gap >= -t.psd_eps * scale, f"Y_min above Y_max by {-ymin_gap:.3e}")
    return AndoDecomposition(X=X, Xstar=Xstar, Y_max=Y_max, Y_min=Y_min, Z=Z, C=C,
                             iterations=iters + iters2, residuals=residuals, X_eig=(x, U))


def radius_lmi(T, tol=None):
    """Radius-at-most-one-half test via the block LMI.

    (True, A) with 0 <= A <= I and [[A, T*], [T, I-A]] PSD within psd_eps
    when A = ando_X((2T)*), the extremal operator of the adjoint problem at
    doubled scale, exists, which needs w(T) <= (1 + BAND)/2 whatever
    psd_eps. Otherwise (False, None).
    """
    A = _e21_witness(require_square(T, "radius_lmi"), _tol(tol))[1]
    return A is not None, A


def ucp_from_e21(T, tol=None):
    """Unital CP map on M_2 sending the lower matrix unit E_21 to T.

    Exists exactly when radius_lmi's witness does (RadiusTooLarge otherwise):
    its Choi matrix is that verified block [[A, T*], [T, I-A]].
    """
    M = require_square(T, "ucp_from_e21")
    w, X = _e21_witness(M, _tol(tol))
    if X is None:
        raise RadiusTooLarge(f"numerical radius {w / 2.0:.12f} exceeds 1/2")
    return _e21_map(M, X)


def _e21_map(M, X):
    """The unital map sending E_21 to M, for X = ando_X((2M)*): its Choi matrix is
    _extremal_X's checked LMI block for (2M)*, block rows and columns swapped."""
    return map_on_units(2, M.shape[0], [[X, dagger(M)], [M, np.eye(M.shape[0]) - X]])
