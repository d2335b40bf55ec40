"""Explicit dilation constructions.

* Halmos unitary of a contraction (2x2 block form).
* The banded unitary power-dilation of a radius-one operator on a
  truncated two-sided sequence space: U has band width <= 2 in the block
  index, its (0,0) block compressions reproduce T^n / 2 inside the window.
* The truncated bilateral shift compressed to a two-dimensional corner.
* Finite positive-definite-function tests (block Toeplitz Gram matrix).
* The order-n nilpotent condition I + 2 Re sum_{k<n} l^k T^k >= 0 on the
  unit circle, decided by the level-set method of :mod:`mrange.numrange`
  for the matrix polynomial -2 sum_k z^k T^k.
* Nilpotent power dilations from the spectral factor of that condition's
  polynomial (:mod:`mrange.toeplitz`), with multiplicity r = dim T.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import ando
from .errors import (
    BadShape,
    ConditionFails,
    NotContraction,
    VerificationFailed,
    WindowTooSmall,
    verify,
)
from .linalg import (
    BAND,
    RANK_REL,
    _blocks,
    _count,
    _defect_roots,
    _norm_within,
    _tol,
    as_cmat,
    dagger,
    kron,
    op_norm,
    psd_check,
    require_square,
    shift,
)
from .numrange import _RadiusSolve, _radius_or_bound
from .toeplitz import _block_toeplitz, _spectral_factor


def halmos_unitary(C):
    """Unitary [[C, (I-CC*)^{1/2}], [(I-C*C)^{1/2}, -C*]] of a contraction, |C| <= 1 + BAND."""
    A = require_square(C, "halmos_unitary")
    svd = np.linalg.svd(A)
    nrm = float(svd[1].max(initial=0.0))
    if nrm > 1.0 + BAND:
        raise NotContraction(f"operator norm {nrm:.12f} exceeds 1")
    top, bot = _defect_roots(A, svd)
    U0 = _blocks([[A, top], [bot, -dagger(A)]])
    defect = dagger(U0) @ U0 - np.eye(2 * A.shape[0])
    if not _norm_within(defect, 1e-8):
        raise VerificationFailed(f"Halmos block not unitary (defect {op_norm(defect):.3e})")
    return U0


@dataclass(frozen=True)
class WindowedOperator:
    """Block matrix over positions -M..M with band width <= 2.

    blocks maps (row_index, col_index) -> block; absent pairs are zero.
    residuals holds the checked ones: ``unitarity``, the core's |W*W - I|,
    and ``compression``, the largest |(U^n)_{00} - T^n / 2| (two_dilation).
    """

    block_dim: int
    window: int
    blocks: dict
    residuals: dict

    def dense(self):
        d, M = self.block_dim, self.window
        size = (2 * M + 1) * d
        U = np.zeros((size, size), dtype=complex)
        for (i, j), B in self.blocks.items():
            U[(i + M) * d:(i + M + 1) * d, (j + M) * d:(j + M + 1) * d] = B
        return U

    def center_blocks_of_powers(self, k):
        """Blocks (0, 0) of U, ..., U^k: block 0 of X_n = U^n E_0, X_{n+1} = U X_n."""
        if _count(k) < 0:
            raise BadShape(f"power index >= 0 required, got {k}")
        X, out = {0: np.eye(self.block_dim, dtype=complex)}, []
        for _ in range(k):
            Y = defaultdict(float)
            for (i, j), B in self.blocks.items():
                if j in X:
                    Y[i] += B @ X[j]
            X = Y
            out.append(X[0])
        return out

    def center_block_of_power(self, n):
        """Block (0, 0) of the n-th matrix power, n >= 0."""
        return [np.eye(self.block_dim, dtype=complex), *self.center_blocks_of_powers(n)][-1]


def two_dilation(T, M, tol=None):
    """Banded unitary U on the window -M..M with (U^n)_{0,0} = T^n / 2.

    Requires M >= 4 (checked first) and w(T) <= 1. U is built from Ando's
    C = Z (I - X)^{1/2}, which needs X(T) alone: its LMI and X <= I checks,
    then |Z| <= 1 + 1e-8 (``ando._ando_factor``). No radius is printed, so
    the level set runs only when neither the start values' bound nor X at
    the radius solve's provisional radius settles w (``numrange._radius_or_bound``;
    _extremal_X raises RadiusTooLarge when w > 1 + BAND). The
    compression identity is verified for 1 <= n <= M // 2 - 1, where the
    truncation provably cannot leak into the center block, on the block
    column U^n E_0, by one stacked SVD. Rows and columns at the two outer
    edges are incomplete, so unitarity holds away from them; it is checked
    on the 3d x 3d core W = U[block rows -1..1, block columns -2..0],
    exactly: every other block column is one identity block in a row
    holding no other block, so U*U - I vanishes, in floating point too,
    outside columns -2..0, and those meet rows -1..1 only.
    """
    A = require_square(T, "two_dilation")
    if _count(M) < 4:
        raise WindowTooSmall(f"window M >= 4 required, got {M}")
    t = _tol(tol)
    x, U = _radius_or_bound(A, lambda w: ando._extremal_X(A, w, t))[2]
    return _two_dilation(A, ando._ando_factor(A, x, U)[1], M)


def _two_dilation(A, C, M):
    """two_dilation for a square A, its C (|C| <= 1 + 1e-8) and a checked M >= 4."""
    d = A.shape[0]
    I = np.eye(d, dtype=complex)
    DCs, DC = _defect_roots(C)   # (I-CC*)^{1/2}, (I-C*C)^{1/2}

    blocks = {(k, k - 1): I.copy() for k in range(1 - M, M + 1) if abs(k) >= 2}
    blocks[(1, 0)] = DC
    blocks[(1, -1)] = -dagger(C)
    blocks[(-1, 0)] = C @ C
    blocks[(-1, -1)] = C @ DCs
    blocks[(-1, -2)] = DCs
    blocks[(0, 0)] = DC @ C
    blocks[(0, -1)] = DC @ DCs
    blocks[(0, -2)] = -dagger(C)
    unit_defect = _core_unitarity_defect(blocks, d)
    verify(unit_defect <= 1e-7, f"interior unitarity defect {unit_defect:.3e}")

    win = WindowedOperator(d, M, blocks, {"unitarity": unit_defect})
    halves = _powers(A, M // 2 - 1)[1:] / 2.0
    errs = np.linalg.svd(np.array(win.center_blocks_of_powers(len(halves))) - halves,
                         compute_uv=False).max(axis=-1).tolist()
    for n, err in enumerate(errs, 1):
        verify(err <= 1e-9, f"compression identity fails at power {n}: {err:.3e}")
    win.residuals["compression"] = max(errs)
    return win


def _core_unitarity_defect(blocks, d):
    """||W*W - I|| for the core W = U[block rows -1..1, block columns -2..0]."""
    W = _blocks([[blocks.get((i, j), np.zeros((d, d))) for j in (-2, -1, 0)]
                 for i in (-1, 0, 1)])
    return op_norm(dagger(W) @ W - np.eye(3 * d))


@dataclass(frozen=True)
class BilateralModelReport:
    """Compression of the truncated bilateral shift to span{e_0, e_1}.

    ``compression`` uses the natural basis order (e_0, e_1) and equals the
    lower matrix unit; ``compression_flipped`` uses (e_1, e_0), which is the
    transposed orientation. Both are recorded rather than normalized away.
    """

    compression: np.ndarray
    compression_flipped: np.ndarray
    square_compression: np.ndarray
    is_lower_unit: bool
    flipped_is_upper_unit: bool
    square_is_zero: bool


def bilateral_e21_model(M):
    """Compress the bilateral shift (truncated to -M..M) to a 2-dim corner."""
    if _count(M) < 3:
        raise BadShape(f"need M >= 3, got {M}")
    U = shift(2 * M + 1)
    corner = np.ix_([M, M + 1], [M, M + 1])  # the positions of e_0 and e_1
    comp, comp2 = U[corner], (U @ U)[corner]
    flip = comp[::-1, ::-1].copy()
    E_low = np.array([[0, 0], [1, 0]], dtype=complex)
    return BilateralModelReport(
        compression=comp,
        compression_flipped=flip,
        square_compression=comp2,
        is_lower_unit=bool(np.array_equal(comp, E_low)),
        flipped_is_upper_unit=bool(np.array_equal(flip, E_low.T)),
        square_is_zero=bool(np.array_equal(comp2, np.zeros((2, 2)))),
    )


def pd_function_check(blocks, tol=None):
    """PSD test of the block Toeplitz Gram matrix [T(s - t)]_{t,s}.

    ``blocks`` lists T(0), T(1), ..., T(N) with T(0) = I exactly; negative
    indices enter as adjoints. Returns (is_psd, min_eig).
    """
    mats = [as_cmat(B) for B in blocks]
    if not mats:
        raise BadShape("need at least the k = 0 block")
    d = mats[0].shape[0]
    if any(B.shape != (d, d) for B in mats):
        raise BadShape("all blocks must share one square dimension")
    if not np.array_equal(mats[0], np.eye(d)):
        raise BadShape("the k = 0 block must be the identity")
    # block (t, s) is T(s - t), the adjoint orientation of _block_toeplitz
    return psd_check(_block_toeplitz(dagger(np.array(mats)), len(mats)), tol)


def _powers(A, n):
    """The stack I, A, A^2, ..., A^n, each power the one before it times A."""
    P = np.empty((n + 1, *A.shape), dtype=complex)
    P[0] = np.eye(A.shape[0])
    for k in range(n):
        P[k + 1] = P[k] @ A
    return P


def halved_power_blocks(T, N):
    """Blocks {I, T/2, T^2/2, ..., T^N/2} for the positive-definiteness bridge."""
    if _count(N) < 0:
        raise BadShape(f"power count N >= 0 required, got {N}")
    P = _powers(require_square(T, "halved_power_blocks"), N)
    return [P[0], *(P[1:] / 2.0)]


def nilpotent_condition(T, n):
    """min over the circle of lambda_min(I + 2 Re sum_{k=1}^{n-1} l^k T^k).

    The condition of order n holds iff the returned margin is >= -BAND,
    whatever psd_eps. The margin is 1 - max lambda_max(Re p(l)) for
    p(z) = -2 sum_k z^k T^k, computed by the level-set method of
    :mod:`mrange.numrange`, which needs no tolerance.
    """
    A = require_square(T, "nilpotent_condition")
    if _count(n) < 2:
        raise BadShape(f"order n >= 2 required, got {n}")
    return 1.0 - _RadiusSolve(-2.0 * _powers(A, n - 1)[1:]).maximum[0]


@dataclass(frozen=True)
class NilpotentDilation:
    """N = S_n (x) I_r with V*V = I and V* N^j V = T^j for j = 0..n-1.

    residuals holds the checked ones: ``isometry``, |V*V - I|, and
    ``compression``, the largest |V* N^j V - T^j| over j = 0..n-1.
    """

    order: int
    N: np.ndarray
    V: np.ndarray
    r: int
    residuals: dict


def nilpotent_dilation(T, n):
    """Power dilation of T to a direct sum of order-n shift blocks, r = dim T.

    The order-n condition says Q(l) = I + 2 Re sum_{k=1}^{n-1} l^k T^k >= 0
    on the circle. Its spectral factor Q = P*P, P(l) = sum_{k<n} l^k P_k
    (:func:`mrange.toeplitz._spectral_factor`), stacked in reverse,
    V = [P_{n-1}; ...; P_0], gives V*V = sum_k P_k* P_k = I and
    V* (S_n (x) I)^j V = sum_k P_k* P_{k+j} = T^j. All invariants are
    verified before returning.

    The margin is at least 1 - 2 sum_{0<k<n} |T|^k. From 10 RANK_REL on that
    bound stands in for it, as both leave the factorization unlifted; it is
    at most 0 from |T| = 1/2 on, where the norm is clipped to stay finite.
    """
    A = require_square(T, "nilpotent_dilation")
    bound = 1.0 - 2.0 * sum(min(op_norm(A), 0.5) ** k for k in range(1, _count(n)))
    return _nilpotent_dilation(A, n, bound if n > 1 and bound >= 10.0 * RANK_REL
                               else nilpotent_condition(A, n))


def _nilpotent_dilation(A, n, cond):
    """nilpotent_dilation for a square A whose order-n margin cond is known."""
    d = A.shape[0]
    if cond < -BAND:
        raise ConditionFails(
            f"order-{n} condition margin {cond:.3e} is negative")

    # below a margin of 10 RANK_REL, factor Q + (10 RANK_REL - margin) I instead:
    # its X >= 10 RANK_REL I stays clear of the pseudo-inverse cutoff, so the
    # residual stop can be met. V, scaled back to an isometry, then moves the
    # compressions by at most that lift (|T^j| <= 1 under the condition)
    lift = 1.0 + max(0.0, 10.0 * RANK_REL - cond)
    Q = _powers(A, n - 1)
    Q[0] *= lift
    V = _spectral_factor(Q)[::-1].reshape(n * d, d) / np.sqrt(lift)
    return _verified_dilation(A, V, n)


def _verified_dilation(A, V, n):
    """NilpotentDilation of A by V once V*V = I within 1e-10 and V* N^j V = A^j within 1e-7."""
    d = A.shape[0]
    powers = _powers(A, n - 1)
    N = kron(shift(n), np.eye(d, dtype=complex))

    verify(op_norm(np.linalg.matrix_power(N, n)) == 0.0, "N^n must vanish exactly")
    # N^j moves block k of V to block k + j: V* N^j V = V[jd:]* V[:(n-j)d]
    errs = [op_norm(dagger(V[j * d:]) @ V[:(n - j) * d] - powers[j]) for j in range(n)]
    verify(errs[0] <= 1e-10, f"isometry defect {errs[0]:.3e}")
    for j in range(1, n):
        verify(errs[j] <= 1e-7, f"compression mismatch at power {j}: {errs[j]:.3e}")
    return NilpotentDilation(order=n, N=N, V=V, r=d,
                             residuals={"isometry": errs[0], "compression": max(errs)})
