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

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShape,
    ConditionFails,
    NotContraction,
    WindowTooSmall,
    verify,
)
from .linalg import (
    _defect_roots,
    _tol,
    as_cmat,
    dagger,
    kron,
    op_norm,
    psd_check,
    require_square,
    shift,
)
from .numrange import _level_set_max
from .toeplitz import _block_toeplitz, _spectral_factor

# least PSD slack of the defect operators' eigenvalues 1 - s^2: rounding can
# push them marginally negative for near-extreme contractions
_DEFECT_EPS = 1e-8


def halmos_unitary(C, tol=None):
    """Unitary [[C, (I-CC*)^{1/2}], [(I-C*C)^{1/2}, -C*]] of a contraction."""
    t = _tol(tol)
    A = require_square(C, "halmos_unitary")
    if op_norm(A) > 1.0 + 1e-9:
        raise NotContraction(f"operator norm {op_norm(A):.12f} exceeds 1")
    top, bot = _defect_roots(A, max(t.psd_eps, _DEFECT_EPS))
    U0 = np.block([[A, top], [bot, -dagger(A)]])
    defect = op_norm(dagger(U0) @ U0 - np.eye(2 * A.shape[0]))
    verify(defect <= 1e-8, f"Halmos block not unitary (defect {defect:.3e})")
    return U0


@dataclass(frozen=True)
class WindowedOperator:
    """Block matrix over positions -M..M with band width <= 2.

    blocks maps (row_index, col_index) -> block; absent pairs are zero.
    """

    block_dim: int
    window: int
    blocks: dict

    def dense(self):
        d, M = self.block_dim, self.window
        size = (2 * M + 1) * d
        U = np.zeros((size, size), dtype=complex)
        for (i, j), B in self.blocks.items():
            U[(i + M) * d:(i + M + 1) * d, (j + M) * d:(j + M + 1) * d] = B
        return U

    def center_block_of_power(self, n):
        """Block (0, 0) of the n-th matrix power."""
        d, M = self.block_dim, self.window
        U = self.dense()
        P = np.linalg.matrix_power(U, n)
        return P[M * d:(M + 1) * d, M * d:(M + 1) * d]


def two_dilation(T, M, tol=None):
    """Banded unitary U on the window -M..M with (U^n)_{0,0} = T^n / 2.

    Requires w(T) <= 1 and M >= 4; the compression identity is verified for
    1 <= n <= M // 2 - 1, where the truncation provably cannot leak into the
    center block. Rows and columns at the two outer edges are incomplete, so
    unitarity holds away from them.
    """
    from .ando import ando_decompose

    t = _tol(tol)
    A = require_square(T, "two_dilation")
    # raises RadiusTooLarge when w(T) > 1 + 1e-9
    return _two_dilation(A, ando_decompose(A, t).C, M, t)


def _two_dilation(A, C, M, t):
    """two_dilation for a square A whose decomposition's C is already known."""
    if M < 4:
        raise WindowTooSmall(f"window M >= 4 required, got {M}")
    d = A.shape[0]
    I = np.eye(d, dtype=complex)
    DCs, DC = _defect_roots(C, max(t.psd_eps, _DEFECT_EPS))   # (I-CC*)^{1/2}, (I-C*C)^{1/2}

    blocks = {(k, k - 1): I.copy() for k in range(1 - M, M + 1) if abs(k) >= 2}
    blocks[(1, 0)] = DC
    blocks[(1, -1)] = -dagger(C)
    blocks[(-1, 0)] = C @ C
    blocks[(-1, -1)] = C @ DCs
    blocks[(-1, -2)] = DCs
    blocks[(0, 0)] = DC @ C
    blocks[(0, -1)] = DC @ DCs
    blocks[(0, -2)] = -dagger(C)
    win = WindowedOperator(block_dim=d, window=M, blocks=blocks)

    U = win.dense()
    interior = slice(2 * d, (2 * M + 1) * d - 2 * d)
    G = dagger(U) @ U - np.eye((2 * M + 1) * d)
    unit_defect = op_norm(G[interior, interior])
    verify(unit_defect <= 1e-7, f"interior unitarity defect {unit_defect:.3e}")

    P = np.eye((2 * M + 1) * d, dtype=complex)
    Tn = np.eye(d, dtype=complex)
    c = M * d
    for n in range(1, M // 2):
        P = P @ U
        Tn = Tn @ A
        err = op_norm(P[c:c + d, c:c + d] - Tn / 2.0)
        verify(err <= 1e-9, f"compression identity fails at power {n}: {err:.3e}")
    return win


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
    if M < 3:
        raise BadShape(f"need M >= 3, got {M}")
    size = 2 * M + 1
    U = shift(size)
    i0, i1 = M, M + 1  # positions of e_0 and e_1
    emb = np.zeros((size, 2), dtype=complex)
    emb[i0, 0] = 1.0
    emb[i1, 1] = 1.0
    comp = dagger(emb) @ U @ emb
    comp2 = dagger(emb) @ (U @ U) @ emb
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


def halved_power_blocks(T, N):
    """Blocks {I, T/2, T^2/2, ..., T^N/2} for the positive-definiteness bridge."""
    A = require_square(T, "halved_power_blocks")
    out = [np.eye(A.shape[0], dtype=complex)]
    P = np.eye(A.shape[0], dtype=complex)
    for _ in range(N):
        P = P @ A
        out.append(P / 2.0)
    return out


def nilpotent_condition(T, n, tol=None):
    """min over the circle of lambda_min(I + 2 Re sum_{k=1}^{n-1} l^k T^k).

    The condition of order n holds iff the returned margin is >= -psd_eps.
    The margin is 1 - max lambda_max(Re p(l)) for p(z) = -2 sum_k z^k T^k,
    computed by the level-set method of :mod:`mrange.numrange` (``tol`` is
    unused: it needs none).
    """
    A = require_square(T, "nilpotent_condition")
    if n < 2:
        raise BadShape(f"order n >= 2 required, got {n}")
    D = [-2.0 * A]
    for _ in range(2, n):
        D.append(D[-1] @ A)
    return 1.0 - _level_set_max(np.array(D))[0]


@dataclass(frozen=True)
class NilpotentDilation:
    """N = S_n (x) I_r with V*V = I and V* N^j V = T^j for j = 0..n-1."""

    order: int
    N: np.ndarray
    V: np.ndarray
    r: int


def nilpotent_dilation(T, n, tol=None):
    """Power dilation of T to a direct sum of order-n shift blocks, r = dim T.

    The order-n condition says Q(l) = I + 2 Re sum_{k=1}^{n-1} l^k T^k >= 0
    on the circle. Its spectral factor Q = P*P, P(l) = sum_{k<n} l^k P_k
    (:func:`mrange.toeplitz._spectral_factor`), stacked in reverse,
    V = [P_{n-1}; ...; P_0], gives V*V = sum_k P_k* P_k = I and
    V* (S_n (x) I)^j V = sum_k P_k* P_{k+j} = T^j. All invariants are
    verified before returning.
    """
    t = _tol(tol)
    A = require_square(T, "nilpotent_dilation")
    d = A.shape[0]
    cond = nilpotent_condition(A, n, tol=t)
    if cond < -t.psd_eps:
        raise ConditionFails(
            f"order-{n} condition margin {cond:.3e} is negative")

    powers = [np.eye(d, dtype=complex)]
    for _ in range(1, n):
        powers.append(powers[-1] @ A)
    # below a margin of 10 rank_rel, factor Q + (10 rank_rel - margin) I instead:
    # its X >= 10 rank_rel I stays clear of the pseudo-inverse cutoff, so the
    # residual stop can be met. V, scaled back to an isometry, then moves the
    # compressions by at most that lift (|T^j| <= 1 under the condition)
    lift = 1.0 + max(0.0, 10.0 * t.rank_rel - cond)
    Q = np.array([lift * powers[0]] + powers[1:])
    V = _spectral_factor(Q, t)[::-1].reshape(n * d, d) / np.sqrt(lift)
    N = kron(shift(n), np.eye(d, dtype=complex))

    verify(op_norm(np.linalg.matrix_power(N, n)) == 0.0, "N^n must vanish exactly")
    iso = op_norm(dagger(V) @ V - np.eye(d))
    verify(iso <= 1e-10, f"isometry defect {iso:.3e}")
    Pj = np.eye(n * d, dtype=complex)
    for j in range(1, n):
        Pj = Pj @ N
        err = op_norm(dagger(V) @ Pj @ V - powers[j])
        # the lift moves this by at most 10 rank_rel + psd_eps near zero
        # margin; interior instances land at the rounding floor
        verify(err <= 1e-7, f"compression mismatch at power {j}: {err:.3e}")
    return NilpotentDilation(order=n, N=N, V=V, r=d)
