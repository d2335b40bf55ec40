"""Linear maps between matrix algebras, Choi matrices, Kraus and Stinespring
forms, and one PSD-affine feasibility solver.

Conventions (frozen by round-trip tests):

* A map phi: M_n -> M_m is stored by its values on matrix units, one
  (n, n, m, m) array ``values[i, j] = phi(E_{i+1,j+1})`` (0-based storage
  of 1-based units), which every conversion reshapes.
* The Choi matrix is the nm x nm block matrix whose (i, j) block of size
  m x m equals phi(E_ij), the reshape of ``values.swapaxes(1, 2)``.
* The Choi block factors as F*F (``linalg._psd_factor``); the conjugate v
  of a row of F reshapes to an m x n Kraus operator K via
  ``v[i*m + a] = K[a, i]`` (blocks of length m indexed by the domain
  index i), and the map acts as ``phi(X) = sum_k K_k X K_k*``.
* Stinespring: V: C^m -> C^n (x) C^r with row order (i, k) -> i*r + k,
  so that ``V*(X (x) I_r)V = phi(X)`` and V*V = I_m for unital maps.
* A feasibility problem's unknown is a stack of N PSD matrices, each an
  s x s grid of m x m blocks W_g[i, j]; constraint k reads
  ``sum_{g,i,j} K[k, g, i, j] W_g[i, j] = B[k]``. PSD weights of
  C*-convex combinations have s = 1; the Choi matrix of a map
  M_n -> M_m has N = 1, s = n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShape,
    InconsistentAffine,
    NotCP,
    NotPartitionOfIdentity,
    NotPSD,
    NotUnital,
    ShapeMismatch,
)
from .linalg import (
    _check_unit_indices,
    _fro_norm,
    _pinv_sqrt,
    _psd_factor,
    _tol,
    as_cmat,
    dagger,
    herm_part,
    op_norm,
    psd_check,
    psd_part,
)


@dataclass(frozen=True)
class MapOnUnits:
    """A linear map M_n -> M_m given by its values on matrix units, stored
    as one complex (n, n, m, m) array: ShapeMismatch for any other shape,
    ragged blocks included, BadShape for non-finite entries."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        try:
            values = np.asarray(self.values, dtype=complex)
        except ValueError:   # ragged blocks
            values = np.empty(0)
        if values.shape != (self.n, self.n, self.m, self.m):
            raise ShapeMismatch("values must be an n x n array of m x m blocks")
        if not np.isfinite(values).all():
            raise BadShape("matrix entries must be finite")
        object.__setattr__(self, "values", values)

    def value(self, i, j):
        """phi(E_ij), 1-based indices: BadShape outside 1..n."""
        _check_unit_indices(self.n, i, j)
        return self.values[i - 1, j - 1]

    def unital_defect(self):
        return op_norm(np.trace(self.values) - np.eye(self.m))


def map_on_units(n, m, values):
    return MapOnUnits(n=n, m=m, values=values)


def identity_map(n):
    return map_on_units(n, n, np.eye(n * n).reshape(n, n, n, n))


def transpose_map(n):
    return map_on_units(n, n, np.eye(n * n).reshape(n, n, n, n).swapaxes(2, 3))


@dataclass(frozen=True)
class ChoiMat:
    """Block matrix [phi(E_ij)]_{ij} of a map M_n -> M_m."""

    n: int
    m: int
    block: np.ndarray  # nm x nm

    def __post_init__(self):
        if np.shape(self.block) != (self.n * self.m, self.n * self.m):
            raise ShapeMismatch(f"Choi block must be {self.n * self.m} square")

    def block_at(self, i, j):
        """The m x m block phi(E_ij), 1-based indices: BadShape outside 1..n."""
        _check_unit_indices(self.n, i, j)
        return self.block[(i - 1) * self.m:i * self.m, (j - 1) * self.m:j * self.m]


def choi(phi):
    """The Choi matrix of a MapOnUnits, in a fresh array."""
    block = np.array(phi.values.swapaxes(1, 2)).reshape(phi.n * phi.m, phi.n * phi.m)
    return ChoiMat(n=phi.n, m=phi.m, block=block)


def map_from_choi(C):
    return map_on_units(C.n, C.m, np.reshape(C.block, (C.n, C.m, C.n, C.m)).swapaxes(1, 2))


def is_cp(phi, tol=None):
    """Choi criterion: the map is completely positive iff its Choi block is PSD."""
    return psd_check(choi(phi).block, tol)


def apply_map(phi, X):
    """Linear extension over matrix units: phi(X) = sum_ij X_ij phi(E_ij)."""
    A = as_cmat(X)
    if A.shape != (phi.n, phi.n):
        raise ShapeMismatch(f"argument must be {phi.n} x {phi.n}, got {A.shape}")
    return np.einsum("ij,ijab->ab", A, phi.values)


def amplify(phi, k, A):
    """Apply phi blockwise to a k x k block matrix over M_n."""
    M = as_cmat(A)
    if M.shape != (k * phi.n, k * phi.n):
        raise ShapeMismatch(f"amplification argument must be {k * phi.n} square")
    n, m = phi.n, phi.m
    out = np.einsum("sitj,ijab->satb", M.reshape(k, n, k, n), phi.values)
    return out.reshape(k * m, k * m)


@dataclass(frozen=True)
class KrausSet:
    operators: tuple  # m x n each; phi(X) = sum_k K X K*

    def reconstruct(self, n, m):
        K = np.array(self.operators, dtype=complex) if self.operators else np.zeros((0, m, n))
        return map_on_units(n, m, np.einsum("kai,kbj->ijab", K, np.conj(K)))


def kraus_from_choi(C, tol=None):
    """Kraus operators, one per Choi eigenvalue above the rank cutoff: the
    conjugated rows of the factor C = F*F of the Choi block, which must be
    PSD within psd_eps (NotPSD otherwise); its slack gives no operator."""
    F = _psd_factor(C.block, _tol(tol).psd_eps, NotPSD,
                    "Choi min eigenvalue {:.3e} below tolerance")
    return KrausSet(operators=tuple(np.conj(F).reshape(-1, C.n, C.m).swapaxes(1, 2)))


@dataclass(frozen=True)
class StinespringForm:
    V: np.ndarray  # (n r) x m isometry
    r: int


def stinespring(phi, tol=None):
    """Stinespring form V*(X (x) I_r)V = phi(X) of a unital CP map.

    V is the factor C = F*F of the Choi block (one eigendecomposition, one
    PSD verdict with slack psd_eps, NotCP otherwise) in Stinespring row
    order, polar-corrected so the isometry identity holds to machine precision.
    """
    F = _psd_factor(choi(phi).block, _tol(tol).psd_eps, NotCP, "Choi min eigenvalue {:.3e}")
    defect = phi.unital_defect()
    if defect > 1e-6:
        raise NotUnital(f"unital defect {defect:.3e}")
    r = F.shape[0]
    # row i r + k of V is conj(K_k[:, i]), the i-th block of row k of F
    V = F.reshape(r, phi.n, phi.m).swapaxes(0, 1).reshape(phi.n * r, phi.m)
    # polar correction: V <- V (V*V)^{-1/2}
    w, Q = np.linalg.eigh(herm_part(dagger(V) @ V))
    V = V @ ((Q * _pinv_sqrt(w)) @ dagger(Q))
    return StinespringForm(V=V, r=r)


def cstar_convex(Xs, As):
    """C*-convex combination sum_k A_k* X_k A_k for a partition of identity."""
    if len(Xs) != len(As) or not As:
        raise ShapeMismatch("need equally many operators and coefficients")
    As = [as_cmat(A) for A in As]
    Xs = [as_cmat(X) for X in Xs]
    defect = op_norm(sum(dagger(A) @ A for A in As) - np.eye(As[0].shape[1]))
    if defect > 1e-9:
        raise NotPartitionOfIdentity(f"sum A_k* A_k differs from identity by {defect:.3e}")
    return sum(dagger(A) @ X @ A for A, X in zip(As, Xs))


# ---------------------------------------------------------------------------
# PSD-affine feasibility: Dykstra's alternating projections on block stacks
# ---------------------------------------------------------------------------

# iteration cap of the feasibility solver
MAX_ITER = 20000


@dataclass(frozen=True)
class Feasible:
    matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class Undetermined:
    residual: float


def solve_feasibility(K, B, tol=None, start=None, target=None):
    """Find a stack W of N Hermitian PSD matrices, each an s x s grid of
    m x m blocks W_g[i, j], with

        sum_{g, i, j} K[k, g, i, j] W_g[i, j] = B[k]   for every k,

    where K has shape (k, N, s, s) and B shape (k, m, m). PSD weights of
    C*-convex combinations use s = 1; a Choi matrix uses N = 1 and s = n.

    Dykstra-corrected alternating projections (Boyle & Dykstra, 1986)
    between the PSD cones (one batched eigh over the stack) and the affine
    set. For Hermitian W each constraint is equivalent to its adjoint
    sum conj(K[k, g, j, i]) W_g[i, j] = B[k]*; with both, the affine set is
    closed under W -> W*, so its Frobenius projection, taken entry (a, b)
    by entry through the pseudo-inverse of the small matrix
    [K; conj(K^T)], keeps W Hermitian.

    Returns Feasible with the stack when the joint residual drops below
    feas_eps = max(psd_eps, 1e-7) (the affine constraints hold essentially
    exactly, the cones are PSD within feas_eps), and Undetermined after
    MAX_ITER iterations otherwise.
    Raises InconsistentAffine, carrying the least-squares residual, when
    the affine system alone has no Hermitian solution.

    ``start`` (any array of N (s m)^2 entries) replaces the least-squares
    starting point. ``target`` sets the residual at which iteration stops
    early; by default it sits a decade below feas_eps so downstream
    spectral clipping stays inside verification tolerances. Callers that
    only need the feas_eps contract (membership witnesses) pass a looser
    value.
    """
    t = _tol(tol)
    K = np.asarray(K, dtype=complex)
    B = np.asarray(B, dtype=complex)
    count, N, s = K.shape[:3]
    m = B.shape[-1]

    def entries(W):
        """(N, s m, s m) -> (N s s, m m), one column per block entry (a, b)."""
        return W.reshape(N, s, m, s, m).transpose(0, 1, 3, 2, 4).reshape(N * s * s, m * m)

    def stack(V):
        return V.reshape(N, s, s, m, m).transpose(0, 1, 3, 2, 4).reshape(N, s * m, s * m)

    Kf, Bf = K.reshape(count, N * s * s), B.reshape(count, m * m)
    L = np.concatenate([Kf, dagger(K).reshape(count, N * s * s)])
    c = np.concatenate([Bf, dagger(B).reshape(count, m * m)])
    Lp = np.linalg.pinv(L, rcond=1e-12)
    x = Lp @ c
    ls_res = float(_fro_norm(Kf @ x - Bf))
    if ls_res > 1e-8 * (1.0 + float(_fro_norm(Bf))):
        raise InconsistentAffine(f"affine system unsolvable, residual {ls_res:.3e}",
                                 ls_res)

    W = stack(x) if start is None else np.asarray(start, dtype=complex).reshape(N, s * m, s * m)
    dual = np.zeros_like(W)
    if target is None:
        target = t.feas_eps / 20.0
    best = (np.inf, None)
    for it in range(MAX_ITER):
        Y = W + dual
        Ypsd = psd_part(Y)
        dual = Y - Ypsd
        W = Ypsd - stack(Lp @ (L @ entries(Ypsd) - c))
        if it % 8 == 0 or it == MAX_ITER - 1:
            M = herm_part(W)
            res = max(float(np.abs(Kf @ entries(M) - Bf).max(initial=0.0)),
                      -float(np.linalg.eigvalsh(M)[:, 0].min()), 0.0)
            if res < best[0]:
                best = (res, M)
            if res <= target:
                return Feasible(matrix=M, residual=res)
    if best[0] <= t.feas_eps:
        return Feasible(matrix=best[1], residual=best[0])
    return Undetermined(residual=best[0])


def solve_map_problem(n, m, value_pairs, tol=None):
    """Feasibility for a unital CP map M_n -> M_m with prescribed values.

    ``value_pairs`` is an iterable of (X, target) pairs meaning
    phi(X) = sum_ij X_ij phi(E_ij) = target; unitality is the pair
    (I_n, I_m). Returns the feasibility outcome; on Feasible the matrix is
    the nm x nm Choi block.
    """
    pairs = [(np.eye(n), np.eye(m))] + list(value_pairs)
    K = np.array([as_cmat(X) for X, _ in pairs])[:, None]
    B = np.array([as_cmat(Y) for _, Y in pairs])
    outcome = solve_feasibility(K, B, tol)
    if isinstance(outcome, Feasible):
        return Feasible(matrix=outcome.matrix[0], residual=outcome.residual)
    return outcome
