"""Membership tests for the explicitly known matricial ranges, spatial
sampling, the compression lower bound for the range radius, operator-system
norm probes, and the nine-way equivalence suite for the radius-one ball.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import ando
from .cpmaps import Feasible, solve_feasibility
from .dilation import _two_dilation, _verified_dilation
from .errors import (
    BadShape,
    BoundaryBand,
    InconsistentAffine,
    NoConvergence,
    RadiusTooLarge,
    VerificationFailed,
    verify,
)
from .linalg import (
    BAND,
    _count,
    _norm_within,
    _tol,
    dagger,
    op_norm,
    random_isometry,
    random_matrix,
    require_square,
)
from .numrange import num_radius, radius_characterizations
from .rng import children
from .toeplitz import AtomicMeasure, _block_toeplitz, _unitary_measure


@dataclass(frozen=True)
class MembershipVerdict:
    """member/margin plus, when the defining theorem is constructive, a
    verified witness. ``unverified`` (set by member_normal alone): its solver
    stopped undetermined, so the verdict stands without a checked witness."""

    member: bool
    margin: float
    witness: object = None
    unverified: bool = False


def member_e21(X, tol=None):
    """Membership in the matricial range of the 2x2 lower shift: exactly
    the operators with numerical radius at most 1/2. The verdict is the
    existence of its witness, ucp_from_e21's map, so never unverified."""
    M = require_square(X, "member_e21")
    D = 2.0 * M
    w, A = ando._e21_X(D, num_radius(D), _tol(tol))
    witness = None if A is None else ando._e21_map(M, A)
    return MembershipVerdict(member=A is not None, margin=0.5 - w / 2.0, witness=witness)


def member_shift_ball(X, nodes=64, tol=None):
    """Membership in the matricial range of a proper isometry or
    full-spectrum unitary: the closed unit norm ball, norm <= 1 + BAND
    whatever the PSD slack.

    Each member X is the first moment of a unitary dilation's spectral
    measure: the block moment measure of [[I, X*/s], [X/s, I]]
    (toeplitz._unitary_measure, checked there), PSD G_j with sum_j G_j = I
    and sum_j e^{i theta_j} G_j = X/s. For nodes >= 3 and norm at most
    c = cos(pi / nodes), the radius of the disk inscribed in the polygon of
    the nodes-th roots of unity omega^k, s = c and _dilation_weights splits
    it into PSD weights H_k with sum_k H_k = I and sum_k omega^k H_k = X.
    Every other member gets the measure itself for s = max(1, norm), an
    AtomicMeasure within BAND of X. No verdict is unverified.
    """
    if _count(nodes) < 1:
        raise BadShape(f"nodes >= 1 required, got {nodes}")
    t = _tol(tol)
    A = require_square(X, "member_shift_ball")
    nrm = op_norm(A)
    witness = None
    if nodes >= 3 and nrm <= np.cos(np.pi / nodes):
        omega = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
        witness = _verified_weights(omega, _dilation_weights(A, omega, t), A)
    elif nrm <= 1.0 + BAND:
        d = A.shape[0]
        T = _block_toeplitz(np.array([np.eye(d), A / max(1.0, nrm)]), 2)
        witness = AtomicMeasure(*_unitary_measure(T, d, t))
    return MembershipVerdict(member=nrm <= 1.0 + BAND, margin=1.0 - nrm, witness=witness)


def _dilation_weights(A, omega, t):
    """PSD weights H_k with sum_k H_k = I and sum_k omega_k H_k = A, for
    omega the N >= 3 roots of unity and |A| <= c = cos(pi / N).

    [[I, A*/c], [A/c, I]] is PSD, so its block moment measure
    (toeplitz._unitary_measure, checked there) gives rank-one PSD G_j that
    sum to I and, weighted by e^{i theta_j}, to A / c. Each c e^{i theta_j}
    lies in the disk inscribed in the polygon omega, so it is a convex
    combination sum_k a_jk omega_k of its two neighbouring vertices and of
    the centroid 0 = mean(omega), and H_k = sum_j a_jk G_j.
    """
    N, d = omega.size, A.shape[0]
    c = np.cos(np.pi / N)
    nodes, G = _unitary_measure(_block_toeplitz(np.array([np.eye(d), A / c]), 2), d, t)
    p = c * np.exp(1j * nodes)
    lo = np.floor(np.angle(p) * N / (2.0 * np.pi)).astype(int) % N
    hi = (lo + 1) % N

    def cross(a, b):
        return (np.conj(a) * b).imag

    # p = a_lo omega_lo + a_hi omega_hi + (1 - a_lo - a_hi) 0 by Cramer's
    # rule; clipping removes rounding-level negatives on the polygon edges
    det = cross(omega[lo], omega[hi])
    a_lo = np.clip(cross(p, omega[hi]) / det, 0.0, None)
    a_hi = np.clip(cross(omega[lo], p) / det, 0.0, None)
    a = np.repeat(np.clip(1.0 - a_lo - a_hi, 0.0, None)[:, None] / N, N, axis=1)
    rows = np.arange(nodes.size)
    a[rows, lo] += a_lo
    a[rows, hi] += a_hi
    return list(np.tensordot(a.T, G, axes=1))


def _verified_weights(lams, weights, A):
    """The weights, once sum_j H_j = I and sum_j lambda_j H_j = A hold
    within 1e-6 (VerificationFailed otherwise)."""
    resid = (np.sum(weights, axis=0) - np.eye(A.shape[0]),
             np.tensordot(lams, weights, axes=1) - A)
    if not all(_norm_within(R, 1e-6) for R in resid):
        raise VerificationFailed(f"witness residual {max(map(op_norm, resid)):.3e}")
    return weights


def member_normal(spectrum, X, tol=None):
    """Membership in the matricial range of a normal operator with the given
    spectrum: PSD weights H_j with sum_j H_j = I and sum_j lambda_j H_j = X
    (a C*-convex combination of the spectrum), verified before they are
    returned as the witness. Moments that no Hermitian weights match give
    a checked non-member; solver non-convergence gives a conservative,
    unverified one. Either way the margin is the residual."""
    t = _tol(tol)
    A = require_square(X, "member_normal")
    lams = np.array([complex(l) for l in spectrum])
    if not lams.size or not np.isfinite(lams).all():
        raise BadShape("spectrum must be nonempty and finite")
    d = A.shape[0]
    K = np.array([np.ones(lams.size), lams])[:, :, None, None]
    try:
        outcome = solve_feasibility(K, [np.eye(d), A], t, target=t.feas_eps)
    except InconsistentAffine as exc:
        return MembershipVerdict(member=False, margin=exc.residual)
    if not isinstance(outcome, Feasible):
        return MembershipVerdict(member=False, margin=outcome.residual,
                                 unverified=True)
    weights = _verified_weights(lams, list(outcome.matrix), A)
    return MembershipVerdict(member=True, margin=outcome.residual, witness=weights)


def _check_samples(n, count, dim=np.inf):
    """BadShape unless 1 <= n <= dim and count >= 0."""
    if not 1 <= _count(n) <= dim or _count(count) < 0:
        raise BadShape(f"need 1 <= size <= {dim} and count >= 0, got size {n} "
                       f"and count {count}")


def spatial_samples(T, n, count, seed):
    """Compressions V*TV for seeded random isometries V, as a (count, n, n)
    array. Sample i takes the child seed split(seed, i), so it does not
    depend on the count; all the children's Gaussians come from one batched
    draw and one batched QR, bit-identical to drawing each seed alone."""
    A = require_square(T, "spatial_samples")
    _check_samples(n, count, A.shape[0])
    V = random_isometry(A.shape[0], n, children(seed, count))
    return dagger(V) @ A @ V


def smith_ward_nu(T, n):
    """Lower bound for the range radius at level n >= 2 by compressing to a
    subspace containing a top singular pair.

    Returns (norm of the compression, the n x n compression). The norm
    matches op_norm(T) up to rounding because the compression fixes T xi for
    the maximizing unit vector xi.
    """
    A = require_square(T, "smith_ward_nu")
    d = A.shape[0]
    if _count(n) < 2 or n > d:
        raise BadShape(f"need 2 <= n <= dim, got n={n}, dim={d}")
    xi = np.conj(np.linalg.svd(A)[2][0])  # top right singular vector
    # Householder QR: orthonormal columns, the first two spanning xi and T xi
    B = np.linalg.qr(np.column_stack([xi, A @ xi, np.eye(d)]))[0][:, :n]
    comp = dagger(B) @ A @ B
    return op_norm(comp), comp


@dataclass(frozen=True)
class ProbeReport:
    """Two-sided operator-system norm probe.

    max_gap > 0 certifies that the matricial ranges of the two inputs
    differ; a small max_gap over finitely many samples certifies nothing.
    """

    samples: int
    max_gap: float
    gaps: np.ndarray


def opsys_probe(S, T, n, samples, seed):
    A1 = require_square(S, "opsys_probe")
    A2 = require_square(T, "opsys_probe")
    _check_samples(n, samples)
    # sample i draws A_i and B_i from split(split(seed, i), 0) and (.., 1)
    A, B = np.moveaxis(random_matrix(n, n, children(children(seed, samples), 2)), 1, 0)

    def norms(M):
        # kron(A_i, I) + kron(B_i, M) for every sample i, then their operator norms
        d = M.shape[0]
        stack = (A[:, :, None, :, None] * np.eye(d)[:, None, :]
                 + B[:, :, None, :, None] * M[:, None, :])
        return np.linalg.svd(stack.reshape(samples, n * d, n * d), compute_uv=False)[:, 0]

    gaps = np.abs(norms(A1) - norms(A2))
    return ProbeReport(samples=samples, max_gap=float(gaps.max() if samples else 0.0),
                       gaps=gaps)


@dataclass(frozen=True)
class EquivalenceReport:
    """Nine numerically checkable forms of the radius-at-most-one property."""

    radius: float
    radius_leq_one: bool
    grid_real_part: bool
    power_dilation: bool
    order2_condition: bool
    order2_dilation: bool
    factorization: bool
    lmi_halved: bool
    c_form: bool
    ucp_halved: bool

    def all_conditions(self):
        return tuple(getattr(self, f.name) for f in fields(self)[1:])


def equivalence_suite(T, tol=None):
    """Evaluate all nine radius-one characterizations and verify agreement.

    BoundaryBand for |w - 1| <= BAND (1 + |T|), the rounding band of every
    threshold verdict, where (1) and the band-rounded (2), (4), (5) split.

    The four radius checks (``radius_characterizations``, which verifies
    that they agree) give w, which decides (1) and gives (4) its margin
    1 - w, and (2), their level test. One decomposition, X(T) and X(T*),
    checks (6) and (8) itself, gives (5), Ando's isometry [C; X^{1/2}], and
    (3), the two-step dilation from C; (7) and (9) ask whether its X(T*)
    exists. So (6) to (9) hold exactly when the decomposition returns.
    """
    t = _tol(tol)
    A = require_square(T, "equivalence_suite")
    radii = radius_characterizations(A)
    w = radii.radius
    band = BAND * (1.0 + op_norm(A))
    if abs(w - 1.0) <= band:
        raise BoundaryBand(f"radius {w:.12f} within the rounding band {band:.1e} of 1")

    cond1, cond2, cond4 = w <= 1.0, radii.conditions[1], 1.0 - w >= -BAND
    cond3 = cond5 = cond6 = False
    try:
        dec = ando._ando_decompose(A, w, t)
        cond6 = True
        x, U = dec.X_eig   # 0 <= X <= I is checked: its root clips at 0
        root = (U * np.sqrt(np.clip(x, 0.0, None))) @ dagger(U)
        _verified_dilation(A / 2.0, np.vstack([dec.C, root]), 2)
        cond5 = True
        _two_dilation(A, dec.C, 12)   # window 12: powers 1 to 5 verified
        cond3 = True
    except (RadiusTooLarge, NoConvergence, VerificationFailed):
        pass

    report = EquivalenceReport(w, cond1, cond2, cond3, cond4, cond5, cond6, cond6, cond6, cond6)
    conds = report.all_conditions()
    verify(all(c == cond1 for c in conds),
           f"equivalence conditions disagree at radius {w:.6f}: {conds}")
    return report
