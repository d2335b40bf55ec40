"""Membership tests for the explicitly known matricial ranges, spatial
sampling, the compression lower bound for the range radius, operator-system
norm probes, and the nine-way equivalence suite for the radius-one ball.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShape,
    BoundaryBand,
    ConditionFails,
    InconsistentAffine,
    NoConvergence,
    RadiusTooLarge,
    VerificationFailed,
    verify,
)
from .linalg import (
    _tol,
    dagger,
    op_norm,
    random_isometry,
    random_matrix,
    require_square,
)
from .numrange import _exceeds, num_radius
from .rng import split


@dataclass(frozen=True)
class MembershipVerdict:
    """member/margin plus, when the defining theorem is constructive, a
    verified witness. ``unverified`` flags a conservative non-member verdict
    that only reflects solver non-convergence."""

    member: bool
    margin: float
    witness: object = None
    unverified: bool = False


def member_e21(X, tol=None):
    """Membership in the matricial range of the 2x2 lower shift:
    exactly the operators with numerical radius at most 1/2."""
    from .ando import _ucp_from_e21

    t = _tol(tol)
    A = require_square(X, "member_e21")
    w = num_radius(A, t)
    member = w <= 0.5 + t.psd_eps
    witness = None
    unverified = False
    if member:
        try:
            witness = _ucp_from_e21(A, w, t)
        except RadiusTooLarge:
            # only reachable when psd_eps is looser than the witness
            # constructor's own acceptance band
            unverified = True
    return MembershipVerdict(member=member, margin=0.5 - w, witness=witness,
                             unverified=unverified)


def member_shift_ball(X, nodes=64, tol=None, max_iter=20000):
    """Membership in the matricial range of a proper isometry or
    full-spectrum unitary: the closed unit norm ball.

    For comfortably interior points (norm <= 0.95) a constructive witness is
    produced: member_normal's weights at the nodes-th roots of unity, i.e.
    X realized as the image of a normal unitary surrogate. Solver failure
    leaves the verdict intact and flags the witness as unverified.
    """
    t = _tol(tol)
    A = require_square(X, "member_shift_ball")
    nrm = op_norm(A)
    member = nrm <= 1.0 + t.psd_eps
    witness = None
    unverified = False
    if member and nrm <= 0.95:
        th = 2.0 * np.pi * np.arange(nodes) / nodes
        witness = member_normal(np.exp(1j * th), A, t, max_iter).witness
        unverified = witness is None
    return MembershipVerdict(member=member, margin=1.0 - nrm,
                             witness=witness, unverified=unverified)


def member_normal(spectrum, X, tol=None, max_iter=20000):
    """Membership in the matricial range of a normal operator with the given
    spectrum: PSD weights H_j with sum_j H_j = I and sum_j lambda_j H_j = X
    (a C*-convex combination of the spectrum), verified before they are
    returned as the witness. Moments that no Hermitian weights match give
    a checked non-member; solver non-convergence gives a conservative,
    unverified one. Either way the margin is the residual."""
    from .cpmaps import Feasible, solve_feasibility

    t = _tol(tol)
    A = require_square(X, "member_normal")
    lams = np.array([complex(l) for l in spectrum])
    if not lams.size:
        raise BadShape("spectrum must be nonempty")
    d = A.shape[0]
    K = np.array([np.ones(lams.size), lams])[:, :, None, None]
    try:
        outcome = solve_feasibility(K, [np.eye(d), A], t, max_iter=max_iter,
                                    target=t.feas_eps)
    except InconsistentAffine as exc:
        return MembershipVerdict(member=False, margin=exc.residual)
    if not isinstance(outcome, Feasible):
        return MembershipVerdict(member=False, margin=outcome.residual,
                                 unverified=True)
    weights = list(outcome.matrix)
    resid = max(op_norm(sum(weights) - np.eye(d)),
                op_norm(sum(l * H for l, H in zip(lams, weights)) - A))
    verify(resid <= 1e-6, f"witness residual {resid:.3e}")
    return MembershipVerdict(member=True, margin=outcome.residual, witness=weights)


def spatial_samples(T, n, count, seed, tol=None):
    """Compressions V*TV for seeded random isometries V, one child seed per
    sample index so parallel evaluation stays deterministic."""
    A = require_square(T, "spatial_samples")
    if n > A.shape[0]:
        raise BadShape(f"compression size {n} exceeds dim {A.shape[0]}")
    out = []
    for i in range(count):
        V = random_isometry(A.shape[0], n, split(seed, i))
        out.append(dagger(V) @ A @ V)
    return out


def smith_ward_nu(T, n):
    """Lower bound for the range radius at level n >= 2 by compressing to a
    subspace containing a top singular pair.

    Returns (norm of the compression, the n x n compression). The norm
    matches op_norm(T) up to rounding because the compression fixes T xi for
    the maximizing unit vector xi.
    """
    A = require_square(T, "smith_ward_nu")
    d = A.shape[0]
    if n < 2 or n > d:
        raise BadShape(f"need 2 <= n <= dim, got n={n}, dim={d}")
    U, s, Vh = np.linalg.svd(A)
    xi = np.conj(Vh[0])  # top right singular vector
    cols = [xi, A @ xi]
    basis = []
    for v in cols + [np.eye(d)[:, j] for j in range(d)]:
        w = v.astype(complex).copy()
        for u in basis:
            w -= np.vdot(u, w) * u
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            basis.append(w / norm)
        if len(basis) == n:
            break
    B = np.stack(basis, axis=1)
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
    children = [split(seed, i) for i in range(samples)]
    A = np.array([random_matrix(n, n, split(c, 0)) for c in children]).reshape(samples, n, n)
    B = np.array([random_matrix(n, n, split(c, 1)) for c in children]).reshape(samples, n, n)

    def norms(M):
        # kron(A_i, I) + kron(B_i, M) for every sample i, then their operator norms
        d = M.shape[0]
        stack = (A[:, :, None, :, None] * np.eye(d)[:, None, :]
                 + B[:, :, None, :, None] * M[:, None, :])
        return np.linalg.norm(stack.reshape(samples, n * d, n * d), 2, axis=(1, 2))

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
        return (self.radius_leq_one, self.grid_real_part, self.power_dilation,
                self.order2_condition, self.order2_dilation, self.factorization,
                self.lmi_halved, self.c_form, self.ucp_halved)


def equivalence_suite(T, tol=None, window=12):
    """Evaluate all nine radius-one characterizations and verify agreement.

    Inputs with radius within 1e-2 of 1 are rejected (BoundaryBand): each
    condition is an inequality with its own discretization error, and inside
    that band they may legitimately disagree.
    """
    from .ando import _ando_decompose, _radius_lmi, _ucp_from_e21
    from .cpmaps import is_cp
    from .dilation import _two_dilation, nilpotent_condition, nilpotent_dilation

    t = _tol(tol)
    A = require_square(T, "equivalence_suite")
    w = num_radius(A, t)
    if abs(w - 1.0) <= 1e-2:
        raise BoundaryBand(f"radius {w:.6f} within 1e-2 of the threshold")

    cond1 = w <= 1.0

    cond2 = not _exceeds(A, 1.0 + t.psd_eps * (1.0 + op_norm(A)))

    # one decomposition serves the dilation (3) and both factorizations (6), (8)
    cond3 = cond6 = cond8 = False
    Xstar = None
    try:
        dec = _ando_decompose(A, w, t)
        Xstar = dec.Xstar
        cond6 = dec.residuals["reconstruction_ymax"] <= 1e-8
        cond8 = dec.residuals["reconstruction_c"] <= 1e-8
        _two_dilation(A, dec.C, window, t)
        cond3 = True
    except (RadiusTooLarge, NoConvergence, VerificationFailed):
        pass

    cond4 = nilpotent_condition(A / 2.0, 2, tol=t) >= -t.psd_eps
    try:
        nilpotent_dilation(A / 2.0, 2, t)
        cond5 = True
    except (ConditionFails, NoConvergence, VerificationFailed):
        cond5 = False

    # w(T/2) = w(T)/2, and ando_X((2 T/2)*) is the decomposition's Xstar
    cond7 = _radius_lmi(A / 2.0, w / 2.0, t, Xstar)[0]

    try:
        phi = _ucp_from_e21(A / 2.0, w / 2.0, t, Xstar)
        cond9 = is_cp(phi, t)[0]
    except (RadiusTooLarge, VerificationFailed):
        cond9 = False

    report = EquivalenceReport(
        radius=w, radius_leq_one=cond1, grid_real_part=cond2,
        power_dilation=cond3, order2_condition=cond4, order2_dilation=cond5,
        factorization=cond6, lmi_halved=cond7, c_form=cond8, ucp_halved=cond9)
    conds = report.all_conditions()
    verify(all(c == cond1 for c in conds),
           f"equivalence conditions disagree at radius {w:.6f}: {conds}")
    return report
