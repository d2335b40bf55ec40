"""Numerical range sampling and numerical radius computation.

The radius is the maximum of the support function
f(theta) = lambda_max(Re(e^{i theta} T)). It is the case p(z) = z T of the
maximum over the unit circle of lambda_max(Re p(e^{i theta})) for a matrix
polynomial p(z) = z D_1 + ... + z^m D_m, which the level-set method of
Mengi and Overton (IMA J. Numer. Anal. 25, 2005) computes. At a level r the
unimodular roots z = e^{i theta} of z^m (p(z) + p(z)* - 2r I), the
eigenvalues of its 2mn x 2mn first companion pencil, are the angles where
some eigenvalue of Re p(e^{i theta}) equals r. For the radius that pencil is

    [[2r I, -T*], [I, 0]] - z [[T, 0], [0, I]].

Between two consecutive such angles lambda_max - r keeps its sign, so it
exceeds r somewhere exactly when it does at one of their midpoints.
Starting from the best of 8 sampled angles, r rises to the best midpoint
value until no midpoint beats it; that last pencil solve is the check that
lambda_max <= r on the whole circle. The levels converge quadratically.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadShape, NoConvergence, verify
from .linalg import _tol, dagger, herm_part, op_norm, require_square

# a spurious near-unimodular eigenvalue only adds a midpoint, while a missed
# one can lose the global maximum: near a tangency the computed eigenvalues
# leave the circle by about sqrt(machine eps), and a 1e-8 filter missed the
# top basins of real inputs whose theta = 0 is a local minimum
_UNIMODULAR = 1e-4
# quadratic convergence ends in under 10 levels on every input tried
_MAX_LEVELS = 100


def _support_grid(D, thetas):
    """lambda_max(Re p(e^{i theta})) at many angles through one batched
    eigensolve, for p(z) = sum_k z^k D_k with D = D_1..D_m stacked as an
    (m, n, n) array; a single n x n matrix T stands for p(z) = z T."""
    D = np.reshape(D, (-1,) + np.shape(D)[-2:])
    lam = np.exp(1j * thetas)[:, None, None]
    stack = lam * D[0]
    for k in range(2, D.shape[0] + 1):
        stack = stack + lam ** k * D[k - 1]
    stack = (stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0
    return np.linalg.eigvalsh(stack)[:, -1]


def _level_midpoints(D, r):
    """Midpoints between consecutive angles where an eigenvalue of
    Re p(e^{i theta}) equals r, or angle 0 when there is no such angle."""
    D = np.reshape(D, (-1,) + np.shape(D)[-2:])
    m, n = D.shape[:2]
    # first companion pencil of z^m (p(z) + p(z)* - 2r I): its top block row
    # holds the coefficients of z^{2m-1} down to z^0, negated
    P = np.zeros((2 * m * n, 2 * m * n), dtype=complex)
    P[:n] = np.hstack([-Dk for Dk in D[:-1][::-1]] + [2.0 * r * np.eye(n)]
                      + [-dagger(Dk) for Dk in D])
    P[n:, :-n] = np.eye((2 * m - 1) * n)
    Q = np.eye(2 * m * n, dtype=complex)
    Q[:n, :n] = D[-1]
    z = scipy.linalg.eig(P, Q, right=False)
    z = z[np.isfinite(z)]
    th = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR]) % (2.0 * np.pi))
    if th.size == 0:
        return np.zeros(1)
    return (th + np.append(th[1:], th[0] + 2.0 * np.pi)) / 2.0


def _exceeds(A, level):
    """Whether lambda_max(Re(e^{i theta} A)) > level for some theta."""
    return bool(_support_grid(A, _level_midpoints(A, level)).max() > level)


def _level_set_max(D):
    """Max over theta of lambda_max(Re p(e^{i theta})) and an angle where it
    is attained, for p(z) = sum_k z^k D_k as in ``_support_grid``."""
    thetas = 2.0 * np.pi * np.arange(8) / 8
    vals = _support_grid(D, thetas)
    for _ in range(_MAX_LEVELS):
        i = int(np.argmax(vals))
        r, angle = float(vals[i]), float(thetas[i])
        thetas = _level_midpoints(D, r)
        vals = _support_grid(D, thetas)
        if vals.max() <= r:
            return r, angle % (2.0 * np.pi)
    raise NoConvergence(f"level set still rising after {_MAX_LEVELS} levels")


def _radius_and_angle(T, tol):
    """Max of the support function and an angle where it is attained
    (``tol`` is unused: the level-set iteration needs none)."""
    return _level_set_max(require_square(T, "num_radius"))


def num_radius(T, tol=None):
    """Numerical radius w(T) = max_theta lambda_max(Re(e^{i theta} T))."""
    return _radius_and_angle(T, tol)[0]


def range_boundary(T, K, tol=None):
    """K support points of the numerical range.

    For each theta_k = 2 pi k / K, takes a top eigenvector v of
    Re(e^{-i theta_k} T) and emits <Tv, v>. Every point lies in the
    numerical range; their convex hull approximates it from inside.
    """
    A = require_square(T, "range_boundary")
    if K < 3:
        raise BadShape(f"range_boundary needs K >= 3, got {K}")
    top = [A.shape[0] - 1] * 2
    pts = []
    for k in range(K):
        theta = 2.0 * np.pi * k / K
        H = herm_part(np.exp(-1j * theta) * A)
        v = scipy.linalg.eigh(H, subset_by_index=top, driver="evr")[1][:, 0]
        pts.append(complex(np.vdot(v, A @ v)))
    return pts


@dataclass(frozen=True)
class RadiusReport:
    """Result of the four elementary radius checks.

    conditions holds, in order: (1) w(T) <= 1, (2) I + Re(lambda T) PSD on
    the unit circle, (3) Re(lambda T) <= I on the unit circle, (4)
    Re(z T) <= I on the open unit disk. worst_margin is 1 - w(T), the
    smallest margin of the four.
    """

    radius: float
    argmax_angle: float
    conditions: tuple
    worst_margin: float


def radius_characterizations(T, tol=None):
    """Decide the four radius-at-most-one conditions.

    Conditions (2) to (4) each come from their own level-set test at level
    1 + psd_eps * (1 + |T|). When the radius is not within 1e-6 of the
    threshold, the four booleans are verified to agree with
    ``num_radius(T) <= 1``.
    """
    t = _tol(tol)
    A = require_square(T, "radius_characterizations")
    radius, angle = _radius_and_angle(A, t)
    level = 1.0 + t.psd_eps * (1.0 + op_norm(A))
    cond3 = not _exceeds(A, level)
    # the open-disk condition holds iff its boundary limit (3) does; the
    # outermost sampled ring |z| = 0.9 is kept as a consistency check
    conds = (
        radius <= level,
        not _exceeds(-A, level),
        cond3,
        cond3 and not _exceeds(0.9 * A, level),
    )
    if abs(radius - 1.0) > 1e-6:
        expected = radius <= 1.0
        verify(all(c == expected for c in conds),
               f"radius conditions disagree: radius={radius}, conditions={conds}")
    return RadiusReport(radius=radius, argmax_angle=angle,
                        conditions=conds, worst_margin=1.0 - radius)
