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

Each pencil is solved as a standard eigenproblem by shift-and-invert: its
eigenvalues are z = z0 + 1 / mu for the eigenvalues mu of
(P - z0 Q)^{-1} Q, with a fixed z0 off the unit circle. QZ
(``scipy.linalg.eig(P, Q)``) is only the fallback, for the singular
pencils of constant eigenvalue branches (T = 0, Jordan blocks, shifts).

Between two consecutive such angles lambda_max - r keeps its sign, so it
exceeds r somewhere exactly when it does at one of their midpoints.

The pencils certify; n x n eigensolves climb. As in Mitchell's hybrid
(SIAM J. Sci. Comput., 2023), a Newton ascent on lambda_max with its
analytic first and second derivatives climbs from the best of 8 sampled
angles to a local maximum r. One pencil solve at r then either certifies
it, when no midpoint beats r by more than the rounding floor of 8 ulps of
r, or hands the best midpoint, which lies in a higher basin, to the next
ascent. A generic radius takes one pencil solve.

The boundary is sampled by Johnson's support points (SIAM J. Numer. Anal.
15, 1978): <Tv, v> for a top eigenvector v of Re(e^{-i theta} T) at each
angle. The top end at theta + pi is the bottom end at theta, so an even
number of angles takes one tridiagonal reduction per antipodal pair.
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
# a midpoint that beats the level by no more than this many ulps of it is a
# rise at the rounding floor, not a higher basin: the loop stops there
_FLOOR_ULPS = 8.0
# shift-and-invert point of the level-set pencils, off the unit circle: a
# unimodular z gives mu = 1 / (z - z0) with 1 / 2.37 <= |mu| <= 1 / 0.37
_SHIFT = 1.37 * np.exp(0.7j)
# eigvals of M = (P - z0 Q)^{-1} Q errs by about eps |M|, so up to this |M|_F
# a unimodular z is found to about 1e-8; a singular pencil makes P - z0 Q
# singular and |M|_F about 1e16 (regular ones on 1e-6..1e6 scaled inputs:
# at most 5e2), and then the pencil goes to QZ
_SHIFTED_NORM_MAX = 1e8
_EPS = np.finfo(float).eps


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


def _pencil_eigenvalues(P, Q):
    """Finite eigenvalues of the pencil P - z Q, all those near the unit
    circle among them.

    They are z = z0 + 1 / mu for the eigenvalues mu of (P - z0 Q)^{-1} Q, one
    LU solve and one standard eigensolve; an infinite eigenvalue (Q singular)
    is mu = 0 and is dropped. QZ is only the fallback, for P - z0 Q singular
    or nearly so, which every singular pencil makes it.
    """
    try:
        M = np.linalg.solve(P - _SHIFT * Q, Q)
    except np.linalg.LinAlgError:
        M = None
    if M is None or not np.linalg.norm(M) <= _SHIFTED_NORM_MAX:
        z = scipy.linalg.eig(P, Q, right=False)
        return z[np.isfinite(z)]
    mu = np.linalg.eigvals(M)
    # every z with |z| <= 1 + _UNIMODULAR has |z - z0| < |z0| + 2
    mu = mu[np.abs(mu) * (abs(_SHIFT) + 2.0) > 1.0]
    return _SHIFT + 1.0 / mu


def _level_pencil(D, r):
    """The 2mn x 2mn first companion pencil (P, Q) of
    z^m (p(z) + p(z)* - 2r I); its top block row holds the coefficients of
    z^{2m-1} down to z^0, negated."""
    D = np.reshape(D, (-1,) + np.shape(D)[-2:])
    m, n = D.shape[:2]
    P = np.zeros((2 * m * n, 2 * m * n), dtype=complex)
    P[:n] = np.hstack([-Dk for Dk in D[:-1][::-1]] + [2.0 * r * np.eye(n)]
                      + [-dagger(Dk) for Dk in D])
    P[n:, :-n] = np.eye((2 * m - 1) * n)
    Q = np.eye(2 * m * n, dtype=complex)
    Q[:n, :n] = D[-1]
    return P, Q


def _level_midpoints(D, r):
    """Midpoints between consecutive angles where an eigenvalue of
    Re p(e^{i theta}) equals r, or angle 0 when there is no such angle.

    The angles are those of the pencil's eigenvalues within _UNIMODULAR of
    the unit circle, found by shift-and-invert (``_pencil_eigenvalues``)
    with QZ only as its fallback."""
    z = _pencil_eigenvalues(*_level_pencil(D, r))
    th = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR]) % (2.0 * np.pi))
    if th.size == 0:
        return np.zeros(1)
    return (th + np.append(th[1:], th[0] + 2.0 * np.pi)) / 2.0


def _pow2_scale(M):
    """A power of 2 near 1 / max|M| (1 for M = 0): scaling by it is exact,
    keeps eigenvectors bit for bit and products of entries in range."""
    return float(np.ldexp(1.0, min(-int(np.frexp(np.abs(M).max(initial=0.0))[1]), 1023)))


def _exceeds(A, level):
    """Whether lambda_max(Re(e^{i theta} A)) > level for some theta."""
    s = _pow2_scale(A)
    B, level = s * A, s * level
    return bool(_support_grid(B, _level_midpoints(B, level)).max() > level)


def _floor(r):
    """The rounding floor above a level r: _FLOOR_ULPS ulps of 1 + |r|."""
    return _FLOOR_ULPS * _EPS * (1.0 + abs(r))


def _ascend(AB, theta):
    """Newton ascent on f(theta) = lambda_max(H(theta)) from theta; returns
    the highest value reached and its angle.

    H(theta) = sum_k Re(e^{i k theta}) A_k + Im(e^{i k theta}) B_k, with AB
    the (2m, n, n) stack A_1, B_1, ..., A_m, B_m of A_k = Re D_k and
    B_k = Re(i D_k), so that H(theta) = Re p(e^{i theta}). At a simple top
    eigenpair (lambda_n, v) of H, with the other eigenpairs (lambda_j, u_j),

        f'  = v* H' v,
        f'' = v* H'' v + 2 sum_j |u_j* H' v|^2 / (lambda_n - lambda_j).

    Each step is one Hermitian eigensolve. A Newton step is taken only while
    f'' < 0 and lambda_n is apart from lambda_{n-1} by more than the
    rounding floor, and the ascent stops once a rise, taken or predicted by
    the Newton model, is within that floor.
    """
    k = np.arange(1.0, AB.shape[0] // 2 + 1.0)
    n = AB.shape[1]
    flat = AB.reshape(AB.shape[0], -1)
    heevd = scipy.linalg.get_lapack_funcs("heevd", (flat,))
    best, best_theta = -np.inf, theta
    for _ in range(_MAX_LEVELS):
        e = np.exp(1j * theta * k)
        lam, U, info = heevd((e.view(float) @ flat).reshape(n, n))
        if info != 0:
            raise NoConvergence(f"?heevd failed at angle {theta} (info={info})")
        top = float(lam[-1])
        rise, floor = top - best, _floor(top)
        if rise > 0.0:
            best, best_theta = top, theta
        if rise <= floor or n > 1 and top - lam[-2] <= floor:
            break
        v = U[:, -1]
        X = AB @ v
        # H' v in the eigenbasis of H: its last entry is f'
        W = U.conj().T @ ((1j * k * e).view(float) @ X)
        f1 = W[-1].real
        f2 = (-(k * k * e).view(float) @ (X @ v.conj())).real \
            + 2.0 * np.vdot(W[:-1], W[:-1] / (top - lam[:-1])).real
        if not f2 < 0.0 or f1 * f1 <= -2.0 * f2 * floor:
            break
        theta = theta - f1 / f2
    return best, best_theta


def _level_set_max(D):
    """Max over theta of lambda_max(Re p(e^{i theta})) and an angle where it
    is attained, for p(z) = sum_k z^k D_k as in ``_support_grid``.

    A Newton ascent (``_ascend``) climbs from the best of 8 sampled angles,
    and again from the best midpoint of any level that one beats, so each
    pencil solve mostly just certifies the top already reached. It works on
    D scaled by _pow2_scale: the rounding floor is relative to |D|."""
    scale = _pow2_scale(D)
    D = scale * np.reshape(D, (-1,) + np.shape(D)[-2:])
    AB = np.stack([herm_part(D), herm_part(1j * D)], axis=1).reshape((-1,) + D.shape[1:])
    thetas = 2.0 * np.pi * np.arange(8) / 8
    vals = _support_grid(D, thetas)
    for _ in range(_MAX_LEVELS):
        i = int(np.argmax(vals))
        r, angle = _ascend(AB, float(thetas[i]))
        thetas = _level_midpoints(D, r)
        vals = _support_grid(D, thetas)
        i = int(np.argmax(vals))
        if vals[i] <= r + _floor(r):
            if vals[i] > r:
                r, angle = float(vals[i]), float(thetas[i])
            return r / scale, angle % (2.0 * np.pi)
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
    Re(e^{-i theta_k} T) = cos(theta_k) Re T + sin(theta_k) Re(-i T) and
    emits <Tv, v>. Every point lies in the numerical range; their convex hull
    approximates it from inside.

    Re(e^{-i(theta + pi)} T) = -Re(e^{-i theta} T), so for even K the top
    eigenvector at theta_{k + K/2} is the bottom one at theta_k, and the K
    points need K/2 Hermitian matrices; odd K takes the top end of all K.
    Each matrix is reduced to real tridiagonal form once (LAPACK ?hetrd),
    its wanted ends are found by bisection (dstebz) and inverse iteration
    (dstein), and one ?unmqr applies the reduction's reflectors back to
    both vectors. The K points then come from one product.
    """
    A = require_square(T, "range_boundary")
    if K < 3:
        raise BadShape(f"range_boundary needs K >= 3, got {K}")
    n = A.shape[0]
    if n == 1:
        return [complex(A[0, 0])] * K
    # bisection takes squares of the tridiagonal's entries
    scale = _pow2_scale(A)
    X, Y = herm_part(scale * A), herm_part(-1j * scale * A)
    half, ends = (K // 2, (n, 1)) if K % 2 == 0 else (K, (n,))
    hetrd, unmqr = scipy.linalg.get_lapack_funcs(("hetrd", "unmqr"), (X,))
    stebz, stein = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (X.real,))
    lwork = int(scipy.linalg.get_lapack_funcs("hetrd_lwork", (X,))(n, lower=1)[0].real)
    iblock = np.zeros(n, dtype=np.int32)
    V = np.empty((K, n), dtype=complex)
    for k, theta in enumerate(2.0 * np.pi * np.arange(half) / K):
        c, d, e, tau, info = hetrd(np.cos(theta) * X + np.sin(theta) * Y,
                                   lower=1, lwork=lwork)
        infos = [info]
        # (block, eigenvalue, row of V) of each end; dstein wants them
        # grouped by split-off block and ascending within one
        found = []
        for j, i in enumerate(ends):
            _, w, blocks, isplit, info = stebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "B")
            found.append((blocks[0], w[0], k + j * half))
            infos.append(info)
        found.sort()
        iblock[:len(found)] = [b for b, _, _ in found]
        z, info = stein(d, e, [w for _, w, _ in found], iblock, isplit)
        infos.append(info)
        # the lower reflectors of ?hetrd are the QR reflectors of c[1:, :n-1]
        z = z.astype(complex)
        z[1:], _, info = unmqr("L", "N", c[1:, :-1], tau, z[1:], len(found))
        infos.append(info)
        if any(infos):
            raise NoConvergence(f"tridiagonal eigensolve failed at angle {k} of {K} "
                                f"(info={infos})")
        V[[r for _, _, r in found]] = z.T
    # row k of V @ A^T is A v_k
    return np.einsum("ki,ki->k", V.conj(), V @ A.T).tolist()


@dataclass(frozen=True)
class RadiusReport:
    """Result of the four elementary radius checks.

    conditions holds, in order: (1) w(T) <= 1, (2) I + Re(lambda T) PSD on
    the unit circle, (3) Re(lambda T) <= I on the unit circle, (4)
    Re(z T) <= I on the open unit disk. (2) to (4) are one inequality and
    share one level-set test. worst_margin is 1 - w(T), the smallest margin
    of the four.
    """

    radius: float
    argmax_angle: float
    conditions: tuple
    worst_margin: float


def radius_characterizations(T, tol=None):
    """Decide the four radius-at-most-one conditions.

    Conditions (2) to (4) come from one level-set test at level
    1 + psd_eps * (1 + |T|): lambda -> -lambda maps the circle onto itself,
    so (2) is (3), and the open-disk condition (4) holds iff its boundary
    limit (3) does. Condition (1) comes from the radius. When the radius is
    not within 1e-6 of the threshold, the four booleans are verified to
    agree with ``num_radius(T) <= 1``.
    """
    t = _tol(tol)
    A = require_square(T, "radius_characterizations")
    radius, angle = _radius_and_angle(A, t)
    level = 1.0 + t.psd_eps * (1.0 + op_norm(A))
    on_circle = not _exceeds(A, level)
    conds = (radius <= level, on_circle, on_circle, on_circle)
    if abs(radius - 1.0) > 1e-6:
        expected = radius <= 1.0
        verify(all(c == expected for c in conds),
               f"radius conditions disagree: radius={radius}, conditions={conds}")
    return RadiusReport(radius=radius, argmax_angle=angle,
                        conditions=conds, worst_margin=1.0 - radius)
