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
analytic first and second derivatives climbs from the best of 16 start
angles (8 for m > 1) to a local maximum r. One pencil solve at r then
either certifies it, when no midpoint beats r by more than the rounding
floor of 8 ulps of r, or hands the best midpoint, which lies in a higher
basin, to the next ascent. A generic radius takes one pencil solve. One
``_RadiusSolve`` per input holds these stages, each taken at most once:
the start grid, the first ascent, the pencil, the maximum with the angles
where it is attained (for the boundary shift of :mod:`mrange.ando`) and
level tests. Callers that print no radius take the first ascent alone as
a provisional radius, which Ando's X certifies (``_radius_or_bound``).

lambda_max of a direct sum is the largest of its summands', and its level
pencil is the direct sum of theirs. So one solve on a (B, m, n, n) stack
gives the largest maximum of B polynomials, w(M_1 + ... + M_B) =
max_b w(M_b) for p(z) = z M_b: each level solves the B pencils of size
2mn as one batch, and the ascent climbs the summand on top at its start.

The boundary is sampled by Johnson's support points (SIAM J. Numer. Anal.
15, 1978): <Tv, v> for a top eigenvector v of Re(e^{-i theta} T) at each
angle. The top end at theta + pi is the bottom end at theta, so an even
number of angles takes one tridiagonal reduction per antipodal pair.
"""

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import BadShape, MrangeError, NoConvergence, verify
from .linalg import BAND, _count, dagger, herm_part, op_norm, require_square

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
# a midpoint of the final level within this many floors of the maximum marks
# an angle where the maximum is attained (a tangency of the level set)
_MAXIMA_FLOORS = 64.0
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
    (m, n, n) array; a single n x n matrix T stands for p(z) = z T. A stack
    (B, m, n, n) of summands gives each one's values, as a (B, angles) array."""
    D = _polynomial(D)
    lam = np.exp(1j * thetas)[:, None, None]
    stack = lam * D[..., None, 0, :, :]
    for k in range(2, D.shape[-3] + 1):
        stack = stack + lam ** k * D[..., None, k - 1, :, :]
    return np.linalg.eigvalsh(herm_part(stack))[..., -1]


def _polynomial(D):
    """D as an (..., m, n, n) stack of coefficients; an n x n T is p(z) = z T."""
    return D.reshape((1,) * (3 - D.ndim) + D.shape)


def _pencil_eigenvalues(P, Q):
    """Finite eigenvalues of the pencils P - z Q of a stack, all those near
    the unit circle among them, as one flat array.

    They are z = z0 + 1 / mu for the eigenvalues mu of (P - z0 Q)^{-1} Q, one
    batched LU solve and one batched standard eigensolve; an infinite
    eigenvalue (Q singular) is mu = 0 and is dropped. QZ is only the
    fallback, pencil by pencil, for P - z0 Q singular or nearly so, which
    every singular pencil makes it.
    """
    P, Q = P.reshape((-1,) + P.shape[-2:]), Q.reshape((-1,) + Q.shape[-2:])
    try:
        M = np.linalg.solve(P - _SHIFT * Q, Q)
    except np.linalg.LinAlgError:
        # some P - z0 Q is exactly singular: solve the others one by one
        M = np.full(P.shape, np.nan, dtype=complex)
        for b in range(len(P)):
            with suppress(np.linalg.LinAlgError):
                M[b] = np.linalg.solve(P[b] - _SHIFT * Q[b], Q[b])
    # squared Frobenius norms, from the float view without a temporary
    F = M.view(float).reshape(len(M), -1)
    qz = np.flatnonzero(~(np.einsum("bk,bk->b", F, F) <= _SHIFTED_NORM_MAX ** 2))
    # zeroed, the pencils left to QZ give mu = 0, dropped below
    M[qz] = 0.0
    mu = np.linalg.eigvals(M)
    # every z with |z| <= 1 + _UNIMODULAR has |z - z0| < |z0| + 2
    z = _SHIFT + 1.0 / mu[np.abs(mu) * (abs(_SHIFT) + 2.0) > 1.0]
    if not qz.size:
        return z
    zs = [scipy.linalg.eig(P[b], Q[b], right=False) for b in qz]
    return np.concatenate([z] + [zb[np.isfinite(zb)] for zb in zs])


def _level_pencil(D):
    """The 2mn x 2mn first companion pencil (P, Q) of
    z^m (p(z) + p(z)* - 2r I) as a function of the level r, for D as in
    ``_support_grid`` (one pencil per summand of a stack); its top block row
    holds the coefficients of z^{2m-1} down to z^0, negated. Only the block
    2r I depends on r, so the rest is built once per solve, and each call
    returns the same P, updated in place."""
    D = _polynomial(D)
    *lead, m, n, _ = D.shape
    P = np.zeros((*lead, 2 * m * n, 2 * m * n), dtype=complex)
    P[..., :n, :] = np.concatenate([-D[..., k, :, :] for k in range(m - 2, -1, -1)]
                                   + [np.zeros_like(D[..., 0, :, :])]
                                   + [-dagger(D[..., k, :, :]) for k in range(m)], axis=-1)
    P[..., n:, :-n] = np.eye((2 * m - 1) * n)
    Q = np.zeros_like(P)
    Q[...] = np.eye(2 * m * n)
    Q[..., :n, :n] = D[..., -1, :, :]
    eye = np.eye(n)

    def at(r):
        P[..., :n, (m - 1) * n:m * n] = 2.0 * r * eye
        return P, Q

    return at


def _level_midpoints(pencil, r):
    """Midpoints between consecutive angles where an eigenvalue of
    Re p(e^{i theta}) equals r, or angle 0 when there is no such angle; for
    a stack of summands, the angles of any of them. ``pencil`` is
    ``_level_pencil(D)``.

    The angles are those of the pencils' eigenvalues within _UNIMODULAR of
    the unit circle, found by shift-and-invert (``_pencil_eigenvalues``)
    with QZ only as its fallback."""
    z = _pencil_eigenvalues(*pencil(r))
    th = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR]) % (2.0 * np.pi))
    if th.size == 0:
        return np.zeros(1)
    return (th + np.append(th[1:], th[0] + 2.0 * np.pi)) / 2.0


def _pow2_scale(M):
    """A power of 2 near 1 / max|M| (1 for M = 0): scaling by it is exact,
    keeps eigenvectors bit for bit and products of entries in range."""
    return float(np.ldexp(1.0, min(-int(np.frexp(np.abs(M).max(initial=0.0))[1]), 1023)))


def _floor(r):
    """The rounding floor above a level r: _FLOOR_ULPS ulps of 1 + |r|."""
    return _FLOOR_ULPS * _EPS * (1.0 + abs(r))


def _start_grid(D):
    """Start angles and values of a level-set solve on a (B, m, n, n) stack:
    8 angles, or for m = 1 16 from 8 eigensolves, as f(theta + pi) is minus
    the bottom eigenvalue of Re(e^{i theta} T)."""
    if D.shape[1] > 1:
        thetas = np.pi * np.arange(8) / 4
        return thetas, _support_grid(D, thetas)
    thetas = np.pi * np.arange(16) / 8
    lam = np.linalg.eigvalsh(herm_part(np.exp(1j * thetas[:8])[:, None, None] * D[:, None, 0]))
    return thetas, np.concatenate([lam[..., -1], -lam[..., 0]], axis=-1)


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


def _climb(D, thetas, vals):
    """(value, angle) of the ascent (``_ascend``) from the best of these angles
    and their values on a (B, m, n, n) stack D, on the summand on top there,
    no lower than its value there."""
    b, i = divmod(int(np.argmax(vals)), len(thetas))
    AB = np.stack([herm_part(D[b]), herm_part(1j * D[b])], axis=1).reshape((-1,) + D.shape[2:])
    r, angle = _ascend(AB, float(thetas[i]))
    # the midpoint values and the ascent come from different eigensolvers;
    # a level below the value that raised it would be solved again
    if vals[b, i] > r:
        r, angle = float(vals[b, i]), float(thetas[i])
    return r, angle


def _near(r):
    """Values from here up attain a maximum r: within _MAXIMA_FLOORS floors."""
    return r - _MAXIMA_FLOORS * _floor(r)


class _Radius(float):
    """A numerical radius that also holds ``maxima``, the angles where it is
    attained, for Ando's boundary shift, and whether it is ``provisional``:
    an ascent's value, which Ando's X certifies by its LMI (``_RadiusSolve``
    states both rules)."""

    def __new__(cls, value, maxima, provisional=False):
        self = super().__new__(cls, value)
        self.maxima, self.provisional = maxima, provisional
        return self

    def __getnewargs__(self):
        return float(self), self.maxima, self.provisional


class _RadiusSolve:
    """The level-set solve of max_theta lambda_max(Re p(e^{i theta})) for D as
    in ``_support_grid``, or a (B, m, n, n) direct sum of B polynomials. It
    works on D scaled by _pow2_scale, kept as ``self.D``, so the rounding
    floor is relative to |D|. It takes the start grid (``_start_grid``) at
    once, and each later stage at most once, when first asked for:
    ``ascent``, the first Newton ascent (``_climb``) from the best start
    angle; ``pencil``, the level pencil; ``maximum``, the certified maximum
    as a _Radius, and an angle where it is attained; and level tests,
    ``exceeds``, on that same pencil.

    From the first ascent, each level's pencil either certifies the top
    reached, when no midpoint beats it by more than the rounding floor, or
    hands the best midpoint, which lies in a higher basin, to the next
    ascent. Each level solves the B pencils of size 2mn of a direct sum as
    one batch, never the dense one of size 2Bmn (slower than B solves for
    B = 8 from n = 2 on), and each ascent climbs the one summand on top at
    its start angle; one that rises above it elsewhere is found by the
    pencil, as any higher basin is.

    The maxima are the final level's midpoints that attain the maximum to
    within _MAXIMA_FLOORS floors, with the angle the last ascent reached in
    place of the midpoint nearest it on the circle; a provisional radius,
    the first ascent's value (``_radius_or_bound``), has that ascent's angle
    as its one maximum. A value attained that closely at every start angle
    is taken to be attained on the whole circle (a constant eigenvalue
    branch, whose pencils are singular): no maxima. So where w is attained
    at one angle, both radii give Ando's X the same shift."""

    def __init__(self, D):
        self.scale = _pow2_scale(D)
        self.D = self.scale * np.reshape(D, (1,) * (4 - np.ndim(D)) + np.shape(D))
        self.thetas, self.vals = _start_grid(self.D)
        # every start angle attains a maximum r with _near(r) <= lowest
        self.lowest = float(self.vals.max(axis=0).min())

    @cached_property
    def ascent(self):
        return _climb(self.D, self.thetas, self.vals)

    @cached_property
    def pencil(self):
        return _level_pencil(self.D)

    @cached_property
    def maximum(self):
        r, angle = self.ascent
        for _ in range(_MAX_LEVELS):
            thetas = _level_midpoints(self.pencil, r)
            vals = _support_grid(self.D, thetas)
            top = vals.max(axis=0)
            i = int(np.argmax(top))
            if top[i] <= r + _floor(r):
                climbed = angle % (2.0 * np.pi)
                if top[i] > r:
                    r, angle = float(top[i]), float(thetas[i])
                near, maxima = _near(r), np.empty(0)
                if self.lowest < near:
                    maxima = thetas[top >= near] % (2.0 * np.pi)
                    if maxima.size:
                        maxima[np.cos(maxima - climbed).argmax()] = climbed
                    else:
                        maxima = np.array([climbed])
                return _Radius(r / self.scale, maxima), angle % (2.0 * np.pi)
            r, angle = _climb(self.D, thetas, vals)
        raise NoConvergence(f"level set still rising after {_MAX_LEVELS} levels")

    def exceeds(self, level, norm, angles):
        """Whether lambda_max(Re(e^{i theta} T)) > level for some theta, for
        norm = |T|: no if |T| <= level, yes if a fresh support value at a hint
        angle exceeds it (a hint is never trusted), else as the level set says."""
        if norm <= level:
            return False
        level = self.scale * level
        if _support_grid(self.D, np.asarray(angles, dtype=float)).max(initial=-np.inf) > level:
            return True
        return bool(_support_grid(self.D, _level_midpoints(self.pencil, level)).max() > level)


def _radius_or_bound(A, witness):
    """witness(w) for the numerical radius w of a square A, for the callers
    that print no radius, which ``ando._extremal_X`` serves. A proven upper
    bound under 1 - BAND stands in for w, as X reads it as it would w: at
    the angle theta* where w is attained, with top unit vector v,
    f(theta) >= Re(e^{i theta} v*Av) = w cos(theta - theta*), and a start
    angle lies within pi/16 of theta*, so w <= l sec(pi/16) for the largest
    start value l; (1 + 8 n eps) covers its rounding, about
    n eps |A| <= 2 n eps w. Otherwise, for a first ascent of at most
    1 + BAND, witness certifies that provisional radius by its result or
    rejects it by raising MrangeError; only then does the level set run."""
    solve = _RadiusSolve(A)
    bound = float(solve.vals.max()) / solve.scale / np.cos(np.pi / 16) * (1.0 + 8 * len(A) * _EPS)
    if bound < 1.0 - BAND:
        return witness(_Radius(bound, np.empty(0)))
    r, angle = solve.ascent
    if r / solve.scale <= 1.0 + BAND:
        maxima = np.empty(0) if solve.lowest >= _near(r) else np.array([angle % (2.0 * np.pi)])
        with suppress(MrangeError):
            return witness(_Radius(r / solve.scale, maxima, provisional=True))
    return witness(solve.maximum[0])


def num_radius(T):
    """Numerical radius w(T) = max_theta lambda_max(Re(e^{i theta} T)), a
    float that also carries the angles where it is attained (``_Radius``).
    The level-set method needs no tolerance."""
    return _RadiusSolve(require_square(T, "num_radius")).maximum[0]


def range_boundary(T, K):
    """K support points of the numerical range.

    For each theta_k = 2 pi k / K, takes a top eigenvector v of
    Re(e^{-i theta_k} T) = cos(theta_k) Re T + sin(theta_k) Re(-i T) and
    emits <Tv, v>. Every point lies in the numerical range; their convex hull
    approximates it from inside.

    Re(e^{-i(theta + pi)} T) = -Re(e^{-i theta} T), so for even K the top
    eigenvector at theta_{k + K/2} is the bottom one at theta_k, and the K
    points need K/2 Hermitian matrices; odd K takes the top end of all K.
    Each matrix is reduced in place to real tridiagonal form (LAPACK ?hetrd),
    each wanted end of the tridiagonal comes with its vector from one MRRR
    call (dstemr, Dhillon and Parlett, Linear Algebra Appl. 387, 2004), and
    one ?unmqr applies the reduction's reflectors back to both vectors. The
    K points then come from one product.
    """
    A = require_square(T, "range_boundary")
    if _count(K) < 3:
        raise BadShape(f"range_boundary needs K >= 3, got {K}")
    n = A.shape[0]
    if n == 1:
        return [complex(A[0, 0])] * K
    # MRRR takes squares of the tridiagonal's entries
    scale = _pow2_scale(A)
    # Re T and Re(-i T) in column order as floats: (cos, sin) @ XY writes
    # cos Re T + sin Re(-i T) into the Fortran-order buffer of H
    XY = np.stack([herm_part(s * scale * A).ravel("F") for s in (1, -1j)]).view(float)
    H = np.empty((n, n), dtype=complex, order="F")
    flat = H.reshape(-1, order="F").view(float)
    half, ends = (K // 2, (n, 1)) if K % 2 == 0 else (K, (n,))
    hetrd, unmqr = scipy.linalg.get_lapack_funcs(("hetrd", "unmqr"), (H,))
    stemr = scipy.linalg.get_lapack_funcs("stemr", (XY,))
    lwork = int(scipy.linalg.get_lapack_funcs("hetrd_lwork", (H,))(n, lower=1)[0].real)
    # dstemr takes the off-diagonal as n entries and overwrites them
    e, Z = np.empty(n), np.empty((n, len(ends)), dtype=complex, order="F")
    V = np.empty((K, n), dtype=complex)
    for k, cs in enumerate(np.exp(2j * np.pi * np.arange(half) / K)[:, None].view(float)):
        np.matmul(cs, XY, out=flat)
        c, d, sub, tau, info = hetrd(H, lower=1, lwork=lwork, overwrite_a=1)
        infos = [info]
        for j, i in enumerate(ends):
            e[:-1] = sub
            _, _, z, info = stemr(d, e, 2, 0.0, 0.0, i, i)
            Z[:, j] = z[:, 0]
            infos.append(info)
        # the lower reflectors of ?hetrd are the QR reflectors of c[1:, :n-1]
        Z[1:], _, info = unmqr("L", "N", c[1:, :-1], tau, Z[1:], len(ends))
        infos.append(info)
        if any(infos):
            raise NoConvergence(f"tridiagonal eigensolve failed at angle {k} of {K} "
                                f"(info={infos})")
        V[k::half] = Z.T   # rows k and k + K/2 for even K, row k for odd
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


def radius_characterizations(T):
    """Decide the four radius-at-most-one conditions.

    Conditions (2) to (4) come from one level test (``_RadiusSolve.exceeds``,
    on the radius's pencil, hinted by its angle) at level
    1 + BAND * (1 + |T|), BAND the fixed rounding band of every threshold
    verdict: lambda -> -lambda maps the circle onto itself, so (2) is (3),
    and the open-disk condition (4) holds iff its boundary limit (3) does.
    Condition (1) comes from the radius. Outside that band, for
    |radius - 1| > level - 1, the four are verified to agree with w <= 1.
    """
    A = require_square(T, "radius_characterizations")
    solve = _RadiusSolve(A)
    radius, angle = solve.maximum
    norm = op_norm(A)
    level = 1.0 + BAND * (1.0 + norm)
    on_circle = not solve.exceeds(level, norm, [angle])
    conds = (radius <= level, on_circle, on_circle, on_circle)
    if abs(radius - 1.0) > level - 1.0:
        expected = radius <= 1.0
        verify(all(c == expected for c in conds),
               f"radius conditions disagree: radius={radius}, conditions={conds}")
    return RadiusReport(radius=radius, argmax_angle=angle,
                        conditions=conds, worst_margin=1.0 - radius)
