"""Reference computations that use numpy only, never mrange.

Every answer mrange returns is checked against these: the numerical radius
of each input is bracketed here, square roots and PSD tests are recomputed
here, and the closed forms below are the ground truth the benchmark trusts.
"""

import numpy as np


class CheckFailed(Exception):
    """The benchmark's own check rejected an answer."""


def herm(M):
    return (M + M.conj().T) / 2.0


def op_norm(M):
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def min_eig(H):
    return float(np.linalg.eigvalsh(herm(H))[0])


def sqrt_psd(H):
    """Square root of a PSD matrix, negative rounding clipped to zero."""
    w, V = np.linalg.eigh(herm(H))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def _support(T, thetas):
    """lambda_max(Re(e^{i theta} T)) for each angle, in chunks so that the
    oracle's memory stays far below the library's."""
    out = np.empty(thetas.size)
    chunk = max(1, 2 ** 16 // max(1, T.size))
    for s in range(0, thetas.size, chunk):
        stack = np.exp(1j * thetas[s:s + chunk])[:, None, None] * T[None]
        stack = (stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0
        out[s:s + chunk] = np.linalg.eigvalsh(stack)[:, -1]
    return out


def radius_bracket(T):
    """Certified bracket (lower, upper) for the numerical radius w(T).

    f(theta) = lambda_max(Re(e^{i theta} T)) is Lipschitz with constant |T|,
    so on an m-point grid no angle beats its nearest grid value by more
    than |T| pi / m: that gives ``upper``. The four highest local grid
    maxima are refined by a shrinking local grid; every value found is
    attained, so the best one is a true lower bound.
    """
    T = np.asarray(T, dtype=complex)
    m = max(1024, 32 * T.shape[0])
    thetas = 2.0 * np.pi * np.arange(m) / m
    vals = _support(T, thetas)
    upper = float(vals.max()) + op_norm(T) * np.pi / m
    lower = float(vals.max())
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    for k in peaks[np.argsort(vals[peaks])[::-1][:4]]:
        centre, half = thetas[k], 2.0 * np.pi / m
        while half > 1e-9:
            local = centre + np.linspace(-half, half, 33)
            fv = _support(T, local)
            centre = local[int(np.argmax(fv))]
            lower = max(lower, float(fv.max()))
            half /= 8.0
    return lower, upper


def shift(n):
    S = np.zeros((n, n), dtype=complex)
    S[np.arange(1, n), np.arange(n - 1)] = 1.0
    return S


def shift_radius(n):
    """w(S_n) = cos(pi / (n + 1)) for the n x n lower shift."""
    return float(np.cos(np.pi / (n + 1)))


# Closed forms of the extremal operator X for the 2 x 2 lower matrix unit.
E21 = shift(2)
X_OF_E21 = np.diag([0.75, 1.0]).astype(complex)
X_OF_2E21 = np.diag([0.0, 1.0]).astype(complex)


MARGIN_CAP = 7.0


def margin(residual, bound):
    """Accuracy margin in decimal digits, log10(bound / residual).

    Every bound here is at least 1e-9 relative to the data, so a margin
    above MARGIN_CAP means a residual at the level of double-precision
    rounding, where its size is noise; such margins count as MARGIN_CAP.
    Raises CheckFailed when the residual exceeds its bound.
    """
    residual = float(residual)
    if not residual <= bound:
        raise CheckFailed(f"residual {residual:.3e} exceeds bound {bound:.3e}")
    if residual <= bound * 10.0 ** -MARGIN_CAP:
        return MARGIN_CAP
    return float(np.log10(bound / residual))


def expect(condition, reason):
    if not condition:
        raise CheckFailed(reason)
