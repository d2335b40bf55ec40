"""Deterministic random generation on top of a splitmix64 stream.

The generator is fully specified here so that a rerun in any language can
reproduce the same *sequence of draws* (sample counts and structure), even
though floating-point rounding may differ in the last bits:

* state update:  ``s <- (s + 0x9E3779B97F4A7C15) mod 2^64``
* output mix:    ``z = s; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31``
* uniform double in [0, 1): top 53 bits of ``z`` times 2^-53
* standard normals: Box-Muller on consecutive uniforms (u clamped away
  from 0), two normals per pair, no caching across calls that draw an
  odd count
* complex standard normal: ``(x + iy) / sqrt(2)``

``split(seed, k)`` derives independent child seeds for per-sample
parallel determinism.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


# 0-d uint64 operands: numpy applies them faster than uint64 scalars
_U64 = {k: np.array(k, dtype=np.uint64)
        for k in (11, 27, 30, 31, _GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)}


def _mix_array(z):
    """_mix elementwise, in place, on a uint64 array (products wrap mod 2^64)."""
    z ^= z >> _U64[30]
    z *= _U64[0xBF58476D1CE4E5B9]
    z ^= z >> _U64[27]
    z *= _U64[0x94D049BB133111EB]
    z ^= z >> _U64[31]
    return z


def split(seed, k):
    """Derive the k-th child seed of ``seed`` (order-independent fan-out)."""
    return _mix((seed + (k + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """Minimal splitmix64 stream with uniform / normal / complex draws, each
    batch computed over numpy uint64 arrays: bit-identical to drawing one
    value at a time by the recurrence above."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK

    def _draw(self, count):
        """The next ``count`` outputs, as a uint64 array."""
        states = np.arange(1, count + 1, dtype=np.uint64)
        states *= _U64[_GOLDEN]
        states += np.array(self._state, dtype=np.uint64)
        self._state = (self._state + count * _GOLDEN) & _MASK
        return _mix_array(states)

    def next_u64(self):
        return int(self._draw(1)[0])

    def uniforms(self, count):
        """``count`` uniform doubles in [0, 1)."""
        z = self._draw(count)
        z >>= _U64[11]
        return z * 2.0 ** -53

    def uniform(self):
        """Uniform double in [0, 1)."""
        return float(self.uniforms(1)[0])

    def _box_muller(self, pairs):
        """Box-Muller on ``pairs`` pairs of uniforms, as a (2, pairs) array:
        row 0 holds r cos(angle), row 1 r sin(angle)."""
        u = self.uniforms(2 * pairs)
        r = np.maximum(u[0::2], 2.0 ** -53)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle = 2.0 * np.pi * u[1::2]
        out = np.empty((2, pairs))
        np.cos(angle, out=out[0])
        np.sin(angle, out=out[1])
        out *= r
        return out

    def normals(self, count):
        """Array of ``count`` standard normals via Box-Muller."""
        return self._box_muller((count + 1) // 2).T.reshape(-1)[:count]

    def complex_normals(self, count):
        """(x + iy) / sqrt(2) for x = normals(count) and y = normals(count)
        drawn next: normal pairs 0..h-1 fill x, pairs h..2h-1 fill y."""
        h = (count + 1) // 2
        z = np.empty(2 * h, dtype=complex)
        # z as floats is indexed [pair, cos / sin, real / imag]
        polar = self._box_muller(2 * h).reshape(2, 2, h)
        z.view(float).reshape(h, 2, 2)[...] = polar.transpose(2, 0, 1)
        z /= np.sqrt(2.0)
        return z[:count]

    def complex_matrix(self, rows, cols):
        return self.complex_normals(rows * cols).reshape(rows, cols)
