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


def _mix_array(z):
    """_mix elementwise on a uint64 array, whose products wrap mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        steps = np.arange(1, count + 1, dtype=np.uint64)
        states = np.uint64(self._state) + np.uint64(_GOLDEN) * steps
        if count:
            self._state = int(states[-1])
        return _mix_array(states)

    def next_u64(self):
        return int(self._draw(1)[0])

    def uniforms(self, count):
        """``count`` uniform doubles in [0, 1)."""
        return (self._draw(count) >> np.uint64(11)) * 2.0 ** -53

    def uniform(self):
        """Uniform double in [0, 1)."""
        return float(self.uniforms(1)[0])

    def _box_muller(self, pairs):
        """2 ``pairs`` standard normals, two from each pair of uniforms."""
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], 2.0 ** -53)))
        angle = 2.0 * np.pi * u[1::2]
        return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1).reshape(-1)

    def normals(self, count):
        """Array of ``count`` standard normals via Box-Muller."""
        return self._box_muller((count + 1) // 2)[:count]

    def complex_normals(self, count):
        # normals(count) twice, from one batch of uniforms
        x, y = self._box_muller(2 * ((count + 1) // 2)).reshape(2, -1)[:, :count]
        return (x + 1j * y) / np.sqrt(2.0)

    def complex_matrix(self, rows, cols):
        return self.complex_normals(rows * cols).reshape(rows, cols)
