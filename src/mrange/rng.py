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
parallel determinism. It is output k of the stream of ``seed``, so
``children(seed, count)`` draws the first ``count`` at once, and a
``SplitMix64`` built on an array of seeds draws all their streams side by
side, each bit-identical to drawing it alone: the output j of seed s is the
mix of s + (j + 1) * 0x9E3779B97F4A7C15, a counter.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# 0-d uint64 operands: numpy applies them faster than uint64 scalars
_U64 = {k: np.array(k, dtype=np.uint64)
        for k in (11, 27, 30, 31, _GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)}


def _mix_array(z):
    """The output mix, in place on a uint64 array (products wrap mod 2^64)."""
    z ^= z >> _U64[30]
    z *= _U64[0xBF58476D1CE4E5B9]
    z ^= z >> _U64[27]
    z *= _U64[0x94D049BB133111EB]
    z ^= z >> _U64[31]
    return z


def split(seed, k):
    """Derive the k-th child seed of ``seed`` (order-independent fan-out)."""
    return int(_mix_array(np.array((int(seed) + (k + 1) * _GOLDEN) & _MASK, dtype=np.uint64)))


def children(seed, count):
    """split(seed, k) for k < count as a uint64 array, in one batch; an
    array of seeds gives one row of children each."""
    return SplitMix64(seed)._draw(count)


class SplitMix64:
    """Minimal splitmix64 stream with uniform / normal / complex draws, each
    batch computed over numpy uint64 arrays: bit-identical to drawing one
    value at a time by the recurrence above. Built on an array of seeds, it
    runs one stream per seed and every draw gains their leading axes."""

    def __init__(self, seed):
        # a copy: every draw advances the state in place
        self._state = (seed.astype(np.uint64) if isinstance(seed, np.ndarray)
                       else np.array(int(seed) & _MASK, dtype=np.uint64))

    def _draw(self, count):
        """The next ``count`` outputs of each stream, as a uint64 array."""
        states = np.arange(1, count + 1, dtype=np.uint64)
        states *= _U64[_GOLDEN]
        states = states + self._state[..., None]
        np.add(self._state, np.uint64((count * _GOLDEN) & _MASK), out=self._state)
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
        """Box-Muller on ``pairs`` pairs of uniforms, as a (..., 2, pairs)
        array: row 0 holds r cos(angle), row 1 r sin(angle)."""
        u = self.uniforms(2 * pairs)
        r = np.maximum(u[..., 0::2], 2.0 ** -53)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle = 2.0 * np.pi * u[..., 1::2]
        out = np.empty(u.shape[:-1] + (2, pairs))
        np.cos(angle, out=out[..., 0, :])
        np.sin(angle, out=out[..., 1, :])
        out *= r[..., None, :]
        return out

    def normals(self, count):
        """Array of ``count`` standard normals via Box-Muller."""
        pairs = np.swapaxes(self._box_muller((count + 1) // 2), -1, -2)
        return pairs.reshape(pairs.shape[:-2] + (-1,))[..., :count]

    def complex_normals(self, count):
        """(x + iy) / sqrt(2) for x = normals(count) and y = normals(count)
        drawn next: normal pairs 0..h-1 fill x, pairs h..2h-1 fill y."""
        h = (count + 1) // 2
        polar = self._box_muller(2 * h)
        lead = polar.shape[:-2]
        z = np.empty(lead + (2 * h,), dtype=complex)
        # z as floats is indexed [pair, cos / sin, real / imag]
        z.view(float).reshape(lead + (h, 2, 2)).swapaxes(-1, -2)[...] = \
            polar.reshape(lead + (2, 2, h)).swapaxes(-1, -3)
        z /= np.sqrt(2.0)
        return z[..., :count]

    def complex_matrix(self, rows, cols):
        z = self.complex_normals(rows * cols)
        return z.reshape(z.shape[:-1] + (rows, cols))
