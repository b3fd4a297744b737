"""Seeded pseudo-random streams used wherever bit-reproducibility matters.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer), mapped to
standard normals through Box-Muller. ``normal_array`` computes a whole block
of the stream at once: the integer stream and its mapping to (0, 1] run in
numpy ``uint64``/``float64`` arithmetic, which is exact, while the Box-Muller
``log``, ``cos`` and ``sin`` stay on the platform's libm (numpy's own
transcendentals round differently on some inputs). So the integer stream is
identical on every platform and the normal stream is as stable as libm, and
both equal a one-draw-at-a-time evaluation bit for bit. Because a fill split
across calls equals one fill, ``toydit.init_weights`` draws every projection
matrix in one call, and its matrices are slices of that one fill.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (11, 27, 30, 31))
_ONE_U64 = np.uint64(1)


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-ratio increment.

    ``_spare`` holds the unused Box-Muller sine of the last pair drawn by
    :func:`normal_array`, which the next call returns first.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare: float | None = None

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


def derive_seed(base: int, *salts: int) -> int:
    """Fold ``salts`` into ``base`` to get an independent substream seed."""
    seed = SplitMix64(base).next_uint64()
    for salt in salts:
        seed = SplitMix64(seed ^ (salt & _MASK64)).next_uint64()
    return seed


def _units(rng: SplitMix64, count: int) -> np.ndarray:
    """The next ``count`` draws mapped by their top 53 bits into (0, 1], where
    the Box-Muller log is finite."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    # uint64 array arithmetic wraps modulo 2**64, exactly as the mixer does
    z *= _GOLDEN_U64
    z += np.uint64(rng._state)
    z ^= z >> _SHIFT_30
    z *= _MIX1_U64
    z ^= z >> _SHIFT_27
    z *= _MIX2_U64
    z ^= z >> _SHIFT_31
    z >>= _SHIFT_11
    z += _ONE_U64
    rng._state = (rng._state + count * _GOLDEN) & _MASK64
    return z.astype(float) * (1.0 / (1 << 53))


def _dims(shape: tuple[int, ...]) -> tuple[int, ...]:
    """``shape`` as Python ints, each an integer >= 0, or ValueError."""
    dims = []
    for dim in shape:
        try:
            size = operator.index(dim)
        except TypeError:
            raise ValueError(f"shape {shape!r} has a non-integer dimension {dim!r}") from None
        if size < 0:
            raise ValueError(f"shape {shape!r} has a negative dimension {size}")
        dims.append(size)
    return tuple(dims)


def normal_array(rng: SplitMix64, shape: tuple[int, ...], scale: float = 1.0):
    """Fill ``shape`` row-major with scaled standard normals from ``rng``.

    Each pair of draws (u1, u2) gives the cosine normal and then the sine
    normal; an odd count leaves the last sine in ``rng._spare`` for the next
    call, so splitting a fill across calls does not change the values. A
    shape with a negative or non-integer dimension raises ValueError and
    leaves ``rng`` untouched.
    """
    dims = _dims(shape)
    count = math.prod(dims)
    out = np.empty(count)
    head = 0
    if count and rng._spare is not None:
        out[0], rng._spare, head = rng._spare, None, 1
    rest = count - head
    pairs = (rest + 1) // 2
    u = _units(rng, 2 * pairs)
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), float, pairs))
    angle = (2.0 * math.pi * u[1::2]).tolist()
    sine = radius * np.fromiter(map(math.sin, angle), float, pairs)
    out[head::2] = radius * np.fromiter(map(math.cos, angle), float, pairs)
    out[head + 1::2] = sine[: rest // 2]
    if rest % 2:
        rng._spare = float(sine[-1])
    out *= scale
    return out.reshape(dims)
