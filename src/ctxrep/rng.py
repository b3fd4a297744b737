"""Seeded pseudo-random streams used wherever bit-reproducibility matters.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer), mapped to
standard normals through Box-Muller. ``normal_array`` computes a whole block
of the stream at once: the integer stream and its mapping to (0, 1] run in
numpy ``uint64``/``float64`` arithmetic, which is exact, while the Box-Muller
``log``, ``cos`` and ``sin`` stay on the platform's libm (numpy's own
transcendentals round differently on some inputs). So the integer stream is
identical on every platform and the normal stream is as stable as libm, and
both equal a one-draw-at-a-time evaluation bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(rng._state) + steps * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    rng._state = (rng._state + count * _GOLDEN) & _MASK64
    return ((z >> np.uint64(11)) + np.uint64(1)).astype(float) * (1.0 / (1 << 53))


def normal_array(rng: SplitMix64, shape: tuple[int, ...], scale: float = 1.0):
    """Fill ``shape`` row-major with scaled standard normals from ``rng``.

    Each pair of draws (u1, u2) gives the cosine normal and then the sine
    normal; an odd count leaves the last sine in ``rng._spare`` for the next
    call, so splitting a fill across calls does not change the values.
    """
    count = 1
    for dim in shape:
        count *= int(dim)
    head = []
    if count and rng._spare is not None:
        head, rng._spare = [rng._spare], None
    rest = count - len(head)
    pairs = (rest + 1) // 2
    u = _units(rng, 2 * pairs)
    radius = np.sqrt(-2.0 * np.array(list(map(math.log, u[0::2].tolist()))))
    angle = (2.0 * math.pi * u[1::2]).tolist()
    gauss = np.empty(2 * pairs)
    gauss[0::2] = radius * np.array(list(map(math.cos, angle)))
    gauss[1::2] = radius * np.array(list(map(math.sin, angle)))
    if rest % 2:
        rng._spare = float(gauss[-1])
        gauss = gauss[:-1]
    values = np.concatenate([head, gauss]) if head else gauss
    return (scale * values).reshape(shape)
