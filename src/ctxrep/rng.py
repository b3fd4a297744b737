"""The toy model's random source: numpy's PCG64 ``Generator``, seeded from
SplitMix64 words.

``derive_seed`` folds salts into a seed with the SplitMix64 mixer (Steele,
Lea & Flood 2014), so that the substreams of one run get unrelated seeds.
``seeded_generator`` seeds one ``np.random.Generator`` on PCG64 from any
integer taken modulo 2**64: its four state words are the first outputs of a
SplitMix64 stream at that seed (``SplitMix64Words``), so no ``SeedSequence``
hashes a seed the mixer has already mixed. ``normal_array`` fills a shape with
scaled standard normals from it. The mixture flow draws from the same
generator type, so the package has one bit generator and one normal sampler,
whose bits rest on numpy's stream policy (NEP 19).

``numpy.random`` is imported when the first ``SplitMix64Words`` is made, not
with this module, so that importing ``ctxrep`` does not pay for it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# SplitMix64's state increment, the golden ratio's 64-bit fraction
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state: int, count: int) -> list[int]:
    """The first ``count`` outputs of a SplitMix64 stream at ``state``."""
    outputs = []
    for _ in range(count):
        state = (state + _GAMMA) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        outputs.append(z ^ (z >> 31))
    return outputs


def derive_seed(base: int, *salts: int) -> int:
    """Fold ``salts`` into ``base`` to get an independent substream seed.
    ``base`` and each salt may be any integer, numpy's included, taken
    modulo 2**64."""
    [seed] = _splitmix64(operator.index(base) & _MASK64, 1)
    for salt in salts:
        [seed] = _splitmix64(seed ^ (operator.index(salt) & _MASK64), 1)
    return seed


class SplitMix64Words:
    """A seed sequence for numpy's bit generators (``ISeedSequence``) whose
    state words are the outputs of a SplitMix64 stream at ``seed`` modulo
    2**64, in order; the first is ``derive_seed(seed)``. Making one
    registers the type with ``ISeedSequence``, importing ``numpy.random``
    the first time, so that numpy takes it as a seed.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        _pcg64_generator()
        self._state = operator.index(seed) & _MASK64

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The first ``n_words`` words of the stream, of ``dtype`` np.uint32
        or np.uint64 (or their names). A uint32 word is half an output, low
        half first, as numpy's ``SeedSequence`` orders the halves."""
        dtype = np.dtype(dtype)
        if dtype == np.uint64:
            return np.array(_splitmix64(self._state, n_words), dtype=np.uint64)
        if dtype == np.uint32:
            halves = [w >> shift & _MASK32 for w in _splitmix64(self._state, (n_words + 1) // 2)
                      for shift in (0, 32)]
            return np.array(halves[:n_words], dtype=np.uint32)
        raise ValueError(f"only uint32 and uint64 words, got {dtype}")


@functools.cache
def _pcg64_generator():
    """numpy.random's ``Generator`` and ``PCG64``, with ``SplitMix64Words``
    registered as a seed sequence."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(SplitMix64Words)
    return Generator, PCG64


def seeded_generator(seed: int) -> np.random.Generator:
    """numpy's ``Generator`` on a PCG64 seeded with ``SplitMix64Words(seed)``:
    any integer, numpy's included, seeds it modulo 2**64, so -1 seeds it as
    2**64 - 1 does."""
    generator, pcg64 = _pcg64_generator()
    return generator(pcg64(SplitMix64Words(seed)))


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


def normal_array(generator: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0,
                 out: np.ndarray | None = None):
    """Fill ``shape`` row-major with scaled standard normals from ``generator``.

    The generator keeps no draw between calls, so splitting a fill across
    calls does not change the values. A shape with a negative or non-integer
    dimension raises ValueError and leaves ``generator`` untouched. With
    ``out``, a C-contiguous float64 array of ``shape``, the fill is drawn
    into it, with the same values, and ``out`` is returned.
    """
    out = generator.standard_normal(_dims(shape), out=out)
    out *= scale
    return out
