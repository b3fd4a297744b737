"""The toy model's random source: numpy's PCG64 ``Generator``.

``seeded_generator`` seeds one ``np.random.Generator`` (PCG64, as
``np.random.default_rng`` builds it) from any integer taken modulo 2**64, and
``normal_array`` fills a shape with scaled standard normals from it. The
mixture flow draws from the same generator type, so the package has one
random source, and its bits rest on numpy's stream policy (NEP 19).
``derive_seed`` folds salts into a seed with the SplitMix64 mixer (Steele,
Lea & Flood 2014), so that the substreams of one run get unrelated seeds.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(base: int, *salts: int) -> int:
    """Fold ``salts`` into ``base`` to get an independent substream seed."""

    def mix(state: int) -> int:
        # the first output of a SplitMix64 stream at ``state``
        z = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    seed = mix(base & _MASK64)
    for salt in salts:
        seed = mix(seed ^ (salt & _MASK64))
    return seed


def seeded_generator(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator seeded with ``seed`` modulo 2**64, so that any
    integer seeds it and -1 seeds it as 2**64 - 1 does."""
    return np.random.default_rng(seed & _MASK64)


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


def normal_array(generator: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0):
    """Fill ``shape`` row-major with scaled standard normals from ``generator``.

    The generator keeps no draw between calls, so splitting a fill across
    calls does not change the values. A shape with a negative or non-integer
    dimension raises ValueError and leaves ``generator`` untouched.
    """
    out = generator.standard_normal(_dims(shape))
    out *= scale
    return out
