"""On-the-fly batch repulsion: the inner-iteration update and its scheduling.

A repulse call runs M inner iterations, each recomputing the diversity
gradient at the current state and stepping by eta/M. Scheduling restricts the
intervention to a fraction range of sampling steps, a transformer block group,
and a token stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ContextBatch
from .vendi import entropy_gradient

OVERFLOW_LIMIT = 1e30

# below this, a "gradient" is eigensolver roundoff at a degenerate batch and
# normalizing it would amplify noise into a full-size step
_NORMALIZATION_FLOOR = 1e-12

STREAM_TAGS = ("text", "image", "all_tokens")
BLOCK_GROUPS = ("all", "first_third", "middle_third", "last_third")


class NumericOverflow(ArithmeticError):
    """An updated entry exceeded the overflow guard of 1e30."""


def fraction_in_interval(step_index: int, total_steps: int, interval: tuple[float, float]) -> bool:
    """True iff step_index/total_steps lies in the half-open [a, b)."""
    if not (0 <= step_index < total_steps):
        raise ValueError(f"step index {step_index} out of range for {total_steps} steps")
    fraction = step_index / total_steps
    a, b = interval
    return a <= fraction < b


def check_interval(interval: tuple[float, float], name: str) -> None:
    """Reject ``interval`` unless it is a fraction range with 0 <= a < b <= 1;
    the message calls it the ``name`` interval."""
    a, b = interval
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"{name} interval must satisfy 0 <= a < b <= 1, got ({a}, {b})")


@dataclass(frozen=True)
class RepulsionConfig:
    """Knobs of the repulsion schedule.

    ``eta`` is the overall scale, split evenly over ``inner_steps`` gradient
    iterations. ``timestep_interval`` is a half-open fraction range [a, b) of
    the sampling trajectory. ``block_selector`` is a named block group or an
    explicit tuple of block indices. ``gradient_normalization`` divides each
    gradient by the largest per-sample norm so step sizes are interpretable
    at any activation magnitude.
    """

    eta: float = 0.0
    inner_steps: int = 1
    timestep_interval: tuple[float, float] = (0.0, 1.0)
    block_selector: str | tuple[int, ...] = "all"
    target_stream: str = "text"
    gradient_normalization: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be finite and non-negative, got {self.eta}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        check_interval(self.timestep_interval, "timestep")
        if isinstance(self.block_selector, str):
            if self.block_selector not in BLOCK_GROUPS:
                raise ValueError(f"unknown block group {self.block_selector!r}")
        else:
            object.__setattr__(self, "block_selector", tuple(int(i) for i in self.block_selector))
        if self.target_stream not in STREAM_TAGS:
            raise ValueError(f"unknown target stream {self.target_stream!r}")


def _geometric_mid(low: float, high: float) -> float:
    return math.sqrt(low * high)


# Published tuning ranges for the production models; presets pin eta at the
# geometric midpoint of each range.
ETA_RANGES = {
    "flux-dev": (2.5e8, 5e10),
    "sd35-large": (2.5e7, 5e8),
    "sd35-turbo": (5e6, 1e8),
}

PRESETS = {
    "flux-dev": RepulsionConfig(
        eta=_geometric_mid(*ETA_RANGES["flux-dev"]),
        inner_steps=50,
        timestep_interval=(0.0, 1.0 / 20.0),
        block_selector="all",
        target_stream="text",
    ),
    "sd35-large": RepulsionConfig(
        eta=_geometric_mid(*ETA_RANGES["sd35-large"]),
        inner_steps=100,
        timestep_interval=(0.0, 4.0 / 28.0),
        block_selector="all",
        target_stream="text",
    ),
    "sd35-turbo": RepulsionConfig(
        eta=_geometric_mid(*ETA_RANGES["sd35-turbo"]),
        inner_steps=100,
        timestep_interval=(0.0, 1.0 / 4.0),
        block_selector="all",
        target_stream="text",
    ),
}


def repulse(batch: ContextBatch, cfg: RepulsionConfig) -> ContextBatch:
    """Run ``cfg.inner_steps`` gradient-ascent iterations on the batch.

    Each iteration recomputes the gradient at the current state, so a call
    with (eta, 2k) steps is exactly two chained calls with (eta/2, k). A batch
    of fewer than two samples, or eta = 0, returns the input unchanged.
    Normalization divides by the largest per-sample gradient norm, except
    below a 1e-12 floor where the batch is degenerate and the "gradient" is
    eigensolver roundoff.

    A stack of batches on leading axes (one per seed) is repelled batch by
    batch, each with its own normalization and floor, bit for bit as solo
    calls; a non-finite state or an overflow anywhere in the stack raises.
    """
    if batch.batch_size < 2 or cfg.eta == 0.0:
        return batch
    step = cfg.eta / cfg.inner_steps
    # never written to: each update below makes a new array
    vectors = batch.vectors
    for _ in range(cfg.inner_steps):
        # the state is finite here: the input batch was checked, and so is
        # every update below
        grad = entropy_gradient(ContextBatch._trusted(vectors))
        if cfg.gradient_normalization:
            # each batch's largest row norm, with np.linalg.norm's bits;
            # dividing by 1.0 leaves a batch under the floor as it is
            largest = np.sqrt(np.maximum.reduce(
                np.add.reduce(grad * grad, axis=-1, keepdims=True), axis=-2, keepdims=True
            ))
            largest[largest <= _NORMALIZATION_FLOOR] = 1.0
            grad = grad / largest
        vectors = vectors + step * grad
        # the max propagates NaN, so one scan finds a non-finite entry (which
        # NaN > limit alone would let through) and an overflow
        peak = np.maximum.reduce(np.abs(vectors), axis=None)
        if not peak <= OVERFLOW_LIMIT:
            if peak > OVERFLOW_LIMIT:
                raise NumericOverflow(f"updated entries exceed {OVERFLOW_LIMIT:.0e}")
            raise ValueError("batch entries must be finite")
    return ContextBatch._trusted(vectors)


def _block_selected(block_index: int, total_blocks: int, selector) -> bool:
    if isinstance(selector, str):
        if selector == "all":
            return True
        lo = total_blocks // 3
        hi = (2 * total_blocks) // 3
        if selector == "first_third":
            return block_index < lo
        if selector == "middle_third":
            return lo <= block_index < hi
        return hi <= block_index
    return block_index in selector


def should_apply(
    step_index: int,
    total_steps: int,
    block_index: int,
    total_blocks: int,
    stream_tag: str,
    cfg: RepulsionConfig,
) -> bool:
    """Gate a potential intervention point against the configured schedule."""
    if not (0 <= block_index < total_blocks):
        raise ValueError(f"block index {block_index} out of range for {total_blocks} blocks")
    if not fraction_in_interval(step_index, total_steps, cfg.timestep_interval):
        return False
    if not _block_selected(block_index, total_blocks, cfg.block_selector):
        return False
    return stream_tag == cfg.target_stream
