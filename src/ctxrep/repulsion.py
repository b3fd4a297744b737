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
        a, b = self.timestep_interval
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"timestep interval must satisfy 0 <= a < b <= 1, got ({a}, {b})")
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
    """
    if batch.batch_size < 2 or cfg.eta == 0.0:
        return batch
    step = cfg.eta / cfg.inner_steps
    # never written to: each update below makes a new array
    vectors = batch.vectors
    for _ in range(cfg.inner_steps):
        # a fresh ContextBatch rejects a non-finite state, which the overflow
        # guard (NaN > limit is false) lets through
        grad = entropy_gradient(ContextBatch(vectors))
        if cfg.gradient_normalization:
            # the largest row norm, with np.linalg.norm's bits
            largest = float(np.sqrt((grad * grad).sum(axis=1).max()))
            if largest > _NORMALIZATION_FLOOR:
                grad = grad / largest
        vectors = vectors + step * grad
        if float(np.abs(vectors).max()) > OVERFLOW_LIMIT:
            raise NumericOverflow(f"updated entries exceed {OVERFLOW_LIMIT:.0e}")
    return ContextBatch(vectors)


def fraction_in_interval(step_index: int, total_steps: int, interval: tuple[float, float]) -> bool:
    """True iff step_index/total_steps lies in the half-open [a, b)."""
    if not (0 <= step_index < total_steps):
        raise ValueError(f"step index {step_index} out of range for {total_steps} steps")
    fraction = step_index / total_steps
    a, b = interval
    return a <= fraction < b


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
