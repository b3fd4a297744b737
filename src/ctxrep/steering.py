"""Interpolation and extrapolation over internal run representations.

A steered run first records the target run's representations, then replays the
source run from its own initial noise, replacing the designated representation
at each step inside the apply window with a linear blend toward the target.
Alpha 0 and 1 reproduce the endpoints exactly; alpha outside [0, 1]
extrapolates along the same direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmmflow, toydit
from .repulsion import check_interval, fraction_in_interval

SPACES = ("contextual", "latent")


class LengthMismatch(ValueError):
    """Blended vectors have different shapes."""


@dataclass(frozen=True)
class SteeringSpec:
    alpha: float
    space: str = "contextual"
    apply_interval: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.space not in SPACES:
            raise ValueError(f"unknown steering space {self.space!r}")
        check_interval(self.apply_interval, "apply")


def blend(h_source, h_target, alpha: float) -> np.ndarray:
    """h_source + alpha * (h_target - h_source), with exact endpoints."""
    source = np.asarray(h_source, dtype=float)
    target = np.asarray(h_target, dtype=float)
    if source.shape != target.shape:
        raise LengthMismatch(f"shapes {source.shape} and {target.shape} differ")
    if alpha == 0.0:
        return source.copy()
    if alpha == 1.0:
        return target.copy()
    return source + alpha * (target - source)


def steered_run(
    world: gmmflow.MixtureWorld,
    source_seed: int,
    target_seed: int,
    spec: SteeringSpec,
    prompt_strength: float = 10.0,
) -> gmmflow.SampleTrajectory:
    """Replay the source mixture-flow run while blending toward the target.

    Each run's prompt selects the mode derived from its seed, so source and
    target head to different modes and the blend steers between them.
    """
    target = gmmflow.sample_batch(
        world,
        gmmflow.seed_prompt(world, target_seed, prompt_strength)[None, :],
        "none",
        seed=target_seed,
    )[0]
    if spec.space == "contextual":
        recorded, hook_name = target.contexts, "context_hook"
    else:
        recorded, hook_name = target.latents, "latent_hook"

    def hook(step, t, current):
        if not fraction_in_interval(step, world.n_steps, spec.apply_interval):
            return current
        return blend(current[0], recorded[step], spec.alpha)[None, :]

    return gmmflow.sample_batch(
        world,
        gmmflow.seed_prompt(world, source_seed, prompt_strength)[None, :],
        "none",
        seed=source_seed,
        **{hook_name: hook},
    )[0]


def steered_toy_run(
    weights: toydit.ModelWeights,
    source_prompt_id: int,
    target_prompt_id: int,
    source_noise_seed: int,
    target_noise_seed: int,
    spec: SteeringSpec,
) -> toydit.TokenState:
    """Blend the text-token stream of a toy transformer run toward a target run.

    The target run's per-block text tokens are recorded first; the source run
    keeps its own image noise and replaces its text tokens after each block in
    the apply window. The text stream is the toy model's contextual space, so
    any other ``spec.space`` raises ValueError.
    """
    if spec.space != "contextual":
        raise ValueError(f"a toy run steers only the contextual space, not {spec.space!r}")
    cfg = weights.config
    target_images = toydit.seed_image_tokens(cfg, target_noise_seed)[None, :, :]
    _, target_snaps = toydit.forward_with_hooks(
        [toydit.encode_prompt(cfg, target_prompt_id)], target_images, weights
    )
    target_text = {
        snap.block_index: snap.vectors[0] for snap in target_snaps if snap.stream == "text"
    }

    state = toydit.TokenState(
        toydit.encode_prompt(cfg, source_prompt_id).tokens.copy(),
        toydit.seed_image_tokens(cfg, source_noise_seed),
        0,
    )
    for block in range(cfg.total_blocks):
        state, _ = toydit.block_forward(state, weights, block)
        if fraction_in_interval(block, cfg.total_blocks, spec.apply_interval):
            blended = blend(state.text_tokens.reshape(-1), target_text[block], spec.alpha)
            state.text_tokens = blended.reshape(cfg.n_text_tokens, cfg.token_dim)
    return state
