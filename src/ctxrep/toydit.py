"""Desk-scale dual-stream multimodal attention transformer with hooks.

Each dual block projects text and image tokens through per-stream Q/K/V maps,
attends jointly over the concatenated sequence, applies per-stream output
projections, and finishes with residual addition and per-token RMS
normalization. Optional trailing single-stream blocks share one projection set
over the merged sequence. Blocks take any leading batch axes, so the whole
batch runs as one (B, N, D) state. Between blocks, a hook can flatten a chosen
token stream to one row per sample and repel the samples apart.

Weights are random and fixed, never trained; the model exists to verify the
intervention mechanism, not image quality.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .linalg import ContextBatch
from .repulsion import STREAM_TAGS, RepulsionConfig, repulse, should_apply
from .rng import SplitMix64, derive_seed, normal_array

_RMS_EPSILON = 1e-8

# substream salts so prompt and image-noise streams never collide with weights
_PROMPT_SALT = 0x70726F6D
_IMAGE_SALT = 0x696D6167

DUAL_MATRIX_NAMES = (
    "wq_text", "wk_text", "wv_text", "wo_text",
    "wq_image", "wk_image", "wv_image", "wo_image",
)
SINGLE_MATRIX_NAMES = ("wq", "wk", "wv", "wo")


class DimensionMismatch(ValueError):
    """Token tensors do not match the model configuration."""


@dataclass(frozen=True)
class ToyDiTConfig:
    n_text_tokens: int = 8
    n_image_tokens: int = 16
    token_dim: int = 16
    n_dual_blocks: int = 4
    n_single_blocks: int = 2
    attention_heads: int = 2
    weight_seed: int = 0

    def __post_init__(self):
        positive = {
            "n_text_tokens": self.n_text_tokens,
            "n_image_tokens": self.n_image_tokens,
            "token_dim": self.token_dim,
            "n_dual_blocks": self.n_dual_blocks,
            "attention_heads": self.attention_heads,
        }
        for name, value in positive.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.n_single_blocks < 0:
            raise ValueError("n_single_blocks must be >= 0")
        if self.token_dim % self.attention_heads != 0:
            raise ValueError("token_dim must be divisible by attention_heads")

    @property
    def total_blocks(self) -> int:
        return self.n_dual_blocks + self.n_single_blocks


@dataclass
class TokenState:
    """Token tensors after ``block_index`` blocks: (N, D) per sample, or (..., N, D)."""

    text_tokens: np.ndarray
    image_tokens: np.ndarray
    block_index: int = 0


@dataclass(frozen=True)
class PromptEncoding:
    """Seeded initial text tokens; identical (prompt_id, weight_seed) pairs encode identically."""

    prompt_id: int
    tokens: np.ndarray


@dataclass(frozen=True)
class ModelWeights:
    config: ToyDiTConfig
    dual_blocks: tuple[dict, ...]
    single_blocks: tuple[dict, ...]


@dataclass(frozen=True)
class StreamSnapshot:
    """Flattened per-sample vectors of one stream after one block (post-hook)."""

    block_index: int
    stream: str
    vectors: np.ndarray


def init_weights(cfg: ToyDiTConfig) -> ModelWeights:
    """Fill every projection matrix from one SplitMix64 stream.

    Blocks are filled in order (dual first, then single), matrices within a
    block in the documented name order, entries row-major, each a standard
    normal scaled by 1/sqrt(token_dim). The stream is drawn as one
    (matrices, d, d) fill, and each matrix is a C-contiguous (d, d) view of it.
    """
    d = cfg.token_dim
    n_matrices = (len(DUAL_MATRIX_NAMES) * cfg.n_dual_blocks
                  + len(SINGLE_MATRIX_NAMES) * cfg.n_single_blocks)
    fill = normal_array(SplitMix64(cfg.weight_seed), (n_matrices, d, d), 1.0 / np.sqrt(d))
    matrices = iter(fill)
    dual = tuple({name: next(matrices) for name in DUAL_MATRIX_NAMES}
                 for _ in range(cfg.n_dual_blocks))
    single = tuple({name: next(matrices) for name in SINGLE_MATRIX_NAMES}
                   for _ in range(cfg.n_single_blocks))
    return ModelWeights(config=cfg, dual_blocks=dual, single_blocks=single)


def encode_prompt(cfg: ToyDiTConfig, prompt_id: int) -> PromptEncoding:
    """Deterministic N x D text tokens for a prompt id under this weight seed."""
    rng = SplitMix64(derive_seed(cfg.weight_seed, _PROMPT_SALT, prompt_id))
    tokens = normal_array(rng, (cfg.n_text_tokens, cfg.token_dim))
    return PromptEncoding(prompt_id=prompt_id, tokens=tokens)


def seed_image_tokens(cfg: ToyDiTConfig, noise_seed: int) -> np.ndarray:
    """Deterministic initial image tokens for one sample (the per-sample noise)."""
    rng = SplitMix64(derive_seed(noise_seed, _IMAGE_SALT))
    return normal_array(rng, (cfg.n_image_tokens, cfg.token_dim))


def _rms_normalize(tokens: np.ndarray) -> np.ndarray:
    mean_sq = np.mean(tokens * tokens, axis=-1, keepdims=True)
    return tokens / np.sqrt(mean_sq + _RMS_EPSILON)


def _joint_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Softmax attention of every token over all tokens, per head.

    Each head is a (tokens, head_dim) view, so both contractions are stacked
    matmuls. numpy's matmul makes the same call on every 2-D slice, so each
    sample gets the bits of a call on that sample alone.
    """
    *lead, n_tokens, dim = q.shape
    head_dim = dim // heads
    qh = q.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2)
    kh = k.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2)
    vh = v.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2)
    scores = (qh @ kh.swapaxes(-2, -1)) / np.sqrt(head_dim)
    scores = scores - np.max(scores, axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / np.sum(weights, axis=-1, keepdims=True)
    out = weights @ vh
    return out.swapaxes(-3, -2).reshape(*lead, n_tokens, dim)


def mm_block_forward(state: TokenState, weights: ModelWeights, block: int) -> TokenState:
    """One dual-stream block: joint attention with per-stream projections."""
    cfg = weights.config
    if not (0 <= block < cfg.n_dual_blocks):
        raise ValueError(f"block {block} is not a dual block")
    if state.text_tokens.shape[-2:] != (cfg.n_text_tokens, cfg.token_dim):
        raise DimensionMismatch(f"text tokens have shape {state.text_tokens.shape}")
    if state.image_tokens.shape[-2:] != (cfg.n_image_tokens, cfg.token_dim):
        raise DimensionMismatch(f"image tokens have shape {state.image_tokens.shape}")
    w = weights.dual_blocks[block]
    ft, fi = state.text_tokens, state.image_tokens
    n = cfg.n_text_tokens

    q = np.concatenate([ft @ w["wq_text"], fi @ w["wq_image"]], axis=-2)
    k = np.concatenate([ft @ w["wk_text"], fi @ w["wk_image"]], axis=-2)
    v = np.concatenate([ft @ w["wv_text"], fi @ w["wv_image"]], axis=-2)
    attended = _joint_attention(q, k, v, cfg.attention_heads)

    new_text = _rms_normalize(ft + attended[..., :n, :] @ w["wo_text"])
    new_image = _rms_normalize(fi + attended[..., n:, :] @ w["wo_image"])
    return TokenState(new_text, new_image, state.block_index + 1)


def single_block_forward(state: TokenState, weights: ModelWeights, block: int) -> TokenState:
    """One single-stream block: shared projections over the merged sequence."""
    cfg = weights.config
    if not (0 <= block < cfg.n_single_blocks):
        raise ValueError(f"block {block} is not a single block")
    w = weights.single_blocks[block]
    merged = np.concatenate([state.text_tokens, state.image_tokens], axis=-2)
    attended = _joint_attention(
        merged @ w["wq"], merged @ w["wk"], merged @ w["wv"], cfg.attention_heads
    )
    merged = _rms_normalize(merged + attended @ w["wo"])
    n = cfg.n_text_tokens
    return TokenState(merged[..., :n, :], merged[..., n:, :], state.block_index + 1)


def block_forward(
    state: TokenState, weights: ModelWeights, block: int
) -> tuple[TokenState, tuple[str, ...]]:
    """Block ``block`` of the stack, dual blocks first, then single blocks.

    Returns the new state and the streams it exposes to a hook: ``text``,
    ``image`` and ``all_tokens`` after a dual block, only ``all_tokens``
    after a single-stream block, whose token streams are merged.
    """
    n_dual = weights.config.n_dual_blocks
    if block < n_dual:
        return mm_block_forward(state, weights, block), STREAM_TAGS
    return single_block_forward(state, weights, block - n_dual), ("all_tokens",)


def forward_with_hooks(
    prompts: list[PromptEncoding],
    image_init: np.ndarray,
    weights: ModelWeights,
    repulsion_cfg: RepulsionConfig | None = None,
    step_index: int = 0,
    total_steps: int = 1,
) -> tuple[list[TokenState], list[StreamSnapshot]]:
    """Run all blocks on the whole batch, repelling the configured stream between blocks.

    The hook sees the streams that :func:`block_forward` says each block
    exposes. A stream is one row per sample, token t and dim d at column
    t * D + d, with ``all_tokens`` the text row then the image
    row. Snapshots of the text and image streams are recorded after every
    block, post-repulsion. The final states are returned one per sample.
    """
    cfg = weights.config
    batch = len(prompts)
    if batch < 1:
        raise ValueError("need at least one prompt")
    if image_init.shape != (batch, cfg.n_image_tokens, cfg.token_dim):
        raise DimensionMismatch(f"image init has shape {image_init.shape}")
    for prompt in prompts:
        if prompt.tokens.shape != (cfg.n_text_tokens, cfg.token_dim):
            raise DimensionMismatch("prompt token shape does not match config")

    state = TokenState(np.stack([p.tokens for p in prompts]), image_init, 0)
    snapshots: list[StreamSnapshot] = []
    # columns of each stream in a (batch, all-token) row matrix
    split = cfg.n_text_tokens * cfg.token_dim
    columns = {"text": np.s_[:split], "image": np.s_[split:], "all_tokens": np.s_[:]}

    for block in range(cfg.total_blocks):
        state, available = block_forward(state, weights, block)
        if repulsion_cfg is not None:
            for stream in available:
                if not should_apply(
                    step_index, total_steps, block, cfg.total_blocks, stream, repulsion_cfg
                ):
                    continue
                rows = np.concatenate(
                    [state.text_tokens.reshape(batch, -1), state.image_tokens.reshape(batch, -1)],
                    axis=1,
                )
                cols = columns[stream]
                rows[:, cols] = repulse(ContextBatch(rows[:, cols]), repulsion_cfg).vectors
                state = TokenState(
                    rows[:, :split].reshape(state.text_tokens.shape),
                    rows[:, split:].reshape(state.image_tokens.shape),
                    state.block_index,
                )

        for stream, tokens in (("text", state.text_tokens), ("image", state.image_tokens)):
            snapshots.append(StreamSnapshot(block, stream, tokens.reshape(batch, -1)))
    # copies, so a caller writing to a final state cannot change the snapshots
    finals = [
        TokenState(state.text_tokens[i].copy(), state.image_tokens[i].copy(), state.block_index)
        for i in range(batch)
    ]
    return finals, snapshots


def write_snapshots_csv(snapshots: list[StreamSnapshot], path: str, cfg: ToyDiTConfig) -> None:
    """Dump snapshots as rows of (sample, block, stream, token, dim, value)."""
    d = cfg.token_dim
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample", "block", "stream", "token", "dim", "value"])
        for snap in snapshots:
            for sample in range(snap.vectors.shape[0]):
                row = snap.vectors[sample]
                for flat_index, value in enumerate(row):
                    writer.writerow(
                        [sample, snap.block_index, snap.stream,
                         flat_index // d, flat_index % d, repr(float(value))]
                    )
