"""Desk-scale dual-stream multimodal attention transformer with hooks.

Each dual block projects text and image tokens through per-stream Q/K/V maps,
attends jointly over the concatenated sequence, applies per-stream output
projections, and finishes with residual addition and per-token RMS
normalization. Optional trailing single-stream blocks share one projection set
over the merged sequence. Blocks take any leading batch axes, so the whole
batch runs as one (B, N, D) state, and a stack of S seeds, each with its own
weights (``stack_weights``), as one (S, B, N, D) state (``seed_stack`` draws
one). Between blocks, a hook can flatten a chosen token stream to one row per
sample and repel the samples of each batch apart.

Weights are random and fixed, never trained; the model exists to verify the
intervention mechanism, not image quality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import ContextBatch
from .repulsion import STREAM_TAGS, RepulsionConfig, repulse, should_apply
from .rng import derive_seed, normal_array, seeded_generator

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
    """Text and image token tensors: (N, D) per sample, or (..., N, D)."""

    text_tokens: np.ndarray
    image_tokens: np.ndarray


@dataclass(frozen=True)
class PromptEncoding:
    """Seeded initial text tokens; identical (prompt_id, weight_seed) pairs encode identically."""

    prompt_id: int
    tokens: np.ndarray


@dataclass(frozen=True)
class ModelWeights:
    """Projection matrices by block and name: (d, d) each, or (..., 1, d, d)
    for a stack of seeds (``stack_weights``)."""

    config: ToyDiTConfig
    dual_blocks: tuple[dict, ...]
    single_blocks: tuple[dict, ...]


@dataclass(frozen=True)
class StreamSnapshot:
    """Flattened per-sample vectors of one stream after one block (post-hook)."""

    block_index: int
    stream: str
    vectors: np.ndarray


def _fill_shape(cfg: ToyDiTConfig) -> tuple[int, int, int]:
    """The (matrices, d, d) shape of ``cfg``'s weight fill."""
    d = cfg.token_dim
    n_matrices = (len(DUAL_MATRIX_NAMES) * cfg.n_dual_blocks
                  + len(SINGLE_MATRIX_NAMES) * cfg.n_single_blocks)
    return n_matrices, d, d


def _weight_fill(cfg: ToyDiTConfig, out: np.ndarray | None = None) -> np.ndarray:
    """``cfg``'s (matrices, d, d) fill, drawn from one generator seeded with
    ``weight_seed``, into ``out`` if given."""
    return normal_array(seeded_generator(cfg.weight_seed), _fill_shape(cfg),
                        1.0 / np.sqrt(cfg.token_dim), out=out)


def _named_weights(cfg: ToyDiTConfig, matrices) -> ModelWeights:
    """``matrices``, in fill order, named by block (dual first, then single)
    and within a block in the documented name order."""
    matrices = iter(matrices)
    dual = tuple({name: next(matrices) for name in DUAL_MATRIX_NAMES}
                 for _ in range(cfg.n_dual_blocks))
    single = tuple({name: next(matrices) for name in SINGLE_MATRIX_NAMES}
                   for _ in range(cfg.n_single_blocks))
    return ModelWeights(config=cfg, dual_blocks=dual, single_blocks=single)


def init_weights(cfg: ToyDiTConfig) -> ModelWeights:
    """Fill every projection matrix from one generator seeded with ``weight_seed``.

    Blocks are filled in order (dual first, then single), matrices within a
    block in the documented name order, entries row-major, each a standard
    normal scaled by 1/sqrt(token_dim). The stream is drawn as one
    (matrices, d, d) fill, and each matrix is a C-contiguous (d, d) view of it.
    """
    return _named_weights(cfg, _weight_fill(cfg))


def stack_weights(configs: list[ToyDiTConfig]) -> ModelWeights:
    """``init_weights`` of each config as one seed stack: each matrix is
    (S, 1, d, d), slice s holding config s's matrix, so that a (S, B, N, d)
    state meets its own seed's weights in every sample's matmul.

    Each seed's fill is drawn as ``init_weights`` draws it, into slice s of
    one (S, matrices, d, d) array, and every matrix is a view of it whose
    (d, d) slices are C-contiguous. The configs must differ at most in
    ``weight_seed``; the stack keeps the first seed's config.
    """
    if not configs:
        raise DimensionMismatch("cannot stack the weights of no seeds")
    config = configs[0]
    for cfg in configs:
        if replace(cfg, weight_seed=config.weight_seed) != config:
            raise DimensionMismatch("stacked weights must share one model shape")
    fill = np.empty((len(configs), *_fill_shape(config)))
    for s, cfg in enumerate(configs):
        _weight_fill(cfg, out=fill[s])
    return _named_weights(config, fill[:, :, None].swapaxes(0, 1))


def encode_prompt(cfg: ToyDiTConfig, prompt_id: int) -> PromptEncoding:
    """Deterministic N x D text tokens for a prompt id under this weight seed."""
    rng = seeded_generator(derive_seed(cfg.weight_seed, _PROMPT_SALT, prompt_id))
    tokens = normal_array(rng, (cfg.n_text_tokens, cfg.token_dim))
    return PromptEncoding(prompt_id=prompt_id, tokens=tokens)


def seed_image_tokens(cfg: ToyDiTConfig, noise_seed: int) -> np.ndarray:
    """Deterministic initial image tokens for one sample (the per-sample noise)."""
    rng = seeded_generator(derive_seed(noise_seed, _IMAGE_SALT))
    return normal_array(rng, (cfg.n_image_tokens, cfg.token_dim))


def seed_stack(
    cfg: ToyDiTConfig, prompt_id: int, batch: int, seeds: list[tuple[int, int]]
) -> tuple[ModelWeights, TokenState]:
    """The weights and (S, B, N, D) token state of one batch per
    ``(weight_seed, noise_base)`` pair, drawn seed by seed under ``cfg`` with
    that weight seed: ``encode_prompt`` of ``prompt_id``, held by every sample,
    then sample i's ``seed_image_tokens`` of ``noise_base + i``; the weights
    last, by ``stack_weights``."""
    models = [replace(cfg, weight_seed=weight_seed) for weight_seed, _ in seeds]
    text = np.empty((len(seeds), batch, cfg.n_text_tokens, cfg.token_dim))
    image = np.empty((len(seeds), batch, cfg.n_image_tokens, cfg.token_dim))
    for s, (model, (_, noise_base)) in enumerate(zip(models, seeds)):
        text[s] = encode_prompt(model, prompt_id).tokens
        for i in range(batch):
            image[s, i] = seed_image_tokens(model, noise_base + i)
    return stack_weights(models), TokenState(text, image)


def _rms_normalize(tokens: np.ndarray) -> np.ndarray:
    # np.mean's sum and true divide, without its dispatch
    mean_sq = np.add.reduce(tokens * tokens, axis=-1, keepdims=True) / tokens.shape[-1]
    return tokens / np.sqrt(mean_sq + _RMS_EPSILON)


# numpy sums a contiguous float row pairwise, in blocks of up to this many
_PAIRWISE_BLOCK = 128


def _column_sums(columns: np.ndarray) -> np.ndarray:
    """The sum of each column of an (n, m) array, with the bits of
    ``np.add.reduce`` on that column as a contiguous row, from whole-row adds.

    numpy sums a row of n floats pairwise (Higham 1993): below 8 entries in
    order; up to 128 in 8 accumulators over strided entries, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest in
    order; above 128 as the sum of two halves split at ``n // 2`` rounded
    down to a multiple of 8. Every step here adds whole rows, so every column
    is summed in that order at once. numpy starts from its identity, so an
    all-zero row sums to +0.0; the first rows here take ``+ 0.0`` for the
    same sign.
    """
    n = len(columns)
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        return _column_sums(columns[:half]) + _column_sums(columns[half:])
    if n < 8:
        total = columns[0] + 0.0
        for row in columns[1:]:
            total += row
        return total
    full = n - n % 8
    acc = columns[:8] + 0.0
    for start in range(8, full, 8):
        acc += columns[start:start + 8]
    # (r0 + r1, r2 + r3, r4 + r5, r6 + r7), then the two pairs of those
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in columns[full:]:
        total += row
    return total


def _joint_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Softmax attention of every token over all tokens, per head.

    Each head is a (tokens, head_dim) view, so both contractions are stacked
    matmuls. numpy's matmul loops over the broadcast leading axes and makes
    the same call, with the same shapes and strides, on every 2-D slice. So
    each sample of a (..., B, N, D) stack gets the bits of a call on that
    sample alone. The same holds one level up, for the (N, d) @ (d, d)
    projections of a seed stack whose weights are (S, 1, d, d)
    (``stack_weights``): the seed axis only adds leading loop axes, and each
    slice of the weight operand is the seed's own C-contiguous (d, d) matrix,
    as in the solo call.

    The softmax runs on one key-major (keys, rows) copy of the scores, every
    query row of the stack a column, so its reductions are elementwise
    operations on whole key rows rather than one short reduction per query
    row. A max is the same in any order (but for the sign of a zero, which
    the exp erases), each row's sum is added in numpy's own pairwise order
    along that row (``_column_sums``), and every other step is elementwise,
    so the weights keep the bits of the row-by-row form. They are copied
    back to (rows, keys) for the second matmul, whose operand layout must
    stay as it was to keep its bits.
    """
    *lead, n_tokens, dim = q.shape
    head_dim = dim // heads
    qh = q.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2)
    kh = k.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2)
    vh = v.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2)
    scores = qh @ kh.swapaxes(-2, -1)
    scores /= np.sqrt(head_dim)
    rows = scores.reshape(-1, n_tokens)
    columns = np.ascontiguousarray(rows.T)
    columns -= np.maximum.reduce(columns, axis=0)
    np.exp(columns, out=columns)
    columns /= _column_sums(columns)
    # into the scores' own buffer, not a new array: at stacked sizes a new
    # array's fresh memory pages cost more than the copy
    rows[...] = columns.T
    out = scores @ vh
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
    return TokenState(new_text, new_image)


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
    return TokenState(merged[..., :n, :], merged[..., n:, :])


def forward_configs(
    state: TokenState,
    weights: ModelWeights,
    repulsion_cfgs: list[RepulsionConfig | None],
    step_index: int = 0,
    total_steps: int = 1,
) -> list[list[StreamSnapshot]]:
    """Run all blocks on the whole batch, ``state``, once per repulsion config
    (``None`` repels nothing), repelling the configured stream between
    blocks; returns each config's snapshots. ``state`` is not changed.

    Dual blocks run first, then single-stream blocks. The hook sees ``text``,
    ``image`` and ``all_tokens`` after a dual block, and only ``all_tokens``
    after a single-stream block, whose token streams are merged. A stream is
    one row per sample, token t and dim d at column t * D + d, with
    ``all_tokens`` the text row then the image row. Snapshots of the text and
    image streams are recorded after every block, post-repulsion; the last
    two are the final state.

    A config fires at most one stream per block, its ``target_stream``, and
    the hook repels that stream's own rows: the text rows or the image rows
    alone, and only for ``all_tokens`` each sample's text row then image row
    as one row.

    Configs share the walk until their repulsion histories part. The walk
    starts as one branch holding every config and runs each block once per
    branch; a branch then splits by the stream the hook repels for each
    config (or none) and by what ``repulse`` reads of it (``eta``,
    ``inner_steps`` and ``gradient_normalization``), so configs that differ
    only in schedule stay together until they fire differently. A part that
    fires nothing keeps the block's state as it is. Each config gets the
    bits of a walk of its own. A branch's snapshots are shared by all of its
    configs, so every snapshot array is read-only.

    Text and image tokens are (..., B, N, D) on the same leading axes, so a
    seed stack runs as one program: the (S, B, N, D) state of ``seed_stack``,
    with weights from ``stack_weights``, whose matrices are (S, 1, d, d).
    Snapshots are then (..., B, N * D), the hook repels each batch of the
    stack on its own, and every seed gets the bits of its solo call.
    """
    cfg = weights.config
    text_shape, image_shape = state.text_tokens.shape, state.image_tokens.shape
    lead = image_shape[:-2]
    if not lead or not lead[-1] or image_shape[-2:] != (cfg.n_image_tokens, cfg.token_dim):
        raise DimensionMismatch(f"image tokens have shape {image_shape}")
    if text_shape != (*lead, cfg.n_text_tokens, cfg.token_dim):
        raise DimensionMismatch(f"text tokens have shape {text_shape}, image tokens {image_shape}")

    split = cfg.n_text_tokens * cfg.token_dim
    rows_shape = (*lead, -1)

    # each branch: its state, the indices of its configs, and its snapshots
    branches = [(state, range(len(repulsion_cfgs)), [])] if repulsion_cfgs else []
    for block in range(cfg.total_blocks):
        dual = block < cfg.n_dual_blocks
        available = STREAM_TAGS if dual else ("all_tokens",)
        parted = []
        for state, members, snapshots in branches:
            # both block functions and repulse are looked up per call, so a
            # tracer can wrap them
            if dual:
                state = mm_block_forward(state, weights, block)
            else:
                state = single_block_forward(state, weights, block - cfg.n_dual_blocks)
            # the branch's configs, keyed by the stream the hook repels for
            # each (its target stream, or none) and by what repulse reads
            parts: dict[tuple, list[int]] = {}
            for i in members:
                repulsion = repulsion_cfgs[i]
                key = (None,)
                if (repulsion is not None and repulsion.target_stream in available
                        and should_apply(step_index, total_steps, block, cfg.total_blocks,
                                         repulsion.target_stream, repulsion)):
                    key = (repulsion.target_stream, repulsion.eta, repulsion.inner_steps,
                           repulsion.gradient_normalization)
                parts.setdefault(key, []).append(i)
            for (stream, *_), part in parts.items():
                text = state.text_tokens.reshape(rows_shape)
                image = state.image_tokens.reshape(rows_shape)
                repelled = state
                if stream is not None:
                    repulsion = repulsion_cfgs[part[0]]
                    if stream == "text":
                        text = repulse(ContextBatch(text), repulsion).vectors
                    elif stream == "image":
                        image = repulse(ContextBatch(image), repulsion).vectors
                    else:
                        rows = np.concatenate([text, image], axis=-1)
                        rows = repulse(ContextBatch(rows), repulsion).vectors
                        text, image = rows[..., :split], rows[..., split:]
                    repelled = TokenState(text.reshape(state.text_tokens.shape),
                                          image.reshape(state.image_tokens.shape))
                # every config of the part shares these arrays
                text.setflags(write=False)
                image.setflags(write=False)
                parted.append((repelled, part, [
                    *snapshots, StreamSnapshot(block, "text", text),
                    StreamSnapshot(block, "image", image),
                ]))
        branches = parted

    # one list per config, though configs of one branch share its snapshots
    history = {i: snapshots for _, members, snapshots in branches for i in members}
    return [list(history[i]) for i in range(len(repulsion_cfgs))]


def forward_with_hooks(
    prompts: list[PromptEncoding],
    image_init: np.ndarray,
    weights: ModelWeights,
    repulsion_cfg: RepulsionConfig | None = None,
    step_index: int = 0,
    total_steps: int = 1,
) -> tuple[list[TokenState], list[StreamSnapshot]]:
    """The one-config case of ``forward_configs``, on one prompt encoding per
    sample, each (..., N, D) on the leading seed axes of ``image_init``: its
    snapshots, and the final states one per sample. Final state i is
    ``[..., i, :, :]`` of the last text and image snapshots, copied, so it is
    writable and a caller writing to it cannot change the snapshots.
    """
    if not prompts:
        raise ValueError("need at least one prompt")
    # the walk checks the stacked tokens against the image tokens
    if len({prompt.tokens.shape for prompt in prompts}) > 1:
        raise DimensionMismatch("prompt token shapes differ")
    state = TokenState(np.stack([p.tokens for p in prompts], axis=-3), image_init)
    (snapshots,) = forward_configs(state, weights, [repulsion_cfg], step_index, total_steps)
    cfg = weights.config
    text = snapshots[-2].vectors.reshape(*image_init.shape[:-2], cfg.n_text_tokens, -1)
    image = snapshots[-1].vectors.reshape(image_init.shape)
    finals = [
        TokenState(text[..., i, :, :].copy(), image[..., i, :, :].copy())
        for i in range(len(prompts))
    ]
    return finals, snapshots
