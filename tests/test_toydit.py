import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxrep.toydit as td
from ctxrep.linalg import ContextBatch, cosine_kernel
from ctxrep.repulsion import BLOCK_GROUPS, STREAM_TAGS, RepulsionConfig
from ctxrep.vendi import entropy_and_score

from . import _oracles
from ._golden import SPLITMIX64
from .test_rng import SEEDS


def small_config(**overrides):
    return td.ToyDiTConfig(**overrides)


def batch_inputs(cfg, batch, prompt_id=0, noise_base=0):
    prompts = [td.encode_prompt(cfg, prompt_id) for _ in range(batch)]
    images = np.stack(
        [td.seed_image_tokens(cfg, noise_base + i) for i in range(batch)]
    )
    return prompts, images


def prompt_state(prompts, images):
    """The walk's token state of per-sample ``prompts`` and ``images``, as
    ``forward_with_hooks`` stacks them."""
    return td.TokenState(np.stack([p.tokens for p in prompts], axis=-3), images)


def seed_stack(cfg, batch, weight_seeds):
    """Each weight seed's solo (prompts, images, weights), with image noise
    from 1000 * i on, and the same inputs as one seed stack."""
    solo = []
    seed_cfgs = [dataclasses.replace(cfg, weight_seed=seed) for seed in weight_seeds]
    for i, seed_cfg in enumerate(seed_cfgs):
        prompts, images = batch_inputs(seed_cfg, batch, noise_base=1000 * i)
        solo.append((prompts, images, td.init_weights(seed_cfg)))
    prompt = td.PromptEncoding(0, np.stack([prompts[0].tokens for prompts, _, _ in solo]))
    images = np.stack([images for _, images, _ in solo])
    weights = td.stack_weights(seed_cfgs)
    return solo, ([prompt] * batch, images, weights)


def text_score(snapshots):
    final = [s for s in snapshots if s.stream == "text"][-1]
    return entropy_and_score(cosine_kernel(ContextBatch(final.vectors))).score


class TestInitWeights:
    def test_same_seed_bitwise(self):
        cfg = small_config()
        a = td.init_weights(cfg)
        b = td.init_weights(cfg)
        for blk_a, blk_b in zip(a.dual_blocks + a.single_blocks, b.dual_blocks + b.single_blocks):
            for name in blk_a:
                assert np.array_equal(blk_a[name], blk_b[name])

    def test_different_seeds_differ(self):
        a = td.init_weights(small_config(weight_seed=1))
        b = td.init_weights(small_config(weight_seed=2))
        deltas = [
            np.max(np.abs(blk_a[name] - blk_b[name]))
            for blk_a, blk_b in zip(a.dual_blocks, b.dual_blocks)
            for name in blk_a
        ]
        assert max(deltas) > 0.1

    def test_entry_variance_matches_scale(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        entries = np.concatenate(
            [
                blk[name].ravel()
                for blk in weights.dual_blocks + weights.single_blocks
                for name in blk
            ]
        )
        assert entries.size >= 10_000
        target = 1.0 / cfg.token_dim
        assert abs(entries.var() - target) <= 0.2 * target

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        dims=st.integers(1, 5).flatmap(lambda d: st.tuples(
            st.just(d), st.sampled_from([h for h in range(1, d + 1) if d % h == 0])
        )),
        n_dual=st.integers(1, 3),
        n_single=st.integers(0, 2),
    )
    def test_matches_scalar_oracle_matrix_by_matrix(self, seed, dims, n_dual, n_single):
        # on the scalar SplitMix64 oracle, whose 9-entry fills at d = 3 leave
        # a spare draw that carries from one matrix into the next
        d, heads = dims
        cfg = small_config(token_dim=d, attention_heads=heads, n_dual_blocks=n_dual,
                           n_single_blocks=n_single, weight_seed=seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for target, attribute, value in SPLITMIX64:
                monkeypatch.setattr(target, attribute, value)
            weights = td.init_weights(cfg)
        blocks = [(blk, td.DUAL_MATRIX_NAMES) for blk in weights.dual_blocks]
        blocks += [(blk, td.SINGLE_MATRIX_NAMES) for blk in weights.single_blocks]
        stream = _oracles.SplitMix64(seed)
        matrices = []
        for block, names in blocks:
            assert tuple(block) == names
            for name in names:
                want = _oracles.normal_array(stream, (d, d), 1.0 / np.sqrt(d))
                got = block[name]
                assert got.shape == (d, d)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()
                matrices.append(got)
        for i, a in enumerate(matrices):
            for b in matrices[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_one_fill_for_all_matrices(self, monkeypatch):
        # per-matrix fills pay the fill's fixed cost once per matrix
        cfg = small_config()
        calls = []
        original = td.normal_array

        def counting(rng, shape, scale=1.0, out=None):
            calls.append(shape)
            return original(rng, shape, scale, out)

        monkeypatch.setattr(td, "normal_array", counting)
        td.init_weights(cfg)
        n = 8 * cfg.n_dual_blocks + 4 * cfg.n_single_blocks
        assert len(calls) == 1
        assert np.prod(calls[0]) == n * cfg.token_dim * cfg.token_dim

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(token_dim=10, attention_heads=4)
        with pytest.raises(ValueError):
            small_config(n_text_tokens=0)
        with pytest.raises(ValueError):
            small_config(n_single_blocks=-1)


class TestPromptEncoding:
    def test_reproducible_per_prompt_id(self):
        cfg = small_config()
        a = td.encode_prompt(cfg, 3)
        b = td.encode_prompt(cfg, 3)
        assert np.array_equal(a.tokens, b.tokens)
        c = td.encode_prompt(cfg, 4)
        assert not np.array_equal(a.tokens, c.tokens)

    def test_depends_on_weight_seed(self):
        a = td.encode_prompt(small_config(weight_seed=0), 0)
        b = td.encode_prompt(small_config(weight_seed=1), 0)
        assert not np.array_equal(a.tokens, b.tokens)


def out_of_place_attention(q, k, v, heads):
    """``td._joint_attention`` with its softmax on fresh arrays, as it was
    written before the softmax ran in place."""
    *lead, n_tokens, dim = q.shape
    head_dim = dim // heads
    qh, kh, vh = (
        a.reshape(*lead, n_tokens, heads, head_dim).swapaxes(-3, -2) for a in (q, k, v)
    )
    scores = (qh @ kh.swapaxes(-2, -1)) / np.sqrt(head_dim)
    scores = scores - np.max(scores, axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / np.sum(weights, axis=-1, keepdims=True)
    return (weights @ vh).swapaxes(-3, -2).reshape(*lead, n_tokens, dim)


class TestJointAttention:
    @settings(max_examples=80, deadline=None)
    @given(
        lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
        n_tokens=st.integers(1, 32),
        dim=st.integers(1, 16),
        scale=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_einsum_oracle_and_solo_calls(self, lead, n_tokens, dim, scale, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (scale * rng.standard_normal((*lead, n_tokens, dim)) for _ in range(3))
        # the sums run in another order than the oracle's; about 20x the worst gap measured
        tolerance = 1e-13 * max(1.0, float(np.max(np.abs(v))))
        for heads in [h for h in range(1, dim + 1) if dim % h == 0]:
            got = td._joint_attention(q, k, v, heads)
            assert got.tobytes() == out_of_place_attention(q, k, v, heads).tobytes()
            want = _oracles.einsum_joint_attention(q, k, v, heads)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tolerance
            for index in np.ndindex(*lead):
                solo = td._joint_attention(q[index], k[index], v[index], heads)
                assert solo.tobytes() == got[index].tobytes()

    # each branch of numpy's pairwise sum: plain below 8 entries, 8
    # accumulators and a remainder up to 128, split halves above
    @pytest.mark.parametrize("n_tokens", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 257])
    def test_every_pairwise_branch_matches_the_row_form(self, n_tokens):
        rng = np.random.default_rng(n_tokens)
        lead, dim = (2,), 4
        q, k, v = (3.0 * rng.standard_normal((*lead, n_tokens, dim)) for _ in range(3))
        for heads in (1, 2):
            got = td._joint_attention(q, k, v, heads)
            assert got.tobytes() == out_of_place_attention(q, k, v, heads).tobytes()
            for index in np.ndindex(*lead):
                solo = td._joint_attention(q[index], k[index], v[index], heads)
                assert solo.tobytes() == got[index].tobytes()
                want = out_of_place_attention(q[index], k[index], v[index], heads)
                assert solo.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [*range(1, 40), 127, 128, 129, 136, 255, 256, 257, 1000])
    def test_column_sums_are_numpys_row_sums(self, n):
        rng = np.random.default_rng(n)
        # magnitudes over 60 decades, so that any other order moves bits
        rows = rng.standard_normal((5, n)) * np.exp(rng.uniform(-70.0, 70.0, (5, n)))
        rows[1] = -0.0
        rows[2, ::2] = 0.0
        rows[2, 1::2] = -0.0
        rows[3, ::3] = -0.0
        got = td._column_sums(np.ascontiguousarray(rows.T))
        assert got.tobytes() == np.add.reduce(rows, axis=-1).tobytes()

    def test_forward_makes_no_einsum_call(self, monkeypatch):
        # an ellipsis einsum takes about 6x the time of the stacked matmuls here
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called in the forward pass")

        cfg = small_config()
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        cfgr = RepulsionConfig(eta=0.04, inner_steps=2, target_stream="all_tokens",
                               gradient_normalization=True)
        monkeypatch.setattr(np, "einsum", refuse)
        td.forward_with_hooks(prompts, images, weights, cfgr)


class TestBlockForward:
    def test_zero_tokens_propagate(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        state = td.TokenState(
            np.zeros((cfg.n_text_tokens, cfg.token_dim)),
            np.zeros((cfg.n_image_tokens, cfg.token_dim)),
        )
        out = td.mm_block_forward(state, weights, 0)
        assert np.array_equal(out.text_tokens, state.text_tokens)
        assert np.array_equal(out.image_tokens, state.image_tokens)

    def test_forward_walks_dual_then_single_blocks(self, monkeypatch):
        # each block runs once, on the whole (B, N, D) batch or (S, B, N, D)
        # seed stack
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        calls = []
        for name, tag in (("mm_block_forward", "mm"), ("single_block_forward", "single")):
            original = getattr(td, name)

            def recording(state, w, block, tag=tag, original=original):
                calls.append((tag, block, state.text_tokens.shape, state.image_tokens.shape))
                return original(state, w, block)

            monkeypatch.setattr(td, name, recording)
        solo, stacked = seed_stack(cfg, 3, [0, 1])
        for prompts, images, weights in (solo[0], stacked):
            calls.clear()
            td.forward_with_hooks(prompts, images, weights)
            lead = images.shape[:-3]
            text = (*lead, 3, cfg.n_text_tokens, cfg.token_dim)
            image = (*lead, 3, cfg.n_image_tokens, cfg.token_dim)
            assert calls == [("mm", 0, text, image), ("mm", 1, text, image),
                             ("single", 0, text, image)]

    def test_dimension_mismatch(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        state = td.TokenState(np.zeros((3, cfg.token_dim)), np.zeros((cfg.n_image_tokens, cfg.token_dim)))
        with pytest.raises(td.DimensionMismatch):
            td.mm_block_forward(state, weights, 0)
        state = td.TokenState(np.zeros((cfg.n_text_tokens, cfg.token_dim)),
                              np.zeros((cfg.n_image_tokens - 1, cfg.token_dim)))
        with pytest.raises(td.DimensionMismatch, match="^image tokens have shape"):
            td.mm_block_forward(state, weights, 0)

    def test_block_index_out_of_range(self):
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        state = td.TokenState(np.zeros((cfg.n_text_tokens, cfg.token_dim)),
                              np.zeros((cfg.n_image_tokens, cfg.token_dim)))
        for block in (2, -1):
            with pytest.raises(ValueError, match=f"^block {block} is not a dual block$"):
                td.mm_block_forward(state, weights, block)
        for block in (1, -1):
            with pytest.raises(ValueError, match=f"^block {block} is not a single block$"):
                td.single_block_forward(state, weights, block)

    def test_joint_permutation_equivariance(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        prompt = td.encode_prompt(cfg, 0)
        images = td.seed_image_tokens(cfg, 0)
        perm = np.random.default_rng(0).permutation(cfg.n_image_tokens)

        base = td.mm_block_forward(td.TokenState(prompt.tokens.copy(), images.copy()), weights, 0)
        shuffled = td.mm_block_forward(
            td.TokenState(prompt.tokens.copy(), images[perm].copy()), weights, 0
        )
        assert np.max(np.abs(shuffled.image_tokens - base.image_tokens[perm])) <= 1e-12
        assert np.max(np.abs(shuffled.text_tokens - base.text_tokens)) <= 1e-12

    def test_text_attends_to_image_content(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        prompt = td.encode_prompt(cfg, 0)
        images = td.seed_image_tokens(cfg, 0)
        base = td.mm_block_forward(td.TokenState(prompt.tokens.copy(), images.copy()), weights, 0)
        bumped = images.copy()
        bumped[3] += 0.25
        out = td.mm_block_forward(td.TokenState(prompt.tokens.copy(), bumped), weights, 0)
        assert np.linalg.norm(out.text_tokens - base.text_tokens) > 0.0


class TestSeedStack:
    """A seed stack runs as one program, and each seed gets its solo bits."""

    @pytest.mark.parametrize("n_seeds", [1, 2, 5])
    @settings(max_examples=6, deadline=None)
    @given(
        weight_seeds=st.lists(SEEDS, min_size=5, max_size=5, unique=True),
        batch=st.integers(1, 4),
        stream=st.sampled_from([None, "text", "image", "all_tokens"]),
    )
    def test_each_seed_equals_its_solo_call_bitwise(self, n_seeds, weight_seeds, batch, stream):
        cfg = small_config(n_dual_blocks=3, n_single_blocks=1)
        solo, (prompts, images, weights) = seed_stack(cfg, batch, weight_seeds[:n_seeds])
        for group in ("all", "first_third", "middle_third", "last_third"):
            cfgr = None if stream is None else RepulsionConfig(
                eta=0.5, inner_steps=2, block_selector=group, target_stream=stream,
                gradient_normalization=True,
            )
            finals, snaps = td.forward_with_hooks(prompts, images, weights, cfgr)
            assert len(finals) == batch
            for s, inputs in enumerate(solo):
                solo_finals, solo_snaps = td.forward_with_hooks(*inputs, cfgr)
                assert len(solo_snaps) == len(snaps)
                for one, whole in zip(solo_snaps, snaps):
                    assert whole.vectors.shape == (n_seeds, *one.vectors.shape)
                    assert one.vectors.tobytes() == whole.vectors[s].tobytes()
                for one, whole in zip(solo_finals, finals):
                    assert one.text_tokens.tobytes() == whole.text_tokens[s].tobytes()
                    assert one.image_tokens.tobytes() == whole.image_tokens[s].tobytes()

    def test_stack_weights_keeps_each_seeds_fill(self):
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        configs = [dataclasses.replace(cfg, weight_seed=s) for s in (3, 9)]
        per_seed = [td.init_weights(seed_cfg) for seed_cfg in configs]
        stacked = td.stack_weights(configs)
        assert stacked.config == configs[0]
        for blocks, names in ((lambda w: w.dual_blocks, td.DUAL_MATRIX_NAMES),
                              (lambda w: w.single_blocks, td.SINGLE_MATRIX_NAMES)):
            assert len(blocks(stacked)) == len(blocks(per_seed[0]))
            for b, block in enumerate(blocks(stacked)):
                assert tuple(block) == names
                for name in names:
                    assert block[name].shape == (2, 1, cfg.token_dim, cfg.token_dim)
                    for s, weights in enumerate(per_seed):
                        solo = blocks(weights)[b][name]
                        assert block[name][s, 0].flags.c_contiguous
                        assert block[name][s, 0].tobytes() == solo.tobytes()

    def test_stack_weights_rejects_mixed_model_shapes(self):
        with pytest.raises(td.DimensionMismatch):
            td.stack_weights([small_config(), small_config(n_single_blocks=1, weight_seed=1)])

    def test_stack_weights_rejects_an_empty_stack(self):
        with pytest.raises(td.DimensionMismatch, match="no seeds"):
            td.stack_weights([])

    def test_seed_stack_makes_each_seeds_draws_in_order(self, monkeypatch):
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1, weight_seed=99)
        seeds = [(3, 0), (9, 1000)]
        configs = [dataclasses.replace(cfg, weight_seed=w) for w, _ in seeds]
        expected = td.stack_weights(configs)
        draws = []
        for name in ("encode_prompt", "seed_image_tokens", "stack_weights"):
            original = getattr(td, name)

            def recording(first, *rest, name=name, original=original):
                seed = (first.weight_seed if isinstance(first, td.ToyDiTConfig)
                        else tuple(c.weight_seed for c in first))
                draws.append((name, seed, *rest))
                return original(first, *rest)

            monkeypatch.setattr(td, name, recording)
        weights, state = td.seed_stack(cfg, 5, 3, seeds)
        # seed by seed, the prompt and then the batch's image noise; weights last
        assert draws == [
            ("encode_prompt", 3, 5), *(("seed_image_tokens", 3, i) for i in range(3)),
            ("encode_prompt", 9, 5), *(("seed_image_tokens", 9, 1000 + i) for i in range(3)),
            ("stack_weights", (3, 9)),
        ]
        monkeypatch.undo()
        assert state.text_tokens.shape == (2, 3, cfg.n_text_tokens, cfg.token_dim)
        assert state.image_tokens.shape == (2, 3, cfg.n_image_tokens, cfg.token_dim)
        for s, (seed_cfg, (_, base)) in enumerate(zip(configs, seeds)):
            prompt = td.encode_prompt(seed_cfg, 5).tokens
            for i in range(3):
                assert state.text_tokens[s, i].tobytes() == prompt.tobytes()
                image = td.seed_image_tokens(seed_cfg, base + i)
                assert state.image_tokens[s, i].tobytes() == image.tobytes()
        assert weights.config == configs[0]
        for block, want in zip(weights.dual_blocks + weights.single_blocks,
                               expected.dual_blocks + expected.single_blocks):
            for name in want:
                assert block[name].tobytes() == want[name].tobytes()

    def test_a_seed_stack_walk_is_each_seeds_batch_walk(self):
        # the state of seed_stack walks as forward_with_hooks walks each
        # seed's own per-sample prompts, and is left unchanged
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        cfgr = RepulsionConfig(eta=0.3, inner_steps=2, target_stream="all_tokens",
                               gradient_normalization=True)
        seeds = [(4, 0), (7, 1000)]
        weights, state = td.seed_stack(cfg, 0, 3, seeds)
        state.text_tokens.setflags(write=False)
        state.image_tokens.setflags(write=False)
        (snaps,) = td.forward_configs(state, weights, [cfgr])
        for s, (weight_seed, base) in enumerate(seeds):
            seed_cfg = dataclasses.replace(cfg, weight_seed=weight_seed)
            prompts, images = batch_inputs(seed_cfg, 3, noise_base=base)
            _, solo = td.forward_with_hooks(prompts, images, td.init_weights(seed_cfg), cfgr)
            assert [one.vectors.tobytes() for one in solo] == [
                whole.vectors[s].tobytes() for whole in snaps]

    def test_prompt_stack_must_match_the_image_stack(self):
        cfg = small_config(n_dual_blocks=1, n_single_blocks=0)
        _, (prompts, images, weights) = seed_stack(cfg, 2, [0, 1])
        with pytest.raises(td.DimensionMismatch):
            td.forward_with_hooks([td.PromptEncoding(0, prompts[0].tokens[0])] * 2,
                                  images, weights)


# Knobs of repulsion configs on a two-step schedule at step 1: two of the
# intervals include that step, and one excludes it.
REPULSION_FIELDS = {
    "eta": st.sampled_from([0.0, 0.05, 0.3]),
    "inner_steps": st.integers(1, 2),
    "timestep_interval": st.sampled_from([(0.0, 1.0), (0.5, 1.0), (0.0, 0.5)]),
    "block_selector": st.one_of(
        st.sampled_from(BLOCK_GROUPS),
        st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
    ),
    "target_stream": st.sampled_from(STREAM_TAGS),
    "gradient_normalization": st.booleans(),
}


@st.composite
def repulsion_lists(draw):
    """A base config, ``None``, and variants of the base with one knob
    redrawn to another value, in any order and with repeats; so that many
    configs fire together and part on one knob."""
    base = draw(st.builds(RepulsionConfig, **REPULSION_FIELDS))
    distinct = [base, None]
    knobs = st.lists(st.sampled_from(sorted(REPULSION_FIELDS)), min_size=2, max_size=4,
                     unique=True)
    for name in draw(knobs):
        value = draw(REPULSION_FIELDS[name].filter(lambda v, name=name: v != getattr(base, name)))
        distinct.append(dataclasses.replace(base, **{name: value}))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=2))
    return draw(st.permutations(distinct + repeats))


class TestForwardConfigs:
    @settings(max_examples=100, deadline=None)
    @given(
        repulsions=repulsion_lists(),
        n_seeds=st.sampled_from([None, 1, 3]),
        batch=st.integers(1, 4),
        n_dual=st.integers(1, 3),
        n_single=st.integers(0, 1),
    )
    def test_each_config_equals_its_own_walk_bitwise(self, repulsions, n_seeds, batch, n_dual,
                                                      n_single):
        cfg = small_config(n_text_tokens=2, n_image_tokens=3, token_dim=4,
                           n_dual_blocks=n_dual, n_single_blocks=n_single)
        if n_seeds is None:
            inputs = (*batch_inputs(cfg, batch), td.init_weights(cfg))
        else:
            inputs = seed_stack(cfg, batch, range(n_seeds))[1]
        prompts, images, weights = inputs
        shared = td.forward_configs(prompt_state(prompts, images), weights, repulsions,
                                    step_index=1, total_steps=2)
        assert len(shared) == len(repulsions)
        for repulsion, snaps in zip(repulsions, shared):
            _, own = td.forward_with_hooks(*inputs, repulsion, step_index=1, total_steps=2)
            assert [(s.block_index, s.stream) for s in snaps] == [
                (s.block_index, s.stream) for s in own]
            for one, other in zip(snaps, own):
                assert one.vectors.shape == other.vectors.shape
                assert one.vectors.tobytes() == other.vectors.tobytes()

    def test_snapshots_are_read_only_and_shared(self):
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        cfgr = RepulsionConfig(eta=0.04, inner_steps=2, block_selector=(1,),
                               gradient_normalization=True)
        repelled, again, plain = td.forward_configs(prompt_state(prompts, images), weights,
                                                    [cfgr, cfgr, None])
        # a config's snapshots are its branch's: the plain walk shares block 0
        assert all(a is b for a, b in zip(repelled, again))
        assert [a is b for a, b in zip(repelled, plain)] == [True] * 2 + [False] * 4
        for snap in repelled + plain:
            with pytest.raises(ValueError, match="read-only"):
                snap.vectors[..., 0] = 0.0
        # the final states are copies, and writable
        finals, snaps = td.forward_with_hooks(prompts, images, weights, cfgr)
        finals[0].text_tokens[0, 0] = 123.0
        assert snaps[-2].vectors[0, 0] != 123.0

    def test_text_and_image_states_must_share_leading_axes(self):
        # and hold a batch axis of at least one sample
        cfg = small_config(n_dual_blocks=1, n_single_blocks=0)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        state = prompt_state(prompts, images)
        for text, image in ((state.text_tokens[:2], images), (state.text_tokens, images[None]),
                            (state.text_tokens[0], images[0]),
                            (state.text_tokens[:0], images[:0])):
            with pytest.raises(td.DimensionMismatch, match="tokens have shape"):
                td.forward_configs(td.TokenState(text, image), weights, [None])


class TestForwardWithHooks:
    def test_needs_at_least_one_prompt(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="^need at least one prompt$"):
            td.forward_with_hooks([], np.zeros((0, cfg.n_image_tokens, cfg.token_dim)),
                                  td.init_weights(cfg))

    def test_prompts_of_two_shapes_are_rejected(self):
        cfg = small_config(n_dual_blocks=1, n_single_blocks=0)
        _, (prompts, images, weights) = seed_stack(cfg, 2, [0, 1])
        with pytest.raises(td.DimensionMismatch, match="prompt token shapes differ"):
            td.forward_with_hooks([prompts[0], td.PromptEncoding(0, prompts[0].tokens[0])],
                                  images, weights)

    @pytest.mark.parametrize("batch", [1, 2, 7])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"token_dim": 3, "attention_heads": 1}, {"n_single_blocks": 0}],
        ids=["default", "dim3", "dual_only"],
    )
    def test_batch_independence_bitwise(self, batch, overrides):
        cfg = small_config(**overrides)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, batch)
        finals, snaps = td.forward_with_hooks(prompts, images, weights)
        assert len(finals) == batch
        for i in range(batch):
            solo, solo_snaps = td.forward_with_hooks([prompts[i]], images[i : i + 1], weights)
            assert np.array_equal(solo[0].text_tokens, finals[i].text_tokens)
            assert np.array_equal(solo[0].image_tokens, finals[i].image_tokens)
            for one, whole in zip(solo_snaps, snaps):
                assert np.array_equal(one.vectors[0], whole.vectors[i])

    def test_deterministic(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        cfgr = RepulsionConfig(eta=0.02, inner_steps=2, gradient_normalization=True)
        a, _ = td.forward_with_hooks(prompts, images, weights, cfgr)
        b, _ = td.forward_with_hooks(prompts, images, weights, cfgr)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.text_tokens, sb.text_tokens)

    def test_text_repulsion_raises_text_vendi(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 4)
        cfgr = RepulsionConfig(
            eta=0.04, inner_steps=4, timestep_interval=(0.0, 1.0),
            target_stream="text", gradient_normalization=True,
        )
        _, snaps_off = td.forward_with_hooks(prompts, images, weights)
        _, snaps_on = td.forward_with_hooks(prompts, images, weights, cfgr)
        assert text_score(snaps_on) > 1.0 + 1e-6
        assert text_score(snaps_on) > text_score(snaps_off)

    def test_image_targeting_leaves_text_untouched_single_block(self):
        cfg = small_config(n_dual_blocks=1, n_single_blocks=0)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 4)
        cfgr = RepulsionConfig(
            eta=0.04, inner_steps=4, target_stream="image", gradient_normalization=True
        )
        _, snaps_off = td.forward_with_hooks(prompts, images, weights)
        _, snaps_on = td.forward_with_hooks(prompts, images, weights, cfgr)
        text_off = [s for s in snaps_off if s.stream == "text"][0]
        text_on = [s for s in snaps_on if s.stream == "text"][0]
        image_off = [s for s in snaps_off if s.stream == "image"][0]
        image_on = [s for s in snaps_on if s.stream == "image"][0]
        assert np.array_equal(text_on.vectors, text_off.vectors)
        assert not np.array_equal(image_on.vectors, image_off.vectors)

    def test_all_tokens_on_trailing_single_block_only(self):
        # the dual-then-single recipe: restrict all-token repulsion to the
        # trailing single-stream block via an explicit block list
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        cfgr = RepulsionConfig(
            eta=0.04,
            inner_steps=2,
            target_stream="all_tokens",
            block_selector=(2,),
            gradient_normalization=True,
        )
        _, snaps_off = td.forward_with_hooks(prompts, images, weights)
        _, snaps_on = td.forward_with_hooks(prompts, images, weights, cfgr)

        def stream_at(snaps, block, stream):
            return next(s for s in snaps if s.block_index == block and s.stream == stream)

        for block in (0, 1):
            for stream in ("text", "image"):
                assert np.array_equal(
                    stream_at(snaps_on, block, stream).vectors,
                    stream_at(snaps_off, block, stream).vectors,
                )
        for stream in ("text", "image"):
            assert not np.array_equal(
                stream_at(snaps_on, 2, stream).vectors, stream_at(snaps_off, 2, stream).vectors
            )

    def test_text_targeting_skips_single_stream_blocks(self):
        # text repulsion everywhere touches dual blocks but not the merged
        # single-stream block, whose only stream tag is all_tokens
        cfg = small_config(n_dual_blocks=1, n_single_blocks=1)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        only_single = RepulsionConfig(
            eta=0.04,
            inner_steps=2,
            target_stream="text",
            block_selector=(1,),
            gradient_normalization=True,
        )
        _, snaps_off = td.forward_with_hooks(prompts, images, weights)
        _, snaps_on = td.forward_with_hooks(prompts, images, weights, only_single)
        for on, off in zip(snaps_on, snaps_off):
            assert np.array_equal(on.vectors, off.vectors)

    @pytest.mark.parametrize("stream", ["text", "image", "all_tokens"])
    def test_stream_row_layout(self, monkeypatch, stream):
        # token t, dim d of a stream sits at column t * D + d of its row, and
        # the all_tokens row is the text row then the image row; mark one
        # entry through the hook and find it in the snapshot and final state
        cfg = small_config(n_dual_blocks=1, n_single_blocks=0)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        d = cfg.token_dim
        split = cfg.n_text_tokens * d
        token, dim, marker = 5, 7, 123.456
        target = "text" if stream == "text" else "image"
        column = token * d + dim + (split if stream == "all_tokens" else 0)
        seen = []

        def mark(batch, _cfg):
            seen.append(batch.vectors.copy())
            vectors = batch.vectors.copy()
            vectors[:, column] = marker
            return ContextBatch(vectors)

        monkeypatch.setattr(td, "repulse", mark)
        cfgr = RepulsionConfig(eta=0.04, target_stream=stream)
        finals, snaps = td.forward_with_hooks(prompts, images, weights, cfgr)
        _, plain_snaps = td.forward_with_hooks(prompts, images, weights)

        rows = {s.stream: s.vectors for s in plain_snaps}
        expected_input = rows[stream] if stream != "all_tokens" else np.hstack(
            [rows["text"], rows["image"]]
        )
        assert len(seen) == 1
        assert np.array_equal(seen[0], expected_input)
        marked = next(s for s in snaps if s.stream == target).vectors
        for i, final in enumerate(finals):
            tokens = final.text_tokens if target == "text" else final.image_tokens
            assert tokens[token, dim] == marker
            assert np.array_equal(marked[i].reshape(tokens.shape), tokens)
            assert marked[i, token * d + dim] == marker
            assert np.count_nonzero(marked[i] == marker) == 1

    def test_contextual_enrichment_decays_similarity(self):
        hold = 0
        for seed in range(100):
            cfg = small_config(weight_seed=seed)
            weights = td.init_weights(cfg)
            prompt = td.encode_prompt(cfg, 0)
            state = td.TokenState(prompt.tokens.copy(), td.seed_image_tokens(cfg, seed + 1000))
            reference = prompt.tokens.reshape(-1)
            sims = []
            for block in range(3):
                state = td.mm_block_forward(state, weights, block)
                flat = state.text_tokens.reshape(-1)
                sims.append(
                    float(flat @ reference / (np.linalg.norm(flat) * np.linalg.norm(reference)))
                )
            if sims[0] > sims[1] > sims[2]:
                hold += 1
        assert hold >= 95
