import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxrep.toydit as td
from ctxrep.linalg import ContextBatch, cosine_kernel
from ctxrep.repulsion import RepulsionConfig
from ctxrep.rng import SplitMix64
from ctxrep.vendi import entropy_and_score

from . import _oracles
from .test_rng import SEEDS, digest


def small_config(**overrides):
    return td.ToyDiTConfig(**overrides)


def batch_inputs(cfg, batch, prompt_id=0, noise_base=0):
    prompts = [td.encode_prompt(cfg, prompt_id) for _ in range(batch)]
    images = np.stack(
        [td.seed_image_tokens(cfg, noise_base + i) for i in range(batch)]
    )
    return prompts, images


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
        d, heads = dims
        cfg = small_config(token_dim=d, attention_heads=heads, n_dual_blocks=n_dual,
                           n_single_blocks=n_single, weight_seed=seed)
        weights = td.init_weights(cfg)
        blocks = [(blk, td.DUAL_MATRIX_NAMES) for blk in weights.dual_blocks]
        blocks += [(blk, td.SINGLE_MATRIX_NAMES) for blk in weights.single_blocks]
        stream = SplitMix64(seed)
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

        def counting(rng, shape, scale=1.0):
            calls.append(shape)
            return original(rng, shape, scale)

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
            want = _oracles.einsum_joint_attention(q, k, v, heads)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tolerance
            for index in np.ndindex(*lead):
                solo = td._joint_attention(q[index], k[index], v[index], heads)
                assert solo.tobytes() == got[index].tobytes()

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

    def test_block_forward_walks_dual_then_single_blocks(self):
        cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 3)
        state = td.TokenState(np.stack([p.tokens for p in prompts]), images, 0)
        expected = [
            (td.mm_block_forward, 0, ("text", "image", "all_tokens")),
            (td.mm_block_forward, 1, ("text", "image", "all_tokens")),
            (td.single_block_forward, 0, ("all_tokens",)),
        ]
        for block, (forward, index, streams) in enumerate(expected):
            reference = forward(state, weights, index)
            state, exposed = td.block_forward(state, weights, block)
            assert exposed == streams
            assert np.array_equal(state.text_tokens, reference.text_tokens)
            assert np.array_equal(state.image_tokens, reference.image_tokens)
            assert state.block_index == block + 1

    def test_dimension_mismatch(self):
        cfg = small_config()
        weights = td.init_weights(cfg)
        state = td.TokenState(np.zeros((3, cfg.token_dim)), np.zeros((cfg.n_image_tokens, cfg.token_dim)))
        with pytest.raises(td.DimensionMismatch):
            td.mm_block_forward(state, weights, 0)

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


class TestForwardWithHooks:
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
            assert finals[i].block_index == cfg.total_blocks
            for one, whole in zip(solo_snaps, snaps):
                assert np.array_equal(one.vectors[0], whole.vectors[i])

    def test_each_block_runs_once_on_the_whole_batch(self, monkeypatch):
        cfg = small_config()
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 5)
        calls = []
        for name in ("mm_block_forward", "single_block_forward"):
            original = getattr(td, name)

            def counting(state, w, block, name=name, original=original):
                calls.append((name, block, state.text_tokens.shape))
                return original(state, w, block)

            monkeypatch.setattr(td, name, counting)
        td.forward_with_hooks(prompts, images, weights)
        shape = (5, cfg.n_text_tokens, cfg.token_dim)
        assert calls == [("mm_block_forward", b, shape) for b in range(cfg.n_dual_blocks)] + [
            ("single_block_forward", b, shape) for b in range(cfg.n_single_blocks)
        ]

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


# Hashes of the forward snapshots of a 3-sample batch through two dual blocks
# and one single-stream block, recorded when attention ran as stacked matmuls
# over a heads-first layout.
GOLDEN_SNAPSHOTS = {
    "text": "90b6fee99ed84cd38098e179dc64912b34228593c7a2b937baab24d865b0f25a",
    "image": "4984db1f1e571362d3cbd2d20bd39e534d3ad3c5bf83164d019889453675fccc",
    "all_tokens": "ba97e26bbabf9022f068788ecc273560d660dca3d8d8b5d2f428fcb5c2bb1541",
    None: "9a33de1c4c5bba463ff95faaa048edae97a95425ad98b4899a58b5bba3e64c71",
}

# The same snapshots with attention computed by the einsum oracle. These are the
# digests recorded when the package itself attended by einsum, so the attention
# contraction is the only source of the bits that moved.
GOLDEN_SNAPSHOTS_EINSUM = {
    "text": "66294be28095a23151995665f166f69eb8aa0426db45b37fc8490a3f046b19b4",
    "image": "e58f465fff29d8801c7081b7762f29c4a3cf8dd11da1d401e41b178db90da5e5",
    "all_tokens": "4ba008e73dfdb382646c471496b6a5662abf2110bd653584d0e6ea2001ef9130",
    None: "fe70718658d5fca47f670086806dfc9d43c927f121f8d794eb8f834d6d2df128",
}


def snapshot_digest(stream) -> str:
    cfg = small_config(n_dual_blocks=2, n_single_blocks=1)
    weights = td.init_weights(cfg)
    prompts, images = batch_inputs(cfg, 3)
    cfgr = None
    if stream is not None:
        cfgr = RepulsionConfig(
            eta=0.04, inner_steps=2, timestep_interval=(0.0, 1.0),
            target_stream=stream, gradient_normalization=True,
        )
    _, snaps = td.forward_with_hooks(prompts, images, weights, cfgr)
    return digest(s.vectors for s in snaps)


@pytest.mark.parametrize("stream", list(GOLDEN_SNAPSHOTS), ids=str)
def test_golden_snapshots(stream):
    assert snapshot_digest(stream) == GOLDEN_SNAPSHOTS[stream]


@pytest.mark.parametrize("stream", list(GOLDEN_SNAPSHOTS_EINSUM), ids=str)
def test_golden_snapshots_with_einsum_attention(stream, monkeypatch):
    monkeypatch.setattr(td, "_joint_attention", _oracles.einsum_joint_attention)
    assert snapshot_digest(stream) == GOLDEN_SNAPSHOTS_EINSUM[stream]


class TestSnapshotCsv:
    def test_row_schema(self, tmp_path):
        cfg = small_config(n_dual_blocks=1, n_single_blocks=0)
        weights = td.init_weights(cfg)
        prompts, images = batch_inputs(cfg, 2)
        _, snaps = td.forward_with_hooks(prompts, images, weights)
        path = tmp_path / "snaps.csv"
        td.write_snapshots_csv(snaps, str(path), cfg)

        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample", "block", "stream", "token", "dim", "value"]
        expected = 2 * (cfg.n_text_tokens + cfg.n_image_tokens) * cfg.token_dim
        assert len(rows) - 1 == expected
        streams = {row[2] for row in rows[1:]}
        assert streams == {"text", "image"}
        # spot-check one value against the snapshot tensor
        text = next(s for s in snaps if s.stream == "text")
        row = rows[1]
        sample, block, stream, token, dim, value = row
        flat_idx = int(token) * cfg.token_dim + int(dim)
        assert float(value) == text.vectors[int(sample), flat_idx]
