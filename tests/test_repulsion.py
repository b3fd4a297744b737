import numpy as np
import pytest

from ctxrep.linalg import ContextBatch, DegenerateVector, cosine_kernel
from ctxrep.repulsion import (
    ETA_RANGES,
    PRESETS,
    NumericOverflow,
    RepulsionConfig,
    repulse,
    should_apply,
)
from ctxrep.vendi import entropy_and_score


def batch_score(vectors):
    return entropy_and_score(cosine_kernel(ContextBatch(vectors))).score


class TestRepulse:
    def test_zero_eta_is_identity(self):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = repulse(ContextBatch(vectors), RepulsionConfig(eta=0.0))
        assert np.array_equal(out.vectors, vectors)

    def test_zero_row_rejected(self):
        vectors = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVector):
            repulse(ContextBatch(vectors), RepulsionConfig(eta=0.1, inner_steps=2))

    def test_single_sample_is_identity(self):
        vectors = np.array([[1.0, 2.0, 3.0]])
        cfg = RepulsionConfig(eta=5.0, inner_steps=3)
        out = repulse(ContextBatch(vectors), cfg)
        assert np.array_equal(out.vectors, vectors)

    def test_near_identical_pair_diversifies(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(32)
        other = base + 1e-2 * rng.standard_normal(32)
        vectors = np.stack([base, other])
        before_cos = cosine_kernel(ContextBatch(vectors)).entries[0, 1]
        assert before_cos > 0.999

        cfg = RepulsionConfig(eta=1e-3, inner_steps=1, gradient_normalization=True)
        out = repulse(ContextBatch(vectors), cfg)
        after_cos = cosine_kernel(out).entries[0, 1]
        assert after_cos < before_cos
        assert batch_score(out.vectors) > batch_score(vectors)

    def test_splitting_consistency_bitwise(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((4, 8))
        eta, k = 0.02, 3
        whole = repulse(ContextBatch(vectors), RepulsionConfig(eta=eta, inner_steps=2 * k))
        half_cfg = RepulsionConfig(eta=eta / 2.0, inner_steps=k)
        stage = repulse(ContextBatch(vectors), half_cfg)
        twice = repulse(stage, half_cfg)
        assert np.array_equal(whole.vectors, twice.vectors)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        vectors = rng.standard_normal((5, 7))
        perm = rng.permutation(5)
        cfg = RepulsionConfig(eta=0.01, inner_steps=2, gradient_normalization=True)
        straight = repulse(ContextBatch(vectors), cfg).vectors
        shuffled = repulse(ContextBatch(vectors[perm]), cfg).vectors
        assert np.max(np.abs(shuffled - straight[perm])) <= 1e-12

    def test_monotone_diversification(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            b = int(rng.integers(2, 7))
            vectors = rng.standard_normal((b, 8))
            scale = float(np.mean(np.linalg.norm(vectors, axis=1)))
            cfg = RepulsionConfig(
                eta=1e-3 * scale, inner_steps=1, gradient_normalization=True
            )
            before = batch_score(vectors)
            after = batch_score(repulse(ContextBatch(vectors), cfg).vectors)
            assert after >= before - 1e-9

    def test_overflow_guard(self):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1]])
        cfg = RepulsionConfig(eta=1e31, inner_steps=1, gradient_normalization=True)
        with pytest.raises(NumericOverflow):
            repulse(ContextBatch(vectors), cfg)


class TestShouldApply:
    def test_early_window_four_steps(self):
        cfg = RepulsionConfig(timestep_interval=(0.0, 0.25))
        hits = [
            should_apply(step, 4, 0, 1, "text", cfg) for step in range(4)
        ]
        assert hits == [True, False, False, False]

    def test_middle_third_of_six(self):
        cfg = RepulsionConfig(block_selector="middle_third")
        chosen = [
            b for b in range(6) if should_apply(0, 1, b, 6, "text", cfg)
        ]
        assert chosen == [2, 3]

    def test_thirds_partition_everything(self):
        for total in (3, 5, 6, 7, 12):
            for block in range(total):
                picks = [
                    should_apply(0, 1, block, total, "text", RepulsionConfig(block_selector=g))
                    for g in ("first_third", "middle_third", "last_third")
                ]
                assert sum(picks) == 1

    def test_full_interval_always_applies(self):
        cfg = RepulsionConfig(timestep_interval=(0.0, 1.0))
        assert all(
            should_apply(s, 10, b, 4, "text", cfg) for s in range(10) for b in range(4)
        )

    def test_stream_matching(self):
        cfg = RepulsionConfig(target_stream="image")
        assert should_apply(0, 1, 0, 1, "image", cfg)
        assert not should_apply(0, 1, 0, 1, "text", cfg)
        assert not should_apply(0, 1, 0, 1, "all_tokens", cfg)

    def test_explicit_block_list(self):
        cfg = RepulsionConfig(block_selector=(1, 3))
        chosen = [b for b in range(5) if should_apply(0, 1, b, 5, "text", cfg)]
        assert chosen == [1, 3]

    def test_out_of_range_indices(self):
        cfg = RepulsionConfig()
        with pytest.raises(ValueError):
            should_apply(5, 5, 0, 1, "text", cfg)
        with pytest.raises(ValueError):
            should_apply(0, 5, 2, 2, "text", cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RepulsionConfig(eta=-1.0)
        with pytest.raises(ValueError):
            RepulsionConfig(inner_steps=0)
        with pytest.raises(ValueError):
            RepulsionConfig(timestep_interval=(0.5, 0.5))
        with pytest.raises(ValueError):
            RepulsionConfig(block_selector="second_half")
        with pytest.raises(ValueError):
            RepulsionConfig(target_stream="audio")

    def test_presets_reflect_published_settings(self):
        assert set(PRESETS) == {"flux-dev", "sd35-large", "sd35-turbo"}
        assert PRESETS["flux-dev"].inner_steps == 50
        assert PRESETS["sd35-large"].inner_steps == 100
        assert PRESETS["sd35-turbo"].inner_steps == 100
        assert PRESETS["flux-dev"].timestep_interval == (0.0, 1.0 / 20.0)
        assert PRESETS["sd35-large"].timestep_interval == (0.0, 4.0 / 28.0)
        assert PRESETS["sd35-turbo"].timestep_interval == (0.0, 0.25)
        for name, cfg in PRESETS.items():
            low, high = ETA_RANGES[name]
            assert low <= cfg.eta <= high
            assert cfg.target_stream == "text"
