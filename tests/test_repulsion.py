import numpy as np
import pytest

import ctxrep.repulsion as repulsion
from ctxrep.linalg import ContextBatch, DegenerateVector, cosine_kernel
from ctxrep.repulsion import (
    ETA_RANGES,
    PRESETS,
    NumericOverflow,
    RepulsionConfig,
    repulse,
    should_apply,
)
from ctxrep.vendi import entropy_and_score, entropy_gradient

from .test_rng import digest


def batch_score(vectors):
    return entropy_and_score(cosine_kernel(ContextBatch(vectors))).score


def golden_vectors(b: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * b + d)
    vectors = rng.standard_normal((b, d))
    if b > 2:
        vectors[-1] = vectors[0]  # a duplicate row: the kernel's snap path
    return vectors


# sha256 of the repulse outputs for normalization off then on, each at inner
# steps 1 then 3 (eta 0.5), recorded before the inner step dropped its
# SymMatrix checks, its eigenvector sign step and its copies.
GOLDEN_REPULSE = {
    (2, 2): "c205c5cb7c56aa60f710591d90e464b96f38491a5d7d3aa69696dd5cdafdd136",
    (2, 8): "35958765d9053550b0f3ad690ec7456cfccdfbca614e1d654b5d5b2ad87edf83",
    (2, 64): "92bcea7ce9b2e6c43290b424e252fc0623e86f71fcc7540f4e442f05e4c3350d",
    (4, 2): "c381df276d642e655b83b28541729313f3f6bd48c4e143de160acae07eb19b7e",
    (4, 8): "b9d036bfe7e201a20c279ff9d7e96246ed0cd7f0a2fe1e3988bc2e278ee9eba1",
    (4, 64): "9a0921432f758d60856924483b3943e4cb70010f0d80a02cfa1dcf7e2312978f",
    (8, 2): "c1161bb7dbb31bf1e0a42511028ca548c845a306f5a30325e24f11dafd828017",
    (8, 8): "b2552aed1bf9612b60b2c8189fb6793a6c61bcad70c3b7b518d0c9bc9f54c6e3",
    (8, 64): "c20b3d142cb814cae12ba525ad02d8a303d15ac4f6b94c739d0491bde70d99aa",
    (16, 2): "6d30232824f0cce56d84de5e6f75e0f91a9f599dbda5f33f5b997da7c7422e97",
    (16, 8): "971954168d11bc8209129120c994060655f9a35e679e06c405724e85803c0b34",
    (16, 64): "e0ee1960c39f2ae393309f5e2a03d50c2fc39ee5fdd88787a91928519a01e72a",
}


def gradient_poisoned_at(call: int, value: float):
    """``entropy_gradient`` with every entry of its ``call``-th result set to ``value``."""
    calls = []

    def poisoned(batch):
        calls.append(None)
        grad = entropy_gradient(batch)
        if len(calls) == call:
            grad[:] = value
        return grad

    return poisoned


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

    @pytest.mark.parametrize("b", (2, 4, 8, 16))
    @pytest.mark.parametrize("d", (2, 8, 64))
    def test_golden_digests(self, b, d):
        vectors = golden_vectors(b, d)
        batch = ContextBatch(vectors)
        outputs = [
            repulse(batch, RepulsionConfig(eta=0.5, inner_steps=steps, gradient_normalization=norm))
            .vectors
            for norm in (False, True)
            for steps in (1, 3)
        ]
        assert digest(outputs) == GOLDEN_REPULSE[b, d]
        assert np.array_equal(batch.vectors, vectors)

    @pytest.mark.parametrize("normalize", (False, True))
    @pytest.mark.parametrize("call", (1, 2))
    def test_nan_gradient_is_rejected(self, monkeypatch, normalize, call):
        # NaN > 1e30 is false, so the overflow guard alone would pass it on
        monkeypatch.setattr(repulsion, "entropy_gradient", gradient_poisoned_at(call, np.nan))
        cfg = RepulsionConfig(eta=0.1, inner_steps=2, gradient_normalization=normalize)
        with pytest.raises(ValueError, match="finite"):
            repulse(ContextBatch(golden_vectors(4, 8)), cfg)

    @pytest.mark.parametrize("call", (1, 2))
    def test_infinite_gradient_overflows(self, monkeypatch, call):
        monkeypatch.setattr(repulsion, "entropy_gradient", gradient_poisoned_at(call, np.inf))
        cfg = RepulsionConfig(eta=0.1, inner_steps=2)
        with pytest.raises(NumericOverflow):
            repulse(ContextBatch(golden_vectors(4, 8)), cfg)


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
