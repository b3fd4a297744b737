import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxrep.toydit as td
from ctxrep.rng import SplitMix64, normal_array

from . import _oracles

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
SHAPES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 7)), min_size=1, max_size=6
)


def assert_same_stream(fast: SplitMix64, slow: SplitMix64):
    assert fast._state == slow._state
    assert fast._spare == slow._spare


class TestNormalArray:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, shapes=SHAPES, scale=st.sampled_from([1.0, 0.25, 1.0 / np.sqrt(3.0)]))
    @example(seed=0, shapes=[(0, 3)], scale=1.0)
    @example(seed=2**64 - 1, shapes=[(1, 1), (2, 2)], scale=1.0)
    @example(seed=0, shapes=[(3, 3), (3, 3), (1, 5), (0, 1), (1, 1)], scale=0.5)
    @example(seed=2**64 - 1, shapes=[(1, 3), (1, 3), (2, 4)], scale=1.0)
    def test_matches_scalar_oracle_bitwise(self, seed, shapes, scale):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        for shape in shapes:
            got = normal_array(fast, shape, scale)
            want = _oracles.normal_array(slow, shape, scale)
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()
            assert_same_stream(fast, slow)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, counts=st.lists(st.integers(0, 9), min_size=1, max_size=8))
    def test_split_fills_equal_one_fill(self, seed, counts):
        # the spare sine carries an odd-count fill into the next call
        whole = normal_array(SplitMix64(seed), (sum(counts),))
        rng = SplitMix64(seed)
        parts = [normal_array(rng, (n,)) for n in counts]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("shape", [(3, -1), (2.5,), (-2,), (2, "3"), (4, None)], ids=str)
    @pytest.mark.parametrize("spare", [False, True], ids=["no_spare", "spare"])
    def test_rejected_shape_leaves_stream_untouched(self, shape, spare):
        rng, reference = SplitMix64(99), SplitMix64(99)
        if spare:  # an odd fill leaves a sine for the next call
            normal_array(rng, (3,))
            normal_array(reference, (3,))
        with pytest.raises(ValueError, match="dimension"):
            normal_array(rng, shape)
        assert_same_stream(rng, reference)
        assert normal_array(rng, (5,)).tobytes() == normal_array(reference, (5,)).tobytes()


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# Hashes of the toy model's seeded tensors as the one-draw-at-a-time
# generator produced them. token_dim=3 gives 9-entry matrices, so the spare
# sine carries from one matrix fill into the next inside init_weights.
GOLDEN = {
    16: {
        "init": "5a0279f7e0eaa785a3b9cec73e84d2157067b719f340f28891757fea5d51e745",
        "prompt": "2ce1a2318b253fec272db734f7065454197fc0afc8cc352d1b0500db456f259e",
        "image": "3cfc2bf99caf1e0bc5a0a65e2b1f660303be8137c36771ec67560e245181d27c",
    },
    3: {
        "init": "2ef2bb085082fbae408c66f1768ba690aa4f896a3fa6784f7425b2da465984a5",
        "prompt": "6d671006eab7edb4c60516e111b56563d16d6ef964329109571408f8e9a163a8",
        "image": "c28de23481ee5a7c117b49045a656a01fbac89112de964cc16ee5b0e787c3299",
    },
}

CONFIGS = {16: td.ToyDiTConfig(), 3: td.ToyDiTConfig(token_dim=3, attention_heads=1)}


@pytest.mark.parametrize("dim", sorted(GOLDEN))
class TestGoldenToyTensors:
    def test_init_weights(self, dim):
        weights = td.init_weights(CONFIGS[dim])
        matrices = [block[name] for block in weights.dual_blocks for name in td.DUAL_MATRIX_NAMES]
        matrices += [block[name] for block in weights.single_blocks
                     for name in td.SINGLE_MATRIX_NAMES]
        assert digest(matrices) == GOLDEN[dim]["init"]

    def test_encode_prompt(self, dim):
        tokens = [td.encode_prompt(CONFIGS[dim], prompt_id).tokens for prompt_id in (0, 5)]
        assert digest(tokens) == GOLDEN[dim]["prompt"]

    def test_seed_image_tokens(self, dim):
        images = [td.seed_image_tokens(CONFIGS[dim], seed) for seed in (0, 12345)]
        assert digest(images) == GOLDEN[dim]["image"]
