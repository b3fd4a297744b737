import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxrep.toydit as td
from ctxrep.rng import derive_seed, normal_array, seeded_generator

from . import _golden, _oracles
from ._golden import digest, kernels, printed_tables, where
from .test_golden_matrix import GOLDEN_KERNELS, GOLDEN_MATRIX

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
SHAPES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 7)), min_size=1, max_size=6
)


def assert_same_stream(fast: np.random.Generator, slow: np.random.Generator):
    assert fast.bit_generator.state == slow.bit_generator.state


class TestNormalArray:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, shapes=SHAPES, scale=st.sampled_from([1.0, 0.25, 1.0 / np.sqrt(3.0)]))
    @example(seed=0, shapes=[(0, 3)], scale=1.0)
    @example(seed=2**64 - 1, shapes=[(1, 1), (2, 2)], scale=1.0)
    @example(seed=0, shapes=[(3, 3), (3, 3), (1, 5), (0, 1), (1, 1)], scale=0.5)
    @example(seed=2**64 - 1, shapes=[(1, 3), (1, 3), (2, 4)], scale=1.0)
    def test_matches_scalar_oracle_bitwise(self, seed, shapes, scale):
        fast, slow = seeded_generator(seed), seeded_generator(seed)
        for shape in shapes:
            got = normal_array(fast, shape, scale)
            want = _oracles.generator_normals(slow, shape, scale)
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()
            assert_same_stream(fast, slow)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, counts=st.lists(st.integers(0, 9), min_size=1, max_size=8))
    def test_split_fills_equal_one_fill(self, seed, counts):
        whole = normal_array(seeded_generator(seed), (sum(counts),))
        rng = seeded_generator(seed)
        parts = [normal_array(rng, (n,)) for n in counts]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    # "spare" rejects a shape after an odd-count fill, the case in which a
    # Box-Muller stream holds a spare draw between calls
    @pytest.mark.parametrize("shape", [(3, -1), (2.5,), (-2,), (2, "3"), (4, None)], ids=str)
    @pytest.mark.parametrize("spare", [False, True], ids=["no_spare", "spare"])
    def test_rejected_shape_leaves_stream_untouched(self, shape, spare):
        rng, reference = seeded_generator(99), seeded_generator(99)
        if spare:
            normal_array(rng, (3,))
            normal_array(reference, (3,))
        with pytest.raises(ValueError, match="dimension"):
            normal_array(rng, shape)
        assert_same_stream(rng, reference)
        assert normal_array(rng, (5,)).tobytes() == normal_array(reference, (5,)).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0), (2, 0, 5), ()], ids=str)
    def test_zero_size_and_empty_shapes(self, shape):
        rng, reference = seeded_generator(7), seeded_generator(7)
        got = normal_array(rng, shape, 0.5)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == _oracles.generator_normals(reference, shape, 0.5).tobytes()
        assert_same_stream(rng, reference)


class TestSeeds:
    @settings(max_examples=200, deadline=None)
    @given(base=st.integers(-(2**70), 2**70), salts=st.lists(st.integers(-(2**70), 2**70),
                                                            max_size=3))
    @example(base=0, salts=[])
    @example(base=-1, salts=[2**64 - 1])
    def test_derive_seed_chains_the_splitmix64_oracle(self, base, salts):
        want = _oracles.SplitMix64(base).next_uint64()
        for salt in salts:
            want = _oracles.SplitMix64(want ^ (salt & (2**64 - 1))).next_uint64()
        assert derive_seed(base, *salts) == want

    def test_derive_seed_pinned_values(self):
        # the CADS noise seeds of every mixture run rest on these bits; they
        # are the values derived when the toy model drew from SplitMix64 too
        assert derive_seed(0) == 0xE220A8397B1DCDAF
        assert derive_seed(1, 2) == 0xBCD9DBB49673066B
        assert derive_seed(2**64 - 1, 0x70726F6D, 5) == 0xD0AB6D64DD976C8A

    def test_minus_one_seeds_as_two_to_the_64_minus_one(self):
        def tensors(seed):
            cfg = td.ToyDiTConfig(token_dim=4, weight_seed=seed)
            weights = td.init_weights(cfg)
            matrices = [block[name] for block in weights.dual_blocks + weights.single_blocks
                        for name in block]
            return matrices + [td.encode_prompt(cfg, 3).tokens, td.seed_image_tokens(cfg, seed)]

        assert digest(tensors(-1)) == digest(tensors(2**64 - 1))
        assert digest(tensors(-1)) != digest(tensors(0))


# token_dim -> attention heads of the toy-tensors cases in the golden table
TOY_TENSOR_HEADS = {16: 2, 3: 1}


@pytest.mark.parametrize("dim", sorted(TOY_TENSOR_HEADS))
class TestGoldenToyTensors:
    """Each part of a toy-tensors case on its own, so a moved digest names
    the seeded tensor that moved."""

    def check(self, dim, part):
        arrays = _golden._toy_tensors(dim, TOY_TENSOR_HEADS[dim])[part]
        assert digest(arrays) == GOLDEN_MATRIX[(f"toy-tensors-{dim}", part)], where(GOLDEN_KERNELS)

    def test_init_weights(self, dim):
        self.check(dim, "init")

    def test_encode_prompt(self, dim):
        self.check(dim, "prompt")

    def test_seed_image_tokens(self, dim):
        self.check(dim, "image")


@pytest.mark.skipif(not kernels()["simd"],
                    reason="this CPU runs none of numpy's dispatch targets")
def test_golden_toy_tensors_do_not_depend_on_cpu_dispatch():
    # the toy-tensors cases, printed with every dispatch target turned off,
    # the ones this process runs without included
    names = ("toy-tensors-16", "toy-tensors-3")
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() + kernels()["simd"]
    tables = printed_tables(*names, NPY_DISABLE_CPU_FEATURES=" ".join(off))
    assert tables["GOLDEN_KERNELS"]["simd"] == []
    assert tables["GOLDEN_MATRIX"] == {
        key: value for key, value in GOLDEN_MATRIX.items() if key[0] in names
    }, where(GOLDEN_KERNELS, tables["GOLDEN_KERNELS"])
