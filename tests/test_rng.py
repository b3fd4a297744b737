import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxrep.gmmflow as gf
import ctxrep.toydit as td
from ctxrep.rng import SplitMix64Words, derive_seed, normal_array, seeded_generator

from . import _golden, _oracles
from ._golden import METHOD_KWARGS, digest, kernels, printed_tables, trajectory_arrays, where
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

    @pytest.mark.parametrize("shape", [(0,), (4,), (2, 3), (2, 0, 5), ()], ids=str)
    def test_a_fill_into_out_is_the_fill(self, shape):
        out = np.full(shape, np.nan)
        got = normal_array(seeded_generator(5), shape, 0.5, out=out)
        assert got is out
        assert out.tobytes() == normal_array(seeded_generator(5), shape, 0.5).tobytes()

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
        assert digest(toy_tensors(-1)) == digest(toy_tensors(2**64 - 1))
        assert digest(toy_tensors(-1)) != digest(toy_tensors(0))

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64], ids=lambda k: k.__name__)
    def test_numpy_integer_seeds_draw_as_their_python_ints(self, kind):
        assert derive_seed(kind(2), kind(5)) == derive_seed(2, 5)
        assert digest(toy_tensors(kind(3))) == digest(toy_tensors(3))
        world = gf.MixtureWorld()
        prompts = gf.one_hot_prompts(world, 4)
        cads = METHOD_KWARGS["cads"]
        run = gf.sample_batch(world, prompts, "cads", seed=kind(2), **cads)
        want = gf.sample_batch(world, prompts, "cads", seed=2, **cads)
        assert digest(trajectory_arrays(run)) == digest(trajectory_arrays(want))
        segments = [gf.Segment(prompts)]
        metrics = gf.evaluate_segments(world, segments, "cads", seeds=np.arange(3, dtype=kind),
                                       **cads)
        assert repr(metrics) == repr(gf.evaluate_segments(world, segments, "cads",
                                                          seeds=[0, 1, 2], **cads))


def toy_tensors(seed) -> list:
    """Every toy tensor seeded from ``seed``: the weights, alone and in a
    two-seed stack, a prompt encoding and one sample's image noise."""
    cfg = td.ToyDiTConfig(token_dim=4, weight_seed=seed)
    weights = td.init_weights(cfg)
    stacked = td.stack_weights([cfg, td.ToyDiTConfig(token_dim=4, weight_seed=seed + 1)])
    matrices = [block[name] for model in (weights, stacked)
                for block in model.dual_blocks + model.single_blocks for name in block]
    return matrices + [td.encode_prompt(cfg, 3).tokens, td.seed_image_tokens(cfg, seed)]


class TestSplitMix64Seeding:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(-(2**70), 2**70))
    @example(seed=0)
    @example(seed=2**64 - 1)
    def test_generator_state_is_the_pcg64_seeding_model(self, seed):
        assert seeded_generator(seed).bit_generator.state == _oracles.pcg64_state(seed)

    def test_pinned_states(self):
        # 128-bit state and increment
        assert seeded_generator(0).bit_generator.state["state"] == {
            "state": 0xEAECAE570BE9588304C20265ECD6861A,
            "inc": 0xD88BA3100128A9FF1177150E49903D9,
        }
        assert seeded_generator(2**64 - 1).bit_generator.state["state"] == {
            "state": 0xAF45264F80753B13C25E9F935CE67F4B,
            "inc": 0x705FF09964E503D2DA3B66D9975305A5,
        }

    @pytest.mark.parametrize("n_words", [0, 1, 2, 3, 4, 7])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64, "uint32", "uint64",
                                       np.dtype(np.uint32), None], ids=str)
    def test_generate_state_words(self, n_words, dtype):
        # dtype None takes the contract's default, uint32
        seed = 2**64 - 5
        words = SplitMix64Words(seed)
        kwargs = {} if dtype is None else {"dtype": dtype}
        got = words.generate_state(n_words, **kwargs)
        stream = _oracles.SplitMix64(seed)
        outputs = [stream.next_uint64() for _ in range(n_words)]
        want_dtype = np.dtype(np.uint32 if dtype is None else dtype)
        if want_dtype == np.uint64:
            want = outputs
        else:
            # each output's low half, then its high half
            want = [w >> shift & 0xFFFFFFFF for w in outputs for shift in (0, 32)][:n_words]
        assert got.dtype == want_dtype and got.shape == (n_words,)
        assert got.tolist() == want

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint16, "u1"], ids=str)
    def test_generate_state_refuses_other_words(self, dtype):
        with pytest.raises(ValueError, match="only uint32 and uint64 words"):
            SplitMix64Words(1).generate_state(4, dtype)


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
