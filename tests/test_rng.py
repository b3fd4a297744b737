import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxrep.toydit as td
from ctxrep.rng import derive_seed, normal_array, seeded_generator

from . import _oracles
from ._golden import SPLITMIX64

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


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# Hashes of the toy model's seeded tensors, recorded when the toy model moved
# to numpy's PCG64 generator.
GOLDEN = {
    16: {
        "init": "30bfbda012c27c01be94dbdeb5aa08d07fe6055b6f86b608893170fea8ee84b6",
        "prompt": "1f75a2a406f8944b64feb44cce8cd1f40b75fa863bf60c3b092a7650aad903a3",
        "image": "dfabea7a0c6d129a4d3d1f48eaf4310aad846d580683614ab4faffeccd843181",
    },
    3: {
        "init": "61489968e4cb1dd35833fa25fc36fec998c1ebcf628d0b0b4fdad64e263b6d2d",
        "prompt": "ae402f896aed1bb58a938c158e25bf31d2fb332ab3af678a980db4e7c578965c",
        "image": "1d8013e9bf0f46043ef0becfa1b38c1fafa3ce100ccb14438858dc4bba9b673a",
    },
}

# The same tensors on the one-draw-at-a-time SplitMix64 stream they came from
# before. token_dim=3 gives 9-entry matrices, so there the spare sine carries
# from one matrix fill into the next inside init_weights.
GOLDEN_SPLITMIX64 = {
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


def patch_splitmix64(monkeypatch):
    """Draw the toy model's tensors from the scalar SplitMix64 oracle."""
    for target, attribute, value in SPLITMIX64:
        monkeypatch.setattr(target, attribute, value)


def toy_tensor_digests(dim) -> dict:
    weights = td.init_weights(CONFIGS[dim])
    matrices = [block[name] for block in weights.dual_blocks for name in td.DUAL_MATRIX_NAMES]
    matrices += [block[name] for block in weights.single_blocks
                 for name in td.SINGLE_MATRIX_NAMES]
    return {
        "init": digest(matrices),
        "prompt": digest(td.encode_prompt(CONFIGS[dim], prompt_id).tokens for prompt_id in (0, 5)),
        "image": digest(td.seed_image_tokens(CONFIGS[dim], seed) for seed in (0, 12345)),
    }


@pytest.mark.parametrize("dim", sorted(GOLDEN))
class TestGoldenToyTensors:
    def test_init_weights(self, dim):
        assert toy_tensor_digests(dim)["init"] == GOLDEN[dim]["init"]

    def test_encode_prompt(self, dim):
        assert toy_tensor_digests(dim)["prompt"] == GOLDEN[dim]["prompt"]

    def test_seed_image_tokens(self, dim):
        assert toy_tensor_digests(dim)["image"] == GOLDEN[dim]["image"]

    def test_splitmix64_oracle_keeps_the_old_digests(self, dim, monkeypatch):
        patch_splitmix64(monkeypatch)
        assert toy_tensor_digests(dim) == GOLDEN_SPLITMIX64[dim]


try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# the dispatch targets of numpy's SIMD kernels that this CPU runs
DISPATCHED = [target for target in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(target)]


@pytest.mark.skipif(not DISPATCHED, reason="this CPU runs none of numpy's dispatch targets")
def test_golden_toy_tensors_do_not_depend_on_cpu_dispatch():
    script = (
        "import json, os\n"
        "from tests.test_rng import GOLDEN, _umath, toy_tensor_digests\n"
        "off = os.environ['NPY_DISABLE_CPU_FEATURES'].split()\n"
        "assert not any(_umath.__cpu_features__[target] for target in off)\n"
        "print(json.dumps({dim: toy_tensor_digests(dim) for dim in GOLDEN}))\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    assert {int(dim): d for dim, d in json.loads(done.stdout).items()} == GOLDEN
