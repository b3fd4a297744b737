"""The byte-identity matrix: exit code, stdout, stderr and output files of
CLI cases that ``GOLDEN_CLI`` leaves out (``tests/_golden.py``).

Each case runs in-process through ``run_command``. The digests were
recorded before the change that they first guarded; a change that moves
one must say so. ``PYTHONPATH=src python -m tests._golden`` prints this
table at the current checkout.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from ._golden import matrix_digests
from .test_cli import (
    GOLDEN_ABLATE_BATCH_BLOCK,
    GOLDEN_ABLATE_TIMESTEP,
    GOLDEN_BENCHMARK_BLOCKS,
    GOLDEN_CLI,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

GOLDEN_MATRIX = {
    ("simulate-none-1", "exit"): 0,
    ("simulate-none-1", "stdout"): "8bc63c5979853fddca0b2a415184842c35476b4ae3e35ea531ffd5e24c520d71",
    ("simulate-none-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-none-20", "exit"): 0,
    ("simulate-none-20", "stdout"): "8928d30f114c2981b7fbe7cc0eea79a74ab66a95f54ba622aacd7345c1e3d0bb",
    ("simulate-none-20", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-cads-1", "exit"): 0,
    ("simulate-cads-1", "stdout"): "509d4de5e1cc14c3f206a8bcb1bfff4d658d467a61f0ce98ebcd897013686a16",
    ("simulate-cads-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-cads-20", "exit"): 0,
    ("simulate-cads-20", "stdout"): "874256885d8f45929d6bf776b481d85d837243c3eea49b274fea9c7994369d27",
    ("simulate-cads-20", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual-1", "exit"): 0,
    ("simulate-contextual-1", "stdout"): "f0a31afbbc8421d2fad58722817b574bf9f0ebb302518f4886318fbca8a47777",
    ("simulate-contextual-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual-20", "exit"): 0,
    ("simulate-contextual-20", "stdout"): "13b2e003107621c5501035edd7ca576f24dcf9be69f4c3744194e54564d11f7e",
    ("simulate-contextual-20", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent-1", "exit"): 0,
    ("simulate-latent-1", "stdout"): "d815ec9d88a06dd7d733e91c7581433146a51ba4d62806250b92cd81e27801c6",
    ("simulate-latent-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent-20", "exit"): 0,
    ("simulate-latent-20", "stdout"): "5c9bbd32824cc429f43587e961ef70fd3ed2b9625e5b2dc3d5458430e70f517d",
    ("simulate-latent-20", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-repeated", "exit"): 0,
    ("ablate-batch-repeated", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-repeated", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-repeated", "sweep.csv"): "22ff162589f91db78dbcf1771925c0ff13b797c81786462ebc6960949d7f8dab",
    ("ablate-batch-one", "exit"): 0,
    ("ablate-batch-one", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-one", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-one", "sweep.csv"): "1fbb29b7b1a1c3e67953287a06a90f811479c43500ccf6a3064da3a5b7e51130",
    ("ablate-timestep-repeated", "exit"): 0,
    ("ablate-timestep-repeated", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-repeated", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-repeated", "sweep.csv"): "afdcf290cb52f09330f3858091ed0b39f376ff162caadd401b88b61c3ded427f",
    ("ablate-timestep-one", "exit"): 0,
    ("ablate-timestep-one", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-one", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-one", "sweep.csv"): "af34190f5a3f0df4a7a53e2b8196285e356365e697e997fcf88f6b076188c94b",
    ("toy-run-text-1", "exit"): 0,
    ("toy-run-text-1", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-text-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-text-1", "report.jsonl"): "1f7c76035523f0e2f23f14be8ccaa9e2bee38051b15a2579efd0578a3e3b6f09",
    ("toy-run-text-1", "snaps.csv"): "89b6f17c6e159ffa459f8eb418ee2ba78041a2af6cd6fdf25dccdc8b1640ffd1",
    ("toy-run-text-4", "exit"): 0,
    ("toy-run-text-4", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-text-4", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-text-4", "report.jsonl"): "c23673cd7f2522ab2347261a547d1c611a2eb82e9d93ac7f980a544168066b96",
    ("toy-run-text-4", "snaps.csv"): "f6da26cbd3a0864af150b3b5972a179805f34be3e9bdcb05ceae584790f07234",
    ("toy-run-image-1", "exit"): 0,
    ("toy-run-image-1", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-1", "report.jsonl"): "1f7c76035523f0e2f23f14be8ccaa9e2bee38051b15a2579efd0578a3e3b6f09",
    ("toy-run-image-1", "snaps.csv"): "89b6f17c6e159ffa459f8eb418ee2ba78041a2af6cd6fdf25dccdc8b1640ffd1",
    ("toy-run-image-4", "exit"): 0,
    ("toy-run-image-4", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-4", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-4", "report.jsonl"): "84cdb8c6082399530e011f5d53cfdffcd78251607b941a58f20b19c9533ff422",
    ("toy-run-image-4", "snaps.csv"): "0ca7c6d678b352ccd01a3c77854c23e8653f1fe850fff9704c09be294b076993",
    ("toy-run-all_tokens-1", "exit"): 0,
    ("toy-run-all_tokens-1", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-1", "report.jsonl"): "1f7c76035523f0e2f23f14be8ccaa9e2bee38051b15a2579efd0578a3e3b6f09",
    ("toy-run-all_tokens-1", "snaps.csv"): "89b6f17c6e159ffa459f8eb418ee2ba78041a2af6cd6fdf25dccdc8b1640ffd1",
    ("toy-run-all_tokens-4", "exit"): 0,
    ("toy-run-all_tokens-4", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-4", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-4", "report.jsonl"): "035a628e4db11a33010972caf1f40894af31a4679549cd933b86d151375d3a1e",
    ("toy-run-all_tokens-4", "snaps.csv"): "747368a5ef24ea6bfa83fe63c70fb7c51ac1036bdbed9c0d6833091aecd7232f",
    ("ablate-blocks-image", "exit"): 0,
    ("ablate-blocks-image", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-image", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-image", "sweep.csv"): "6f2117e49a80660832669c188125cab6971276795622499388a1d2c83dbfdd41",
    ("ablate-blocks-all_tokens", "exit"): 0,
    ("ablate-blocks-all_tokens", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-all_tokens", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-all_tokens", "sweep.csv"): "1b714260d749e3f9b5501b360909750fdd1ca51de5bd10ade05d27b6107079d1",
    ("ablate-blocks-one", "exit"): 0,
    ("ablate-blocks-one", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-one", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-one", "sweep.csv"): "5305660b08d6a2d0d4039b30f27396d078b83c289a91238252fc03ef9dea76c8",
    ("simulate-contextual-pool", "exit"): 0,
    ("simulate-contextual-pool", "stdout"): "5651a4e4ef3c20ea00fcb4cc5f45900a0f5f06cbe2e9e6d97d59f035478ead9d",
    ("simulate-contextual-pool", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual-pool", "pools"): [2],
    ("ablate-blocks-pool", "exit"): 0,
    ("ablate-blocks-pool", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-pool", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-pool", "pools"): [2],
    ("ablate-blocks-pool", "sweep.csv"): "a08b9a0ca1880abd95d8055b14e9da2f08a15dd017ef2a1c342c8fd6373bf9af",
    ("simulate-eta-1e40", "exit"): 3,
    ("simulate-eta-1e40", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-eta-1e40", "stderr"): "fc218bb3a5a9474e375283eb5b64f4c5289188257000c44f5c9fc8757030dc2f",
    ("simulate-cads-1e40", "exit"): 0,
    ("simulate-cads-1e40", "stdout"): "69893126d8894a56c188c4c3ddfa6da697b2ee042c0cb4d0f531bf5dbd8b4a49",
    ("simulate-cads-1e40", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-zero-prompt", "exit"): 2,
    ("ablate-blocks-zero-prompt", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-zero-prompt", "stderr"): "3db54dde84ce15d7fe23ca00049cb8512b21e2a574ff714abae49840e13a5aaa",
}


CASES = list(dict.fromkeys(name for name, _ in GOLDEN_MATRIX))


@pytest.mark.parametrize("name", CASES)
def test_case_byte_for_byte(tmp_path, capsys, name):
    expected = {key: value for key, value in GOLDEN_MATRIX.items() if key[0] == name}
    assert matrix_digests(tmp_path, capsys, {name}) == expected


def test_printed_tables_are_the_recorded_ones():
    # the command run in a fresh interpreter prints every table as recorded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    printed = subprocess.run([sys.executable, "-m", "tests._golden"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
    assert printed.stderr == ""
    tables = {}
    exec(printed.stdout, tables)
    recorded = {
        "GOLDEN_CLI": GOLDEN_CLI, "GOLDEN_MATRIX": GOLDEN_MATRIX,
        "GOLDEN_BENCHMARK_BLOCKS": GOLDEN_BENCHMARK_BLOCKS,
        "GOLDEN_ABLATE_BATCH_BLOCK": GOLDEN_ABLATE_BATCH_BLOCK,
        "GOLDEN_ABLATE_TIMESTEP": GOLDEN_ABLATE_TIMESTEP,
    }
    assert {name: tables[name] for name in recorded} == recorded
