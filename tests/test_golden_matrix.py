"""The byte-identity table: exit code, stdout, stderr and output files of
every CLI case in ``tests/_golden.py``.

Each case runs in-process through ``run_command``. The digests of
successful runs were recorded before the change that they first guarded,
the ``fp-fault`` cases at the change that made numpy's floating-point
faults exit 3, and the ``empty`` and ``unknown-method`` sweeps at the change
that gave every sweep one front half; a change that moves one must say so.
``PYTHONPATH=src python -m tests._golden`` prints this table at the current
checkout.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from ctxrep.config import load_config

from ._golden import golden_digests, shipped_config

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
    ("ablate-blocks-collapse", "exit"): 0,
    ("ablate-blocks-collapse", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-collapse", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-collapse", "sweep.csv"): "b96feb91e5652a0ef1c595d4830c7d3d75df1c9da784a38b8ac35870785b53ab",
    ("ablate-batch-shipped", "exit"): 0,
    ("ablate-batch-shipped", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-shipped", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-shipped", "sweep.csv"): "3f99154522df3b17518589a0524e0a37b6d2baadddf5ecf41ce86849412070f2",
    ("ablate-timestep-shipped", "exit"): 0,
    ("ablate-timestep-shipped", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-shipped", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-shipped", "sweep.csv"): "4d94bc306cdcc92ee0dce1a86a49382afd4afa7017c76872afa6573e41c9108d",
    ("ablate-batch-empty", "exit"): 0,
    ("ablate-batch-empty", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-empty", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-empty", "sweep.csv"): "f7bb66cdcdea1d96b9ea31ccd60748d13805e679ede58904e6370f19e51ed54e",
    ("ablate-batch-unknown-method", "exit"): 2,
    ("ablate-batch-unknown-method", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch-unknown-method", "stderr"): "773c39ff4867da61be0ecbf31c0f5e40328257d5f7362ffe85eef55131fab145",
    ("ablate-timestep-empty", "exit"): 0,
    ("ablate-timestep-empty", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-empty", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-empty", "sweep.csv"): "f7bb66cdcdea1d96b9ea31ccd60748d13805e679ede58904e6370f19e51ed54e",
    ("ablate-timestep-unknown-method", "exit"): 2,
    ("ablate-timestep-unknown-method", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-unknown-method", "stderr"): "773c39ff4867da61be0ecbf31c0f5e40328257d5f7362ffe85eef55131fab145",
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
    ("simulate-none", "exit"): 0,
    ("simulate-none", "stdout"): "03db9a409c4122c0992661fb445455043d8edf47ee181d98f4f1f9714fc96a1b",
    ("simulate-none", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-cads", "exit"): 0,
    ("simulate-cads", "stdout"): "69d871db20f28b5a9c39c73414f22fc57ffd988ea4eb062ec7388f8375bac88d",
    ("simulate-cads", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual", "exit"): 0,
    ("simulate-contextual", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual", "runs.jsonl"): "bfc1c68505ca3b8491626fc7d587785564e21da7f94968a370b67795d8cf57a9",
    ("simulate-latent", "exit"): 0,
    ("simulate-latent", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent", "runs.jsonl"): "12acf3e44ef549d2d30dad2615c4888497d0864db41133db670ab694f256d2e3",
    ("ablate-batch", "exit"): 0,
    ("ablate-batch", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch", "sweep.csv"): "f761c9e5d55e88599a18918a9fb32cc73c1ddafddb65488065b30002b2686a57",
    ("ablate-timestep", "exit"): 0,
    ("ablate-timestep", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep", "sweep.csv"): "2eb5055af84ce06ff79928748742e58341b315aa7a024caed638100308cbd701",
    ("ablate-blocks", "exit"): 0,
    ("ablate-blocks", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks", "sweep.csv"): "2543915af58574083d0393c9e61fb94138263e5331ea584d3d75671e64fa4163",
    ("steer-contextual", "exit"): 0,
    ("steer-contextual", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("steer-contextual", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("steer-contextual", "traj.csv"): "9f5f8ee1da1944bad9c837be5859e5255b4cae401d29a335464fa34a877e2f95",
    ("steer-latent", "exit"): 0,
    ("steer-latent", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("steer-latent", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("steer-latent", "traj.csv"): "dbbe08172c95ebce567fe92145b432fdad90f01802cc9139b41ef8bdc36a972b",
    ("repulse", "exit"): 0,
    ("repulse", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("repulse", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("repulse", "out.csv"): "adae178410d54bc2041b51b84fababd10c8d73d9bf49ec6609486163199b7b20",
    ("repulse-normalize", "exit"): 0,
    ("repulse-normalize", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("repulse-normalize", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("repulse-normalize", "out.csv"): "bf69bb816e35576f58622cef766007de15acfe6eee01b5bbb76af2fc903bd915",
    ("vendi-cosine", "exit"): 0,
    ("vendi-cosine", "stdout"): "bf2120d249a3df96d962d091645a32c5fe8c948929c954ca2858c372c86d69a8",
    ("vendi-cosine", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("vendi-rbf", "exit"): 0,
    ("vendi-rbf", "stdout"): "1ca52b2a4c05105dbe2a7d1e5585dc7aa80154ce19afa37c35fa29a9c77083f1",
    ("vendi-rbf", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("grad-check", "exit"): 0,
    ("grad-check", "stdout"): "df999cc79272d38c6dba2b25187aa04b5b26588421646ec22151e0da5a7e5e79",
    ("grad-check", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-splitmix64", "exit"): 0,
    ("ablate-blocks-splitmix64", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-splitmix64", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-splitmix64", "sweep.csv"): "595c67e461bc1c6cd313d1d8f5f98c8a5e946e4139bb43b5992e03b46178ea80",
    ("toy-run-splitmix64", "exit"): 0,
    ("toy-run-splitmix64", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-splitmix64", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-splitmix64", "report.jsonl"): "e932dcca3367137374e0179f85ad31b27276ce5a87403d95cc978e15591446f0",
    ("toy-run-splitmix64", "snaps.csv"): "6653266ac02a89c99a4a985658c09c0bb21554d3f6c41fcf849ec2086e9a384e",
    ("simulate-none-fp-fault", "exit"): 3,
    ("simulate-none-fp-fault", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-none-fp-fault", "stderr"): "bfd95f93f99cf2a3c698d020c95525dd53cb8995f52321874b6a75742507ec0d",
    ("simulate-none-fp-fault-pool", "exit"): 3,
    ("simulate-none-fp-fault-pool", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-none-fp-fault-pool", "stderr"): "bfd95f93f99cf2a3c698d020c95525dd53cb8995f52321874b6a75742507ec0d",
    ("simulate-none-fp-fault-pool", "pools"): [2],
    ("simulate-latent-fp-fault", "exit"): 3,
    ("simulate-latent-fp-fault", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent-fp-fault", "stderr"): "bfd95f93f99cf2a3c698d020c95525dd53cb8995f52321874b6a75742507ec0d",
    ("simulate-latent-fp-fault-pool", "exit"): 3,
    ("simulate-latent-fp-fault-pool", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent-fp-fault-pool", "stderr"): "bfd95f93f99cf2a3c698d020c95525dd53cb8995f52321874b6a75742507ec0d",
    ("simulate-latent-fp-fault-pool", "pools"): [2],
    ("simulate-contextual-fp-fault", "exit"): 3,
    ("simulate-contextual-fp-fault", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual-fp-fault", "stderr"): "bfd95f93f99cf2a3c698d020c95525dd53cb8995f52321874b6a75742507ec0d",
    ("simulate-contextual-fp-fault-pool", "exit"): 3,
    ("simulate-contextual-fp-fault-pool", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual-fp-fault-pool", "stderr"): "bfd95f93f99cf2a3c698d020c95525dd53cb8995f52321874b6a75742507ec0d",
    ("simulate-contextual-fp-fault-pool", "pools"): [2],
    ("simulate-sigma-fp-fault", "exit"): 3,
    ("simulate-sigma-fp-fault", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-sigma-fp-fault", "stderr"): "df9fc6583d2b29ab1ef05c72d315175c0cf4ac2f8363c981bfe6d08ff256cfd5",
    ("simulate-sigma-fp-fault-pool", "exit"): 3,
    ("simulate-sigma-fp-fault-pool", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-sigma-fp-fault-pool", "stderr"): "df9fc6583d2b29ab1ef05c72d315175c0cf4ac2f8363c981bfe6d08ff256cfd5",
    ("simulate-sigma-fp-fault-pool", "pools"): [2],
    ("ablate-timestep-fp-fault", "exit"): 3,
    ("ablate-timestep-fp-fault", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep-fp-fault", "stderr"): "ea7e89e446bc0f700e2463be6a3215ff11747b97b56744406c0b30e081fe6231",
    ("vendi-fp-fault", "exit"): 3,
    ("vendi-fp-fault", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("vendi-fp-fault", "stderr"): "eb537186d406c3ade6ae70718fb1c87499bddc9c7a056a9b588bbdddf61de265",
}


CASES = list(dict.fromkeys(name for name, _ in GOLDEN_MATRIX))


@pytest.mark.parametrize("name", CASES)
def test_case_byte_for_byte(tmp_path, capsys, name):
    expected = {key: value for key, value in GOLDEN_MATRIX.items() if key[0] == name}
    assert golden_digests(tmp_path, capsys, {name}) == expected


def test_printed_tables_are_the_recorded_ones():
    # the command run in a fresh interpreter prints the table as recorded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    printed = subprocess.run([sys.executable, "-m", "tests._golden"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
    assert printed.stderr == ""
    tables = {}
    exec(printed.stdout, tables)
    assert tables["GOLDEN_MATRIX"] == GOLDEN_MATRIX


def test_collapse_blocks_case_runs_the_benchmark_toy_shape(tmp_path):
    # ablate-blocks-collapse is the toy-blocks benchmark's run: 4 dual and 2
    # single blocks, toy_batch 4, the four shipped groups
    cfg = load_config(shipped_config(tmp_path, "collapse.cfg", "collapse", seeds=5))
    assert (cfg.toy_dual_blocks, cfg.toy_single_blocks, cfg.toy_batch) == (4, 2, 4)
    assert cfg.sweep_block_groups == ("first_third", "middle_third", "last_third", "all")
