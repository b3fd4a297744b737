"""The byte-identity table: the kernels it was recorded on, and the digests
of every case in ``tests/_golden.py``. A CLI case, run in-process through
``run_command``, records its exit code and the digests of its stdout, stderr
and output files; a library case records the digests of the arrays its call
returns. The CLI digests of successful runs were recorded before the change
that they first guarded, except the toy runs on the shipped random source
(``toy-run-<stream>-<batch>`` and the ``ablate-blocks`` sweeps but
``ablate-blocks-splitmix64``), re-recorded when the toy generators were
first seeded from SplitMix64 words. The ``fp-fault`` cases were recorded at
the change that made numpy's floating-point faults exit 3, and the
``empty`` and ``unknown-method`` sweeps at the change that gave every sweep
one front half; ``_golden._library_cases`` dates the library ones. A change that moves
one must say so. ``PYTHONPATH=src python -m tests._golden`` prints these
tables at the current checkout.
"""

import pytest

from ctxrep.config import load_config

from . import _golden
from ._golden import golden_digests, openblas_corename, printed_tables, shipped_config, where

GOLDEN_KERNELS = {"openblas": "SkylakeX", "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
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
    ("ablate-blocks-image", "sweep.csv"): "1f5bae52307a7638fc671c7f02a2e30a48775f6b36f36501f5bad497cb14dede",
    ("ablate-blocks-all_tokens", "exit"): 0,
    ("ablate-blocks-all_tokens", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-all_tokens", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-all_tokens", "sweep.csv"): "11eada3887aded3d8e0f7bc3102e977df2b17fb3add4c709ad1bd1870d0cc420",
    ("ablate-blocks-one", "exit"): 0,
    ("ablate-blocks-one", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-one", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-one", "sweep.csv"): "475c633359f1187df631ade9ba039626b19d6b4a95725e94058afd14573f9430",
    ("ablate-blocks-collapse", "exit"): 0,
    ("ablate-blocks-collapse", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-collapse", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-collapse", "sweep.csv"): "2d2795472d50083bc0d485a7970b710ae886661e7ac2c00dadba0158eaca2274",
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
    ("toy-run-text-1", "snaps.csv"): "49573abe8ffe9af0d7f76fce142927f509716dbca951ae8b7f7c8eef037ab436",
    ("toy-run-text-4", "exit"): 0,
    ("toy-run-text-4", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-text-4", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-text-4", "report.jsonl"): "a879ce29795760a9594f38d4b07ecacfc5cb0849d5dd18a2ceadb92b1c970b67",
    ("toy-run-text-4", "snaps.csv"): "8625b217b3f4e43e6fb911a315bc49343babecdfa5f920b02f05c4ff391f27f3",
    ("toy-run-image-1", "exit"): 0,
    ("toy-run-image-1", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-1", "report.jsonl"): "1f7c76035523f0e2f23f14be8ccaa9e2bee38051b15a2579efd0578a3e3b6f09",
    ("toy-run-image-1", "snaps.csv"): "49573abe8ffe9af0d7f76fce142927f509716dbca951ae8b7f7c8eef037ab436",
    ("toy-run-image-4", "exit"): 0,
    ("toy-run-image-4", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-4", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-image-4", "report.jsonl"): "e500f5edbc04d35b72ae559f805bfb66d5ff07f3119bf73fa1ea883674f683d0",
    ("toy-run-image-4", "snaps.csv"): "86253203cdbc35c18f0cead5702c91a026359906cbb5c67bf4445c2b48dabbc5",
    ("toy-run-all_tokens-1", "exit"): 0,
    ("toy-run-all_tokens-1", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-1", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-1", "report.jsonl"): "1f7c76035523f0e2f23f14be8ccaa9e2bee38051b15a2579efd0578a3e3b6f09",
    ("toy-run-all_tokens-1", "snaps.csv"): "49573abe8ffe9af0d7f76fce142927f509716dbca951ae8b7f7c8eef037ab436",
    ("toy-run-all_tokens-4", "exit"): 0,
    ("toy-run-all_tokens-4", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-4", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run-all_tokens-4", "report.jsonl"): "db883022c0901ad8fa7bfc687fe7881e3b2a7e4de3fed4b1c0fe4ca37338eb9a",
    ("toy-run-all_tokens-4", "snaps.csv"): "2e1d89b4782d901cf9a6ea702145510890eea8180a1d2513958d49cea1ff8470",
    ("simulate-contextual-pool", "exit"): 0,
    ("simulate-contextual-pool", "stdout"): "5651a4e4ef3c20ea00fcb4cc5f45900a0f5f06cbe2e9e6d97d59f035478ead9d",
    ("simulate-contextual-pool", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual-pool", "pools"): [2],
    ("ablate-blocks-pool", "exit"): 0,
    ("ablate-blocks-pool", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-pool", "stderr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks-pool", "pools"): [2],
    ("ablate-blocks-pool", "sweep.csv"): "6602e4ea662549dbaf922befeb671dd7cfefc9782e77cbb0defa45f2a3884568",
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
    ("ablate-blocks", "sweep.csv"): "94d029fedaea7ca400e2f9ce696fa37310e34edbe802a625d6c9c00668db0c67",
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
    ("sample_batch-none-0", "trajectories"): "656430c1d2ebb1be463def4bbf75a76b63e29fa9ef6a67b10385e8834a25b39b",
    ("sample_batch-none-7", "trajectories"): "fb899a77769aa3728be9057eed1e436dd1f6c93fa4ce4c7a1feac0459dc86162",
    ("sample_batch-none-19", "trajectories"): "6777433add1f4482a8b6e8ff7b8e0d06137795dbd1317a987283afce2907e7b8",
    ("sample_batch-contextual-0", "trajectories"): "aaf2dd294b3e508faa573ebf903003c7bf62ba8cfb6bc34f89eaa5946c1bd009",
    ("sample_batch-contextual-7", "trajectories"): "87786892aebc9602a169d11ad04995f93ceeeed831889b7bf16520047385a667",
    ("sample_batch-contextual-19", "trajectories"): "82735748fc28ab613e8c049c7ba8f2dddd67bd8c6f64134b6f8160113a3ffd95",
    ("sample_batch-latent-0", "trajectories"): "c09bed28abde172eeb544a8a39308cb7c40de9f455ac59a97a468bbdc46634ae",
    ("sample_batch-latent-7", "trajectories"): "88c59b172b37be6d605c10cadb26300c083531ae7dc02a9f4110d0ea97c99e6e",
    ("sample_batch-latent-19", "trajectories"): "e47b1f7c7ccbd597573f870a42383ab9dccfb66d292831a692107109b568031e",
    ("sample_batch-cads-0", "trajectories"): "7533ec642ca4031ff0cd6a6210c68687499e53e14515d44abc2141664b41f51d",
    ("sample_batch-cads-7", "trajectories"): "c57bc4344a811895c3ac467f20272947b4df3c8e015bcf103e812020f6a46919",
    ("sample_batch-cads-19", "trajectories"): "44cdf4993c67f9332210f2a42d2fb3f7d151bde58c8d3631142bc06970325bac",
    ("steered_run-contextual", "trajectories"): "51fd4db45dd68813e0386b4fbb3bdf73feb8fbbf621ad2d8d4589d5cabbc65c1",
    ("steered_run-latent", "trajectories"): "92e24db515793d8f04810af21e7554a491942b33385684fd57e48720ee7153d0",
    ("repulse-2x2", "outputs"): "c205c5cb7c56aa60f710591d90e464b96f38491a5d7d3aa69696dd5cdafdd136",
    ("repulse-2x8", "outputs"): "35958765d9053550b0f3ad690ec7456cfccdfbca614e1d654b5d5b2ad87edf83",
    ("repulse-2x64", "outputs"): "92bcea7ce9b2e6c43290b424e252fc0623e86f71fcc7540f4e442f05e4c3350d",
    ("repulse-4x2", "outputs"): "c381df276d642e655b83b28541729313f3f6bd48c4e143de160acae07eb19b7e",
    ("repulse-4x8", "outputs"): "b9d036bfe7e201a20c279ff9d7e96246ed0cd7f0a2fe1e3988bc2e278ee9eba1",
    ("repulse-4x64", "outputs"): "9a0921432f758d60856924483b3943e4cb70010f0d80a02cfa1dcf7e2312978f",
    ("repulse-8x2", "outputs"): "c1161bb7dbb31bf1e0a42511028ca548c845a306f5a30325e24f11dafd828017",
    ("repulse-8x8", "outputs"): "b2552aed1bf9612b60b2c8189fb6793a6c61bcad70c3b7b518d0c9bc9f54c6e3",
    ("repulse-8x64", "outputs"): "c20b3d142cb814cae12ba525ad02d8a303d15ac4f6b94c739d0491bde70d99aa",
    ("repulse-16x2", "outputs"): "6d30232824f0cce56d84de5e6f75e0f91a9f599dbda5f33f5b997da7c7422e97",
    ("repulse-16x8", "outputs"): "971954168d11bc8209129120c994060655f9a35e679e06c405724e85803c0b34",
    ("repulse-16x64", "outputs"): "e0ee1960c39f2ae393309f5e2a03d50c2fc39ee5fdd88787a91928519a01e72a",
    ("toy-snapshots-text", "snapshots"): "585a9077a8f774d0fd178f48bfa54dfc0e1da15a16375461e5f20cb90233ab23",
    ("toy-snapshots-image", "snapshots"): "99c75677d70242bf73802081e439f38ec86ebf23169e16fa98d03ff3481a2164",
    ("toy-snapshots-all_tokens", "snapshots"): "c934ad804efd98a40693ed1f62e877483eb62a582d66b11d8f637a06cfd6413f",
    ("toy-snapshots-off", "snapshots"): "8cc5bf73a96fa59fb101f077431e4439e9a2fc2ffb9e1293cf9865661d590cb0",
    ("toy-snapshots-text-einsum", "snapshots"): "119735c239718672df07d8f6101550a68c105e917a29e3e58bf8e88591cf10b5",
    ("toy-snapshots-image-einsum", "snapshots"): "b87b6ab08b1ec722e49a6de38efe0bef3405922657d2a386fc6093837d362fcc",
    ("toy-snapshots-all_tokens-einsum", "snapshots"): "245896070541d8d4b95ac5762fc7e2455ba51378c0124d862e01191f48ce6f33",
    ("toy-snapshots-off-einsum", "snapshots"): "9948768692cb20b09bc3b35e438bc990541fc63c8dd3a551ff6db8c3be843f0e",
    ("toy-snapshots-text-splitmix64", "snapshots"): "90b6fee99ed84cd38098e179dc64912b34228593c7a2b937baab24d865b0f25a",
    ("toy-snapshots-image-splitmix64", "snapshots"): "4984db1f1e571362d3cbd2d20bd39e534d3ad3c5bf83164d019889453675fccc",
    ("toy-snapshots-all_tokens-splitmix64", "snapshots"): "ba97e26bbabf9022f068788ecc273560d660dca3d8d8b5d2f428fcb5c2bb1541",
    ("toy-snapshots-off-splitmix64", "snapshots"): "9a33de1c4c5bba463ff95faaa048edae97a95425ad98b4899a58b5bba3e64c71",
    ("toy-snapshots-text-einsum-splitmix64", "snapshots"): "66294be28095a23151995665f166f69eb8aa0426db45b37fc8490a3f046b19b4",
    ("toy-snapshots-image-einsum-splitmix64", "snapshots"): "e58f465fff29d8801c7081b7762f29c4a3cf8dd11da1d401e41b178db90da5e5",
    ("toy-snapshots-all_tokens-einsum-splitmix64", "snapshots"): "4ba008e73dfdb382646c471496b6a5662abf2110bd653584d0e6ea2001ef9130",
    ("toy-snapshots-off-einsum-splitmix64", "snapshots"): "fe70718658d5fca47f670086806dfc9d43c927f121f8d794eb8f834d6d2df128",
    ("toy-tensors-16", "init"): "00985a7bfcc4d3c8d14b25c9955f160dea3be598db0badf23217e6ca72a45b16",
    ("toy-tensors-16", "prompt"): "119036d2933ba1b7945e6b4eb9c4021b963d34a8e2d60c6a497b4734b925fd56",
    ("toy-tensors-16", "image"): "f529796e93d5dd79d1b1354f70566c60a1fcda8283d386a63c088207ed17d494",
    ("toy-tensors-3", "init"): "92effee5a2edf9a44342fd45b1ff809ca0134a7690d2a25e30e156f9575f6d11",
    ("toy-tensors-3", "prompt"): "ff814f9a9ac70242c193a077b88815ba3fed147bd7190233557b819621f66bb7",
    ("toy-tensors-3", "image"): "c1edb05178b49ea9be3db40994103e4ad030a72a032d42b0f7312a798040ca56",
    ("toy-tensors-16-splitmix64", "init"): "5a0279f7e0eaa785a3b9cec73e84d2157067b719f340f28891757fea5d51e745",
    ("toy-tensors-16-splitmix64", "prompt"): "2ce1a2318b253fec272db734f7065454197fc0afc8cc352d1b0500db456f259e",
    ("toy-tensors-16-splitmix64", "image"): "3cfc2bf99caf1e0bc5a0a65e2b1f660303be8137c36771ec67560e245181d27c",
    ("toy-tensors-3-splitmix64", "init"): "2ef2bb085082fbae408c66f1768ba690aa4f896a3fa6784f7425b2da465984a5",
    ("toy-tensors-3-splitmix64", "prompt"): "6d671006eab7edb4c60516e111b56563d16d6ef964329109571408f8e9a163a8",
    ("toy-tensors-3-splitmix64", "image"): "c28de23481ee5a7c117b49045a656a01fbac89112de964cc16ee5b0e787c3299",
}

CASES = list(dict.fromkeys(name for name, _ in GOLDEN_MATRIX))


@pytest.mark.parametrize("name", CASES)
def test_case_byte_for_byte(tmp_path, capsys, name):
    expected = {key: value for key, value in GOLDEN_MATRIX.items() if key[0] == name}
    assert golden_digests(tmp_path, capsys, {name}) == expected, where(GOLDEN_KERNELS)


def test_printed_tables_are_the_recorded_ones():
    # the command run in a fresh interpreter prints the tables as recorded
    tables = printed_tables()
    assert tables == {"GOLDEN_KERNELS": GOLDEN_KERNELS, "GOLDEN_MATRIX": GOLDEN_MATRIX}, where(
        GOLDEN_KERNELS, tables["GOLDEN_KERNELS"])


def test_a_moved_digest_names_both_kernels(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(GOLDEN_KERNELS, "openblas", "RecordedCore")
    monkeypatch.setitem(GOLDEN_MATRIX, ("toy-tensors-3", "init"), "0" * 64)
    with pytest.raises(AssertionError) as failure:
        test_case_byte_for_byte(tmp_path, capsys, "toy-tensors-3")
    message = str(failure.value)
    assert "recorded on {'openblas': 'RecordedCore'" in message
    assert f"running on {{'openblas': '{openblas_corename()}'" in message


def test_a_library_without_the_corename_symbol_is_an_unknown_core(monkeypatch):
    monkeypatch.setattr(_golden, "CORENAME_SYMBOL", "no_such_symbol")
    assert openblas_corename() == "unknown"


def test_collapse_blocks_case_runs_the_benchmark_toy_shape(tmp_path):
    # ablate-blocks-collapse is the toy-blocks benchmark's run: 4 dual and 2
    # single blocks, toy_batch 4, the four shipped groups
    cfg = load_config(shipped_config(tmp_path, "collapse.cfg", "collapse", seeds=5))
    assert (cfg.toy_dual_blocks, cfg.toy_single_blocks, cfg.toy_batch) == (4, 2, 4)
    assert cfg.sweep_block_groups == ("first_third", "middle_third", "last_third", "all")


@pytest.mark.parametrize("name, inputs", [
    ("vendi-cosine", ["vectors.csv"]),
    ("ablate-timestep", ["exp.cfg", "timestep.cfg"]),
    ("sample_batch-none-0", []),
])
def test_a_case_writes_only_its_own_inputs(tmp_path, capsys, name, inputs):
    golden_digests(tmp_path, capsys, {name})
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs
