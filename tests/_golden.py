"""The byte-identity table's cases, its one runner, and the command that
prints the table at the current checkout.

From the repository root::

    PYTHONPATH=src python -m tests._golden [CASE ...]

prints ``GOLDEN_KERNELS`` and ``GOLDEN_MATRIX``
(``tests/test_golden_matrix.py``), every case's or the named ones', as
Python literals ready to paste. Run it at the parent commit before editing
code whose outputs must keep their bits, and again after: the table must not
move. A digest can move at the last bit on other kernels than those it was
recorded on, which ``GOLDEN_KERNELS`` names.

A case, a CLI invocation (``Case``) or a library call (``Call``), returns its
digests by field. The CLI cases cover every command on small configs, seed
stacks on the shipped configs, the shipped sweeps, sweeps with a repeated
value, with one value and with none, every toy stream, the toy commands on
the SplitMix64 oracle stream, a real two-worker pool on each runner, and the
failure paths, each case's exit code and stderr line included. The library
cases hash mixture runs, ``repulse`` calls and toy tensors and snapshots.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pytest
from numpy._core import _multiarray_umath as _umath

import ctxrep.cli as cli
from ctxrep import gmmflow, toydit
from ctxrep.cli import run_command, write_vector_csv
from ctxrep.linalg import ContextBatch
from ctxrep.repulsion import RepulsionConfig, repulse
from ctxrep.steering import SteeringSpec, steered_run

from . import _oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def digest(arrays) -> str:
    """sha256 of ``arrays`` in turn, each as contiguous little-endian float64."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def deferred(write: Callable[..., str], *args, **kwargs) -> Callable[[], str]:
    """``write(*args, **kwargs)``, which writes an input file of CLI cases and
    returns its path, called when the first case whose argv holds it runs."""
    return functools.cache(functools.partial(write, *args, **kwargs))


@dataclass(frozen=True)
class Case:
    """One CLI invocation: its argv, the files it writes under ``out``, the
    module attributes set for the run as (object, name, value), and whether
    every run pays for a worker so that a real pool starts. An argv item may
    be an input file ``deferred`` writes, so that only the cases that run
    write their inputs."""

    argv: list[str | Callable[[], str]]
    files: tuple[str, ...] = ()
    patches: tuple = ()
    pool: bool = False

    def digests(self, out: pathlib.Path, capsys, monkeypatch) -> dict:
        """Run the invocation, held to the CLI's contract: nothing on stderr
        or one JSON error line, and under ``out`` every file the case names on
        success but none on failure. Returns its exit code, the sha256 of its
        stdout, stderr and files, and a pool case's pool sizes."""
        argv = [arg() if callable(arg) else arg for arg in self.argv]
        out.mkdir()
        pools = one_run_per_worker(monkeypatch) if self.pool else []
        code = run_command(argv)
        captured = capsys.readouterr()
        assert captured.err == "" or (
            captured.err.count("\n") == 1 and "error" in json.loads(captured.err)), argv
        digests = {
            "exit": code,
            "stdout": hashlib.sha256(captured.out.encode()).hexdigest(),
            "stderr": hashlib.sha256(captured.err.encode()).hexdigest(),
        }
        if self.pool:
            digests["pools"] = pools
        written = sorted(p.name for p in out.iterdir())
        assert written == (sorted(self.files) if code == 0 else []), argv
        for file in written:
            digests[file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
            (out / file).unlink()
        out.rmdir()
        return digests


@dataclass(frozen=True)
class Call:
    """One library call: ``arrays()`` returns, for each field, the arrays
    whose ``digest`` the field records; ``patches`` as for a ``Case``."""

    arrays: Callable[[], dict]
    patches: tuple = ()

    def digests(self, out: pathlib.Path, capsys, monkeypatch) -> dict:
        return {field: digest(arrays) for field, arrays in self.arrays().items()}


def shipped_config(tmp_path: pathlib.Path, name: str, label: str, **settings) -> str:
    """``configs/<name>`` with ``settings`` in place of its own values,
    written under ``tmp_path`` as ``<label>.cfg``."""
    shipped = (CONFIG_DIR / name).read_text().splitlines(keepends=True)
    path = tmp_path / f"{label}.cfg"
    path.write_text(
        "".join(line for line in shipped if line.partition(" =")[0] not in settings)
        + "".join(f"{k} = {v}\n" for k, v in settings.items())
    )
    return str(path)


def small_gmm_config(tmp_path, **extra) -> str:
    """A 32-step mixture config of batch size 4 at 2 seeds, with ``extra``,
    written as ``tmp_path / "exp.cfg"``."""
    settings = {"world_steps": 32, "batch_size": 4, "seeds": 2}
    settings.update(extra)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return str(path)


def extended_config(config: Callable[[], str], path: pathlib.Path, extra: str) -> str:
    """The config at ``config()`` with ``extra`` appended, written as ``path``."""
    path.write_text(pathlib.Path(config()).read_text() + extra)
    return str(path)


def vector_csv(path: pathlib.Path, rows) -> str:
    """``rows`` written as ``path`` by the CLI's vector writer."""
    write_vector_csv(str(path), np.asarray(rows))
    return str(path)


def _zero_prompt_at(weight_seed: int):
    """``toydit.encode_prompt`` with an all-zero encoding under ``weight_seed``."""
    encode = toydit.encode_prompt

    def encode_prompt(model_cfg, prompt_id):
        prompt = encode(model_cfg, prompt_id)
        if model_cfg.weight_seed == weight_seed:
            return toydit.PromptEncoding(prompt_id, np.zeros_like(prompt.tokens))
        return prompt

    return encode_prompt


# the toy model's random source before it drew from numpy's PCG64 generator
SPLITMIX64 = ((toydit, "seeded_generator", _oracles.SplitMix64),
              (toydit, "normal_array", _oracles.normal_array))
# the toy model's attention as an einsum, which sums in another order
EINSUM = ((toydit, "_joint_attention", _oracles.einsum_joint_attention),)


# the collapse world's runs (collapse.cfg: B = 8 one-hot prompts, cads_scale 0.5)
COLLAPSE_REPULSION = RepulsionConfig(
    eta=2.0, inner_steps=2, timestep_interval=(0.0, 0.25), gradient_normalization=True
)
LATENT_REPULSION = RepulsionConfig(
    eta=0.65, inner_steps=2, timestep_interval=(0.0, 1.0), gradient_normalization=True
)
METHOD_KWARGS = {
    "none": {},
    "cads": {"cads": gmmflow.CadsParams(scale=0.5)},
    "contextual": {"repulsion": COLLAPSE_REPULSION},
    "latent": {"repulsion": LATENT_REPULSION},
}


def trajectory_arrays(run) -> list:
    """Each sample's latents, then each sample's contexts: the record's
    arrays in sample-major order."""
    return [run.latents.swapaxes(0, 1), run.contexts.swapaxes(0, 1)]


def _trajectories(run_function, *args, **kwargs) -> dict:
    return {"trajectories": trajectory_arrays(run_function(*args, **kwargs))}


def golden_vectors(b: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * b + d)
    vectors = rng.standard_normal((b, d))
    if b > 2:
        vectors[-1] = vectors[0]  # a duplicate row: the kernel's snap path
    return vectors


def _repulse(b: int, d: int) -> dict:
    # repulse for normalization off then on, each at inner steps 1 then 3,
    # leaving its input as it was
    vectors = golden_vectors(b, d)
    batch = ContextBatch(vectors)
    outputs = [
        repulse(batch, RepulsionConfig(eta=0.5, inner_steps=steps, gradient_normalization=norm))
        .vectors
        for norm in (False, True)
        for steps in (1, 3)
    ]
    assert np.array_equal(batch.vectors, vectors)
    return {"outputs": outputs}


def _toy_snapshots(stream) -> dict:
    # a 3-sample batch through two dual blocks and one single-stream block
    cfg = toydit.ToyDiTConfig(n_dual_blocks=2, n_single_blocks=1)
    weights = toydit.init_weights(cfg)
    prompts = [toydit.encode_prompt(cfg, 0) for _ in range(3)]
    images = np.stack([toydit.seed_image_tokens(cfg, i) for i in range(3)])
    repulsion = None if stream is None else RepulsionConfig(
        eta=0.04, inner_steps=2, timestep_interval=(0.0, 1.0), target_stream=stream,
        gradient_normalization=True)
    _, snaps = toydit.forward_with_hooks(prompts, images, weights, repulsion)
    return {"snapshots": [s.vectors for s in snaps]}


def _toy_tensors(dim: int, heads: int) -> dict:
    # at token_dim 3 a matrix holds 9 entries, so on the SplitMix64 stream the
    # spare sine carries from one matrix fill into the next
    cfg = toydit.ToyDiTConfig(token_dim=dim, attention_heads=heads)
    weights = toydit.init_weights(cfg)
    matrices = [block[name] for block in weights.dual_blocks for name in toydit.DUAL_MATRIX_NAMES]
    matrices += [block[name] for block in weights.single_blocks
                 for name in toydit.SINGLE_MATRIX_NAMES]
    return {
        "init": matrices,
        "prompt": [toydit.encode_prompt(cfg, prompt_id).tokens for prompt_id in (0, 5)],
        "image": [toydit.seed_image_tokens(cfg, seed) for seed in (0, 12345)],
    }


def _library_cases() -> dict[str, Call]:
    """Each library case by name. The collapse world's ``sample_batch`` runs
    were recorded before the mixture-flow step was fused, ``repulse`` before
    its inner step dropped its checks and copies, and the toy model when its
    numpy PCG64 generators were first seeded from SplitMix64 words rather
    than through ``SeedSequence``. Its ``splitmix64`` cases keep the values
    from before it moved to numpy's generator at all (and before attention
    was stacked, for ``einsum-splitmix64``): those were the only sources of
    moved bits."""
    world = gmmflow.MixtureWorld()
    cases = {
        f"sample_batch-{method}-{seed}": Call(functools.partial(
            _trajectories, gmmflow.sample_batch, world, gmmflow.one_hot_prompts(world, 8),
            method, seed=seed, **METHOD_KWARGS[method]))
        for method in gmmflow.METHODS
        for seed in (0, 7, 19)
    }
    for space in ("contextual", "latent"):
        cases[f"steered_run-{space}"] = Call(functools.partial(
            _trajectories, steered_run, world, 0, 3, SteeringSpec(alpha=0.5, space=space)))
    for b in (2, 4, 8, 16):
        for d in (2, 8, 64):
            cases[f"repulse-{b}x{d}"] = Call(functools.partial(_repulse, b, d))
    for suffix, patches in (("", ()), ("-einsum", EINSUM), ("-splitmix64", SPLITMIX64),
                            ("-einsum-splitmix64", EINSUM + SPLITMIX64)):
        for stream in ("text", "image", "all_tokens", None):
            cases[f"toy-snapshots-{stream or 'off'}{suffix}"] = Call(
                functools.partial(_toy_snapshots, stream), patches)
    for suffix, patches in (("", ()), ("-splitmix64", SPLITMIX64)):
        for dim, heads in ((16, 2), (3, 1)):
            cases[f"toy-tensors-{dim}{suffix}"] = Call(
                functools.partial(_toy_tensors, dim, heads), patches)
    return cases


def golden_cases(tmp_path: pathlib.Path) -> dict[str, Case | Call]:
    """Each case by name; a CLI case's inputs are written under ``tmp_path``
    when it runs, and its outputs go to ``tmp_path / "out"``."""
    out = tmp_path / "out"
    shipped = functools.partial(deferred, shipped_config, tmp_path)
    sweep = ["--output", str(out / "sweep.csv")]
    collapse = str(CONFIG_DIR / "collapse.cfg")
    cases = {
        f"simulate-{method}-{seeds}": Case(
            ["simulate", "--config", collapse, "--method", method, "--seeds", str(seeds)])
        for method in ("none", "cads", "contextual", "latent")
        for seeds in (1, 20)
    }
    # a repeated value and one value on each axis: batch size 1, which
    # repulsion passes by; on the 4 + 2 block model, first_third fires on dual
    # blocks 0 and 1, last_third on the single blocks only, which merge the
    # streams. Then the shipped sweeps: collapse.cfg's toy model, as the
    # toy-blocks benchmark runs it, and the batch-sweep benchmark's 5-seed block
    blocks = {"seeds": 3, "seed_start": 2}
    sweeps = {
        "ablate-batch-repeated": ("batch", "ablate_batch.cfg",
                                  {"sweep_batch_sizes": "4,1,4", "seeds": 3}),
        "ablate-batch-one": ("batch", "collapse.cfg",
                             {"method": "latent", "sweep_batch_sizes": 3, "seeds": 3}),
        "ablate-timestep-repeated": ("timestep", "ablate_timestep.cfg",
                                     {"sweep_intervals": "0:0.25,0.5:1,0:0.25", "seeds": 3}),
        "ablate-timestep-one": ("timestep", "collapse.cfg",
                                {"sweep_intervals": "0.125:0.5", "seeds": 3}),
        "ablate-blocks-image": ("blocks", "toy.cfg", {
            "repulsion_target_stream": "image",
            "sweep_block_groups": "first_third,all,first_third", **blocks}),
        "ablate-blocks-all_tokens": ("blocks", "toy.cfg", {
            "repulsion_target_stream": "all_tokens",
            "sweep_block_groups": "last_third,all,last_third", **blocks}),
        "ablate-blocks-one": ("blocks", "toy.cfg", {
            "repulsion_target_stream": "text", "sweep_block_groups": "middle_third", **blocks}),
        "ablate-blocks-collapse": ("blocks", "collapse.cfg", {"seeds": 5}),
        "ablate-batch-shipped": ("batch", "ablate_batch.cfg", {"seeds": 5}),
        "ablate-timestep-shipped": ("timestep", "ablate_timestep.cfg", {}),
    }
    # an empty sweep writes only its header, and an unknown method is named
    # before any run, at zero seeds too
    for axis, key in (("batch", "sweep_batch_sizes"), ("timestep", "sweep_intervals")):
        sweeps[f"ablate-{axis}-empty"] = (axis, f"ablate_{axis}.cfg", {key: ""})
        sweeps[f"ablate-{axis}-unknown-method"] = (axis, f"ablate_{axis}.cfg",
                                                   {"method": "bogus", "seeds": 0})
    for name, (axis, config, settings) in sweeps.items():
        cfg = shipped(config, name, **settings)
        cases[name] = Case(["ablate", "--axis", axis, "--config", cfg, *sweep], ("sweep.csv",))
    for stream in ("text", "image", "all_tokens"):
        for batch in (1, 4):
            name = f"toy-run-{stream}-{batch}"
            toy = shipped(
                "toy.cfg", name, toy_batch=batch, repulsion_target_stream=stream,
                output_snapshots=out / "snaps.csv", output_report=out / "report.jsonl",
            )
            cases[name] = Case(["toy-run", "--config", toy], ("snaps.csv", "report.jsonl"))
    pooled = shipped("toy.cfg", "pool", sweep_block_groups="first_third,all", seeds=4)
    cases["simulate-contextual-pool"] = Case(
        ["simulate", "--config", collapse, "--method", "contextual", "--seeds", "4",
         "--jobs", "2"], pool=True)
    cases["ablate-blocks-pool"] = Case(
        ["ablate", "--axis", "blocks", "--config", pooled, "--jobs", "2", *sweep], ("sweep.csv",),
        pool=True)
    overflow = shipped("collapse.cfg", "overflow", repulsion_eta="1e40", seeds=3)
    cases["simulate-eta-1e40"] = Case(["simulate", "--config", overflow])
    # a corruption scale far above the shipped ones, whose rows' moments stay finite
    cads = shipped("collapse.cfg", "cads", method="cads", cads_scale="1e40", batch_size=2,
                   world_feedback=0, seeds=2)
    cases["simulate-cads-1e40"] = Case(["simulate", "--config", cads])
    zero = shipped("toy.cfg", "zero", sweep_block_groups="all", seeds=3)
    cases["ablate-blocks-zero-prompt"] = Case(
        ["ablate", "--axis", "blocks", "--config", zero, *sweep],
        # toy_seed 0 plus seed 1
        patches=((toydit, "encode_prompt", _zero_prompt_at(1)),),
    )

    # every command once, on a small mixture config at 3 seeds
    gmm = deferred(
        small_gmm_config, tmp_path, seeds=3, seed_start=4, sweep_batch_sizes="2,4",
        sweep_intervals="0:0.5,0.25:1", sweep_block_groups="first_third,all",
        toy_dual_blocks=2, toy_single_blocks=1, toy_batch=3,
    )
    timestep = deferred(extended_config, gmm, tmp_path / "timestep.cfg", "method = cads\n")
    vectors = deferred(vector_csv, tmp_path / "vectors.csv",
                       np.random.default_rng(3).standard_normal((5, 3)))
    for method in ("none", "cads"):
        cases[f"simulate-{method}"] = Case(["simulate", "--config", gmm, "--method", method])
    for method in ("contextual", "latent"):
        cases[f"simulate-{method}"] = Case(
            ["simulate", "--config", gmm, "--method", method, "--output", str(out / "runs.jsonl")],
            ("runs.jsonl",))
    for axis in ("batch", "timestep", "blocks"):
        cfg = timestep if axis == "timestep" else gmm
        cases[f"ablate-{axis}"] = Case(["ablate", "--axis", axis, "--config", cfg, *sweep],
                                       ("sweep.csv",))
    steer = ["steer", "--alpha", "0.5", "--source-seed", "1", "--target-seed", "6",
             "--config", gmm, "--output", str(out / "traj.csv")]
    cases["steer-contextual"] = Case(steer, ("traj.csv",))
    cases["steer-latent"] = Case(steer + ["--space", "latent", "--apply-interval", "0.25:1"],
                                 ("traj.csv",))
    repulse = ["repulse", "--input", vectors, "--output", str(out / "out.csv"),
               "--eta", "0.3", "--steps", "3"]
    cases["repulse"] = Case(repulse, ("out.csv",))
    cases["repulse-normalize"] = Case(repulse + ["--normalize"], ("out.csv",))
    cases["vendi-cosine"] = Case(["vendi", "--input", vectors])
    cases["vendi-rbf"] = Case(["vendi", "--input", vectors, "--kernel", "rbf",
                               "--bandwidth", "1.5"])
    cases["grad-check"] = Case(["grad-check", "--batch", "3", "--dim", "4", "--seeds", "3"])

    # the random source is the only thing that moved the toy outputs
    cases["ablate-blocks-splitmix64"] = dataclasses.replace(cases["ablate-blocks"],
                                                            patches=SPLITMIX64)
    cases["toy-run-splitmix64"] = dataclasses.replace(cases["toy-run-text-4"], patches=SPLITMIX64)

    # floating-point faults: each once in-process and, where a pool can
    # start, on a two-worker pool
    erased = shipped("collapse.cfg", "erased", prompt_strength="1e308", world_gamma=2.0,
                     seeds=2)
    runs = {f"simulate-{method}-fp-fault": ["simulate", "--config", erased, "--method", method]
            for method in ("none", "latent", "contextual")}
    # sigma squared overflows a Python float
    wide = shipped("collapse.cfg", "wide", world_radius="1e308", world_sigma="1e300", seeds=2)
    runs["simulate-sigma-fp-fault"] = ["simulate", "--config", wide]
    for name, argv in runs.items():
        cases[name] = Case(argv)
        cases[f"{name}-pool"] = Case(argv + ["--jobs", "2"], pool=True)
    far = shipped("ablate_timestep.cfg", "far", method="none", world_radius="1e154",
                  prompt_strength="-1e300", world_steps=2, seeds=1)
    cases["ablate-timestep-fp-fault"] = Case(["ablate", "--axis", "timestep", "--config", far,
                                              *sweep], ("sweep.csv",))
    huge = deferred(vector_csv, tmp_path / "huge.csv", [[1e200, 2e200], [3e200, -1e200]])
    cases["vendi-fp-fault"] = Case(["vendi", "--input", huge])
    return cases | _library_cases()


def recorded_pools(monkeypatch) -> list:
    """The worker count of every process pool the CLI starts from now on.

    The CLI imports the pool class only where it starts one, so the class is
    replaced where that import finds it."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def one_run_per_worker(monkeypatch) -> list:
    """Let every run pay for a worker, so that small runs start pools; returns
    the pools started, as ``recorded_pools`` does."""
    monkeypatch.setattr(cli, "MIN_RUNS_PER_WORKER", 1)
    return recorded_pools(monkeypatch)


def run_case(case: Case | Call, out: pathlib.Path, capsys) -> dict:
    """``case``'s digests, taken with its module attributes set; a CLI case
    writes under ``out``, which must not exist."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        for target, attribute, value in case.patches:
            monkeypatch.setattr(target, attribute, value)
        return case.digests(out, capsys, monkeypatch)


def golden_digests(tmp_path: pathlib.Path, capsys, names=None) -> dict:
    """``run_case``'s digests of each case in ``names``, or of all, keyed
    (case, field)."""
    return {
        (name, field): value
        for name, case in golden_cases(tmp_path).items() if names is None or name in names
        for field, value in run_case(case, tmp_path / "out", capsys).items()
    }


_Captured = collections.namedtuple("_Captured", "out err")


class _Capture:
    """Outside pytest, what ``capsys`` gives: while ``active()`` holds stdout
    and stderr, ``readouterr()`` returns and clears what was printed since
    the last call."""

    @contextlib.contextmanager
    def active(self):
        with (contextlib.redirect_stdout(io.StringIO()) as self._out,
              contextlib.redirect_stderr(io.StringIO()) as self._err):
            yield

    def readouterr(self):
        captured = _Captured(self._out.getvalue(), self._err.getvalue())
        for buffer in (self._out, self._err):
            buffer.seek(0)
            buffer.truncate()
        return captured


# names the core that numpy's bundled OpenBLAS dispatched to
CORENAME_SYMBOL = "scipy_openblas_get_corename64_"


def openblas_corename() -> str:
    """The core numpy's bundled OpenBLAS runs, such as ``SkylakeX``, or
    ``"unknown"`` where no bundled library holds ``CORENAME_SYMBOL``."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), CORENAME_SYMBOL, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def kernels() -> dict:
    """The kernels this process runs: the OpenBLAS core, and the dispatch
    targets of numpy's SIMD loops on (see ``NPY_DISABLE_CPU_FEATURES``)."""
    return {
        "openblas": openblas_corename(),
        "simd": [target for target in _umath.__cpu_dispatch__
                 if _umath.__cpu_features__.get(target)],
    }


def where(recorded: dict, running: dict | None = None) -> str:
    """A golden assertion's message: the kernels the digests were recorded
    on and the ones they ran on, this process's by default."""
    return f"digests recorded on {recorded}, running on {running or kernels()}"


def printed_tables(*names: str, **environ: str) -> dict:
    """The tables that ``python -m tests._golden *names`` prints in a fresh
    interpreter, with ``environ`` added to its environment."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    printed = subprocess.run([sys.executable, "-m", "tests._golden", *names], cwd=ROOT,
                             env=env, capture_output=True, text=True, check=True, timeout=120)
    assert printed.stderr == ""
    tables = {}
    exec(printed.stdout, tables)
    del tables["__builtins__"]
    return tables


def main(names=None) -> None:
    capture = _Capture()
    # as under pytest, a warning is a fault
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), capture.active():
        warnings.simplefilter("error")
        table = golden_digests(pathlib.Path(tmp), capture, names)
    # one entry a line, double-quoted (no name, field or digest holds a quote)
    lines = "".join(f"    {key!r}: {value!r},\n" for key, value in table.items())
    print(f"GOLDEN_KERNELS = {kernels()!r}\nGOLDEN_MATRIX = {{\n{lines}}}".replace("'", '"'))


if __name__ == "__main__":
    main(sys.argv[1:] or None)
