"""The byte-identity table's cases, its one runner, and the command that
prints the table at the current checkout.

From the repository root::

    PYTHONPATH=src python -m tests._golden

prints ``GOLDEN_MATRIX`` (``tests/test_golden_matrix.py``) as a Python
literal, ready to paste. Run it at the parent commit before editing code
whose outputs must keep their bits, and again after: the table must not
move.

The cases cover every command on small configs, seed stacks on the shipped
configs, the shipped sweeps, sweeps with a repeated value, with one value and
with none, every toy stream, the toy commands on the SplitMix64 oracle
stream, a real two-worker pool on each runner, and the failure paths, each
case's exit code and stderr line included.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import ctxrep.cli as cli
from ctxrep import toydit
from ctxrep.cli import run_command, write_vector_csv

from . import _oracles

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@dataclass(frozen=True)
class Case:
    """One CLI invocation: its argv, the files it writes under ``out``, the
    module attributes set for the run as (object, name, value), and whether
    every run pays for a worker so that a real pool starts."""

    argv: list[str]
    files: tuple[str, ...] = ()
    patches: tuple = ()
    pool: bool = False


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


def golden_cases(tmp_path: pathlib.Path) -> dict[str, Case]:
    """Each case by name; configs are written under ``tmp_path`` and outputs
    go to ``tmp_path / "out"``."""
    out = tmp_path / "out"
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
        cfg = shipped_config(tmp_path, config, name, **settings)
        cases[name] = Case(["ablate", "--axis", axis, "--config", cfg, *sweep], ("sweep.csv",))
    for stream in ("text", "image", "all_tokens"):
        for batch in (1, 4):
            name = f"toy-run-{stream}-{batch}"
            toy = shipped_config(
                tmp_path, "toy.cfg", name, toy_batch=batch, repulsion_target_stream=stream,
                output_snapshots=out / "snaps.csv", output_report=out / "report.jsonl",
            )
            cases[name] = Case(["toy-run", "--config", toy], ("snaps.csv", "report.jsonl"))
    pooled = shipped_config(tmp_path, "toy.cfg", "pool", sweep_block_groups="first_third,all",
                            seeds=4)
    cases["simulate-contextual-pool"] = Case(
        ["simulate", "--config", collapse, "--method", "contextual", "--seeds", "4",
         "--jobs", "2"], pool=True)
    cases["ablate-blocks-pool"] = Case(
        ["ablate", "--axis", "blocks", "--config", pooled, "--jobs", "2", *sweep], ("sweep.csv",),
        pool=True)
    overflow = shipped_config(tmp_path, "collapse.cfg", "overflow", repulsion_eta="1e40", seeds=3)
    cases["simulate-eta-1e40"] = Case(["simulate", "--config", overflow])
    # a corruption scale far above the shipped ones, whose rows' moments stay finite
    cads = shipped_config(tmp_path, "collapse.cfg", "cads", method="cads", cads_scale="1e40",
                          batch_size=2, world_feedback=0, seeds=2)
    cases["simulate-cads-1e40"] = Case(["simulate", "--config", cads])
    zero = shipped_config(tmp_path, "toy.cfg", "zero", sweep_block_groups="all", seeds=3)
    cases["ablate-blocks-zero-prompt"] = Case(
        ["ablate", "--axis", "blocks", "--config", zero, *sweep],
        # toy_seed 0 plus seed 1
        patches=((toydit, "encode_prompt", _zero_prompt_at(1)),),
    )

    # every command once, on a small mixture config at 3 seeds
    gmm = small_gmm_config(
        tmp_path, seeds=3, seed_start=4, sweep_batch_sizes="2,4",
        sweep_intervals="0:0.5,0.25:1", sweep_block_groups="first_third,all",
        toy_dual_blocks=2, toy_single_blocks=1, toy_batch=3,
    )
    timestep = tmp_path / "timestep.cfg"
    timestep.write_text(pathlib.Path(gmm).read_text() + "method = cads\n")
    vectors = str(tmp_path / "vectors.csv")
    write_vector_csv(vectors, np.random.default_rng(3).standard_normal((5, 3)))
    for method in ("none", "cads"):
        cases[f"simulate-{method}"] = Case(["simulate", "--config", gmm, "--method", method])
    for method in ("contextual", "latent"):
        cases[f"simulate-{method}"] = Case(
            ["simulate", "--config", gmm, "--method", method, "--output", str(out / "runs.jsonl")],
            ("runs.jsonl",))
    for axis in ("batch", "timestep", "blocks"):
        cfg = str(timestep) if axis == "timestep" else gmm
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
    erased = shipped_config(tmp_path, "collapse.cfg", "erased", prompt_strength="1e308",
                            world_gamma=2.0, seeds=2)
    runs = {f"simulate-{method}-fp-fault": ["simulate", "--config", erased, "--method", method]
            for method in ("none", "latent", "contextual")}
    # sigma squared overflows a Python float
    wide = shipped_config(tmp_path, "collapse.cfg", "wide", world_radius="1e308",
                          world_sigma="1e300", seeds=2)
    runs["simulate-sigma-fp-fault"] = ["simulate", "--config", wide]
    for name, argv in runs.items():
        cases[name] = Case(argv)
        cases[f"{name}-pool"] = Case(argv + ["--jobs", "2"], pool=True)
    far = shipped_config(tmp_path, "ablate_timestep.cfg", "far", method="none",
                         world_radius="1e154", prompt_strength="-1e300", world_steps=2, seeds=1)
    cases["ablate-timestep-fp-fault"] = Case(["ablate", "--axis", "timestep", "--config", far,
                                              *sweep], ("sweep.csv",))
    huge = str(tmp_path / "huge.csv")
    write_vector_csv(huge, np.array([[1e200, 2e200], [3e200, -1e200]]))
    cases["vendi-fp-fault"] = Case(["vendi", "--input", huge])
    return cases


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


def run_case(case: Case, out: pathlib.Path, capsys) -> dict:
    """Run ``case`` with its outputs under ``out``, which must not exist, and
    hold it to the CLI's contract: nothing on stderr or one JSON error line,
    and every file the case names on success but none on failure. Returns its
    exit code, the sha256 of its stdout, its stderr and every file it wrote,
    and for a pool case the worker counts of the pools it started."""
    out.mkdir()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for target, attribute, value in case.patches:
            monkeypatch.setattr(target, attribute, value)
        pools = one_run_per_worker(monkeypatch) if case.pool else []
        code = run_command(case.argv)
    captured = capsys.readouterr()
    assert captured.err == "" or (
        captured.err.count("\n") == 1 and "error" in json.loads(captured.err)), case.argv
    digests = {
        "exit": code,
        "stdout": hashlib.sha256(captured.out.encode()).hexdigest(),
        "stderr": hashlib.sha256(captured.err.encode()).hexdigest(),
    }
    if case.pool:
        digests["pools"] = pools
    written = sorted(p.name for p in out.iterdir())
    assert written == (sorted(case.files) if code == 0 else []), case.argv
    for file in written:
        digests[file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
        (out / file).unlink()
    out.rmdir()
    return digests


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
    """Outside pytest, what ``capsys`` gives: ``readouterr()`` returns and
    clears what was printed since the last call, while ``active()`` holds
    stdout and stderr."""

    def __init__(self):
        self._out, self._err = io.StringIO(), io.StringIO()

    @contextlib.contextmanager
    def active(self):
        with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
            yield self

    def readouterr(self):
        captured = (self._out.getvalue(), self._err.getvalue())
        for buffer in (self._out, self._err):
            buffer.seek(0)
            buffer.truncate()
        return _Captured(*captured)


def main() -> None:
    capture = _Capture()
    # as under pytest, a warning is a fault
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), capture.active():
        warnings.simplefilter("error")
        table = golden_digests(pathlib.Path(tmp), capture)
    # one entry a line, double-quoted (no name or digest holds a quote)
    lines = "".join(f"    {key!r}: {value!r},\n" for key, value in table.items())
    print(f"GOLDEN_MATRIX = {{\n{lines}}}".replace("'", '"'))


if __name__ == "__main__":
    main()
