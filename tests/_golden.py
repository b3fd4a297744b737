"""The byte-identity matrix's cases, and one command that prints every golden
table's digests at the current checkout.

From the repository root::

    PYTHONPATH=src python -m tests._golden

prints ``GOLDEN_CLI`` (``tests/test_cli.py``), ``GOLDEN_MATRIX``
(``tests/test_golden_matrix.py``) and the three sweep digests of
``TestGoldenOutputs`` as Python literals, ready to paste. Run it at the
parent commit before editing code whose outputs must keep their bits, and
again after: the tables must not move.

The matrix covers what ``GOLDEN_CLI`` does not: seed stacks on the shipped
configs, sweeps with a repeated value and with one value, every toy
stream, a real two-worker pool on each runner, and the eta overflow and
zero-norm prompt failures, each case's exit code and stderr line included.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
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
from ctxrep.cli import run_command

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


def _zero_prompt_at(weight_seed: int):
    """``toydit.encode_prompt`` with an all-zero encoding under ``weight_seed``."""
    encode = toydit.encode_prompt

    def encode_prompt(model_cfg, prompt_id):
        prompt = encode(model_cfg, prompt_id)
        if model_cfg.weight_seed == weight_seed:
            return toydit.PromptEncoding(prompt_id, np.zeros_like(prompt.tokens))
        return prompt

    return encode_prompt


def matrix_cases(tmp_path: pathlib.Path) -> dict[str, Case]:
    """Each matrix case by name; configs are written under ``tmp_path`` and
    outputs go to ``tmp_path / "out"``."""
    out = tmp_path / "out"
    collapse = str(CONFIG_DIR / "collapse.cfg")
    cases = {
        f"simulate-{method}-{seeds}": Case(
            ["simulate", "--config", collapse, "--method", method, "--seeds", str(seeds)])
        for method in ("none", "cads", "contextual", "latent")
        for seeds in (1, 20)
    }
    sweeps = {
        # a repeated value, and batch size 1, which repulsion passes by
        "ablate-batch-repeated": ("batch", "ablate_batch.cfg",
                                  {"sweep_batch_sizes": "4,1,4", "seeds": 3}),
        "ablate-batch-one": ("batch", "collapse.cfg",
                             {"method": "latent", "sweep_batch_sizes": 3, "seeds": 3}),
        "ablate-timestep-repeated": ("timestep", "ablate_timestep.cfg",
                                     {"sweep_intervals": "0:0.25,0.5:1,0:0.25", "seeds": 3}),
        "ablate-timestep-one": ("timestep", "collapse.cfg",
                                {"sweep_intervals": "0.125:0.5", "seeds": 3}),
    }
    for name, (axis, config, settings) in sweeps.items():
        cfg = shipped_config(tmp_path, config, name, **settings)
        cases[name] = Case(
            ["ablate", "--axis", axis, "--config", cfg, "--output", str(out / "sweep.csv")],
            ("sweep.csv",),
        )
    for stream in ("text", "image", "all_tokens"):
        for batch in (1, 4):
            name = f"toy-run-{stream}-{batch}"
            toy = shipped_config(
                tmp_path, "toy.cfg", name, toy_batch=batch, repulsion_target_stream=stream,
                output_snapshots=out / "snaps.csv", output_report=out / "report.jsonl",
            )
            cases[name] = Case(["toy-run", "--config", toy], ("snaps.csv", "report.jsonl"))
    # on the 4 + 2 block model: first_third fires on dual blocks 0 and 1,
    # last_third on the single blocks only, which merge the streams
    blocks = {
        "image": ("image", "first_third,all,first_third"),
        "all_tokens": ("all_tokens", "last_third,all,last_third"),
        "one": ("text", "middle_third"),
    }
    for label, (stream, groups) in blocks.items():
        name = f"ablate-blocks-{label}"
        cfg = shipped_config(tmp_path, "toy.cfg", name, repulsion_target_stream=stream,
                             sweep_block_groups=groups, seeds=3, seed_start=2)
        cases[name] = Case(
            ["ablate", "--axis", "blocks", "--config", cfg, "--output", str(out / "sweep.csv")],
            ("sweep.csv",),
        )
    pooled = shipped_config(tmp_path, "toy.cfg", "pool", sweep_block_groups="first_third,all",
                            seeds=4)
    cases["simulate-contextual-pool"] = Case(
        ["simulate", "--config", collapse, "--method", "contextual", "--seeds", "4",
         "--jobs", "2"], pool=True)
    cases["ablate-blocks-pool"] = Case(
        ["ablate", "--axis", "blocks", "--config", pooled, "--jobs", "2",
         "--output", str(out / "sweep.csv")], ("sweep.csv",), pool=True)
    overflow = shipped_config(tmp_path, "collapse.cfg", "overflow", repulsion_eta="1e40", seeds=3)
    cases["simulate-eta-1e40"] = Case(["simulate", "--config", overflow])
    # a corruption scale far above the shipped ones, whose rows' moments stay finite
    cads = shipped_config(tmp_path, "collapse.cfg", "cads", method="cads", cads_scale="1e40",
                          batch_size=2, world_feedback=0, seeds=2)
    cases["simulate-cads-1e40"] = Case(["simulate", "--config", cads])
    zero = shipped_config(tmp_path, "toy.cfg", "zero", sweep_block_groups="all", seeds=3)
    cases["ablate-blocks-zero-prompt"] = Case(
        ["ablate", "--axis", "blocks", "--config", zero, "--output", str(out / "sweep.csv")],
        # toy_seed 0 plus seed 1
        patches=((toydit, "encode_prompt", _zero_prompt_at(1)),),
    )
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


def matrix_digests(tmp_path: pathlib.Path, capsys, names=None) -> dict:
    """For each matrix case in ``names``, or all: its exit code, the sha256 of
    its stdout, its stderr and every file it writes, and for a pool case the
    worker counts of the pools it started."""
    out = tmp_path / "out"
    digests = {}
    for name, case in matrix_cases(tmp_path).items():
        if names is not None and name not in names:
            continue
        out.mkdir()
        with pytest.MonkeyPatch.context() as monkeypatch:
            for target, attribute, value in case.patches:
                monkeypatch.setattr(target, attribute, value)
            pools = one_run_per_worker(monkeypatch) if case.pool else []
            code = run_command(case.argv)
        captured = capsys.readouterr()
        # the CLI's error contract: nothing on stderr, or one JSON line
        assert captured.err == "" or (
            captured.err.count("\n") == 1 and "error" in json.loads(captured.err)), name
        digests[name, "exit"] = code
        digests[name, "stdout"] = hashlib.sha256(captured.out.encode()).hexdigest()
        digests[name, "stderr"] = hashlib.sha256(captured.err.encode()).hexdigest()
        if case.pool:
            digests[name, "pools"] = pools
        written = sorted(p.name for p in out.iterdir())
        # a failed run leaves no partial output
        assert written == (sorted(case.files) if code == 0 else []), name
        for file in written:
            digests[name, file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
            (out / file).unlink()
        out.rmdir()
    return digests


def sweep_digests(tmp_path: pathlib.Path, capsys) -> dict[str, str]:
    """The sweep digests of ``TestGoldenOutputs``, by table name: the blocks
    sweep on collapse.cfg at 5 seeds, the batch sweep on ablate_batch.cfg at
    5 seeds and the timestep sweep on ablate_timestep.cfg as shipped."""
    sweeps = {
        "GOLDEN_BENCHMARK_BLOCKS": ("blocks", "collapse.cfg", {"seeds": 5}),
        "GOLDEN_ABLATE_BATCH_BLOCK": ("batch", "ablate_batch.cfg", {"seeds": 5}),
        "GOLDEN_ABLATE_TIMESTEP": ("timestep", "ablate_timestep.cfg", {}),
    }
    digests = {}
    for name, (axis, config, settings) in sweeps.items():
        out = tmp_path / "sweep.csv"
        assert run_command(["ablate", "--axis", axis, "--config",
                            shipped_config(tmp_path, config, name, **settings),
                            "--output", str(out)]) == 0
        assert capsys.readouterr() == ("", ""), name
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


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


def _literal(name: str, table) -> str:
    """``name = table`` as Python source, one entry a line, double-quoted
    (no name or digest holds a quote)."""
    if not isinstance(table, dict):
        return f"{name} = {table!r}".replace("'", '"')
    lines = "".join(f"    {key!r}: {value!r},\n" for key, value in table.items())
    return f"{name} = {{\n{lines}}}".replace("'", '"')


def main() -> None:
    from .test_cli import command_digests

    capture = _Capture()
    # as under pytest, a warning is a fault
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), capture.active():
        warnings.simplefilter("error")
        root = pathlib.Path(tmp)
        tables = {}
        for name, compute in (("GOLDEN_CLI", command_digests), ("GOLDEN_MATRIX", matrix_digests),
                              ("sweeps", sweep_digests)):
            (root / name).mkdir()
            tables[name] = compute(root / name, capture)
    tables.update(tables.pop("sweeps"))
    print("\n\n".join(_literal(name, table) for name, table in tables.items()))


if __name__ == "__main__":
    main()
