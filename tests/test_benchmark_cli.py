"""The benchmark's command lines against the shipped CLI.

``benchmarks/run.py`` runs each workload's ``cli_argvs`` through
``run_command`` and counts every record that differs from its own run of the
workload as a failure, so a CLI that rejects those flags, or writes other
records, fails every benchmark run; this test makes that a tier-1 failure.
It runs each workload at 2 seeds and at the benchmark's own ``CLI_SEEDS``
per invocation, the block size whose ``--jobs 2`` time the benchmark
reports.
"""

import ast
import importlib
import pathlib

import pytest

from ctxrep import config
from ctxrep.cli import run_command

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def cli_seeds() -> int:
    """``CLI_SEEDS`` of ``benchmarks/run.py``, read from its source: importing
    the script would set its thread variables in this process."""
    tree = ast.parse((BENCHMARKS / "run.py").read_text())
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["CLI_SEEDS"]
    )


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["collapse", "batch-sweep", "toy-blocks"])
def test_cli_records_equal_the_workload_runs(tmp_path, workloads, name):
    wl = workloads.WORKLOADS[name]
    for seeds in (2, cli_seeds()):
        cfg_path = tmp_path / f"workload-{seeds}.cfg"
        cfg_path.write_text(wl.cfg_text + f"seeds = {seeds}\n")
        cfg = config.load_config(str(cfg_path))
        out = str(tmp_path / f"out-{seeds}")
        for argv in wl.cli_argvs(str(cfg_path), out, jobs=2):
            assert run_command(argv) == 0, argv
        expected = {
            (variant, seed): wl.run(cfg, variant, seed)
            for variant in wl.variants
            for seed in range(cfg.seed_start, cfg.seed_start + seeds)
        }
        assert None not in expected.values()
        assert wl.cli_records(out) == expected
