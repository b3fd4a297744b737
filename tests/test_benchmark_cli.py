"""The benchmark's command lines against the shipped CLI.

``benchmarks/run.py`` runs each workload's ``cli_argvs`` through
``run_command`` and counts every record that differs from its own run of the
workload as a failure, so a CLI that rejects those flags, or writes other
records, fails every benchmark run; this test makes that a tier-1 failure.
"""

import importlib
import pathlib

import pytest

from ctxrep import config
from ctxrep.cli import run_command

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
SEEDS = 2


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["collapse", "batch-sweep", "toy-blocks"])
def test_cli_records_equal_the_workload_runs(tmp_path, workloads, name):
    wl = workloads.WORKLOADS[name]
    cfg_path = tmp_path / "workload.cfg"
    cfg_path.write_text(wl.cfg_text + f"seeds = {SEEDS}\n")
    cfg = config.load_config(str(cfg_path))
    out = str(tmp_path / "out")
    for argv in wl.cli_argvs(str(cfg_path), out, jobs=2):
        assert run_command(argv) == 0, argv
    expected = {
        (variant, seed): wl.run(cfg, variant, seed)
        for variant in wl.variants
        for seed in range(cfg.seed_start, cfg.seed_start + SEEDS)
    }
    assert None not in expected.values()
    assert wl.cli_records(out) == expected
