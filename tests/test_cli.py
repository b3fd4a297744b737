import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import types
import typing

import numpy as np
import pytest

import ctxrep.cli as cli
from ctxrep.cli import read_vector_csv, run_command, write_vector_csv
from ctxrep.config import (
    FIELD_TYPES,
    ConfigError,
    ExperimentConfig,
    latent_repulsion_from_config,
    load_config,
    parse_config,
    repulsion_from_config,
)
from ctxrep.repulsion import PRESETS

from ._oracles import ablate_blocks_rows, simulation_record

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def small_gmm_config(tmp_path, **extra):
    settings = {"world_steps": 32, "batch_size": 4, "seeds": 2}
    settings.update(extra)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return str(path)


def recorded_pools(monkeypatch) -> list:
    """The worker count of every process pool the CLI starts from now on."""
    pools = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return pools


def one_run_per_worker(monkeypatch) -> list:
    """Let every run pay for a worker, so that small runs start pools; returns
    the pools started, as ``recorded_pools`` does."""
    monkeypatch.setattr(cli, "MIN_RUNS_PER_WORKER", 1)
    return recorded_pools(monkeypatch)


# the fewest runs that start two workers
TWO_WORKERS = 2 * cli.MIN_RUNS_PER_WORKER


def write_rows(path, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def config_text(value, kind) -> str:
    """``value`` of annotated type ``kind`` written as config text."""
    if kind == tuple[float, float]:
        return f"{value[0]!r}:{value[1]!r}"
    if kind is bool:
        return "true" if value else "false"
    if kind is str:
        return value
    if kind in (int, float):
        return repr(value)
    item, ellipsis = typing.get_args(kind)
    assert ellipsis is Ellipsis, f"no config syntax for {kind}"
    return ",".join(config_text(v, item) for v in value)


class TestConfigParsing:
    def test_every_default_round_trips(self):
        defaults = ExperimentConfig()
        text = "".join(
            f"{key} = {config_text(getattr(defaults, key), kind)}\n"
            for key, kind in FIELD_TYPES.items()
        )
        assert parse_config(text) == defaults

    def test_list_items_parse_by_item_type(self):
        cfg = parse_config(
            "sweep_batch_sizes = 2, 6\nsweep_intervals = 0:0.5, 0.5:1\n"
            "sweep_block_groups = all , last_third\n"
        )
        assert cfg.sweep_batch_sizes == (2, 6)
        assert cfg.sweep_intervals == ((0.0, 0.5), (0.5, 1.0))
        assert cfg.sweep_block_groups == ("all", "last_third")
        with pytest.raises(ConfigError):
            parse_config("sweep_batch_sizes = 2,x\n")
        with pytest.raises(ConfigError):
            parse_config("latent_interval = 0.5\n")

    def test_defaults_and_overrides(self):
        cfg = parse_config("world_modes = 16\nrepulsion_interval = 0:0.5\n")
        assert cfg.world_modes == 16
        assert cfg.repulsion_interval == (0.0, 0.5)
        assert cfg.world_radius == 4.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nseeds = 7  # trailing\n")
        assert cfg.seeds == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("wibble = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seeds = 1\nseeds = 2\n")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("repulsion_preset = flux-pro\n")

    def test_preset_with_explicit_override(self):
        cfg = parse_config("repulsion_preset = sd35-turbo\nrepulsion_eta = 0.5\n")
        repulsion = repulsion_from_config(cfg)
        assert repulsion.eta == 0.5
        assert repulsion.inner_steps == 100
        assert repulsion.timestep_interval == (0.0, 0.25)

    @pytest.mark.parametrize(
        "key, text, value",
        [
            ("repulsion_eta", "0.5", 0.5),
            ("repulsion_steps", "3", 3),
            ("repulsion_interval", "0.5:1", (0.5, 1.0)),
        ],
    )
    def test_preset_fills_only_unset_keys(self, key, text, value):
        cfg = parse_config(f"repulsion_preset = sd35-turbo\n{key} = {text}\n")
        preset = PRESETS["sd35-turbo"]
        expected = {
            "repulsion_eta": preset.eta,
            "repulsion_steps": preset.inner_steps,
            "repulsion_interval": preset.timestep_interval,
            key: value,
        }
        assert {k: getattr(cfg, k) for k in expected} == expected

    def test_replace_keeps_explicit_values_under_preset(self):
        parsed = parse_config("repulsion_preset = sd35-turbo\nrepulsion_eta = 0.5\n")
        variant = dataclasses.replace(parsed, seeds=3)
        assert repulsion_from_config(variant) == repulsion_from_config(parsed)
        assert variant.repulsion_eta == 0.5

    def test_preset_is_a_file_directive_not_a_field(self):
        # a config built in code cannot name a preset that nothing would apply
        with pytest.raises(TypeError):
            ExperimentConfig(repulsion_preset="nope")
        assert not hasattr(parse_config("repulsion_preset = sd35-turbo\n"), "repulsion_preset")

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_builds_every_cli_object(self, path):
        cfg = load_config(str(path))
        cli._world_from_config(cfg)
        repulsion_from_config(cfg)
        latent_repulsion_from_config(cfg)
        cli._cads_from_config(cfg)
        cli._toy_config(cfg)

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("seeds = many\n")
        with pytest.raises(ConfigError):
            parse_config("repulsion_interval = 0-1\n")
        with pytest.raises(ConfigError):
            parse_config("just a line\n")


class TestVendiCommand:
    def test_identical_rows(self, tmp_path, capsys):
        path = tmp_path / "same.csv"
        write_csv(path, [[1.0, 2.0]] * 4, header=["dim0", "dim1"])
        assert run_command(["vendi", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"entropy": 0.0, "score": 1.0}

    def test_rbf_kernel(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        write_csv(path, [[1.0, 1.0], [2.0, 1.0]], header=["dim0", "dim1"])
        assert run_command(
            ["vendi", "--input", str(path), "--kernel", "rbf", "--bandwidth", "1.0"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert 1.0 < out["score"] <= 2.0

    def test_rbf_needs_bandwidth(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        write_csv(path, [[0.0, 1.0]], header=["dim0", "dim1"])
        assert run_command(["vendi", "--input", str(path), "--kernel", "rbf"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "bandwidth" in err["error"]

    def test_zero_row_rbf_ok_cosine_exit_2(self, tmp_path, capsys):
        path = tmp_path / "origin.csv"
        write_csv(path, [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], header=["dim0", "dim1"])
        assert run_command(
            ["vendi", "--input", str(path), "--kernel", "rbf", "--bandwidth", "2.0"]
        ) == 0
        assert 1.0 < json.loads(capsys.readouterr().out)["score"] <= 3.0
        assert run_command(["vendi", "--input", str(path), "--kernel", "cosine"]) == 2
        assert "zero-norm" in json.loads(capsys.readouterr().err)["error"]

    def test_ragged_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("dim0,dim1\n1.0,2.0\n3.0\n")
        assert run_command(["vendi", "--input", str(path)]) == 2
        assert "line 3" in json.loads(capsys.readouterr().err)["error"]

    def test_bad_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        assert run_command(["vendi", "--input", str(path)]) == 2
        capsys.readouterr()


class TestGradCheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert run_command(
            ["grad-check", "--batch", "3", "--dim", "8", "--seeds", "5", "--fd-step", "1e-5"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_relative_error"] <= 1e-5

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seeds", "0"),
            ("--seeds", "-1"),
            ("--batch", "1"),
            ("--batch", "0"),
            ("--dim", "0"),
            ("--fd-step", "0"),
            ("--fd-step", "-1e-5"),
            ("--fd-step", "nan"),
            ("--fd-step", "inf"),
        ],
    )
    def test_bad_flags_exit_2_before_any_work(self, capsys, monkeypatch, flag, value):
        def no_work(batch):
            raise AssertionError("gradient computed despite a bad flag")

        monkeypatch.setattr(cli, "entropy_gradient", no_work)
        argv = ["grad-check", "--batch", "3", "--dim", "4", "--seeds", "1", f"{flag}={value}"]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag.lstrip("-") in json.loads(captured.err)["error"]


class TestRepulseCommand:
    def test_roundtrip_and_zero_eta(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        vectors = np.array([[1.0, 0.0], [0.99, 0.12]])
        write_vector_csv(str(src), vectors)

        assert run_command(
            ["repulse", "--input", str(src), "--output", str(dst),
             "--eta", "0", "--steps", "1"]
        ) == 0
        assert np.array_equal(read_vector_csv(str(dst)), vectors)

        assert run_command(
            ["repulse", "--input", str(src), "--output", str(dst),
             "--eta", "0.01", "--steps", "2", "--normalize"]
        ) == 0
        moved = read_vector_csv(str(dst))
        assert not np.array_equal(moved, vectors)


    def test_lapack_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "in.csv"
        write_vector_csv(str(src), np.array([[1.0, 0.0], [0.6, 0.8]]))

        def failing(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert run_command(
            ["repulse", "--input", str(src), "--output", str(tmp_path / "out.csv"),
             "--eta", "0.01", "--steps", "1"]
        ) == 3
        assert "did not converge" in json.loads(capsys.readouterr().err)["error"]


class TestToyRunCommand:
    def test_outputs_and_vendi_gain(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_command(["toy-run", "--config", str(CONFIG_DIR / "toy.cfg")]) == 0
        report = [json.loads(line) for line in open("toy_report.json")]
        text_rows = [r for r in report if r["stream"] == "text"]
        final = max(text_rows, key=lambda r: r["block"])
        assert final["vendi_with_repulsion"] > 1.0 + 1e-6
        assert final["vendi_with_repulsion"] > final["vendi_without_repulsion"] - 1e-12
        with open("toy_snapshots.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["sample", "block", "stream", "token", "dim", "value"]

    def test_empty_output_report_prints_to_stdout(self, tmp_path, monkeypatch, capsys):
        # as simulate prints its records without an output path
        monkeypatch.chdir(tmp_path)
        shipped = (CONFIG_DIR / "toy.cfg").read_text()
        assert run_command(["toy-run", "--config", str(CONFIG_DIR / "toy.cfg")]) == 0
        written = (tmp_path / "toy_report.json").read_text()
        cfg = tmp_path / "stdout.cfg"
        cfg.write_text(shipped.replace("output_report = toy_report.json", "output_report ="))
        assert run_command(["toy-run", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == written

    def test_one_set_of_weights_for_both_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seeds = []
        original = cli.toydit.init_weights

        def counting(model_cfg):
            seeds.append(model_cfg.weight_seed)
            return original(model_cfg)

        monkeypatch.setattr(cli.toydit, "init_weights", counting)
        assert run_command(["toy-run", "--config", str(CONFIG_DIR / "toy.cfg")]) == 0
        assert seeds == [0]


class TestSimulateCommand:
    def test_json_lines_and_determinism(self, tmp_path, capsys):
        cfg = small_gmm_config(tmp_path)
        assert run_command(["simulate", "--config", cfg, "--method", "none"]) == 0
        first = capsys.readouterr().out
        assert run_command(["simulate", "--config", cfg, "--method", "none"]) == 0
        second = capsys.readouterr().out
        assert first == second
        records = [json.loads(line) for line in first.strip().splitlines()]
        assert [r["run_id"] for r in records] == [0, 1]
        assert all(r["method"] == "none" for r in records)
        assert all(1.0 <= r["vendi_rbf"] <= 4.0 + 1e-9 for r in records)

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert run_command(
            ["simulate", "--config", cfg, "--method", "contextual", "--output", str(serial)]
        ) == 0
        assert run_command(
            ["simulate", "--config", cfg, "--method", "contextual", "--jobs", "2",
             "--output", str(parallel)]
        ) == 0
        assert pools == [2]
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("method", ["none", "cads", "contextual", "latent"])
    def test_every_jobs_value_writes_the_seed_by_seed_records(self, tmp_path, monkeypatch, method):
        # each worker's chunk of seeds runs as one array program; no seeds,
        # fewer seeds than workers and more seeds than workers
        pools = one_run_per_worker(monkeypatch)
        for seeds in (0, 2, 5):
            cfg = small_gmm_config(tmp_path, seeds=seeds, seed_start=40)
            expected = "".join(
                json.dumps(simulation_record(load_config(cfg), method, i)) + "\n"
                for i in range(seeds)
            )
            for jobs in ("1", "2", "3"):
                out = tmp_path / f"runs-{seeds}-{jobs}.jsonl"
                assert run_command(
                    ["simulate", "--config", cfg, "--method", method, "--jobs", jobs,
                     "--output", str(out)]
                ) == 0
                assert out.read_text() == expected
        assert pools == [2, 2, 2, 3]

    @pytest.mark.parametrize(
        "seeds, jobs, pools",
        [
            (5, 1, []),
            (1, 3, []),
            (2, 3, []),
            (5, 2, []),
            (5, 3, []),
            (TWO_WORKERS - 1, 3, []),
            (TWO_WORKERS, 3, [2]),
            (3 * cli.MIN_RUNS_PER_WORKER, 2, [2]),
            (3 * cli.MIN_RUNS_PER_WORKER, 3, [3]),
            (3 * TWO_WORKERS, 1, []),
        ],
    )
    def test_one_worker_per_seed_chunk(self, tmp_path, monkeypatch, seeds, jobs, pools):
        # --jobs is a ceiling: one worker per MIN_RUNS_PER_WORKER seeds
        started = recorded_pools(monkeypatch)
        cfg = small_gmm_config(tmp_path, seeds=seeds)
        assert run_command(
            ["simulate", "--config", cfg, "--method", "none", "--jobs", str(jobs),
             "--output", str(tmp_path / "runs.jsonl")]
        ) == 0
        assert started == pools

    @pytest.mark.parametrize("method", ["contextual", "latent"])
    def test_overflow_exit_3_at_every_jobs_value(self, tmp_path, capsys, monkeypatch, method):
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path, seeds=3, repulsion_eta="1e31", latent_eta="1e31")
        out = tmp_path / "runs.jsonl"
        for jobs in ("1", "2", "3"):
            assert run_command(
                ["simulate", "--config", cfg, "--method", method, "--jobs", jobs,
                 "--output", str(out)]
            ) == 3
            assert json.loads(capsys.readouterr().err) == {
                "error": "updated entries exceed 1e+30"
            }
            assert not out.exists()
        assert pools == [2, 3]

    def test_error_is_the_first_failing_seeds(self, tmp_path, capsys, monkeypatch):
        # run 1 starts from latents near 1e31 and overflows (exit 3); run 2
        # starts from NaN latents (exit 2). The seed block meets run 2's NaN
        # first, at the first step's state check, yet the error reported
        # must be run 1's, as when each seed ran on its own.
        planted = {11: 1e31, 12: np.nan}
        default_rng = np.random.default_rng

        def rng_with_planted_latents(seed):
            rng = default_rng(seed)
            if seed not in planted:
                return rng

            def standard_normal(*args, **kwargs):
                values = rng.standard_normal(*args, **kwargs)
                values *= planted[seed]
                return values

            return types.SimpleNamespace(standard_normal=standard_normal)

        monkeypatch.setattr(np.random, "default_rng", rng_with_planted_latents)
        cfg = small_gmm_config(tmp_path, seeds=3, seed_start=10)
        assert run_command(["simulate", "--config", cfg, "--method", "latent"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": "updated entries exceed 1e+30"}
        assert captured.out == ""
        cfg = small_gmm_config(tmp_path, seeds=1, seed_start=12)
        assert run_command(["simulate", "--config", cfg, "--method", "latent"]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "batch entries must be finite"}

    @pytest.mark.parametrize("interval", ["0.8:0.2", "0.3:0.3", "-0.1:0.5", "0.5:1.5", "nan:1"])
    def test_bad_cads_interval_exit_2(self, tmp_path, capsys, interval):
        # the cads window is checked like the repulsion windows, also when a
        # timestep sweep sets it
        cfg = small_gmm_config(
            tmp_path, method="cads", cads_interval=interval, sweep_intervals=interval
        )
        out = tmp_path / "out"
        for argv in (["simulate"], ["ablate", "--axis", "timestep"]):
            assert run_command(argv + ["--config", cfg, "--output", str(out)]) == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error.startswith("cads interval must satisfy 0 <= a < b <= 1")
            assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 1\n")
        assert run_command(["simulate", "--config", path.as_posix()]) == 2
        capsys.readouterr()


class TestAblateCommand:
    def test_batch_axis_csv(self, tmp_path):
        cfg = small_gmm_config(tmp_path, sweep_batch_sizes="2,4", seeds=1)
        out = tmp_path / "batch.csv"
        assert run_command(
            ["ablate", "--axis", "batch", "--config", cfg, "--output", str(out)]
        ) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["value"] for r in rows] == ["2", "4"]
        assert all(r["axis"] == "batch" for r in rows)

    def test_timestep_axis_csv(self, tmp_path):
        cfg = small_gmm_config(
            tmp_path, sweep_intervals="0:0.5,0:1", seeds=1, method="cads"
        )
        out = tmp_path / "ts.csv"
        assert run_command(
            ["ablate", "--axis", "timestep", "--config", cfg, "--output", str(out)]
        ) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["value"] for r in rows] == ["0:0.5", "0:1"]

    def test_blocks_axis_csv(self, tmp_path):
        cfg = small_gmm_config(
            tmp_path,
            seeds=1,
            sweep_block_groups="middle_third,all",
            toy_dual_blocks=2,
            toy_single_blocks=0,
            toy_batch=3,
        )
        out = tmp_path / "blocks.csv"
        assert run_command(
            ["ablate", "--axis", "blocks", "--config", cfg, "--output", str(out)]
        ) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["value"] for r in rows] == ["middle_third", "all"]
        for row in rows:
            assert 1.0 <= float(row["text_vendi"]) <= 3.0 + 1e-9
            assert -1.0 <= float(row["prompt_similarity"]) <= 1.0

    def test_blocks_axis_jobs_and_serial_reference(self, tmp_path, monkeypatch):
        cfg = small_gmm_config(
            tmp_path,
            seeds=3,
            seed_start=5,
            sweep_block_groups="first_third,last_third,all",
            toy_dual_blocks=2,
            toy_single_blocks=1,
        )
        pools = one_run_per_worker(monkeypatch)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"blocks{jobs}.csv"
            assert run_command(
                ["ablate", "--axis", "blocks", "--config", cfg, "--jobs", jobs,
                 "--output", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert pools == [2]
        assert outputs[0] == outputs[1]

        reference = tmp_path / "reference.csv"
        write_rows(reference, ablate_blocks_rows(load_config(cfg)))
        assert outputs[0] == reference.read_bytes()

    @pytest.mark.parametrize(
        "axis, field, settings",
        [
            ("batch", "batch_size", {"sweep_batch_sizes": "2,4", "method": "latent"}),
            ("timestep", "cads_interval", {"sweep_intervals": "0:0.5,0.25:1", "method": "cads"}),
            ("timestep", "repulsion_interval", {
                "sweep_intervals": "0:0.5,0.25:1", "method": "contextual",
                "repulsion_preset": "sd35-turbo", "repulsion_eta": "0.05", "world_steps": 12,
            }),
        ],
    )
    def test_mixture_axes_jobs_and_seed_by_seed_reference(
        self, tmp_path, monkeypatch, axis, field, settings
    ):
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path, seeds=3, seed_start=7, **settings)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{axis}{jobs}.csv"
            assert run_command(
                ["ablate", "--axis", axis, "--config", cfg, "--jobs", jobs, "--output", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert pools == [2]
        assert outputs[0] == outputs[1]

        loaded = load_config(cfg)
        rows = []
        for value in getattr(loaded, "sweep_batch_sizes" if axis == "batch" else "sweep_intervals"):
            variant = dataclasses.replace(loaded, **{field: value})
            label = str(value) if axis == "batch" else f"{value[0]:g}:{value[1]:g}"
            for i in range(loaded.seeds):
                record = simulation_record(variant, loaded.method, i)
                rows.append({"axis": axis, "value": label, "seed": record["seed"],
                             **{k: record[k] for k in list(record)[3:]}})
        reference = tmp_path / "reference.csv"
        write_rows(reference, rows)
        assert outputs[0] == reference.read_bytes()

    @pytest.mark.parametrize(
        "axis, sweep",
        [
            ("batch", {"sweep_batch_sizes": ("2", "3")}),
            ("timestep", {"sweep_intervals": ("0:0.5", "0.5:1")}),
            ("blocks", {"sweep_block_groups": ("first_third", "all")}),
        ],
    )
    @pytest.mark.parametrize(
        "seeds, variants, pools",
        [(TWO_WORKERS - 1, 1, []), (TWO_WORKERS // 2, 2, [2])],
    )
    def test_one_worker_per_min_runs(self, tmp_path, monkeypatch, axis, sweep, seeds, variants,
                                     pools):
        # a run is one variant at one seed, so the sweep's variants count too
        started = recorded_pools(monkeypatch)
        settings = {key: ",".join(values[:variants]) for key, values in sweep.items()}
        cfg = small_gmm_config(
            tmp_path, seeds=seeds, method="none", toy_dual_blocks=2, toy_single_blocks=0,
            toy_batch=3, **settings
        )
        assert run_command(
            ["ablate", "--axis", axis, "--config", cfg, "--jobs", "3",
             "--output", str(tmp_path / "out.csv")]
        ) == 0
        assert started == pools

    def test_blocks_axis_encodes_prompt_once_per_seed(self, tmp_path, monkeypatch):
        cfg = small_gmm_config(
            tmp_path, seeds=2, sweep_block_groups="middle_third,all", toy_batch=5
        )
        calls = []
        original = cli.toydit.encode_prompt

        def counting(model_cfg, prompt_id):
            calls.append(prompt_id)
            return original(model_cfg, prompt_id)

        monkeypatch.setattr(cli.toydit, "encode_prompt", counting)
        assert run_command(
            ["ablate", "--axis", "blocks", "--config", cfg, "--output", str(tmp_path / "b.csv")]
        ) == 0
        # one encoding per seed, shared by both block groups
        assert len(calls) == 2

    def test_missing_output_exit_2(self, tmp_path, capsys):
        cfg = small_gmm_config(tmp_path)
        assert run_command(["ablate", "--axis", "batch", "--config", cfg]) == 2
        capsys.readouterr()


class TestSteerCommand:
    def test_trajectory_csv(self, tmp_path):
        cfg = small_gmm_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert run_command(
            ["steer", "--alpha", "0.5", "--source-seed", "0", "--target-seed", "3",
             "--space", "contextual", "--config", cfg, "--output", str(out)]
        ) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "time", "zx", "zy"]
        assert len(rows) - 1 == 33  # world_steps 32 -> T + 1 points
        assert float(rows[1][1]) == 1.0
        assert float(rows[-1][1]) == 0.0


    def test_apply_interval(self, tmp_path, capsys):
        cfg = small_gmm_config(tmp_path)
        base = ["steer", "--alpha", "0.5", "--source-seed", "0", "--target-seed", "3",
                "--config", cfg, "--output"]
        outputs = {}
        for name, extra in (("default", []), ("full", ["--apply-interval", "0:1"]),
                            ("early", ["--apply-interval", "0:0.5"])):
            outputs[name] = tmp_path / f"{name}.csv"
            assert run_command(base + [str(outputs[name])] + extra) == 0
        assert outputs["full"].read_bytes() == outputs["default"].read_bytes()
        assert outputs["early"].read_bytes() != outputs["default"].read_bytes()
        bad = base + [str(tmp_path / "bad.csv"), "--apply-interval", "0.5:0.25"]
        assert run_command(bad) == 2
        assert "apply interval" in json.loads(capsys.readouterr().err)["error"]


def flag_argv(flag: str, value: str, form: str) -> list[str]:
    return [flag, value] if form == "spaced" else [f"{flag}={value}"]


class TestNegativeExponentValues:
    """argparse on its own takes -0.5 as a value but reads -5e-1 as an option."""

    @pytest.mark.parametrize("form", ["spaced", "equals"])
    def test_steer_alpha(self, tmp_path, form):
        cfg = small_gmm_config(tmp_path)
        base = ["steer", "--source-seed", "0", "--target-seed", "3", "--config", cfg]
        plain, exponent = tmp_path / "plain.csv", tmp_path / "exponent.csv"
        assert run_command(base + ["--alpha", "-0.5", "--output", str(plain)]) == 0
        argv = base + flag_argv("--alpha", "-5e-1", form) + ["--output", str(exponent)]
        assert run_command(argv) == 0
        assert exponent.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("form", ["spaced", "equals"])
    def test_grad_check_fd_step(self, capsys, form):
        argv = ["grad-check", "--seeds", "1"] + flag_argv("--fd-step", "-1e-5", form)
        assert run_command(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "fd-step must be finite and positive" in error

    @pytest.mark.parametrize("form", ["spaced", "equals"])
    def test_repulse_eta(self, tmp_path, capsys, form):
        src = tmp_path / "in.csv"
        write_vector_csv(str(src), np.array([[1.0, 0.0], [0.6, 0.8]]))
        argv = ["repulse", "--input", str(src), "--output", str(tmp_path / "out.csv"),
                "--steps", "1"] + flag_argv("--eta", "-1e-3", form)
        assert run_command(argv) == 2
        assert "eta must be finite and non-negative" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("value", ["-e", "-5e", "-1e-", "-e5"])
    @pytest.mark.parametrize("form", ["spaced", "equals"])
    def test_non_numbers_stay_usage_errors(self, tmp_path, capsys, value, form):
        cfg = small_gmm_config(tmp_path)
        argv = ["steer", "--source-seed", "0", "--target-seed", "3", "--config", cfg,
                "--output", str(tmp_path / "out.csv")] + flag_argv("--alpha", value, form)
        assert run_command(argv) == 2
        assert "--alpha" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "out.csv").exists()


class TestModuleEntryPoint:
    @staticmethod
    def run_python(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
        )

    @classmethod
    def run_module(cls, *argv):
        return cls.run_python("-m", *argv)

    def test_no_arguments_exit_2(self):
        result = self.run_module("ctxrep")
        assert result.returncode == 2
        assert "error" in json.loads(result.stderr)

    def test_help_exit_0(self):
        result = self.run_module("ctxrep", "vendi", "--help")
        assert result.returncode == 0
        assert "--kernel" in result.stdout

    def test_cli_module_runs_too(self):
        assert self.run_module("ctxrep.cli").returncode == 2

    @pytest.mark.parametrize(
        "argv", [["simulate", "--method", "cads"], ["ablate", "--axis", "batch"]]
    )
    def test_scoring_leaves_numpy_ma_unimported(self, tmp_path, argv):
        # numpy.ma takes tens of ms to import, paid by every fresh process
        # and by each worker forked from one
        cfg = small_gmm_config(tmp_path, seeds=1, sweep_batch_sizes="2")
        argv = argv + ["--config", cfg, "--output", str(tmp_path / "out")]
        result = self.run_python("-c", (
            "import sys; from ctxrep.cli import run_command; "
            f"assert run_command({argv!r}) == 0; print('numpy.ma' in sys.modules)"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


class TestRunCounts:
    @pytest.mark.parametrize(
        "argv, settings",
        [
            (["simulate", "--seeds", "-2"], {}),
            (["simulate", "--jobs", "0"], {}),
            (["simulate", "--jobs", "-1"], {}),
            (["simulate"], {"seeds": -1}),
            (["simulate"], {"jobs": 0}),
            (["ablate", "--axis", "batch", "--jobs", "0"], {}),
            (["ablate", "--axis", "blocks", "--jobs", "-1"], {}),
            (["ablate", "--axis", "timestep"], {"seeds": -2}),
            (["ablate", "--axis", "blocks"], {"jobs": 0}),
        ],
    )
    def test_bad_seeds_or_jobs_exit_2(self, tmp_path, capsys, argv, settings):
        cfg = small_gmm_config(tmp_path, **settings)
        out = tmp_path / "out"
        assert run_command(argv + ["--config", cfg, "--output", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "seeds" in error or "jobs" in error
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", None])
    def test_zero_seeds_write_an_empty_file(self, tmp_path, seeds):
        cfg = small_gmm_config(tmp_path, seeds=0)
        out = tmp_path / "runs.jsonl"
        flags = ["--seeds", seeds] if seeds else []
        assert run_command(["simulate", "--config", cfg, "--output", str(out)] + flags) == 0
        assert out.read_text() == ""


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run_command(["vendi"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        assert run_command(["transmogrify"]) == 2
        capsys.readouterr()

    def test_unknown_method(self, tmp_path, capsys):
        cfg = small_gmm_config(tmp_path)
        assert run_command(["simulate", "--config", cfg, "--method", "magic"]) == 2
        capsys.readouterr()


class TestFaultExitCodes:
    """Faults that once ended in a traceback or in the wrong exit code."""

    @pytest.mark.parametrize("command", ["simulate", "ablate", "toy-run", "steer", "repulse"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, command):
        missing = tmp_path / "missing" / "out"
        cfg = small_gmm_config(
            tmp_path, seeds=1, sweep_batch_sizes="2", output_snapshots=missing,
            output_report=tmp_path / "report.jsonl",
        )
        vectors = tmp_path / "in.csv"
        write_vector_csv(str(vectors), np.array([[1.0, 0.0], [0.6, 0.8]]))
        argv = {
            "simulate": ["simulate", "--config", cfg],
            "ablate": ["ablate", "--axis", "batch", "--config", cfg],
            "toy-run": ["toy-run", "--config", cfg],
            "steer": ["steer", "--alpha", "0.5", "--source-seed", "0", "--target-seed", "3",
                      "--config", cfg],
            "repulse": ["repulse", "--input", str(vectors), "--eta", "0.01", "--steps", "1"],
        }[command]
        if command != "toy-run":
            argv += ["--output", str(missing)]
        assert run_command(argv) == 2
        assert str(missing) in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command", ["vendi", "simulate"])
    def test_lapack_eigenvalue_failure_exit_3(self, tmp_path, monkeypatch, capsys, command):
        def failing(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        vectors = tmp_path / "in.csv"
        write_vector_csv(str(vectors), np.array([[1.0, 0.0], [0.6, 0.8]]))
        argv = {
            "vendi": ["vendi", "--input", str(vectors)],
            "simulate": ["simulate", "--config", small_gmm_config(tmp_path), "--method", "none"],
        }[command]
        assert run_command(argv) == 3
        captured = capsys.readouterr()
        assert "did not converge" in json.loads(captured.err)["error"]
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "setting, method, message",
        [
            ("batch_size = 0", "contextual", "prompts must hold at least one sample"),
            ("prompt_strength = inf", "none", "prompt entries must be finite"),
            ("world_radius = nan", "none", "radius must be finite, got nan"),
            ("world_gamma = inf", "none", "guidance_gamma must be finite, got inf"),
            ("world_feedback = nan", "latent", "feedback_scale must be finite, got nan"),
            ("cads_scale = nan", "cads", "cads scale must be finite, got nan"),
            ("cads_tau1 = nan", "cads", "cads tau1 must be finite, got nan"),
            ("cads_tau2 = -inf", "cads", "cads tau2 must be finite, got -inf"),
            ("cads_psi = inf", "cads", "cads psi must be finite, got inf"),
        ],
    )
    def test_mixture_values_outside_the_maths_exit_2(self, tmp_path, capsys, setting, method,
                                                     message):
        # named by the check, before any step can warn or fail on them
        key, _, value = setting.partition(" = ")
        cfg = small_gmm_config(tmp_path, **{key: value})
        assert run_command(["simulate", "--config", cfg, "--method", method]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": message}


def golden_cases(tmp_path) -> dict:
    """Each case's argv and the output files it writes under ``tmp_path / "out"``."""
    gmm = small_gmm_config(
        tmp_path, seeds=3, seed_start=4, sweep_batch_sizes="2,4",
        sweep_intervals="0:0.5,0.25:1", sweep_block_groups="first_third,all",
        toy_dual_blocks=2, toy_single_blocks=1, toy_batch=3,
    )
    timestep = str(tmp_path / "timestep.cfg")
    pathlib.Path(timestep).write_text(pathlib.Path(gmm).read_text() + "method = cads\n")
    out = tmp_path / "out"
    toy = tmp_path / "toy.cfg"
    shipped = (CONFIG_DIR / "toy.cfg").read_text().splitlines(keepends=True)
    toy.write_text(
        "".join(line for line in shipped if not line.startswith("output_"))
        + f"output_snapshots = {out / 'snaps.csv'}\noutput_report = {out / 'report.jsonl'}\n"
    )
    vectors = tmp_path / "vectors.csv"
    write_vector_csv(str(vectors), np.random.default_rng(3).standard_normal((5, 3)))
    repulse = ["repulse", "--input", str(vectors), "--output", str(out / "out.csv"),
               "--eta", "0.3", "--steps", "3"]
    steer = ["steer", "--alpha", "0.5", "--source-seed", "1", "--target-seed", "6",
             "--config", gmm, "--output", str(out / "traj.csv")]
    cases = {
        f"simulate-{method}": (["simulate", "--config", gmm, "--method", method], [])
        for method in ("none", "cads")
    }
    cases.update({
        f"simulate-{method}": (
            ["simulate", "--config", gmm, "--method", method,
             "--output", str(out / "runs.jsonl")],
            ["runs.jsonl"],
        )
        for method in ("contextual", "latent")
    })
    cases.update({
        f"ablate-{axis}": (
            ["ablate", "--axis", axis, "--config", timestep if axis == "timestep" else gmm,
             "--output", str(out / "sweep.csv")],
            ["sweep.csv"],
        )
        for axis in ("batch", "timestep", "blocks")
    })
    cases.update({
        "toy-run": (["toy-run", "--config", str(toy)], ["snaps.csv", "report.jsonl"]),
        "steer-contextual": (steer, ["traj.csv"]),
        "steer-latent": (steer + ["--space", "latent", "--apply-interval", "0.25:1"],
                         ["traj.csv"]),
        "repulse": (repulse, ["out.csv"]),
        "repulse-normalize": (repulse + ["--normalize"], ["out.csv"]),
        "vendi-cosine": (["vendi", "--input", str(vectors)], []),
        "vendi-rbf": (["vendi", "--input", str(vectors), "--kernel", "rbf",
                       "--bandwidth", "1.5"], []),
        "grad-check": (["grad-check", "--batch", "3", "--dim", "4", "--seeds", "3"], []),
    })
    return cases


# sha256 of each command's stdout and of every file it writes, at --jobs 1.
GOLDEN_CLI = {
    ("simulate-none", "stdout"): "03db9a409c4122c0992661fb445455043d8edf47ee181d98f4f1f9714fc96a1b",
    ("simulate-cads", "stdout"): "69d871db20f28b5a9c39c73414f22fc57ffd988ea4eb062ec7388f8375bac88d",
    ("simulate-contextual", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-contextual", "runs.jsonl"): "bfc1c68505ca3b8491626fc7d587785564e21da7f94968a370b67795d8cf57a9",
    ("simulate-latent", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("simulate-latent", "runs.jsonl"): "12acf3e44ef549d2d30dad2615c4888497d0864db41133db670ab694f256d2e3",
    ("ablate-batch", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-batch", "sweep.csv"): "f761c9e5d55e88599a18918a9fb32cc73c1ddafddb65488065b30002b2686a57",
    ("ablate-timestep", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-timestep", "sweep.csv"): "2eb5055af84ce06ff79928748742e58341b315aa7a024caed638100308cbd701",
    ("ablate-blocks", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ablate-blocks", "sweep.csv"): "595c67e461bc1c6cd313d1d8f5f98c8a5e946e4139bb43b5992e03b46178ea80",
    ("toy-run", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("toy-run", "snaps.csv"): "6653266ac02a89c99a4a985658c09c0bb21554d3f6c41fcf849ec2086e9a384e",
    ("toy-run", "report.jsonl"): "e932dcca3367137374e0179f85ad31b27276ce5a87403d95cc978e15591446f0",
    ("steer-contextual", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("steer-contextual", "traj.csv"): "9f5f8ee1da1944bad9c837be5859e5255b4cae401d29a335464fa34a877e2f95",
    ("steer-latent", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("steer-latent", "traj.csv"): "dbbe08172c95ebce567fe92145b432fdad90f01802cc9139b41ef8bdc36a972b",
    ("repulse", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("repulse", "out.csv"): "adae178410d54bc2041b51b84fababd10c8d73d9bf49ec6609486163199b7b20",
    ("repulse-normalize", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("repulse-normalize", "out.csv"): "bf69bb816e35576f58622cef766007de15acfe6eee01b5bbb76af2fc903bd915",
    ("vendi-cosine", "stdout"): "bf2120d249a3df96d962d091645a32c5fe8c948929c954ca2858c372c86d69a8",
    ("vendi-rbf", "stdout"): "1ca52b2a4c05105dbe2a7d1e5585dc7aa80154ce19afa37c35fa29a9c77083f1",
    ("grad-check", "stdout"): "df999cc79272d38c6dba2b25187aa04b5b26588421646ec22151e0da5a7e5e79",
}


class TestGoldenOutputs:
    def test_every_command_byte_for_byte(self, tmp_path, capsys):
        out = tmp_path / "out"
        digests = {}
        for name, (argv, files) in golden_cases(tmp_path).items():
            out.mkdir()
            assert run_command(argv) == 0, name
            captured = capsys.readouterr()
            assert captured.err == "", name
            digests[name, "stdout"] = hashlib.sha256(captured.out.encode()).hexdigest()
            assert sorted(p.name for p in out.iterdir()) == sorted(files), name
            for file in files:
                digests[name, file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
                (out / file).unlink()
            out.rmdir()
        assert digests == GOLDEN_CLI
