import collections
import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import types
import typing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import ctxrep.cli as cli
from ctxrep import config, gmmflow
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
from ctxrep.repulsion import PRESETS, NumericOverflow

from ._golden import (
    Case,
    one_run_per_worker,
    recorded_pools,
    run_case,
    shipped_config,
    small_gmm_config,
)
from ._oracles import (
    ablate_blocks_rows,
    fail_lapack,
    grad_check_record,
    simulation_record,
    toy_run_outputs,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def pinned_worker_rule(monkeypatch) -> list:
    """Start one worker per ``RULE_RUNS_PER_WORKER`` runs; returns the pools
    started, as ``recorded_pools`` does."""
    monkeypatch.setattr(cli, "MIN_RUNS_PER_WORKER", RULE_RUNS_PER_WORKER)
    return recorded_pools(monkeypatch)


# The tests of the worker rule's arithmetic pin its runs per worker here, so
# that their seed counts stay small when the fitted constant moves;
# TestWorkerRule holds the rule to the fitted constant itself.
RULE_RUNS_PER_WORKER = 10
# the fewest runs that start two workers under the pinned rule
TWO_WORKERS = 2 * RULE_RUNS_PER_WORKER


def shipped_toy_config(tmp_path, **settings) -> pathlib.Path:
    """``configs/toy.cfg`` with ``settings`` in place of its own values."""
    return pathlib.Path(shipped_config(tmp_path, "toy.cfg", "toy", **settings))


def write_rows(path, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def mixture_sweep_rows(cfg: ExperimentConfig, axis: str, field: str) -> list[dict]:
    """The rows of ``ablate --axis batch|timestep`` from seed-by-seed
    ``simulation_record`` runs, each sweep value set on ``field`` alone."""
    rows = []
    for value in getattr(cfg, "sweep_batch_sizes" if axis == "batch" else "sweep_intervals"):
        variant = dataclasses.replace(cfg, **{field: value})
        label = str(value) if axis == "batch" else f"{value[0]:g}:{value[1]:g}"
        for i in range(cfg.seeds):
            record = simulation_record(variant, cfg.method, i)
            rows.append({"axis": axis, "value": label, "seed": record["seed"],
                         **{k: record[k] for k in list(record)[3:]}})
    return rows


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

    @pytest.mark.parametrize("text", ["4,,8", "4,8,", ",4", "4, ,8"])
    def test_empty_list_item_is_named(self, tmp_path, capsys, text):
        # an empty item once vanished, so "4,,8" ran a 2-value sweep
        with pytest.raises(ConfigError, match="^sweep_batch_sizes: empty item"):
            parse_config(f"sweep_batch_sizes = {text}\n")
        cfg = small_gmm_config(tmp_path, sweep_batch_sizes=text)
        out = tmp_path / "batch.csv"
        assert run_command(["ablate", "--axis", "batch", "--config", cfg,
                            "--output", str(out)]) == 2
        assert "sweep_batch_sizes" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_list_value_is_an_empty_tuple(self, text):
        assert parse_config(f"sweep_batch_sizes ={text}\n").sweep_batch_sizes == ()

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

    @pytest.mark.parametrize("text", ["false", "0", "no", "off", " OFF "])
    def test_false_booleans(self, text):
        # the default is true, so each parses to a value of its own
        assert ExperimentConfig().repulsion_normalize is True
        assert parse_config(f"repulsion_normalize = {text}\n").repulsion_normalize is False

    def test_bad_boolean_names_its_key(self):
        with pytest.raises(ConfigError,
                           match="^repulsion_normalize: expected a boolean, got 'maybe'$"):
            parse_config("repulsion_normalize = maybe\n")

    def test_unsupported_field_type_is_named(self):
        with pytest.raises(ConfigError, match="^seeds: unsupported type <class 'complex'>$"):
            config._parse_value("seeds", "1", complex)

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert run_command(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"].startswith(f"cannot read config {str(path)!r}")

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="^bad interval 'x:0.5'$"):
            parse_config("repulsion_interval = x:0.5\n")
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

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {path!r}: "),
        ("", "{path!r} is empty"),
        ("dim0,dim1\n1.0,2.0\n3.0,x\n", "{path!r}: line 3: could not convert string to float"),
        ("dim0,dim1\n", "{path!r} holds no samples"),
    ], ids=["unreadable", "empty", "non-numeric", "header-only"])
    def test_unusable_input_exits_2_with_one_json_line(self, tmp_path, capsys, text, message):
        path = str(tmp_path / "input.csv")
        if text is not None:
            pathlib.Path(path).write_text(text)
        assert run_command(["vendi", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"].startswith(message.format(path=path))


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

    @pytest.mark.parametrize(
        "batch, dim, seeds, fd_step",
        [
            (2, 1, 100, 1e-5),
            (7, 5, 4, 1e-3),
            # more bumped batches per seed than one stack holds
            (3, cli._GRAD_CHECK_STACK // 4 + 1, 2, 1e-5),
        ],
        ids=["b2-d1", "b7-d5", "across-stacks"],
    )
    def test_matches_the_coordinate_by_coordinate_check(self, capsys, batch, dim, seeds,
                                                         fd_step):
        code = run_command(["grad-check", "--batch", str(batch), "--dim", str(dim),
                            "--seeds", str(seeds), "--fd-step", repr(fd_step)])
        record = grad_check_record(batch, dim, seeds, fd_step)
        assert capsys.readouterr().out == json.dumps(record) + "\n"
        failed = record["max_relative_error"] > cli.GRAD_CHECK_THRESHOLD
        assert code == (cli.EXIT_NUMERIC if failed else cli.EXIT_OK)

    def test_a_failed_check_prints_its_record_then_exits_3(self, capsys):
        argv = ["grad-check", "--batch", "3", "--dim", "4", "--seeds", "3", "--fd-step", "0.5"]
        assert run_command(argv) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        record = grad_check_record(3, 4, 3, 0.5)
        assert round(record["max_relative_error"], 3) == 0.380
        assert captured.out == json.dumps(record) + "\n"
        assert json.loads(captured.err) == {
            "error": "max relative error 3.799e-01 exceeds 0.0001"}

    def test_scores_at_most_one_capped_stack_at_a_time(self, capsys, monkeypatch):
        stacks = []
        score = cli._cosine_entropies

        def recording(vectors):
            stacks.append(vectors.shape)
            return score(vectors)

        monkeypatch.setattr(cli, "_cosine_entropies", recording)
        dim = cli._GRAD_CHECK_STACK
        assert run_command(["grad-check", "--batch", "2", "--dim", str(dim), "--seeds", "2"]) == 0
        capsys.readouterr()
        # two bumped batches per coordinate, over 2 seeds of 2 * dim coordinates
        assert sum(shape[0] for shape in stacks) == 2 * 2 * 2 * dim
        assert len(stacks) > 1
        assert all(shape[0] <= cli._GRAD_CHECK_STACK for shape in stacks)
        assert all(shape[1:] == (2, dim) for shape in stacks)


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

        fail_lapack(monkeypatch, "_eigh_lo")
        assert run_command(
            ["repulse", "--input", str(src), "--output", str(tmp_path / "out.csv"),
             "--eta", "0.01", "--steps", "1"]
        ) == 3
        assert "did not converge" in json.loads(capsys.readouterr().err)["error"]


class TestToyRunCommand:
    def test_outputs_and_vendi_gain(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_command(["toy-run", "--config", str(CONFIG_DIR / "toy.cfg")]) == 0
        with open("toy_report.json") as handle:
            report = [json.loads(line) for line in handle]
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
        original = cli.toydit._weight_fill

        def counting(model_cfg, out=None):
            seeds.append(model_cfg.weight_seed)
            return original(model_cfg, out)

        # every weight fill, solo or stacked, is drawn here
        monkeypatch.setattr(cli.toydit, "_weight_fill", counting)
        assert run_command(["toy-run", "--config", str(CONFIG_DIR / "toy.cfg")]) == 0
        assert seeds == [0]

    def test_snapshot_csv_row_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        walks = []
        original = cli.toydit.forward_configs

        def recording(*args, **kwargs):
            per_config = original(*args, **kwargs)
            walks.append(per_config)
            return per_config

        monkeypatch.setattr(cli.toydit, "forward_configs", recording)
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("toy_dual_blocks = 1\ntoy_single_blocks = 0\ntoy_batch = 2\n")
        assert run_command(["toy-run", "--config", str(cfg)]) == 0

        with open("toy_snapshots.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample", "block", "stream", "token", "dim", "value"]
        model = cli._toy_config(parse_config(cfg.read_text()))
        expected = 2 * (model.n_text_tokens + model.n_image_tokens) * model.token_dim
        assert len(rows) - 1 == expected
        streams = {row[2] for row in rows[1:]}
        assert streams == {"text", "image"}
        # one walk for the repelled and the plain config; spot-check one value
        # against the repelled config's snapshot tensor
        assert len(walks) == 1 and len(walks[0]) == 2
        text = next(s for s in walks[0][0] if s.stream == "text")
        sample, block, stream, token, dim, value = rows[1]
        flat_idx = int(token) * model.token_dim + int(dim)
        assert float(value) == text.vectors[0, int(sample), flat_idx]

    @pytest.mark.parametrize("single_blocks", [0, 1])
    @pytest.mark.parametrize("toy_batch", [1, 2, 3, 4, 5])
    def test_matches_the_snapshot_by_snapshot_run(self, tmp_path, toy_batch, single_blocks):
        snaps, report = tmp_path / "snaps.csv", tmp_path / "report.jsonl"
        cfg = shipped_toy_config(tmp_path, toy_dual_blocks=2, toy_single_blocks=single_blocks,
                                 toy_batch=toy_batch, output_snapshots=snaps,
                                 output_report=report)
        assert run_command(["toy-run", "--config", str(cfg)]) == 0
        rows, records = toy_run_outputs(load_config(str(cfg)))
        write_csv(tmp_path / "reference.csv", rows,
                  header=["sample", "block", "stream", "token", "dim", "value"])
        assert snaps.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert report.read_text() == "".join(json.dumps(r) + "\n" for r in records)

    @pytest.mark.parametrize("fault", ["output_snapshots", "output_report", "scoring"])
    def test_a_failed_run_leaves_no_output(self, tmp_path, monkeypatch, capsys, fault):
        paths = {"output_snapshots": tmp_path / "snaps.csv",
                 "output_report": tmp_path / "report.jsonl"}
        if fault == "scoring":
            def failing(_):
                raise ValueError("scoring failed")

            monkeypatch.setattr(cli, "_cosine_entropies", failing)
        else:
            paths[fault] = tmp_path / "missing" / "out"
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("toy_dual_blocks = 1\ntoy_single_blocks = 0\n"
                       + "".join(f"{key} = {path}\n" for key, path in paths.items()))
        assert run_command(["toy-run", "--config", str(cfg)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error == "scoring failed" if fault == "scoring" else str(paths[fault]) in error)
        assert [p.name for p in tmp_path.iterdir()] == ["toy.cfg"]


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
            (3 * RULE_RUNS_PER_WORKER, 2, [2]),
            (3 * RULE_RUNS_PER_WORKER, 3, [3]),
            (3 * TWO_WORKERS, 1, []),
        ],
    )
    def test_one_worker_per_seed_chunk(self, tmp_path, monkeypatch, seeds, jobs, pools):
        # --jobs is a ceiling: one worker per MIN_RUNS_PER_WORKER seeds
        started = pinned_worker_rule(monkeypatch)
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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", [["simulate"], ["ablate", "--axis", "timestep"]],
                             ids=["simulate", "ablate-timestep"])
    @pytest.mark.parametrize("setting", [{"cads_scale": "1e300"}, {"prompt_strength": "1e200"}],
                             ids=["scale", "prompt"])
    def test_cads_overflow_exit_3(self, tmp_path, capsys, monkeypatch, command, jobs, setting):
        # the corrupted rows' std, or the prompts' own, overflows: where the
        # psi rescaling would erase each prompt to its mean, or fill the
        # rows with NaN, the run ends with one JSON error line, no records
        # and no numpy warning, in-process and on a pool
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path, method="cads", batch_size=2, world_feedback=0, seeds=2,
                               sweep_intervals="0:1", **setting)
        out = tmp_path / "out"
        assert run_command(command + ["--config", cfg, "--jobs", jobs, "--output", str(out)]) == 3
        assert capsys.readouterr() == (
            "", '{"error": "cads corruption: overflow encountered in multiply"}\n')
        assert not out.exists()
        assert pools == ([2] if jobs == "2" else [])

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

    @pytest.mark.parametrize("single_blocks", [0, 1])
    @pytest.mark.parametrize("toy_batch", [1, 2, 3, 4, 5])
    def test_blocks_axis_matches_the_serial_reference_at_every_batch(self, tmp_path, toy_batch,
                                                                      single_blocks):
        cfg = small_gmm_config(
            tmp_path, seeds=3, seed_start=2, sweep_block_groups="first_third,middle_third,all",
            toy_dual_blocks=2, toy_single_blocks=single_blocks, toy_batch=toy_batch,
        )
        out = tmp_path / "blocks.csv"
        assert run_command(
            ["ablate", "--axis", "blocks", "--config", cfg, "--output", str(out)]
        ) == 0
        write_rows(tmp_path / "reference.csv", ablate_blocks_rows(load_config(cfg)))
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

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

        reference = tmp_path / "reference.csv"
        write_rows(reference, mixture_sweep_rows(load_config(cfg), axis, field))
        assert outputs[0] == reference.read_bytes()

    @pytest.mark.parametrize(
        "axis, field, settings",
        [
            ("batch", "batch_size", {"sweep_batch_sizes": "1,3,3", "method": "contextual"}),
            ("timestep", "cads_interval", {
                "sweep_intervals": "0:0.25,0.25:0.5,0.5:0.75,0.75:1,0:1", "method": "cads"}),
        ],
    )
    def test_mixture_axes_run_one_flow_per_seed_chunk(self, tmp_path, monkeypatch, axis, field,
                                                      settings):
        # every batch size or window of a chunk, a size of 1 and a repeated
        # size included, advances as a segment of one stacked flow, not one
        # flow per sweep value, and each keeps its seed-by-seed bits
        flows = []
        integrate = gmmflow._integrate

        def counting(world, segments, method, seeds, *args):
            flows.append(([len(segment.prompts) for segment in segments], list(seeds)))
            return integrate(world, segments, method, seeds, *args)

        monkeypatch.setattr(gmmflow, "_integrate", counting)
        cfg = small_gmm_config(tmp_path, seeds=3, seed_start=4, **settings)
        out = tmp_path / f"{axis}.csv"
        assert run_command(["ablate", "--axis", axis, "--config", cfg, "--output", str(out)]) == 0
        sizes = [1, 3, 3] if axis == "batch" else [4] * 5
        assert flows == [(sizes, [4, 5, 6])]
        reference = tmp_path / "reference.csv"
        write_rows(reference, mixture_sweep_rows(load_config(cfg), axis, field))
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_axis_error_is_the_first_failing_seeds_first_variant(
            self, tmp_path, capsys, monkeypatch, jobs):
        # seed 11 fails at both batch sizes: at size 3 only when scored, at
        # size 5 in repulse at step 0, which the flow shared by both sizes
        # meets first; seed 12 fails at size 5 alone. The error must be seed
        # 11's at size 3, the first value in sweep order, as when each run
        # ran alone.
        running = []
        check_seeds, repulse, score = gmmflow.check_seeds, gmmflow.repulse, gmmflow._score_finals

        def recording(seeds):
            check_seeds(seeds)
            running[:] = seeds

        def overflowing(batch, repulsion):
            failing = [seed for seed in running if seed in (11, 12)]
            if batch.batch_size == 5 and failing:
                raise NumericOverflow(f"planted overflow at seed {failing[0]}")
            return repulse(batch, repulsion)

        def unscorable(world, finals):
            if finals.shape[1] == 3 and 11 in running:
                raise ValueError("planted scoring failure at seed 11")
            return score(world, finals)

        monkeypatch.setattr(gmmflow, "check_seeds", recording)
        monkeypatch.setattr(gmmflow, "repulse", overflowing)
        monkeypatch.setattr(gmmflow, "_score_finals", unscorable)
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path, seeds=4, seed_start=10, method="contextual",
                               sweep_batch_sizes="3,5")
        out = tmp_path / "batch.csv"
        code = run_command(["ablate", "--axis", "batch", "--config", cfg, "--jobs", jobs,
                            "--output", str(out)])
        assert (code, json.loads(capsys.readouterr().err)) == (
            2, {"error": "planted scoring failure at seed 11"})
        assert not out.exists()
        # at --jobs 2 the second worker's chunk holds seed 12's overflow
        assert pools == ([2] if jobs == "2" else [])

    def test_mixture_axis_error_is_the_lowest_failing_seeds(self, tmp_path, capsys,
                                                            monkeypatch):
        # seed 11 starts from NaN latents at batch 4 (exit 2), and seed 12
        # from latents near 1e31 at batch 2 (exit 3). The batch-2 variant
        # runs first, yet the error reported must be the lowest failing
        # seed's, at its first failing variant, as on the blocks axis.
        planted = {(11, 4): np.nan, (12, 2): 1e31}
        default_rng = np.random.default_rng

        def rng_with_planted_latents(seed):
            rng = default_rng(seed)
            if seed not in (11, 12):
                return rng

            def standard_normal(*args, **kwargs):
                values = rng.standard_normal(*args, **kwargs)
                values *= planted.get((seed, values.shape[0]), 1.0)
                return values

            return types.SimpleNamespace(standard_normal=standard_normal)

        monkeypatch.setattr(np.random, "default_rng", rng_with_planted_latents)
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path, seeds=3, seed_start=10, method="latent",
                               sweep_batch_sizes="2,4")
        out = tmp_path / "batch.csv"
        for jobs in ("1", "2"):
            assert run_command(["ablate", "--axis", "batch", "--config", cfg, "--jobs", jobs,
                                "--output", str(out)]) == 2
            assert json.loads(capsys.readouterr().err) == {
                "error": "batch entries must be finite"
            }
            assert not out.exists()
        # at --jobs 2 the second worker's chunk holds seeds 11 and 12
        assert pools == [2]

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
        started = pinned_worker_rule(monkeypatch)
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

    def test_blocks_axis_runs_each_seed_chunk_as_one_stacked_pass(self, tmp_path, monkeypatch):
        # one (S, B, N, D) walk per seed chunk carrying every block group, not
        # one per seed or per group
        cfg = small_gmm_config(tmp_path, seeds=5, seed_start=3, toy_batch=3,
                               sweep_block_groups="middle_third,all")
        walks = []
        forward = cli.toydit.forward_configs

        def recording(state, weights, repulsions, *args, **kwargs):
            walks.append((state.text_tokens.shape[:-2], state.image_tokens.shape[:-2],
                          [r.block_selector for r in repulsions]))
            return forward(state, weights, repulsions, *args, **kwargs)

        monkeypatch.setattr(cli.toydit, "forward_configs", recording)
        out = tmp_path / "blocks.csv"
        assert run_command(
            ["ablate", "--axis", "blocks", "--config", cfg, "--output", str(out)]
        ) == 0
        assert walks == [((5, 3), (5, 3), ["middle_third", "all"])]
        write_rows(tmp_path / "reference.csv", ablate_blocks_rows(load_config(cfg)))
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_blocks_axis_error_is_the_first_failing_seeds(self, tmp_path, capsys, monkeypatch):
        # seed 12 has NaN image tokens, which fail the hook's state check in
        # the walk; seed 13 has an all-zero prompt encoding, which fails the
        # prompt check before the walk. A stacked pass meets seed 13's first,
        # yet the error reported must be seed 12's, as when each seed ran on
        # its own.
        planted = {12: np.nan}
        encode, images = cli.toydit.encode_prompt, cli.toydit.seed_image_tokens

        def planted_prompt(model_cfg, prompt_id):
            prompt = encode(model_cfg, prompt_id)
            if model_cfg.weight_seed == 13:  # toy_seed 0 plus seed 13
                return cli.toydit.PromptEncoding(prompt_id, np.zeros_like(prompt.tokens))
            return prompt

        def planted_images(model_cfg, noise_seed):
            # seed s draws its image noise from seeds 1000 * s on
            return images(model_cfg, noise_seed) * planted.get(noise_seed // 1000, 1.0)

        monkeypatch.setattr(cli.toydit, "encode_prompt", planted_prompt)
        monkeypatch.setattr(cli.toydit, "seed_image_tokens", planted_images)
        pools = one_run_per_worker(monkeypatch)
        errors = []
        for seeds, seed_start, jobs in ((4, 10, "1"), (4, 10, "2"), (1, 12, "1")):
            cfg = small_gmm_config(tmp_path, seeds=seeds, seed_start=seed_start,
                                   sweep_block_groups="middle_third,all")
            out = tmp_path / "blocks.csv"
            code = run_command(["ablate", "--axis", "blocks", "--config", cfg, "--jobs", jobs,
                                "--output", str(out)])
            errors.append((code, json.loads(capsys.readouterr().err)))
            assert not out.exists()
        # at --jobs 2 the second worker's chunk holds seeds 12 and 13
        assert pools == [2]
        assert errors[0] == errors[1] == errors[2] == (
            2, {"error": "batch entries must be finite"})

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_blocks_axis_names_a_zero_norm_prompt(self, tmp_path, capsys, monkeypatch, jobs):
        # a prompt with no direction has no similarity to any row: one JSON
        # error line naming the lowest such seed, no numpy warning, no CSV
        encode = cli.toydit.encode_prompt

        def zero_prompt(model_cfg, prompt_id):
            prompt = encode(model_cfg, prompt_id)
            if model_cfg.weight_seed in (11, 13):  # toy_seed 0 plus the seed
                return cli.toydit.PromptEncoding(prompt_id, np.zeros_like(prompt.tokens))
            return prompt

        monkeypatch.setattr(cli.toydit, "encode_prompt", zero_prompt)
        pools = one_run_per_worker(monkeypatch)
        for seeds, seed_start, seed in ((4, 10, 11), (1, 13, 13)):
            cfg = small_gmm_config(tmp_path, seeds=seeds, seed_start=seed_start,
                                   sweep_block_groups="middle_third,all")
            out = tmp_path / "blocks.csv"
            code = run_command(["ablate", "--axis", "blocks", "--config", cfg, "--jobs", jobs,
                                "--output", str(out)])
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert (code, json.loads(captured.err)) == (
                2, {"error": f"zero-norm prompt encoding at seed {seed}"})
            assert not out.exists()
        # at --jobs 2 each worker's chunk holds one zero prompt
        assert pools == ([2] if jobs == "2" else [])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_blocks_axis_error_is_the_first_failing_variants(self, tmp_path, capsys, monkeypatch,
                                                             jobs):
        # on the 4 + 2 block model last_third never fires, so its runs fail
        # only when scored; first_third's fail in repulse at block 0, which a
        # walk shared by both groups meets before any scoring. The error must
        # be last_third's, the first variant in sweep order, as when each run
        # ran alone.
        def overflowing(batch, repulsion):
            raise NumericOverflow("planted overflow")

        def unscorable(vectors):
            raise ValueError("planted scoring failure")

        monkeypatch.setattr(cli.toydit, "repulse", overflowing)
        monkeypatch.setattr(cli, "_cosine_entropies", unscorable)
        pools = one_run_per_worker(monkeypatch)
        cfg = small_gmm_config(tmp_path, seeds=2, sweep_block_groups="last_third,first_third")
        out = tmp_path / "blocks.csv"
        code = run_command(["ablate", "--axis", "blocks", "--config", cfg, "--jobs", jobs,
                            "--output", str(out)])
        assert (code, json.loads(capsys.readouterr().err)) == (
            2, {"error": "planted scoring failure"})
        assert not out.exists()
        assert pools == ([2] if jobs == "2" else [])

    def test_blocks_axis_runs_each_block_once_per_repulsion_history(self, tmp_path, monkeypatch):
        # the four shipped groups on the 4 + 2 block model: last_third never
        # fires, first_third and all share blocks 0-1 and their repulse calls,
        # and middle_third and last_third share block 0. One walk per group
        # would run 24 blocks and 8 repulse calls per seed chunk.
        counts = collections.Counter()
        for name in ("mm_block_forward", "single_block_forward", "repulse"):
            original = getattr(cli.toydit, name)

            def counting(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(cli.toydit, name, counting)
        cfg = small_gmm_config(tmp_path, seeds=3)
        out = tmp_path / "blocks.csv"
        assert run_command(
            ["ablate", "--axis", "blocks", "--config", cfg, "--output", str(out)]
        ) == 0
        assert counts == {"mm_block_forward": 9, "single_block_forward": 8, "repulse": 6}
        write_rows(tmp_path / "reference.csv", ablate_blocks_rows(load_config(cfg)))
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestSeedBySeedOnFailure:
    def test_a_failure_no_single_run_repeats_is_raised_as_it_was(self):
        # the stacked chunk fails, each one-seed, one-variant re-run passes,
        # and the chunk's own error is what the caller sees
        calls = []
        stacked = ValueError("stacked only")

        def run(variants, run_ids):
            calls.append((variants, run_ids))
            if len(variants) > 1 or len(run_ids) > 1:
                raise stacked
            return [[run_ids[0]]]

        with pytest.raises(ValueError) as caught:
            cli._seed_by_seed_on_failure(run, ["a", "b"], range(4, 6))
        assert caught.value is stacked
        assert calls == [(["a", "b"], range(4, 6)), (["a"], range(4, 5)), (["b"], range(4, 5)),
                         (["a"], range(5, 6)), (["b"], range(5, 6))]


class TestWorkerRule:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_one_worker_per_fitted_runs(self, jobs):
        # the fitted constant, without running its hundreds of seeds
        runs = cli.MIN_RUNS_PER_WORKER
        assert cli._workers(0, jobs) == cli._workers(2 * runs - 1, jobs) == 1
        assert cli._workers(2 * runs, jobs) == min(jobs, 2)
        assert cli._workers(3 * runs, jobs) == min(jobs, 3)

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["ablate", "--axis", "batch"], ["ablate", "--axis", "timestep"],
         ["ablate", "--axis", "blocks"]],
        ids=["simulate", "ablate-batch", "ablate-timestep", "ablate-blocks"],
    )
    def test_every_seeded_command_runs_one_sweep(self, tmp_path, monkeypatch, argv):
        # simulate and every ablate axis share one seed-chunk runner
        sweeps = []
        sweep = cli._sweep

        def counting(cfg, variants, run):
            sweeps.append(len(variants))
            return sweep(cfg, variants, run)

        monkeypatch.setattr(cli, "_sweep", counting)
        cfg = small_gmm_config(tmp_path, seeds=2, method="none", sweep_batch_sizes="2,3",
                               sweep_intervals="0:0.5,0.5:1", sweep_block_groups="first_third,all",
                               toy_dual_blocks=2, toy_single_blocks=0, toy_batch=3)
        assert run_command(argv + ["--config", cfg, "--output", str(tmp_path / "out")]) == 0
        assert sweeps == ([1] if argv == ["simulate"] else [2])


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

    # concurrent.futures.process, with multiprocessing and logging, is
    # imported only where a pool starts, and numpy.random at the first draw
    @pytest.mark.parametrize("module", ["concurrent.futures", "numpy.random"])
    def test_import_leaves_the_process_pool_unimported(self, module):
        result = self.run_python(
            "-c", f"import sys, ctxrep.cli; print({module!r} in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_a_fresh_process_takes_splitmix64_words_as_a_seed(self):
        # the words type is registered with numpy when the first one is made
        result = self.run_python("-c", (
            "import numpy as np; from ctxrep.rng import SplitMix64Words; "
            "print(type(np.random.PCG64(SplitMix64Words(0)).seed_seq).__name__)"))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "SplitMix64Words\n"

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

    @pytest.mark.parametrize("command", ["toy-run", "steer"])
    @pytest.mark.parametrize("settings", [{"seeds": -1}, {"jobs": 0}])
    def test_every_config_command_checks_seeds_and_jobs(self, tmp_path, capsys, command,
                                                         settings):
        out = tmp_path / "out"
        cfg = small_gmm_config(tmp_path, output_snapshots=out, output_report=out, **settings)
        argv = {
            "toy-run": ["toy-run", "--config", cfg],
            "steer": ["steer", "--alpha", "0.5", "--source-seed", "0", "--target-seed", "3",
                      "--config", cfg, "--output", str(out)],
        }[command]
        assert run_command(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith("seeds" if "seeds" in settings else "jobs")
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", None])
    def test_zero_seeds_write_an_empty_file(self, tmp_path, seeds):
        cfg = small_gmm_config(tmp_path, seeds=0)
        out = tmp_path / "runs.jsonl"
        flags = ["--seeds", seeds] if seeds else []
        assert run_command(["simulate", "--config", cfg, "--output", str(out)] + flags) == 0
        assert out.read_text() == ""

    MIXTURE_COLUMNS = ["vendi_rbf", "mode_coverage", "off_manifold_rate",
                       "mean_nearest_mode_distance", "avg_pair_vendi"]

    @pytest.mark.parametrize("axis, key, columns", [
        ("batch", "sweep_batch_sizes", MIXTURE_COLUMNS),
        ("timestep", "sweep_intervals", MIXTURE_COLUMNS),
        ("blocks", "sweep_block_groups", ["text_vendi", "prompt_similarity"]),
    ])
    def test_empty_sweep_writes_only_the_header(self, tmp_path, monkeypatch, axis, key, columns):
        # no chunk runs, so no flow and no toy input is drawn
        drawn = []
        monkeypatch.setattr(gmmflow, "_integrate", lambda *args, **kwargs: drawn.append(args))
        monkeypatch.setattr(cli.toydit, "seed_stack", lambda *args: drawn.append(args))
        cfg = small_gmm_config(tmp_path, seeds=3, method="cads", **{key: ""})
        out = tmp_path / "sweep.csv"
        assert run_command(["ablate", "--axis", axis, "--config", cfg, "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            assert list(csv.reader(handle)) == [["axis", "value", "seed", *columns]]
        assert drawn == []


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

    @pytest.mark.parametrize("seeds", [0, 2])
    @pytest.mark.parametrize(
        "argv", [["simulate"], ["ablate", "--axis", "batch"], ["ablate", "--axis", "timestep"]],
        ids=["simulate", "ablate-batch", "ablate-timestep"],
    )
    def test_unknown_config_method_is_named_first(self, tmp_path, capsys, monkeypatch, argv,
                                                  seeds):
        # before any flow and before the bad sweep values, at any seed count
        flows = []
        monkeypatch.setattr(gmmflow, "_integrate", lambda *args, **kwargs: flows.append(args))
        cfg = small_gmm_config(tmp_path, seeds=seeds, method="bogus", sweep_batch_sizes="4,0",
                               sweep_intervals="0:0.5,1:0")
        out = tmp_path / "out"
        assert run_command(argv + ["--config", cfg, "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "unknown method 'bogus'"}
        assert flows == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, settings, seed",
        [
            (["simulate", "--method", "none"], {"seed_start": -3}, -3),
            (["simulate", "--method", "cads", "--jobs", "2"], {"seed_start": -1}, -1),
            (["steer", "--alpha", "0.5", "--source-seed", "-1", "--target-seed", "3"], {}, -1),
            (["steer", "--alpha", "0.5", "--source-seed", "0", "--target-seed", "-2"], {}, -2),
        ],
    )
    def test_negative_mixture_seed_is_named(self, tmp_path, capsys, argv, settings, seed):
        cfg = small_gmm_config(tmp_path, **settings)
        out = tmp_path / "out"
        assert run_command(argv + ["--config", cfg, "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": f"seed must be >= 0, got {seed}"}
        assert not out.exists()

    @pytest.mark.parametrize("source, target", [(-1, 3), (0, -2), (-1, -2)])
    def test_steer_checks_both_seeds_before_any_flow(self, tmp_path, capsys, monkeypatch,
                                                     source, target):
        flows = []
        integrate = gmmflow._integrate

        def counting(*args, **kwargs):
            flows.append(args[3])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(gmmflow, "_integrate", counting)
        argv = ["steer", "--alpha", "0.5", "--source-seed", str(source),
                "--target-seed", str(target), "--config", small_gmm_config(tmp_path),
                "--output", str(tmp_path / "traj.csv")]
        assert run_command(argv) == 2
        # the target seed is named first, as when the target run checked it
        named = target if target < 0 else source
        assert json.loads(capsys.readouterr().err) == {"error": f"seed must be >= 0, got {named}"}
        assert flows == []

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["steer", "--alpha", "0.5", "--source-seed", "0", "--target-seed", "3"], "output"),
            (["ablate", "--axis", "batch"], "output"),
            (["ablate", "--axis", "timestep"], "output"),
            (["ablate", "--axis", "blocks"], "output"),
            (["toy-run"], "output_snapshots"),
        ],
        ids=["steer", "ablate-batch", "ablate-timestep", "ablate-blocks", "toy-run"],
    )
    def test_missing_output_path_exits_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       argv, key):
        runs = []
        integrate = gmmflow._integrate
        forward = cli.toydit.forward_configs

        def counting_flow(*args, **kwargs):
            runs.append("flow")
            return integrate(*args, **kwargs)

        def counting_forward(*args, **kwargs):
            runs.append("forward")
            return forward(*args, **kwargs)

        monkeypatch.setattr(gmmflow, "_integrate", counting_flow)
        monkeypatch.setattr(cli.toydit, "forward_configs", counting_forward)
        monkeypatch.chdir(tmp_path)
        cfg = small_gmm_config(tmp_path, output_snapshots="")
        assert run_command(argv + ["--config", cfg]) == 2
        assert f"config `{key}`" in json.loads(capsys.readouterr().err)["error"]
        assert runs == []
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("argv", [["toy-run"], ["ablate", "--axis", "blocks"]],
                             ids=["toy-run", "ablate-blocks"])
    @pytest.mark.parametrize("toy_batch", [0, -2])
    def test_toy_batch_below_1_is_named_before_any_weight(self, tmp_path, capsys, monkeypatch,
                                                          argv, toy_batch):
        drawn = []
        weight_fill = cli.toydit._weight_fill

        def counting(model_cfg):
            drawn.append(model_cfg.weight_seed)
            return weight_fill(model_cfg)

        monkeypatch.setattr(cli.toydit, "_weight_fill", counting)
        monkeypatch.chdir(tmp_path)
        cfg = small_gmm_config(tmp_path, toy_batch=toy_batch, output="blocks.csv")
        assert run_command(argv + ["--config", cfg]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"toy_batch must be >= 1, got {toy_batch}"
        }
        assert drawn == []
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("argv", [["toy-run"], ["ablate", "--axis", "blocks"]],
                             ids=["toy-run", "ablate-blocks"])
    @pytest.mark.parametrize("step, total", [(3, 2), (-1, 2), (0, 0)])
    def test_toy_step_index_out_of_range_is_named_before_any_weight(
            self, tmp_path, capsys, monkeypatch, argv, step, total):
        drawn = []
        weight_fill = cli.toydit._weight_fill

        def counting(model_cfg):
            drawn.append(model_cfg.weight_seed)
            return weight_fill(model_cfg)

        monkeypatch.setattr(cli.toydit, "_weight_fill", counting)
        monkeypatch.chdir(tmp_path)
        cfg = small_gmm_config(tmp_path, seeds=10, toy_step_index=step, toy_total_steps=total,
                               output="blocks.csv")
        assert run_command(argv + ["--config", cfg]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "toy_step_index" in error and "toy_total_steps" in error
        assert f"got {step} for toy_total_steps {total}" in error
        assert drawn == []
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize(
        "axis, settings, key",
        [
            ("batch", {"sweep_batch_sizes": "4,8,0"}, "sweep_batch_sizes"),
            ("batch", {"sweep_batch_sizes": "-2,4"}, "sweep_batch_sizes"),
            ("timestep", {"sweep_intervals": "0:0.25,0.25:0.5,0.5:0.25"}, "sweep_intervals"),
            ("timestep", {"sweep_intervals": "0:0.25,0.25:0.5,0.5:0.25", "method": "latent"},
             "sweep_intervals"),
            ("blocks", {"sweep_block_groups": "first_third,middle"}, "sweep_block_groups"),
        ],
    )
    def test_bad_sweep_value_is_named_before_any_flow(self, tmp_path, capsys, monkeypatch,
                                                      axis, settings, key):
        flows = []
        integrate = gmmflow._integrate
        weight_fill = cli.toydit._weight_fill

        def counting(*args, **kwargs):
            flows.append(args[3])
            return integrate(*args, **kwargs)

        def counting_weights(model_cfg):
            flows.append(model_cfg.weight_seed)
            return weight_fill(model_cfg)

        monkeypatch.setattr(gmmflow, "_integrate", counting)
        monkeypatch.setattr(cli.toydit, "_weight_fill", counting_weights)
        cfg = small_gmm_config(tmp_path, seeds=40, **settings)
        out = tmp_path / "sweep.csv"
        assert run_command(["ablate", "--axis", axis, "--config", cfg, "--output", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert key in error
        if axis == "blocks":
            assert error == "unknown block group 'middle' in sweep_block_groups"
        assert flows == []
        assert not out.exists()


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        builds = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                builds.append(kwargs.get("prog"))

        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cli._build_parser.cache_clear()
        try:
            helps = []
            for argv in (["--help"], ["simulate", "--help"]) * 2:
                assert run_command(argv) == 0
                helps.append(capsys.readouterr().out)
            assert run_command(["vendi"]) == 2
            assert run_command(["grad-check", "--batch", "2", "--dim", "2", "--seeds", "1"]) == 0
        finally:
            cli._build_parser.cache_clear()
        capsys.readouterr()
        assert builds.count("ctxrep") == 1
        assert helps[0] == helps[2] and helps[1] == helps[3]
        assert "simulate" in helps[0] and "--jobs" in helps[1]


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
        fail_lapack(monkeypatch, "_eigvalsh_lo")
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
    @pytest.mark.parametrize("seeds", (0, 2))
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
            ("cads_tau1 = 0.9", "cads", "cads tau1 must not exceed tau2, got tau1 0.9 > tau2 0.8"),
            ("world_sigma = 0", "none", "mode_sigma must be positive"),
            ("repulsion_eta = -1", "contextual", "eta must be finite and non-negative, got -1.0"),
            ("latent_eta = nan", "latent", "eta must be finite and non-negative, got nan"),
        ],
    )
    def test_mixture_values_outside_the_maths_exit_2(self, tmp_path, capsys, setting, method,
                                                     message, seeds):
        # named by the check, before any step can warn or fail on them, at
        # every seed count
        key, _, value = setting.partition(" = ")
        cfg = small_gmm_config(tmp_path, seeds=seeds, **{key: value})
        assert run_command(["simulate", "--config", cfg, "--method", method]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": message}

    @pytest.mark.parametrize("seeds", (0, 2))
    def test_toy_values_outside_the_maths_exit_2(self, tmp_path, capsys, seeds):
        cfg = small_gmm_config(tmp_path, seeds=seeds, toy_heads=3)
        output = tmp_path / "sweep.csv"
        assert run_command(["ablate", "--axis", "blocks", "--config", cfg,
                            "--output", str(output)]) == 2
        assert not output.exists()
        assert json.loads(capsys.readouterr().err) == {
            "error": "token_dim must be divisible by attention_heads"}



# the values a config may push its keys to: each float key to any of
# EXTREME_FLOATS, each seed and prompt id to any of EXTREME_INTS
EXTREME_FLOATS = (1e308, -1e308, 1e300, -1e300, 1e200, 1e154, -1e154, 1e40, 1e-154, 1e-300,
                  -1e-300, 5e-324, 0.0, -0.0, math.inf, -math.inf, math.nan)
EXTREME_INTS = (-1, 2**63, 2**64 - 1, 2**64, 2**100, -2**70)
INT_KEYS = ("seed_start", "toy_seed", "toy_prompt_id")
EXTREME_KEYS = sorted(key for key, kind in FIELD_TYPES.items() if kind is float) + list(INT_KEYS)


def extreme_settings(keys):
    return st.fixed_dictionaries({
        key: st.sampled_from(EXTREME_INTS if key in INT_KEYS else EXTREME_FLOATS) for key in keys
    })


class TestConfigSpace:
    COMMANDS = {
        "simulate": ["simulate"],
        "ablate-batch": ["ablate", "--axis", "batch"],
        "ablate-timestep": ["ablate", "--axis", "timestep"],
        "ablate-blocks": ["ablate", "--axis", "blocks"],
        "toy-run": ["toy-run"],
    }
    # each sweep list empty, with one value, with two, or with one value
    # that no run takes
    SWEEPS = {
        "sweep_batch_sizes": ("", "3", "1,3", "3,0", "-1,3"),
        "sweep_intervals": ("", "0.25:1", "0:0.5,0.25:1", "0:0.5,1:0"),
        "sweep_block_groups": ("", "all", "first_third,all", "first_third,nope"),
    }

    # a failing example is reported as drawn: each shrink step reruns a CLI
    # command, and shrinking took minutes
    @settings(max_examples=150, deadline=None, derandomize=True,
              phases=[phase for phase in Phase if phase is not Phase.shrink],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # the prompt-erasing overflows that once printed numpy warnings
    @example(command="simulate", method="none", steps=8, seeds=2,
             sweeps={key: values[2] for key, values in SWEEPS.items()},
             extremes={"prompt_strength": 1e308, "world_gamma": 2.0, "cads_scale": 0.0})
    @given(
        command=st.sampled_from(sorted(COMMANDS)),
        method=st.sampled_from(gmmflow.METHODS),
        steps=st.integers(1, 8),
        seeds=st.integers(0, 2),
        sweeps=st.fixed_dictionaries({key: st.sampled_from(values)
                                      for key, values in SWEEPS.items()}),
        extremes=st.lists(st.sampled_from(EXTREME_KEYS), min_size=3, max_size=3,
                          unique=True).flatmap(extreme_settings),
    )
    def test_any_accepted_config_exits_cleanly(self, tmp_path, capsys, command, method, steps,
                                               seeds, sweeps, extremes):
        # three keys at extreme values: the run exits 0, 2 or 3 under the
        # golden runner's contract (at most one JSON stderr line, no partial
        # output), and numpy warns of nothing
        root = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
        out = root / "out"
        cfg = small_gmm_config(
            root, world_steps=steps, seeds=seeds, method=method, toy_dual_blocks=2,
            toy_single_blocks=1, toy_batch=3, output=out / "rows",
            output_snapshots=out / "snaps.csv", output_report=out / "report.jsonl",
            **sweeps, **extremes,
        )
        files = ("snaps.csv", "report.jsonl") if command == "toy-run" else ("rows",)
        case = Case(self.COMMANDS[command] + ["--config", cfg], files)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_case(case, out, capsys)["exit"] in (0, 2, 3)
