"""Command-line front end: metrics, checks, simulations, sweeps, steering.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on numeric
check failures. Errors go to stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import gmmflow, steering, toydit
from .config import (
    FIELD_TYPES,
    ExperimentConfig,
    latent_repulsion_from_config,
    load_config,
    parse_interval,
    repulsion_from_config,
)
from .linalg import (
    ContextBatch,
    NonConvergence,
    cosine_kernel,
    rbf_kernel,
)
from .repulsion import NumericOverflow, RepulsionConfig, check_interval, repulse
from .vendi import entropy_and_score, entropy_gradient

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAD_CHECK_THRESHOLD = 1e-4

# Runs (one variant at one seed) that pay for one worker process. A worker
# pays its own start-up, while a stacked chunk of seeds costs far less per
# seed than one seed alone, so small runs are faster in-process. Fitted on a
# 2-CPU machine, where one process and two workers cross over at 80 to 120
# runs of every command; README, `--jobs`, has the crossovers.
MIN_RUNS_PER_WORKER = 40


class _UsageError(ValueError):
    """Bad flags or malformed input files."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -5 and -0.5 as numbers but reads -5e-1
        # as an option, so a flag given -5e-1 would lose its value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _fail(message: str) -> None:
    print(json.dumps({"error": message}), file=sys.stderr)


def _config(args) -> ExperimentConfig:
    """``--config`` with every flag that names a config key folded in; an
    absent flag or an empty ``--output`` leaves the key as it is."""
    flags = {k: v for k, v in vars(args).items() if k in FIELD_TYPES and v not in (None, "")}
    cfg = dataclasses.replace(load_config(args.config), **flags)
    if cfg.seeds < 0:
        raise _UsageError(f"seeds must be >= 0, got {cfg.seeds}")
    if cfg.jobs < 1:
        raise _UsageError(f"jobs must be >= 1, got {cfg.jobs}")
    return cfg


def _required_output(args, cfg: ExperimentConfig, key: str = "output") -> str:
    """The output path in config key ``key``; a command checks it before any work."""
    path = getattr(cfg, key)
    if not path:
        where = f"--{key} or config `{key}`" if key in vars(args) else f"config `{key}`"
        raise _UsageError(f"{args.command} requires an output path ({where})")
    return path


def read_vector_csv(path: str) -> np.ndarray:
    """Read one sample per row under a dim0,dim1,... header."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise _UsageError(f"{path!r} is empty")
    header = rows[0]
    expected = [f"dim{i}" for i in range(len(header))]
    if header != expected:
        raise _UsageError(f"{path!r}: header must be dim0,dim1,..., got {header}")
    width = len(header)
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise _UsageError(f"{path!r}: line {lineno} has {len(row)} fields, expected {width}")
        try:
            data.append([float(item) for item in row])
        except ValueError as exc:
            raise _UsageError(f"{path!r}: line {lineno}: {exc}") from exc
    if not data:
        raise _UsageError(f"{path!r} holds no samples")
    return np.array(data)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows``: every CSV a command produces."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_vector_csv(path: str, vectors: np.ndarray) -> None:
    header = [f"dim{i}" for i in range(vectors.shape[1])]
    _write_csv(path, header, ([repr(float(v)) for v in row] for row in vectors))


def _world_from_config(cfg: ExperimentConfig) -> gmmflow.MixtureWorld:
    return gmmflow.MixtureWorld(
        n_modes=cfg.world_modes,
        radius=cfg.world_radius,
        mode_sigma=cfg.world_sigma,
        guidance_gamma=cfg.world_gamma,
        n_steps=cfg.world_steps,
        feedback_scale=cfg.world_feedback,
    )


def _cads_from_config(cfg: ExperimentConfig) -> gmmflow.CadsParams:
    return gmmflow.CadsParams(
        scale=cfg.cads_scale, tau1=cfg.cads_tau1, tau2=cfg.cads_tau2, psi=cfg.cads_psi
    )


def _toy_config(cfg: ExperimentConfig) -> toydit.ToyDiTConfig:
    return toydit.ToyDiTConfig(
        n_text_tokens=cfg.toy_text_tokens,
        n_image_tokens=cfg.toy_image_tokens,
        token_dim=cfg.toy_dim,
        n_dual_blocks=cfg.toy_dual_blocks,
        n_single_blocks=cfg.toy_single_blocks,
        attention_heads=cfg.toy_heads,
        weight_seed=cfg.toy_seed,
    )


def _simulate_seeds(variants: list[ExperimentConfig], run_ids: range) -> list[list[dict]]:
    """For each variant config, the records of runs ``run_ids`` (seed
    ``seed_start + run_id``) of its method, sampled as one seed block."""
    per_variant = []
    for cfg in variants:
        world = _world_from_config(cfg)
        prompts = gmmflow.one_hot_prompts(
            world, cfg.batch_size, mode=cfg.prompt_mode, strength=cfg.prompt_strength
        )
        kwargs = {}
        if cfg.method == "contextual":
            kwargs["repulsion"] = repulsion_from_config(cfg)
        elif cfg.method == "latent":
            kwargs["repulsion"] = latent_repulsion_from_config(cfg)
        elif cfg.method == "cads":
            kwargs["cads"] = _cads_from_config(cfg)
            kwargs["cads_interval"] = cfg.cads_interval
        seeds = [cfg.seed_start + i for i in run_ids]
        metrics = gmmflow.evaluate_seed_block(world, prompts, cfg.method, seeds=seeds, **kwargs)
        per_variant.append([
            {"run_id": run_id, "seed": seed, "method": cfg.method, **m.as_dict()}
            for run_id, seed, m in zip(run_ids, seeds, metrics)
        ])
    return per_variant


def _seed_by_seed_on_failure(run, run_ids: range):
    """``run(run_ids)``, which runs a chunk of seeds as one stacked program.

    The program stops at the first failure of any seed, which need not be the
    first failing seed's; so a failed chunk re-runs seed by seed, and the
    error raised is the first failing seed's, as when each seed ran alone.
    """
    try:
        return run(run_ids)
    except (ArithmeticError, ValueError):
        for run_id in run_ids:
            run(range(run_id, run_id + 1))
        raise


def _workers(runs: int, jobs: int) -> int:
    """Worker processes for ``runs`` runs: one per ``MIN_RUNS_PER_WORKER``
    runs, at least one and at most ``jobs``."""
    return max(1, min(jobs, runs // MIN_RUNS_PER_WORKER))


def _sweep(cfg: ExperimentConfig, variants: list, run) -> list:
    """The rows of ``cfg.seeds`` runs of each variant, variant then seed.

    ``run(variants, run_ids)`` returns each variant's rows for one chunk of
    run ids. The seeds split into one contiguous chunk per worker, and each
    chunk runs every variant, in this process or on a pool of workers. When
    runs fail, the error is the lowest failing seed's, at its first failing
    variant, at every ``jobs``.
    """
    seeds = cfg.seeds
    workers = min(_workers(seeds * len(variants), cfg.jobs), seeds)
    chunks = [range(k * seeds // workers, (k + 1) * seeds // workers) for k in range(workers)]
    task = functools.partial(_seed_by_seed_on_failure, functools.partial(run, variants))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(task, chunks))
    else:
        per_chunk = [task(chunk) for chunk in chunks]
    return [row for v in range(len(variants)) for rows in per_chunk for row in rows[v]]


def _emit_lines(lines: list[str], output: str) -> None:
    if output:
        with open(output, "w") as handle:
            handle.writelines(line + "\n" for line in lines)
    else:
        for line in lines:
            print(line)


def _cmd_vendi(args) -> int:
    if args.kernel == "rbf" and args.bandwidth is None:
        raise _UsageError("--kernel rbf requires --bandwidth")
    batch = ContextBatch(read_vector_csv(args.input))
    if args.kernel == "cosine":
        kernel = cosine_kernel(batch)
    else:
        kernel = rbf_kernel(batch, args.bandwidth)
    value = entropy_and_score(kernel)
    print(json.dumps({"entropy": value.entropy, "score": value.score}))
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    # a check that compares nothing must not read as passed
    if args.seeds < 1:
        raise _UsageError(f"seeds must be >= 1, got {args.seeds}")
    if args.batch < 2:
        raise _UsageError(f"batch must be >= 2, got {args.batch}")
    if args.dim < 1:
        raise _UsageError(f"dim must be >= 1, got {args.dim}")
    if not (np.isfinite(args.fd_step) and args.fd_step > 0.0):
        raise _UsageError(f"fd-step must be finite and positive, got {args.fd_step}")
    worst = 0.0
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((args.batch, args.dim))
        batch = ContextBatch(vectors)
        analytic = entropy_gradient(batch)

        fd = np.zeros_like(vectors)
        for i in range(args.batch):
            for j in range(args.dim):
                bump = np.zeros_like(vectors)
                bump[i, j] = args.fd_step
                high = entropy_and_score(cosine_kernel(ContextBatch(vectors + bump))).entropy
                low = entropy_and_score(cosine_kernel(ContextBatch(vectors - bump))).entropy
                fd[i, j] = (high - low) / (2.0 * args.fd_step)
        scale = float(np.max(np.abs(analytic)))
        err = float(np.max(np.abs(fd - analytic))) / max(scale, 1e-30)
        worst = max(worst, err)
    print(
        json.dumps(
            {
                "max_relative_error": worst,
                "batch": args.batch,
                "dim": args.dim,
                "seeds": args.seeds,
                "fd_step": args.fd_step,
            }
        )
    )
    if worst > GRAD_CHECK_THRESHOLD:
        _fail(f"max relative error {worst:.3e} exceeds {GRAD_CHECK_THRESHOLD}")
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_repulse(args) -> int:
    batch = ContextBatch(read_vector_csv(args.input))
    cfg = RepulsionConfig(
        eta=args.eta,
        inner_steps=args.steps,
        gradient_normalization=args.normalize,
    )
    updated = repulse(batch, cfg)
    write_vector_csv(args.output, updated.vectors)
    return EXIT_OK


def _check_toy_batch(cfg: ExperimentConfig) -> None:
    """The toy commands' one rule on ``toy_batch`` and the step index,
    checked before any work."""
    if cfg.toy_batch < 1:
        raise _UsageError(f"toy_batch must be >= 1, got {cfg.toy_batch}")
    if not 0 <= cfg.toy_step_index < cfg.toy_total_steps:
        raise _UsageError(
            f"toy_step_index must satisfy 0 <= toy_step_index < toy_total_steps, "
            f"got {cfg.toy_step_index} for toy_total_steps {cfg.toy_total_steps}"
        )


def _toy_inputs(cfg: ExperimentConfig, weight_seed: int, noise_base: int):
    """Weights, the batch's shared prompt encoding and its image tokens.

    Sample i's image noise is seeded with ``noise_base + i``.
    """
    model_cfg = dataclasses.replace(_toy_config(cfg), weight_seed=weight_seed)
    weights = toydit.init_weights(model_cfg)
    prompt = toydit.encode_prompt(model_cfg, cfg.toy_prompt_id)
    images = np.stack(
        [toydit.seed_image_tokens(model_cfg, noise_base + i) for i in range(cfg.toy_batch)]
    )
    return weights, prompt, images


def _toy_snapshots(cfg: ExperimentConfig, inputs, repulsion: RepulsionConfig | None):
    """The snapshots of one forward pass over ``_toy_inputs`` or a seed stack
    of them; the inputs are not changed."""
    weights, prompt, images = inputs
    _, snapshots = toydit.forward_with_hooks(
        [prompt] * cfg.toy_batch,
        images,
        weights,
        repulsion,
        step_index=cfg.toy_step_index,
        total_steps=cfg.toy_total_steps,
    )
    return snapshots


def _snapshot_score(vectors: np.ndarray) -> float:
    """Vendi score of one batch of snapshot rows (B, N * D)."""
    return entropy_and_score(cosine_kernel(ContextBatch(vectors))).score


def _cmd_toy_run(args) -> int:
    cfg = _config(args)
    snapshots_path = _required_output(args, cfg, "output_snapshots")
    _check_toy_batch(cfg)
    inputs = _toy_inputs(cfg, cfg.toy_seed, cfg.seed_start)
    snaps_on = _toy_snapshots(cfg, inputs, repulsion_from_config(cfg))
    snaps_off = _toy_snapshots(cfg, inputs, None)
    off_scores = {(s.block_index, s.stream): _snapshot_score(s.vectors) for s in snaps_off}
    lines = []
    for snap in snaps_on:
        lines.append(
            json.dumps(
                {
                    "block": snap.block_index,
                    "stream": snap.stream,
                    "vendi_with_repulsion": _snapshot_score(snap.vectors),
                    "vendi_without_repulsion": off_scores[(snap.block_index, snap.stream)],
                }
            )
        )

    d = cfg.toy_dim
    _write_csv(
        snapshots_path,
        ["sample", "block", "stream", "token", "dim", "value"],
        ([sample, snap.block_index, snap.stream, i // d, i % d, repr(float(value))]
         for snap in snaps_on
         for sample, row in enumerate(snap.vectors)
         for i, value in enumerate(row)),
    )
    try:
        _emit_lines(lines, cfg.output_report)
    except OSError:
        # a failed run leaves no partial output set
        os.remove(snapshots_path)
        raise
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _config(args)
    if cfg.method not in gmmflow.METHODS:
        raise _UsageError(f"unknown method {cfg.method!r}")
    records = _sweep(cfg, [cfg], _simulate_seeds)
    _emit_lines([json.dumps(r) for r in records], cfg.output)
    return EXIT_OK


def _check_sweep(cfg: ExperimentConfig, axis: str) -> None:
    """Reject a swept value that no run of ``cfg.method`` takes, naming its
    key, before any run."""
    if axis == "batch":
        for size in cfg.sweep_batch_sizes:
            if size < 1:
                raise _UsageError(f"sweep_batch_sizes entries must be >= 1, got {size}")
    elif cfg.method != "none":
        # the window the method's runs read, checked by the one interval rule
        window = "cads" if cfg.method == "cads" else "timestep"
        for interval in cfg.sweep_intervals:
            try:
                check_interval(interval, window)
            except ValueError as exc:
                raise _UsageError(f"{exc} in sweep_intervals") from None


def _ablate_rows_gmm(cfg: ExperimentConfig, axis: str) -> tuple[list[str], list[list]]:
    _check_sweep(cfg, axis)
    metrics = [field.name for field in dataclasses.fields(gmmflow.RunMetrics)]
    if axis == "timestep":
        variants = [
            (f"{a:g}:{b:g}", dataclasses.replace(
                cfg, repulsion_interval=(a, b), latent_interval=(a, b), cads_interval=(a, b)
            ))
            for a, b in cfg.sweep_intervals
        ]
    else:
        variants = [
            (str(size), dataclasses.replace(cfg, batch_size=size)) for size in cfg.sweep_batch_sizes
        ]
    records = _sweep(cfg, [v for _, v in variants], _simulate_seeds)
    labels = [label for label, _ in variants for _ in range(cfg.seeds)]
    rows = [
        [axis, label, record["seed"], *(record[k] for k in metrics)]
        for label, record in zip(labels, records)
    ]
    return ["axis", "value", "seed", *metrics], rows


def _block_group_rows(
    cfg: ExperimentConfig, repulsions: list[RepulsionConfig], run_ids: range
) -> list[list[list]]:
    """For each block group, the rows of runs ``run_ids``; the seeds' inputs
    are built once and each group runs as one (S, B, N, D) forward pass."""
    seeds = [cfg.seed_start + i for i in run_ids]
    # vary weights and image noise together per seed
    per_seed = [_toy_inputs(cfg, cfg.toy_seed + seed, seed * 1000) for seed in seeds]
    prompts = np.stack([prompt.tokens for _, prompt, _ in per_seed])
    inputs = (
        toydit.stack_weights([weights for weights, _, _ in per_seed]),
        toydit.PromptEncoding(cfg.toy_prompt_id, prompts),
        np.stack([images for _, _, images in per_seed]),
    )
    groups = []
    for repulsion in repulsions:
        final = [s for s in _toy_snapshots(cfg, inputs, repulsion) if s.stream == "text"][-1]
        rows = []
        for seed, vectors, prompt in zip(seeds, final.vectors, prompts):
            prompt_vec = prompt.reshape(-1)
            sims = [
                float(row @ prompt_vec / (np.linalg.norm(row) * np.linalg.norm(prompt_vec)))
                for row in vectors
            ]
            rows.append([
                "blocks", repulsion.block_selector, seed, _snapshot_score(vectors),
                float(np.mean(sims)),
            ])
        groups.append(rows)
    return groups


def _ablate_rows_blocks(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    _check_toy_batch(cfg)
    header = ["axis", "value", "seed", "text_vendi", "prompt_similarity"]
    base = repulsion_from_config(cfg)
    repulsions = [
        dataclasses.replace(base, block_selector=group) for group in cfg.sweep_block_groups
    ]
    return header, _sweep(cfg, repulsions, functools.partial(_block_group_rows, cfg))


def _cmd_ablate(args) -> int:
    cfg = _config(args)
    output = _required_output(args, cfg)
    if args.axis == "blocks":
        header, rows = _ablate_rows_blocks(cfg)
    else:
        header, rows = _ablate_rows_gmm(cfg, args.axis)
    _write_csv(output, header, rows)
    return EXIT_OK


def _cmd_steer(args) -> int:
    cfg = _config(args)
    output = _required_output(args, cfg)
    world = _world_from_config(cfg)
    spec = steering.SteeringSpec(
        alpha=args.alpha, space=args.space, apply_interval=args.apply_interval
    )
    trajectory = steering.steered_run(
        world, args.source_seed, args.target_seed, spec, prompt_strength=cfg.prompt_strength
    )
    _write_csv(
        output,
        ["step", "time", "zx", "zy"],
        ([j, repr(float(t)), repr(float(zx)), repr(float(zy))]
         for j, (t, (zx, zy)) in enumerate(zip(trajectory.times, trajectory.latents))),
    )
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The whole parser, built once per process: parsing never changes it."""
    parser = _Parser(prog="ctxrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vendi", help="entropy and score of a sample CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", choices=("cosine", "rbf"), default="cosine")
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(func=_cmd_vendi)

    p = sub.add_parser("grad-check", help="analytic gradient vs central differences")
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("repulse", help="apply the repulsion update to a sample CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_repulse)

    p = sub.add_parser("toy-run", help="toy transformer forward with and without repulsion")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_toy_run)

    p = sub.add_parser("simulate", help="mixture-flow runs, one metrics JSON line per seed")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=gmmflow.METHODS, default=None)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ablate", help="sweep one axis, write a CSV of metrics")
    p.add_argument("--axis", choices=("timestep", "blocks", "batch"), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("steer", help="blend a source run toward a target run")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--source-seed", type=int, required=True)
    p.add_argument("--target-seed", type=int, required=True)
    p.add_argument("--space", choices=steering.SPACES, default="contextual")
    p.add_argument(
        "--apply-interval", type=parse_interval, default=steering.SteeringSpec.apply_interval
    )
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_steer)

    return parser


def run_command(argv) -> int:
    """Dispatch one CLI invocation, returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits directly for --help; keep its code
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (NonConvergence, NumericOverflow) as exc:
        _fail(str(exc))
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        # bad flags, configs and domain values, degenerate inputs, and files
        # that cannot be read or written
        _fail(str(exc))
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
