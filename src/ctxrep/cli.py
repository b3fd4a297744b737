"""Command-line front end: metrics, checks, simulations, sweeps, steering.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on numeric
check failures. Errors go to stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import gmmflow, steering, toydit
from .config import (
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
from .repulsion import NumericOverflow, RepulsionConfig, repulse
from .vendi import entropy_and_score, entropy_gradient

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAD_CHECK_THRESHOLD = 1e-4

# Runs (one variant at one seed) that pay for one worker process. A worker
# pays its own start-up, while one seed block costs barely more at 10 seeds
# than at 5, so small runs are faster in-process. Fitted on a 2-CPU machine;
# README, `--jobs`, has the crossovers.
MIN_RUNS_PER_WORKER = 10


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


def write_vector_csv(path: str, vectors: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"dim{i}" for i in range(vectors.shape[1])])
        for row in vectors:
            writer.writerow([repr(float(v)) for v in row])


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


def _simulate_seeds(cfg: ExperimentConfig, method: str, run_ids: range) -> list[dict]:
    """Records of runs ``run_ids`` (seed ``seed_start + run_id``), sampled as one seed block."""
    world = _world_from_config(cfg)
    prompts = gmmflow.one_hot_prompts(
        world, cfg.batch_size, mode=cfg.prompt_mode, strength=cfg.prompt_strength
    )
    kwargs = {}
    if method == "contextual":
        kwargs["repulsion"] = repulsion_from_config(cfg)
    elif method == "latent":
        kwargs["repulsion"] = latent_repulsion_from_config(cfg)
    elif method == "cads":
        kwargs["cads"] = _cads_from_config(cfg)
        kwargs["cads_interval"] = cfg.cads_interval
    seeds = [cfg.seed_start + i for i in run_ids]
    blocks = gmmflow.sample_seed_block(world, prompts, method, seeds=seeds, **kwargs)
    return [
        {"run_id": run_id, "seed": seed, "method": method,
         **gmmflow.evaluate(trajectories, world).as_dict()}
        for run_id, seed, trajectories in zip(run_ids, seeds, blocks)
    ]


def _run_simulation_chunk(args) -> list[dict]:
    cfg, method, run_ids = args
    try:
        return _simulate_seeds(cfg, method, run_ids)
    except (ArithmeticError, ValueError):
        # the block stops at the first failing step of any seed; re-run seed
        # by seed so that the error raised is the first failing seed's, as
        # when each seed ran on its own
        for run_id in run_ids:
            _simulate_seeds(cfg, method, range(run_id, run_id + 1))
        raise


def _workers(runs: int, jobs: int) -> int:
    """Worker processes for ``runs`` runs: one per ``MIN_RUNS_PER_WORKER``
    runs, at least one and at most ``jobs``."""
    return max(1, min(jobs, runs // MIN_RUNS_PER_WORKER))


def _seed_chunks(seeds: int, jobs: int) -> list[range]:
    """``min(jobs, seeds)`` contiguous ranges of run ids that cover ``range(seeds)``."""
    n = min(jobs, seeds)
    return [range(k * seeds // n, (k + 1) * seeds // n) for k in range(n)]


def _map_runs(work: list, jobs: int, run) -> list:
    """``run`` over the work items in order, on ``min(jobs, len(work))`` worker
    processes, or in this process when that is one."""
    workers = min(jobs, len(work))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, work))
    return [run(item) for item in work]


def _simulate_variants(
    variants: list[ExperimentConfig], method: str, seeds: int, jobs: int
) -> list[dict]:
    """Records of ``seeds`` runs of ``method`` on each config, variant then
    seed; each variant's seeds split into one contiguous chunk per worker."""
    workers = _workers(seeds * len(variants), jobs)
    work = [(cfg, method, chunk) for cfg in variants for chunk in _seed_chunks(seeds, workers)]
    return [r for chunk in _map_runs(work, workers, _run_simulation_chunk) for r in chunk]


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
    """The snapshots of one forward pass over ``_toy_inputs``; the inputs are not changed."""
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


def _snapshot_score(snapshot: toydit.StreamSnapshot) -> float:
    return entropy_and_score(cosine_kernel(ContextBatch(snapshot.vectors))).score


def _cmd_toy_run(args) -> int:
    cfg = load_config(args.config)
    inputs = _toy_inputs(cfg, cfg.toy_seed, cfg.seed_start)
    snaps_on = _toy_snapshots(cfg, inputs, repulsion_from_config(cfg))
    snaps_off = _toy_snapshots(cfg, inputs, None)

    toydit.write_snapshots_csv(snaps_on, cfg.output_snapshots, _toy_config(cfg))
    off_scores = {(s.block_index, s.stream): _snapshot_score(s) for s in snaps_off}
    lines = []
    for snap in snaps_on:
        lines.append(
            json.dumps(
                {
                    "block": snap.block_index,
                    "stream": snap.stream,
                    "vendi_with_repulsion": _snapshot_score(snap),
                    "vendi_without_repulsion": off_scores[(snap.block_index, snap.stream)],
                }
            )
        )
    _emit_lines(lines, cfg.output_report)
    return EXIT_OK


def _seeds_and_jobs(args, cfg: ExperimentConfig) -> tuple[int, int]:
    """Seed count and worker ceiling, flags over config keys; bad values are usage errors."""
    seeds = getattr(args, "seeds", None)
    seeds = cfg.seeds if seeds is None else seeds
    jobs = cfg.jobs if args.jobs is None else args.jobs
    if seeds < 0:
        raise _UsageError(f"seeds must be >= 0, got {seeds}")
    if jobs < 1:
        raise _UsageError(f"jobs must be >= 1, got {jobs}")
    return seeds, jobs


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    method = args.method or cfg.method
    if method not in gmmflow.METHODS:
        raise _UsageError(f"unknown method {method!r}")
    seeds, jobs = _seeds_and_jobs(args, cfg)
    records = _simulate_variants([cfg], method, seeds, jobs)
    _emit_lines([json.dumps(r) for r in records], args.output or cfg.output)
    return EXIT_OK


def _ablate_rows_gmm(cfg: ExperimentConfig, axis: str, jobs: int) -> tuple[list[str], list[dict]]:
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
    records = _simulate_variants([variant for _, variant in variants], cfg.method, cfg.seeds, jobs)
    labels = [label for label, _ in variants for _ in range(cfg.seeds)]
    rows = [
        {"axis": axis, "value": label, "seed": record["seed"], **{k: record[k] for k in metrics}}
        for label, record in zip(labels, records)
    ]
    return ["axis", "value", "seed", *metrics], rows


def _run_block_groups(args) -> list[dict]:
    """One seed's row for each block group, all on the seed's one set of inputs."""
    cfg, repulsions, seed = args
    # vary weights and image noise together per seed
    inputs = _toy_inputs(cfg, cfg.toy_seed + seed, seed * 1000)
    prompt_vec = inputs[1].tokens.reshape(-1)
    rows = []
    for repulsion in repulsions:
        final = [s for s in _toy_snapshots(cfg, inputs, repulsion) if s.stream == "text"][-1]
        sims = [
            float(row @ prompt_vec / (np.linalg.norm(row) * np.linalg.norm(prompt_vec)))
            for row in final.vectors
        ]
        rows.append({
            "axis": "blocks",
            "value": repulsion.block_selector,
            "seed": seed,
            "text_vendi": _snapshot_score(final),
            "prompt_similarity": float(np.mean(sims)),
        })
    return rows


def _ablate_rows_blocks(cfg: ExperimentConfig, jobs: int) -> tuple[list[str], list[dict]]:
    header = ["axis", "value", "seed", "text_vendi", "prompt_similarity"]
    base = repulsion_from_config(cfg)
    repulsions = [
        dataclasses.replace(base, block_selector=group) for group in cfg.sweep_block_groups
    ]
    work = [(cfg, repulsions, cfg.seed_start + i) for i in range(cfg.seeds)]
    per_seed = _map_runs(work, _workers(cfg.seeds * len(repulsions), jobs), _run_block_groups)
    # group-then-seed order
    return header, [rows[g] for g in range(len(repulsions)) for rows in per_seed]


def _cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    _, jobs = _seeds_and_jobs(args, cfg)
    if args.axis == "blocks":
        header, rows = _ablate_rows_blocks(cfg, jobs)
    else:
        header, rows = _ablate_rows_gmm(cfg, args.axis, jobs)
    output = args.output or cfg.output
    if not output:
        raise _UsageError("ablate requires an output path (--output or config `output`)")
    with open(output, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _cmd_steer(args) -> int:
    cfg = load_config(args.config)
    world = _world_from_config(cfg)
    spec = steering.SteeringSpec(
        alpha=args.alpha, space=args.space, apply_interval=args.apply_interval
    )
    trajectory = steering.steered_run(
        world, args.source_seed, args.target_seed, spec, prompt_strength=cfg.prompt_strength
    )
    output = args.output or cfg.output
    if not output:
        raise _UsageError("steer requires an output path (--output or config `output`)")
    with open(output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "time", "zx", "zy"])
        for j, t in enumerate(trajectory.times):
            writer.writerow(
                [j, repr(float(t)), repr(float(trajectory.latents[j, 0])), repr(float(trajectory.latents[j, 1]))]
            )
    return EXIT_OK


def _build_parser() -> _Parser:
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
