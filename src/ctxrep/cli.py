"""Command-line front end: metrics, checks, simulations, sweeps, steering.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on numeric
failures, numpy's floating-point faults included. Errors go to stderr as
single-line JSON.
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
    DegenerateVector,
    NonConvergence,
    _row_sums,
    cosine_kernel,
    rbf_kernel,
)
from .repulsion import NumericOverflow, RepulsionConfig, check_interval, repulse
from .vendi import _cosine_entropies, entropy_and_score, entropy_gradient

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAD_CHECK_THRESHOLD = 1e-4

# Bumped batches that grad-check scores in one stacked call. Each is a copy
# of one (batch, dim) batch, so memory grows as seeds * batch * dim and never
# as (batch * dim) ** 2, however many coordinates a run bumps.
_GRAD_CHECK_STACK = 256

# Runs (one variant at one seed) that pay for one worker process. A worker
# pays its own start-up, while a stacked chunk of seeds costs far less per
# seed than one seed alone, so small runs are faster in-process. Fitted on a
# 2-CPU machine, where one process and two workers cross over at 80 to 120
# runs of every command; README, `--jobs`, has the crossovers.
MIN_RUNS_PER_WORKER = 40

# numpy's floating-point faults, which a command raises as errors, in this
# process and in every worker
_FP_ERRORS = {"over": "raise", "invalid": "raise", "divide": "raise"}


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
    ``seed_start + run_id``) of its method. The variants differ at most in
    batch size and intervals, and run as the segments of one seed block."""
    cfg = variants[0]
    world = _world_from_config(cfg)
    repulsion = {"contextual": repulsion_from_config, "latent": latent_repulsion_from_config}
    segments = [
        gmmflow.Segment(
            gmmflow.one_hot_prompts(world, v.batch_size, mode=v.prompt_mode,
                                    strength=v.prompt_strength),
            repulsion[v.method](v) if v.method in repulsion else None,
            v.cads_interval,
        )
        for v in variants
    ]
    cads = _cads_from_config(cfg) if cfg.method == "cads" else None
    seeds = [cfg.seed_start + i for i in run_ids]
    per_segment = gmmflow.evaluate_segments(world, segments, cfg.method, seeds=seeds, cads=cads)
    return [
        [{"run_id": run_id, "seed": seed, "method": cfg.method, **m.as_dict()}
         for run_id, seed, m in zip(run_ids, seeds, metrics)]
        for metrics in per_segment
    ]


def _seed_by_seed_on_failure(run, variants: list, run_ids: range):
    """``run(variants, run_ids)``, which runs a chunk of seeds of every
    variant as one stacked program.

    The program stops at the first failure of any run, which need not be the
    first failing seed's, nor its first failing variant's (the blocks sweep
    walks its variants together). So a failed chunk re-runs one seed and one
    variant at a time, lowest seed first and variants in sweep order, and the
    error raised is the first failing seed's at its first failing variant, as
    when each run ran alone.
    """
    with np.errstate(**_FP_ERRORS):
        try:
            return run(variants, run_ids)
        except (ArithmeticError, ValueError):
            for run_id in run_ids:
                for variant in variants:
                    run([variant], range(run_id, run_id + 1))
            raise


def _workers(runs: int, jobs: int) -> int:
    """Worker processes for ``runs`` runs: one per ``MIN_RUNS_PER_WORKER``
    runs, at least one and at most ``jobs``."""
    return max(1, min(jobs, runs // MIN_RUNS_PER_WORKER))


def _sweep(cfg: ExperimentConfig, variants: list, run) -> list:
    """The records of ``cfg.seeds`` runs of each variant, variant then seed.

    ``run(variants, run_ids)`` returns each variant's records for one chunk
    of run ids. The seeds split into one contiguous chunk per worker, and
    each chunk runs every variant, in this process or on a pool of workers;
    an empty variant list runs no chunk. When runs fail, the error is the
    lowest failing seed's, at its first failing variant, at every ``jobs``.
    """
    seeds = cfg.seeds if variants else 0
    workers = min(_workers(seeds * len(variants), cfg.jobs), seeds)
    chunks = [range(k * seeds // workers, (k + 1) * seeds // workers) for k in range(workers)]
    task = functools.partial(_seed_by_seed_on_failure, run, variants)
    if workers > 1:
        # imported here: the pool module and its multiprocessing imports are
        # the costliest part of importing the CLI
        from concurrent.futures import ProcessPoolExecutor

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
    shape = (args.batch, args.dim)
    vectors = np.stack([np.random.default_rng(s).standard_normal(shape) for s in range(args.seeds)])
    analytic = entropy_gradient(ContextBatch(vectors))
    # central differences, each from its seed's batch with one entry moved by
    # +-fd_step; coordinate k is entry k % (batch * dim) of seed k // (batch * dim)
    flat = vectors.reshape(args.seeds, -1)
    fd = np.empty(flat.size)
    per_stack = _GRAD_CHECK_STACK // 2
    for start in range(0, flat.size, per_stack):
        seed, coord = np.divmod(np.arange(start, min(start + per_stack, flat.size)), flat.shape[1])
        n = len(seed)
        bumped = flat[np.tile(seed, 2)]
        bumped[np.arange(2 * n), np.tile(coord, 2)] += np.repeat([args.fd_step, -args.fd_step], n)
        entropy = _cosine_entropies(bumped.reshape(2 * n, *shape))
        fd[start:start + n] = (entropy[:n] - entropy[n:]) / (2.0 * args.fd_step)
    scale = np.max(np.abs(analytic), axis=(1, 2))
    errors = np.max(np.abs(fd.reshape(vectors.shape) - analytic), axis=(1, 2))
    worst = float(np.max(errors / np.maximum(scale, 1e-30)))
    print(json.dumps({"max_relative_error": worst, "batch": args.batch, "dim": args.dim,
                      "seeds": args.seeds, "fd_step": args.fd_step}))
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


def _cmd_toy_run(args) -> int:
    cfg = _config(args)
    snapshots_path = _required_output(args, cfg, "output_snapshots")
    _check_toy_batch(cfg)
    weights, state = toydit.seed_stack(_toy_config(cfg), cfg.toy_prompt_id, cfg.toy_batch,
                                       [(cfg.toy_seed, cfg.seed_start)])
    snaps_on, snaps_off = toydit.forward_configs(state, weights, [repulsion_from_config(cfg), None],
                                                 cfg.toy_step_index, cfg.toy_total_steps)
    # one stacked score per stream, as text and image rows differ in width;
    # each block records a text and then an image snapshot
    scores = np.empty((2, len(snaps_on)))
    for first in (0, 1):
        rows = [s.vectors[0] for snaps in (snaps_on, snaps_off) for s in snaps[first::2]]
        scores[:, first::2] = np.exp(_cosine_entropies(rows)).reshape(2, -1)
    lines = [
        json.dumps({"block": snap.block_index, "stream": snap.stream,
                    "vendi_with_repulsion": on, "vendi_without_repulsion": off})
        for snap, on, off in zip(snaps_on, *scores.tolist())
    ]

    d = cfg.toy_dim
    _write_csv(
        snapshots_path,
        ["sample", "block", "stream", "token", "dim", "value"],
        ([sample, snap.block_index, snap.stream, i // d, i % d, repr(float(value))]
         for snap in snaps_on
         for sample, row in enumerate(snap.vectors[0])
         for i, value in enumerate(row)),
    )
    try:
        _emit_lines(lines, cfg.output_report)
    except OSError:
        # a failed run leaves no partial output set
        os.remove(snapshots_path)
        raise
    return EXIT_OK


def _variants(cfg: ExperimentConfig, axis: str | None = None) -> list[tuple[str, object]]:
    """The labelled variants of a seeded command: ``simulate``'s one config
    (no ``axis``), or one per swept value of ``ablate --axis``.

    Before any run, at any seed count, it rejects an unknown method for
    every mixture command, and a swept value that no run takes, naming its
    key. Then it builds what each variant's runs build, in their order and
    with their constructors, so that a value outside the maths fails with
    the runs' message at zero seeds too.
    """
    if axis == "blocks":
        _check_toy_batch(cfg)
        base = repulsion_from_config(cfg)
        try:
            variants = [(group, dataclasses.replace(base, block_selector=group))
                        for group in cfg.sweep_block_groups]
        except ValueError as exc:
            raise _UsageError(f"{exc} in sweep_block_groups") from None
        if variants:
            _toy_config(cfg)
        return variants
    if cfg.method not in gmmflow.METHODS:
        raise _UsageError(f"unknown method {cfg.method!r}")
    if axis == "batch":
        for size in cfg.sweep_batch_sizes:
            if size < 1:
                raise _UsageError(f"sweep_batch_sizes entries must be >= 1, got {size}")
        variants = [(str(size), dataclasses.replace(cfg, batch_size=size))
                    for size in cfg.sweep_batch_sizes]
    elif axis == "timestep":
        if cfg.method != "none":
            # the window the method's runs read, checked by the one interval rule
            window = "cads" if cfg.method == "cads" else "timestep"
            for interval in cfg.sweep_intervals:
                try:
                    check_interval(interval, window)
                except ValueError as exc:
                    raise _UsageError(f"{exc} in sweep_intervals") from None
        variants = [
            (f"{a:g}:{b:g}", dataclasses.replace(
                cfg, repulsion_interval=(a, b), latent_interval=(a, b), cads_interval=(a, b)
            ))
            for a, b in cfg.sweep_intervals
        ]
    else:
        variants = [("", cfg)]
    # no run ids: each variant's world, prompts, repulsion and cads params,
    # checked as a failed chunk re-runs them, variant by variant
    for _, variant in variants:
        _simulate_seeds([variant], range(0))
    return variants


def _cmd_simulate(args) -> int:
    cfg = _config(args)
    records = _sweep(cfg, [variant for _, variant in _variants(cfg)], _simulate_seeds)
    _emit_lines([json.dumps(r) for r in records], cfg.output)
    return EXIT_OK


def _block_group_seeds(
    cfg: ExperimentConfig, repulsions: list[RepulsionConfig], run_ids: range
) -> list[list[dict]]:
    """For each block group, the records of runs ``run_ids``; the seed stack
    is drawn once, all groups run in one shared walk over it, and each group
    is scored as one stack."""
    seeds = [cfg.seed_start + i for i in run_ids]
    # vary weights and image noise together per seed
    weights, state = toydit.seed_stack(_toy_config(cfg), cfg.toy_prompt_id, cfg.toy_batch,
                                       [(cfg.toy_seed + seed, seed * 1000) for seed in seeds])
    # each seed's prompt, which every sample of its batch holds
    prompts = state.text_tokens[:, :1].reshape(len(seeds), 1, -1)
    # one BLAS dot per row, as np.linalg.norm takes a vector's norm
    prompt_norms = np.sqrt(np.vecdot(prompts, prompts))
    if not prompt_norms.all():
        # a prompt with no direction has no similarity to any row
        seed = seeds[np.flatnonzero(prompt_norms == 0.0)[0]]
        raise DegenerateVector(f"zero-norm prompt encoding at seed {seed}")
    groups = []
    for snapshots in toydit.forward_configs(state, weights, repulsions, cfg.toy_step_index,
                                            cfg.toy_total_steps):
        final = [s for s in snapshots if s.stream == "text"][-1]
        vendi = np.exp(_cosine_entropies(final.vectors))
        sims = np.vecdot(final.vectors, prompts) / (
            np.sqrt(np.vecdot(final.vectors, final.vectors)) * prompt_norms
        )
        similarity = _row_sums(sims) / cfg.toy_batch
        groups.append([
            {"seed": seed, "text_vendi": score, "prompt_similarity": sim}
            for seed, score, sim in zip(seeds, vendi.tolist(), similarity.tolist())
        ])
    return groups


def _cmd_ablate(args) -> int:
    cfg = _config(args)
    output = _required_output(args, cfg)
    variants = _variants(cfg, args.axis)
    if args.axis == "blocks":
        run = functools.partial(_block_group_seeds, cfg)
        columns = ["text_vendi", "prompt_similarity"]
    else:
        run = _simulate_seeds
        columns = [field.name for field in dataclasses.fields(gmmflow.RunMetrics)]
    records = _sweep(cfg, [variant for _, variant in variants], run)
    labels = [label for label, _ in variants for _ in range(cfg.seeds)]
    _write_csv(
        output,
        ["axis", "value", "seed", *columns],
        ([args.axis, label, record["seed"], *(record[k] for k in columns)]
         for label, record in zip(labels, records)),
    )
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
         for j, (t, (zx, zy)) in enumerate(zip(trajectory.times, trajectory.latents[:, 0]))),
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
        with np.errstate(**_FP_ERRORS):
            return args.func(args)
    except (NonConvergence, NumericOverflow) as exc:
        _fail(str(exc))
        return EXIT_NUMERIC
    except (FloatingPointError, OverflowError) as exc:
        # numpy's overflow, invalid operation or division by zero, or Python's
        # float overflow, that no check named first; the last argument is the
        # message, as Python's reads (34, 'Numerical result out of range')
        _fail(f"{args.command}: {exc.args[-1]}")
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
