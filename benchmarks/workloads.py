"""The benchmark's workloads: seeded sweeps run through the public ctxrep API.

Each workload is a list of variants (methods, batch sizes or block groups).
One run is one variant at one seed, built the way the CLI builds it, so the
records can be compared bit for bit with ``ctxrep simulate`` / ``ctxrep
ablate`` output. Functions are looked up on their module at call time
(``gmmflow.sample_batch``, not a bare name) so that the tracer's wrappers are
seen.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

from ctxrep import config, gmmflow, linalg, toydit, vendi
from ctxrep.linalg import ContextBatch, DegenerateVector, NonConvergence
from ctxrep.repulsion import NumericOverflow

# What a failed run raises; anything else is a bug and stops the benchmark.
RUN_FAILURES = (NonConvergence, NumericOverflow, DegenerateVector, ValueError)

# Copies of configs/collapse.cfg and configs/ablate_batch.cfg without their
# seed keys, which the benchmark sets from --seed. Holding them here keeps the
# inputs fixed when a later change edits the shipped configs.
COLLAPSE_CFG = """\
world_modes = 8
world_radius = 4.0
world_sigma = 0.25
world_gamma = 1.0
world_steps = 64
world_feedback = 0.5
prompt_mode = 0
prompt_strength = 10.0
batch_size = 8
method = contextual
repulsion_eta = 2.0
repulsion_steps = 2
repulsion_interval = 0:0.25
repulsion_normalize = true
latent_eta = 0.65
latent_steps = 2
latent_interval = 0:1
latent_normalize = true
cads_scale = 0.5
"""

ABLATE_BATCH_CFG = """\
world_modes = 16
world_sigma = 0.2
world_gamma = 1.0
world_steps = 64
world_feedback = 0.5
method = contextual
repulsion_eta = 3.0
repulsion_steps = 2
repulsion_interval = 0:0.25
repulsion_normalize = true
sweep_batch_sizes = 4,8,16
"""

MIXTURE_FIELDS = (
    "vendi_rbf", "mode_coverage", "off_manifold_rate",
    "mean_nearest_mode_distance", "avg_pair_vendi",
)
TOY_FIELDS = ("text_vendi", "prompt_similarity")

# Slack for range checks on scores that are exact in real arithmetic.
_RANGE_SLACK = 1e-9


def mixture_run(cfg, method: str, seed: int, batch_size: int) -> dict:
    """One seeded batch sampled and evaluated, as ``simulate`` runs it."""
    world = gmmflow.MixtureWorld(
        n_modes=cfg.world_modes,
        radius=cfg.world_radius,
        mode_sigma=cfg.world_sigma,
        guidance_gamma=cfg.world_gamma,
        n_steps=cfg.world_steps,
        feedback_scale=cfg.world_feedback,
    )
    prompts = gmmflow.one_hot_prompts(
        world, batch_size, mode=cfg.prompt_mode, strength=cfg.prompt_strength
    )
    kwargs = {}
    if method == "contextual":
        kwargs["repulsion"] = config.repulsion_from_config(cfg)
    elif method == "latent":
        kwargs["repulsion"] = config.latent_repulsion_from_config(cfg)
    elif method == "cads":
        kwargs["cads"] = gmmflow.CadsParams(
            scale=cfg.cads_scale, tau1=cfg.cads_tau1, tau2=cfg.cads_tau2, psi=cfg.cads_psi
        )
        kwargs["cads_interval"] = cfg.cads_interval
    trajectories = gmmflow.sample_batch(world, prompts, method, seed=seed, **kwargs)
    return gmmflow.evaluate(trajectories, world).as_dict()


def toy_run(cfg, group: str, seed: int) -> dict:
    """One toy forward pass with fresh weights plus its score, as ``ablate --axis blocks``."""
    model_cfg = toydit.ToyDiTConfig(
        n_text_tokens=cfg.toy_text_tokens,
        n_image_tokens=cfg.toy_image_tokens,
        token_dim=cfg.toy_dim,
        n_dual_blocks=cfg.toy_dual_blocks,
        n_single_blocks=cfg.toy_single_blocks,
        attention_heads=cfg.toy_heads,
        weight_seed=cfg.toy_seed + seed,
    )
    repulsion = dataclasses.replace(config.repulsion_from_config(cfg), block_selector=group)
    weights = toydit.init_weights(model_cfg)
    prompts = [toydit.encode_prompt(model_cfg, cfg.toy_prompt_id) for _ in range(cfg.toy_batch)]
    images = np.stack(
        [toydit.seed_image_tokens(model_cfg, seed * 1000 + i) for i in range(cfg.toy_batch)]
    )
    _, snaps = toydit.forward_with_hooks(
        prompts, images, weights, repulsion,
        step_index=cfg.toy_step_index, total_steps=cfg.toy_total_steps,
    )
    final = [s for s in snaps if s.stream == "text"][-1]
    prompt_vec = toydit.encode_prompt(model_cfg, cfg.toy_prompt_id).tokens.reshape(-1)
    sims = [
        float(row @ prompt_vec / (np.linalg.norm(row) * np.linalg.norm(prompt_vec)))
        for row in final.vectors
    ]
    kernel = linalg.cosine_kernel(ContextBatch(final.vectors))
    return {
        "text_vendi": vendi.entropy_and_score(kernel).score,
        "prompt_similarity": float(np.mean(sims)),
    }


def _read_jsonl(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@dataclasses.dataclass(frozen=True)
class Workload:
    """A sweep of variants over seeds, with its CLI twin and output check.

    The config's ``seeds`` key sets the seed block that the CLI runs and the
    benchmark compares with it: ``block_seeds`` for the end-to-end run (the
    block is also hashed into the digest), ``trace_seeds`` for the traced
    passes.
    ``slots`` names the variant behind each ``run_ms_p50.v*`` metric.
    """

    name: str
    cfg_text: str
    variants: tuple[str, ...]
    slots: tuple[str, ...]
    block_seeds: int
    trace_seeds: int

    def run(self, cfg, variant: str, seed: int) -> dict | None:
        """One run's record, or None if the run failed."""
        try:
            if self.name == "collapse":
                return mixture_run(cfg, variant, seed, cfg.batch_size)
            if self.name == "batch-sweep":
                return mixture_run(cfg, cfg.method, seed, int(variant[1:]))
            return toy_run(cfg, variant, seed)
        except RUN_FAILURES:
            return None

    def in_range(self, cfg, variant: str, record: dict) -> bool:
        """Range check of one run's outputs."""
        if not all(math.isfinite(v) for v in record.values()):
            return False
        s = _RANGE_SLACK
        if self.name == "toy-blocks":
            return (1.0 - s <= record["text_vendi"] <= cfg.toy_batch + s
                    and -1.0 - s <= record["prompt_similarity"] <= 1.0 + s)
        batch = cfg.batch_size if self.name == "collapse" else int(variant[1:])
        return (1.0 - s <= record["vendi_rbf"] <= batch + s
                and 1.0 - s <= record["avg_pair_vendi"] <= 2.0 + s
                and 0.0 <= record["off_manifold_rate"] <= 1.0
                and record["mode_coverage"] <= min(batch, cfg.world_modes))

    def cli_argvs(self, cfg_path: str, out_path: str, jobs: int) -> list[list[str]]:
        """The shipped CLI invocations that cover the config's seed block."""
        if self.name == "collapse":
            return [["simulate", "--config", cfg_path, "--method", method,
                     "--jobs", str(jobs), "--output", f"{out_path}.{method}"]
                    for method in self.variants]
        axis = "batch" if self.name == "batch-sweep" else "blocks"
        return [["ablate", "--axis", axis, "--config", cfg_path,
                 "--jobs", str(jobs), "--output", out_path]]

    def cli_records(self, out_path: str) -> dict:
        """Parse what ``cli_argvs`` wrote into {(variant, seed): record}."""
        records = {}
        if self.name == "collapse":
            for method in self.variants:
                for row in _read_jsonl(f"{out_path}.{method}"):
                    records[(method, row["seed"])] = {k: row[k] for k in MIXTURE_FIELDS}
            return records
        for row in _read_csv(out_path):
            if self.name == "batch-sweep":
                key = f"b{row['value']}"
                rec = {k: float(row[k]) for k in MIXTURE_FIELDS}
                rec["mode_coverage"] = int(row["mode_coverage"])
            else:
                key = row["value"]
                rec = {k: float(row[k]) for k in TOY_FIELDS}
            records[(key, int(row["seed"]))] = rec
        return records


WORKLOADS = {
    w.name: w
    for w in (
        Workload("collapse", COLLAPSE_CFG, ("none", "cads", "contextual", "latent"),
                 ("none", "cads", "contextual", "latent"), block_seeds=20, trace_seeds=4),
        Workload("batch-sweep", ABLATE_BATCH_CFG, ("b4", "b8", "b16"),
                 ("b4", "b8", "b16", "pooled"), block_seeds=10, trace_seeds=2),
        Workload("toy-blocks", COLLAPSE_CFG,
                 ("first_third", "middle_third", "last_third", "all"),
                 ("first_third", "middle_third", "last_third", "all"),
                 block_seeds=20, trace_seeds=5),
    )
}
