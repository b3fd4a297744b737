"""Independent oracles used by the tests.

These deliberately avoid the production code path they check: gradients
come from central finite differences and numpy's LAPACK eigenvalues, while
scores and gradient eigenpairs (which the package takes from LAPACK) are
checked against the Jacobi solver. Eigenvectors are fixed only up to sign, so
a test that compares them compares both solvers' columns in the sign form of
``canonical_signs``; the package itself keeps LAPACK's signs, which its
gradient cannot see. The one-draw-at-a-time generator normals, the
pair-by-pair Vendi average, the serial blocks ablation and the seed-by-seed
simulation records are the straightforward forms of what the package
computes in blocks or shares; the tests hold those forms to them. So is
``batch_metrics``, the per-batch scoring that ``gmmflow`` now runs on a stack
of seeds.
``SplitMix64`` and ``normal_array`` are the toy model's random source as it
was before it drew from numpy's PCG64 generator: a SplitMix64 stream mapped
to normals by Box-Muller on libm, one draw at a time. Patched into
``toydit``, they reproduce the digests recorded on that stream, so that
moving to numpy's generator is shown to be the only source of changed toy
bits; they also chain ``derive_seed``'s mixer.
The einsum joint attention is the straightforward form of the toy model's
stacked-matmul attention; it sums in another order, so the tests hold the
shipped form to it within a roundoff tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from ctxrep import gmmflow, toydit
from ctxrep.config import latent_repulsion_from_config, repulsion_from_config
from ctxrep.linalg import (
    ContextBatch,
    SymMatrix,
    _eigh_descending,
    cosine_kernel,
    jacobi_eigh,
    rbf_kernel,
)
from ctxrep.repulsion import RepulsionConfig
from ctxrep.vendi import average_pair_vendi, entropy_and_score

EIGENVALUE_FLOOR = 1e-12
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream (Steele, Lea & Flood 2014): the state advances by
    the golden-ratio increment and each output is the mixed state.

    ``_spare`` holds the unused Box-Muller sine of the last pair drawn by
    :func:`next_gauss`, which the next draw returns first.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare: float | None = None

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def generator_normals(generator, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """``ctxrep.rng.normal_array`` one scalar ``standard_normal`` draw at a time."""
    count = int(np.prod(shape, dtype=np.int64))
    values = [generator.standard_normal() * scale for _ in range(count)]
    return np.array(values, dtype=float).reshape(shape)


def next_unit(rng) -> float:
    """One SplitMix64 draw mapped by its top 53 bits into (0, 1]."""
    return ((rng.next_uint64() >> 11) + 1) * (1.0 / (1 << 53))


def next_gauss(rng) -> float:
    """One Box-Muller standard normal, cosine first, keeping the sine as spare."""
    if rng._spare is not None:
        value, rng._spare = rng._spare, None
        return value
    u1 = next_unit(rng)
    u2 = next_unit(rng)
    radius = math.sqrt(-2.0 * math.log(u1))
    angle = 2.0 * math.pi * u2
    rng._spare = radius * math.sin(angle)
    return radius * math.cos(angle)


def normal_array(rng, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """``shape`` filled row-major with scaled Box-Muller normals from the
    :class:`SplitMix64` ``rng``, one scalar draw at a time."""
    count = int(np.prod(shape, dtype=np.int64))
    values = [scale * next_gauss(rng) for _ in range(count)]
    return np.array(values, dtype=float).reshape(shape)


def einsum_joint_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """``ctxrep.toydit._joint_attention`` as two ellipsis einsums over a tokens-first layout."""
    *lead, n_tokens, dim = q.shape
    head_dim = dim // heads
    qh = q.reshape(*lead, n_tokens, heads, head_dim)
    kh = k.reshape(*lead, n_tokens, heads, head_dim)
    vh = v.reshape(*lead, n_tokens, heads, head_dim)
    scores = np.einsum("...thd,...shd->...hts", qh, kh) / np.sqrt(head_dim)
    scores = scores - np.max(scores, axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / np.sum(weights, axis=-1, keepdims=True)
    out = np.einsum("...hts,...shd->...thd", weights, vh)
    return out.reshape(*lead, n_tokens, dim)


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Eigenvector columns with whole columns negated so that each column's
    first component larger than 1e-12 in magnitude is non-negative."""
    # a unit column always has a component above 1e-12, so argmax finds it
    leading = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(leading < 0.0, -1.0, 1.0)


def canonical_eigh(m: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The package's LAPACK eigenpairs of ``m``, with ``canonical_signs``."""
    eigenvalues, vectors = _eigh_descending(m.entries)
    return eigenvalues, canonical_signs(vectors)


def jacobi_entropy(k: np.ndarray) -> float:
    """Floored spectral entropy of K/B from the Jacobi solver, not LAPACK."""
    lam = jacobi_eigh(SymMatrix(k / k.shape[0]))[0]
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    entropy = max(float(-np.sum(lam * np.log(safe))), 0.0)
    return 0.0 if entropy < 1e-14 else entropy


def average_pair_vendi_loop(points, kernel_kind: str = "cosine", bandwidth=None) -> float:
    """Mean 2-sample score, one Jacobi-solved 2 x 2 kernel per pair."""
    if kernel_kind == "cosine":
        full = cosine_kernel(points).entries
    else:
        full = rbf_kernel(points, bandwidth).entries
    b = points.batch_size
    total = 0.0
    count = 0
    for i in range(b - 1):
        for j in range(i + 1, b):
            k_ij = full[i, j]
            total += math.exp(jacobi_entropy(np.array([[1.0, k_ij], [k_ij, 1.0]])))
            count += 1
    return total / count


def entropy_of_vectors(vectors: np.ndarray) -> float:
    """Spectral entropy of the batch cosine kernel via numpy's eigvalsh."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    kernel = unit @ unit.T
    np.fill_diagonal(kernel, 1.0)
    lam = np.linalg.eigvalsh(kernel / vectors.shape[0])
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    return float(max(-np.sum(lam * np.log(safe)), 0.0))


def fd_entropy_gradient(vectors: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of the batch entropy, one coordinate at a time.

    All perturbed batches are evaluated in one stacked eigvalsh call so the
    full acceptance grid stays fast.
    """
    b, nd = vectors.shape
    n_pert = 2 * b * nd
    stack = np.broadcast_to(vectors, (n_pert, b, nd)).copy()
    signs = np.empty(n_pert)
    idx = 0
    for i in range(b):
        for j in range(nd):
            stack[idx, i, j] += step
            signs[idx] = 1.0
            stack[idx + 1, i, j] -= step
            signs[idx + 1] = -1.0
            idx += 2

    norms = np.linalg.norm(stack, axis=2, keepdims=True)
    unit = stack / norms
    kernels = np.einsum("pik,pjk->pij", unit, unit)
    diag = np.arange(b)
    kernels[:, diag, diag] = 1.0
    lam = np.linalg.eigvalsh(kernels / b)
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    entropies = -np.sum(lam * np.log(safe), axis=1)

    diff = entropies[0::2] - entropies[1::2]
    return (diff / (2.0 * step)).reshape(b, nd)


def entropy_gradient_with(vectors: np.ndarray, solver) -> np.ndarray:
    """The analytic entropy gradient with eigenpairs of K/B from ``solver``,
    which maps a :class:`SymMatrix` to descending eigenvalues and eigenvector
    columns, as ``jacobi_eigh`` and ``canonical_eigh`` do.

    Kernel and unit rows come from ``cosine_kernel`` and a separate
    normalisation, not from the package's shared helper.
    """
    b = vectors.shape[0]
    norms = np.linalg.norm(vectors, axis=1)
    unit = vectors / norms[:, None]
    kernel = cosine_kernel(ContextBatch(vectors)).entries
    eigenvalues, u = solver(SymMatrix(kernel / b))
    safe = np.maximum(eigenvalues, EIGENVALUE_FLOOR)
    f_prime = -(np.log(safe) + 1.0)
    dl_dk = (u * f_prime) @ u.T / b
    off = dl_dk.copy()
    np.fill_diagonal(off, 0.0)
    radial = np.sum(off * kernel, axis=1)
    return 2.0 * (off @ unit - radial[:, None] * unit) / norms[:, None]


def ablate_blocks_rows(cfg) -> list[dict]:
    """``ctxrep ablate --axis blocks`` rows, serially, encoding the prompt B + 1 times."""
    base = repulsion_from_config(cfg)
    rows = []
    for group in cfg.sweep_block_groups:
        for i in range(cfg.seeds):
            seed = cfg.seed_start + i
            model_cfg = toydit.ToyDiTConfig(
                n_text_tokens=cfg.toy_text_tokens,
                n_image_tokens=cfg.toy_image_tokens,
                token_dim=cfg.toy_dim,
                n_dual_blocks=cfg.toy_dual_blocks,
                n_single_blocks=cfg.toy_single_blocks,
                attention_heads=cfg.toy_heads,
                weight_seed=cfg.toy_seed + seed,
            )
            repulsion = RepulsionConfig(
                eta=base.eta,
                inner_steps=base.inner_steps,
                timestep_interval=base.timestep_interval,
                block_selector=group,
                target_stream=base.target_stream,
                gradient_normalization=base.gradient_normalization,
            )
            weights = toydit.init_weights(model_cfg)
            prompts = [
                toydit.encode_prompt(model_cfg, cfg.toy_prompt_id) for _ in range(cfg.toy_batch)
            ]
            images = np.stack(
                [toydit.seed_image_tokens(model_cfg, seed * 1000 + j) for j in range(cfg.toy_batch)]
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
            rows.append(
                {
                    "axis": "blocks",
                    "value": group,
                    "seed": seed,
                    "text_vendi": entropy_and_score(cosine_kernel(ContextBatch(final.vectors))).score,
                    "prompt_similarity": float(np.mean(sims)),
                }
            )
    return rows


def simulation_record(cfg, method: str, run_id: int) -> dict:
    """One ``ctxrep simulate`` record, from ``sample_batch`` at the run's own seed."""
    world = gmmflow.MixtureWorld(
        n_modes=cfg.world_modes,
        radius=cfg.world_radius,
        mode_sigma=cfg.world_sigma,
        guidance_gamma=cfg.world_gamma,
        n_steps=cfg.world_steps,
        feedback_scale=cfg.world_feedback,
    )
    prompts = gmmflow.one_hot_prompts(
        world, cfg.batch_size, mode=cfg.prompt_mode, strength=cfg.prompt_strength
    )
    kwargs = {
        "none": {},
        "contextual": {"repulsion": repulsion_from_config(cfg)},
        "latent": {"repulsion": latent_repulsion_from_config(cfg)},
        "cads": {
            "cads": gmmflow.CadsParams(
                scale=cfg.cads_scale, tau1=cfg.cads_tau1, tau2=cfg.cads_tau2, psi=cfg.cads_psi
            ),
            "cads_interval": cfg.cads_interval,
        },
    }[method]
    seed = cfg.seed_start + run_id
    trajectories = gmmflow.sample_batch(world, prompts, method, seed=seed, **kwargs)
    metrics = gmmflow.evaluate(trajectories, world).as_dict()
    return {"run_id": run_id, "seed": seed, "method": method, **metrics}


def batch_metrics(trajectories, world) -> dict:
    """``gmmflow.evaluate``'s record of one batch, scored on its own through
    the public kernel and score functions."""
    finals = np.stack([tr.latents[-1] for tr in trajectories])
    batch = finals.shape[0]
    diff = finals[:, None, :] - world.mode_centers[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    nearest = np.argmin(dist, axis=1)
    nearest_dist = dist[np.arange(batch), nearest]
    on_manifold = nearest_dist <= 3.0 * world.mode_sigma
    kernel = rbf_kernel(ContextBatch(finals), world.radius / 2.0)
    return {
        "vendi_rbf": float(entropy_and_score(kernel).score),
        "mode_coverage": int(np.count_nonzero(
            np.bincount(nearest[on_manifold], minlength=world.n_modes))),
        "off_manifold_rate": float(np.mean(~on_manifold)),
        "mean_nearest_mode_distance": float(np.mean(nearest_dist)),
        "avg_pair_vendi": float(average_pair_vendi(kernel)) if batch >= 2 else 1.0,
    }
