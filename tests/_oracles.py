"""Independent oracles used by the tests.

These deliberately avoid the production code path they check: gradients
come from central finite differences and numpy's LAPACK eigenvalues, while
scores and gradient eigenpairs (which the package takes from LAPACK) are
checked against the Jacobi solver. Eigenvectors are fixed only up to sign, so
a test that compares them compares both solvers' columns in the sign form of
``canonical_signs``; the package itself keeps LAPACK's signs, which its
gradient cannot see. The one-draw-at-a-time generator normals, the
pair-by-pair Vendi average, the serial blocks ablation, the snapshot-by-snapshot
toy run, the coordinate-by-coordinate gradient check and the seed-by-seed
simulation records are the straightforward forms of what the package
computes in blocks or shares; the tests hold those forms to them. So is
``batch_metrics``, the per-batch scoring that ``gmmflow`` now runs on a stack
of seeds, and ``cads_run``, the one-step-at-a-time cads loop whose
corruption ``gmmflow`` now builds once per run. ``cads_run`` takes its
offsets, posterior means and step scalars from its own copies,
``offsets_rows``, ``denoise_rows`` and ``step_scalars``: the sample-major
(..., B, K, 2) step that ``gmmflow`` ran before it laid the offsets out
coordinate-major, with s_t^2 computed per scalar.
``SplitMix64`` and ``normal_array`` are the toy model's random source as it
was before it drew from numpy's PCG64 generator: a SplitMix64 stream mapped
to normals by Box-Muller on libm, one draw at a time. Patched into
``toydit``, they reproduce the digests recorded on that stream, so that
moving to numpy's generator is shown to be the only source of changed toy
bits; they also chain ``derive_seed``'s mixer, and feed ``pcg64_state``, the
Python-int form of how ``seeded_generator`` seeds numpy's PCG64.
The einsum joint attention is the straightforward form of the toy model's
stacked-matmul attention; it sums in another order, so the tests hold the
shipped form to it within a roundoff tolerance. ``row_sums_loop`` is
``linalg._row_sums`` as it was before it reduced a whole stack in one call:
one 1-D sum per row. ``fail_lapack`` is not an oracle but a fault: it makes
one of the LAPACK gufuncs ``linalg`` calls fail as LAPACK fails.
"""

from __future__ import annotations

import math

import numpy as np

import ctxrep.linalg
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
from ctxrep.repulsion import RepulsionConfig, fraction_in_interval
from ctxrep.rng import derive_seed
from ctxrep.vendi import average_pair_vendi, entropy_and_score, entropy_gradient

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


# PCG64's 128-bit LCG multiplier (O'Neill's PCG, as numpy's pcg64.h sets it)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def pcg64_state(seed: int) -> dict:
    """The bit generator state ``ctxrep.rng.seeded_generator(seed)`` holds,
    in Python ints: numpy's four-word PCG64 seeding fed by the first four
    :class:`SplitMix64` outputs at ``seed``. The first two words are the
    initial state and the last two the stream; the increment is the stream
    shifted up by one with its low bit set, and the state is stepped once
    from 0, then the initial state is added, then stepped again."""
    stream = SplitMix64(seed)
    w0, w1, w2, w3 = (stream.next_uint64() for _ in range(4))
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128

    def step(state: int) -> int:
        return (state * PCG64_MULTIPLIER + inc) & _MASK128

    state = step((step(0) + ((w0 << 64) | w1)) & _MASK128)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


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


def normal_array(rng, shape: tuple[int, ...], scale: float = 1.0, out=None) -> np.ndarray:
    """``shape`` filled row-major with scaled Box-Muller normals from the
    :class:`SplitMix64` ``rng``, one scalar draw at a time; written into
    ``out`` and returned if given, as ``ctxrep.rng.normal_array`` does."""
    count = int(np.prod(shape, dtype=np.int64))
    values = np.array([scale * next_gauss(rng) for _ in range(count)], dtype=float).reshape(shape)
    if out is None:
        return values
    out[...] = values
    return out


def row_sums_loop(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, one 1-D ``np.add.reduce`` per row."""
    sums = np.empty(a.shape[:-1])
    for index in np.ndindex(sums.shape):
        sums[index] = np.add.reduce(a[index])
    return sums


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


def fail_lapack(monkeypatch, gufunc: str) -> None:
    """Make ``ctxrep.linalg``'s LAPACK gufunc ``gufunc`` (``"_eigh_lo"`` or
    ``"_eigvalsh_lo"``) fail with the gufunc's real failure signal: the
    stand-in runs the real gufunc on a NaN matrix, which returns NaN output
    and sets the invalid flag."""
    real = getattr(ctxrep.linalg, gufunc)

    def failing(a, **kwargs):
        # LAPACK fails on a NaN matrix from 3 x 3 up; a smaller one comes
        # back as NaN with no failure
        size = max(a.shape[-1], 3)
        return real(np.full(a.shape[:-2] + (size, size), np.nan), **kwargs)

    monkeypatch.setattr(ctxrep.linalg, gufunc, failing)


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


def cosine_score(vectors: np.ndarray) -> float:
    """Vendi score of one (B, D) batch under the cosine kernel."""
    return entropy_and_score(cosine_kernel(ContextBatch(vectors))).score


def grad_check_record(batch: int, dim: int, seeds: int, fd_step: float) -> dict:
    """``ctxrep grad-check``'s record, one seed, one coordinate and one scored
    batch at a time."""
    worst = 0.0
    for seed in range(seeds):
        vectors = np.random.default_rng(seed).standard_normal((batch, dim))
        analytic = entropy_gradient(ContextBatch(vectors))
        fd = np.zeros_like(vectors)
        for i in range(batch):
            for j in range(dim):
                bump = np.zeros_like(vectors)
                bump[i, j] = fd_step
                high = entropy_and_score(cosine_kernel(ContextBatch(vectors + bump))).entropy
                low = entropy_and_score(cosine_kernel(ContextBatch(vectors - bump))).entropy
                fd[i, j] = (high - low) / (2.0 * fd_step)
        scale = float(np.max(np.abs(analytic)))
        err = float(np.max(np.abs(fd - analytic))) / max(scale, 1e-30)
        worst = max(worst, err)
    return {"max_relative_error": worst, "batch": batch, "dim": dim, "seeds": seeds,
            "fd_step": fd_step}


def toy_model_config(cfg, weight_seed: int) -> toydit.ToyDiTConfig:
    """The toy model of an experiment config, with weights from ``weight_seed``."""
    return toydit.ToyDiTConfig(
        n_text_tokens=cfg.toy_text_tokens,
        n_image_tokens=cfg.toy_image_tokens,
        token_dim=cfg.toy_dim,
        n_dual_blocks=cfg.toy_dual_blocks,
        n_single_blocks=cfg.toy_single_blocks,
        attention_heads=cfg.toy_heads,
        weight_seed=weight_seed,
    )


def toy_run_outputs(cfg) -> tuple[list[list], list[dict]]:
    """``ctxrep toy-run``'s snapshot CSV rows and report records, from one
    batch without a seed axis, each snapshot scored on its own."""
    model_cfg = toy_model_config(cfg, cfg.toy_seed)
    weights = toydit.init_weights(model_cfg)
    prompt = toydit.encode_prompt(model_cfg, cfg.toy_prompt_id)
    images = np.stack(
        [toydit.seed_image_tokens(model_cfg, cfg.seed_start + i) for i in range(cfg.toy_batch)]
    )
    snaps_on, snaps_off = (
        toydit.forward_with_hooks(
            [prompt] * cfg.toy_batch, images, weights, repulsion,
            step_index=cfg.toy_step_index, total_steps=cfg.toy_total_steps,
        )[1]
        for repulsion in (repulsion_from_config(cfg), None)
    )
    off_scores = {(s.block_index, s.stream): cosine_score(s.vectors) for s in snaps_off}
    report = [
        {
            "block": snap.block_index,
            "stream": snap.stream,
            "vendi_with_repulsion": cosine_score(snap.vectors),
            "vendi_without_repulsion": off_scores[(snap.block_index, snap.stream)],
        }
        for snap in snaps_on
    ]
    d = cfg.toy_dim
    rows = [
        [sample, snap.block_index, snap.stream, i // d, i % d, repr(float(value))]
        for snap in snaps_on
        for sample, row in enumerate(snap.vectors)
        for i, value in enumerate(row)
    ]
    return rows, report


def ablate_blocks_rows(cfg) -> list[dict]:
    """``ctxrep ablate --axis blocks`` rows, serially, encoding the prompt B + 1 times."""
    base = repulsion_from_config(cfg)
    rows = []
    for group in cfg.sweep_block_groups:
        for i in range(cfg.seeds):
            seed = cfg.seed_start + i
            model_cfg = toy_model_config(cfg, cfg.toy_seed + seed)
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
                    "text_vendi": cosine_score(final.vectors),
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
    finals = trajectories.latents[-1]
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


def cads_corrupt_step(prompts, mean_in, std_in, t: float, cads, noise) -> np.ndarray:
    """The prompts corrupted at the one time ``t`` by the (B, M) ``noise``."""
    gamma_c = cads.corruption(t)
    corrupted = math.sqrt(gamma_c) * prompts + cads.scale * math.sqrt(1.0 - gamma_c) * noise
    if cads.psi == 0.0:
        return corrupted
    _, centred, std_c = gmmflow._row_moments(corrupted)
    safe_std = np.where(std_c > 0.0, std_c, 1.0)
    rescaled = centred / safe_std * std_in + mean_in
    return cads.psi * rescaled + (1.0 - cads.psi) * corrupted


def offsets_rows(z: np.ndarray, centers: np.ndarray):
    """``gmmflow._offsets`` in its sample-major form: the offsets of (..., B, 2)
    latents from (K, 2) centers, shape (..., B, K, 2), and their squared
    lengths, shape (..., B, K); more leading axes of ``centers`` (several
    times at once) come before the K axis."""
    diff = z.reshape(z.shape[:-1] + (1,) * (centers.ndim - 1) + (2,)) - centers
    squares = diff * diff
    return diff, squares[..., 0] + squares[..., 1]


def denoise_rows(world, offsets: np.ndarray, shrink: float, sq_resp: np.ndarray,
                 likelihood: tuple[float, float], weights: np.ndarray):
    """``gmmflow._denoise`` in its sample-major form: the (..., B, 2) posterior
    means from (..., B, K, 2) offsets, summed over the mode axis of the
    pulls, and the (..., B, K) responsibilities."""
    neg_two_s2, log_norm = likelihood
    log_joint = sq_resp / neg_two_s2 - log_norm + np.log(weights)
    resp = gmmflow._softmax(log_joint)
    pulled = (shrink * offsets + world.mode_centers) * resp[..., None]
    return np.add.reduce(pulled, axis=-2), resp


def step_scalars(world, t: float) -> tuple[float, tuple[float, float]]:
    """The shrink (1-t) sigma^2 / s_t^2 and the likelihood scalars
    (-2 s_t^2, log(2 pi s_t^2)) at ``t``, each from its own s_t^2."""
    s2 = (1.0 - t) ** 2 * world.mode_sigma**2 + t * t
    return (1.0 - t) * world.mode_sigma**2 / s2, (-2.0 * s2, math.log(2.0 * math.pi * s2))


def cads_run(world, segment, seed: int, cads) -> tuple[np.ndarray, np.ndarray]:
    """The (T + 1, B, 2) latents and (T + 1, B, M) contexts of one ``cads``
    segment at one seed, one step at a time: a fresh generator per segment
    and seed, one (B, M) draw and one corruption per in-window step, and
    each step's scalars from numpy float64 times."""
    prompts = np.array(segment.prompts, dtype=float)
    t_steps = world.n_steps
    z = np.random.default_rng(seed).standard_normal((len(prompts), 2))
    noise_rng = np.random.default_rng(derive_seed(seed, gmmflow._CADS_SALT))
    mean, _, std = gmmflow._row_moments(prompts)
    times = 1.0 - np.arange(t_steps + 1) / t_steps
    latents, contexts = [z], []
    with np.errstate(divide="ignore"):
        for j in range(t_steps):
            t, t_resp = times[j], times[min(j + 1, t_steps - 1)]
            diff, sq = offsets_rows(z, (1.0 - t) * world.mode_centers)
            sq_resp = offsets_rows(z, (1.0 - t_resp) * world.mode_centers)[1]
            base = prompts
            if fraction_in_interval(j, t_steps, segment.cads_interval):
                noise = noise_rng.standard_normal(prompts.shape)
                base = cads_corrupt_step(prompts, mean, std, t, cads, noise)
            effective = base + world.feedback_scale * gmmflow._feedback(sq)
            weights = gmmflow._softmax(world.guidance_gamma * effective)
            x0, _ = denoise_rows(world, diff, step_scalars(world, t)[0], sq_resp,
                                 step_scalars(world, t_resp)[1], weights)
            z = z - ((t - times[j + 1]) / t) * (z - x0)
            latents.append(z)
            contexts.append(effective)
    contexts.append(contexts[-1])
    return np.stack(latents), np.stack(contexts)
