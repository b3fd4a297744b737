"""Analytic rectified-flow sampler over a context-conditioned 2-D Gaussian mixture.

The generative model is exact: modes sit on a circle, the per-mode marginal of
the linear-interpolation path z_t = (1-t) x0 + t eps is Gaussian, so the
denoiser posterior and the velocity field have closed forms. A per-sample
context (logits over modes) conditions the mixture weights through a softmax
whose temperature plays the role of guidance: sharp prompts collapse the batch
onto one mode.

Each step, the raw context is enriched with an image-feedback term (the
centered per-mode log-likelihood of the sample's current latent), which is
what makes the contexts of identically-prompted samples comparable yet
distinct. Interventions hook in per step: contextual repulsion acts on the
enriched logits and its deltas persist in the context state, latent repulsion
acts on the positions directly, and the noise-injection baseline corrupts the
prompt upstream with an annealed schedule.

The step helpers take any leading axes, so :func:`sample_seed_block` runs a
block of seeds as one array program on (S, B, .) states, each seed bit for
bit its own :func:`sample_batch` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ContextBatch, rbf_kernel
from .repulsion import RepulsionConfig, check_interval, fraction_in_interval, repulse
from .rng import derive_seed
from .vendi import average_pair_vendi, entropy_and_score

METHODS = ("none", "contextual", "latent", "cads")

_CADS_SALT = 0x63616473


def _check_finite(params, names: tuple[str, ...], prefix: str = "") -> None:
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{prefix}{name} must be finite, got {value}")


@dataclass(frozen=True)
class MixtureWorld:
    """Conditional 2-D Gaussian mixture with modes on a circle.

    ``guidance_gamma`` is the softmax temperature applied to context logits;
    ``feedback_scale`` weights the per-step image-feedback term of the
    context. ``context_dim`` equals ``n_modes``.
    """

    n_modes: int = 8
    radius: float = 4.0
    mode_sigma: float = 0.25
    guidance_gamma: float = 1.0
    n_steps: int = 64
    feedback_scale: float = 0.5

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (self.mode_sigma > 0.0):
            raise ValueError("mode_sigma must be positive")
        _check_finite(self, ("radius", "guidance_gamma", "feedback_scale"))
        if self.guidance_gamma < 0.0:
            raise ValueError("guidance_gamma must be >= 0")
        if self.n_modes > 1:
            gap = 2.0 * self.radius * math.sin(math.pi / self.n_modes)
            if not (self.mode_sigma < gap / 6.0):
                raise ValueError(
                    f"mode_sigma {self.mode_sigma} too large for separable modes "
                    f"(needs < {gap / 6.0:.4f})"
                )

    @property
    def context_dim(self) -> int:
        return self.n_modes

    @cached_property
    def mode_centers(self) -> np.ndarray:
        """(n_modes, 2) centers, built once per world and read-only."""
        angles = 2.0 * np.pi * np.arange(self.n_modes) / self.n_modes
        centers = self.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        centers.flags.writeable = False
        return centers

    def __getstate__(self):
        # the cache is left out: an unpickled array would come back writable
        return {k: v for k, v in self.__dict__.items() if k != "mode_centers"}


@dataclass(frozen=True)
class SampleTrajectory:
    """One sample's integration record: times descend 1 -> 0, length T + 1.

    ``contexts[j]`` is the effective (enriched, post-intervention) context the
    generator consumed when stepping from ``times[j]``; the final row repeats
    the last consumed context.
    """

    times: np.ndarray
    latents: np.ndarray
    contexts: np.ndarray


@dataclass(frozen=True)
class RunMetrics:
    vendi_rbf: float
    mode_coverage: int
    off_manifold_rate: float
    mean_nearest_mode_distance: float
    avg_pair_vendi: float

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class CadsParams:
    """Annealed prompt-noise baseline: corruption follows the (tau1, tau2)
    schedule on diffusion time with optional psi rescaling."""

    scale: float = 0.15
    tau1: float = 0.3
    tau2: float = 0.8
    psi: float = 1.0

    def __post_init__(self):
        _check_finite(self, ("scale", "tau1", "tau2", "psi"), prefix="cads ")

    def corruption(self, t: float) -> float:
        """Clean fraction gamma_c(t): 1 below tau1, 0 above tau2, linear between."""
        if t <= self.tau1:
            return 1.0
        if t >= self.tau2:
            return 0.0
        return (self.tau2 - t) / (self.tau2 - self.tau1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    logits = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def conditional_weights(context: np.ndarray, gamma: float) -> np.ndarray:
    """softmax(gamma * context); shift-invariant in the logits."""
    return _softmax(gamma * np.asarray(context, dtype=float))


def _noise_scale_sq(world: MixtureWorld, t: float) -> float:
    return (1.0 - t) ** 2 * world.mode_sigma**2 + t * t


def _offsets(world: MixtureWorld, z: np.ndarray, t: float):
    """Offsets z - (1-t) mu_k of each latent from the time-scaled mode centers,
    shape (..., B, K, 2), and their squared lengths, shape (..., B, K)."""
    z2 = np.atleast_2d(np.asarray(z, dtype=float))
    diff = z2[..., None, :] - (1.0 - t) * world.mode_centers
    return diff, (diff * diff).sum(axis=-1)


def _feedback(sq: np.ndarray) -> np.ndarray:
    """Image feedback in logit space: centered negative half squared offsets.

    Deliberately omits the 1/s_t^2 likelihood precision so the feedback stays
    commensurate with prompt logits for the whole trajectory instead of
    dominating them as t -> 0.
    """
    affinity = -sq / 2.0
    return affinity - affinity.mean(axis=-1, keepdims=True)


def _log_joint(world: MixtureWorld, sq: np.ndarray, t: float, weights: np.ndarray) -> np.ndarray:
    """log w_k + log N(z; (1-t) mu_k, s_t^2 I) from the squared offsets at t."""
    s2 = _noise_scale_sq(world, t)
    log_lik = -sq / (2.0 * s2) - math.log(2.0 * math.pi * s2)
    with np.errstate(divide="ignore"):
        return np.log(weights) + log_lik


def _denoise(world: MixtureWorld, offsets: np.ndarray, t: float, sq_resp: np.ndarray,
             t_resp: float, weights: np.ndarray):
    """E[x0 | z_t] and its responsibilities: component posterior means from the
    offsets at ``t``, responsibilities from the squared offsets at ``t_resp``.

    The sampler takes ``t_resp`` at the step's arrival time. The earlier mode
    commitment cancels the discretization smear that same-time evaluation
    leaves near basin boundaries; single-mode dynamics are untouched and the
    scheme stays first-order consistent with the same ODE.
    """
    resp = _softmax(_log_joint(world, sq_resp, t_resp, weights))
    shrink = (1.0 - t) * world.mode_sigma**2 / _noise_scale_sq(world, t)
    x0 = (resp[..., None] * (world.mode_centers + shrink * offsets)).sum(axis=-2)
    return x0, resp


def posterior_denoiser(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray):
    """Closed-form E[x0 | z_t] and mode responsibilities for one latent.

    Underflow is handled in log space, so the responsibilities are always a
    valid distribution.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    offsets, sq = _offsets(world, np.asarray(z, dtype=float).reshape(1, 2), t)
    w2 = np.asarray(weights, dtype=float).reshape(1, world.n_modes)
    x0, resp = _denoise(world, offsets, t, sq, t, w2)
    return x0[0], resp[0]


def log_density(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray) -> float:
    """log p_t(z) of the mixture marginal, via log-sum-exp."""
    terms = _log_joint(world, _offsets(world, z, t)[1][0], t, np.asarray(weights, dtype=float))
    peak = np.max(terms)
    return float(peak + np.log(np.sum(np.exp(terms - peak))))


def mixture_score(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray) -> np.ndarray:
    """Analytic grad_z log p_t(z) = -sum_k r_k (z - (1-t) mu_k) / s_t^2."""
    _, resp = posterior_denoiser(world, z, t, weights)
    diff = _offsets(world, z, t)[0][0]
    return -np.sum(resp[:, None] * diff, axis=0) / _noise_scale_sq(world, t)


def one_hot_prompts(world: MixtureWorld, batch: int, mode: int = 0, strength: float = 10.0) -> np.ndarray:
    """The collapse-regime prompt: every sample asks for the same mode."""
    prompts = np.zeros((batch, world.n_modes))
    prompts[:, mode % world.n_modes] = strength
    return prompts


def seed_prompt(world: MixtureWorld, seed: int, strength: float = 10.0) -> np.ndarray:
    """A one-hot prompt whose mode is derived from the seed (for steering runs)."""
    return one_hot_prompts(world, 1, mode=seed, strength=strength)[0]


def sample_batch(
    world: MixtureWorld,
    prompts: np.ndarray,
    method: str = "none",
    *,
    seed: int = 0,
    repulsion: RepulsionConfig | None = None,
    cads: CadsParams | None = None,
    cads_interval: tuple[float, float] = (0.0, 1.0),
    context_hook=None,
    latent_hook=None,
) -> list[SampleTrajectory]:
    """Integrate the batch from t=1 to t=0 with the chosen intervention.

    Each of the T uniform steps moves z by -dt * (z - x0_hat)/t, where the
    denoiser pull uses arrival-time responsibilities (see :func:`_denoise`);
    one offsets array at the departure time feeds both the image feedback and
    the component posterior means. ``contextual`` repels the batch of enriched
    context logits and keeps the deltas as context state; ``latent`` repels
    the latent positions directly; ``cads`` corrupts the prompt with annealed
    seeded noise; ``none`` leaves the model alone. The optional hooks replace
    the context or latent at each step (used by the steering operator) and run
    after the method intervention; they see (B, 2) latents and (B, M)
    contexts.
    """
    prompts = _checked_prompts(world, prompts, method, repulsion, cads_interval)
    return _trajectories(*_integrate(
        world, prompts, method, [seed], repulsion, cads, cads_interval, context_hook, latent_hook
    ))


def sample_seed_block(
    world: MixtureWorld,
    prompts: np.ndarray,
    method: str = "none",
    *,
    seeds,
    repulsion: RepulsionConfig | None = None,
    cads: CadsParams | None = None,
    cads_interval: tuple[float, float] = (0.0, 1.0),
) -> list[list[SampleTrajectory]]:
    """:func:`sample_batch` at each of ``seeds`` on the same (B, M) prompts,
    run as one array program on (S, B, 2) latents and (S, B, M) contexts.

    Each seed keeps its own noise streams, and each repulsion normalizes
    per seed, so entry s is bit for bit ``sample_batch(..., seed=seeds[s])``.
    A non-finite state or an overflow in any seed raises, as a solo call of
    that seed would.
    """
    prompts = _checked_prompts(world, prompts, method, repulsion, cads_interval)
    seeds = list(seeds)
    if not seeds:
        return []
    stacked = np.broadcast_to(prompts, (len(seeds),) + prompts.shape).copy()
    times, latents, contexts = _integrate(
        world, stacked, method, seeds, repulsion, cads, cads_interval
    )
    return [_trajectories(times, latents[:, s], contexts[:, s]) for s in range(len(seeds))]


def _checked_prompts(world: MixtureWorld, prompts, method: str, repulsion,
                     cads_interval: tuple[float, float]) -> np.ndarray:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "cads":
        check_interval(cads_interval, "cads")
    prompts = np.array(prompts, dtype=float)
    if prompts.ndim != 2 or prompts.shape[1] != world.n_modes:
        raise ValueError(f"prompts must have shape (B, {world.n_modes})")
    if prompts.shape[0] < 1:
        raise ValueError("prompts must hold at least one sample")
    if not np.all(np.isfinite(prompts)):
        raise ValueError("prompt entries must be finite")
    if method in ("contextual", "latent") and repulsion is None:
        raise ValueError(f"method {method!r} requires a repulsion config")
    return prompts


def _normals(rngs: list, shape: tuple[int, ...]) -> np.ndarray:
    """One standard-normal draw of shape ``shape[-2:]`` per generator, in
    order, laid out as ``shape``."""
    out = np.empty(shape)
    for rng, block in zip(rngs, out.reshape((-1,) + shape[-2:])):
        rng.standard_normal(out=block)
    return out


def _integrate(world, prompts, method, seeds, repulsion, cads, cads_interval,
               context_hook=None, latent_hook=None):
    """The sampler loop on prompts of shape (B, M) for one seed or (S, B, M)
    for S seeds; returns the times and the (T + 1, ..., B, .) latents and
    contexts."""
    t_steps = world.n_steps
    z = _normals([np.random.default_rng(seed) for seed in seeds], prompts.shape[:-1] + (2,))
    if method == "cads":
        cads = CadsParams() if cads is None else cads
        cads_rngs = [np.random.default_rng(derive_seed(seed, _CADS_SALT)) for seed in seeds]
        # fixed for the run: the row mean and std that the psi rescaling restores
        prompt_stats = [stat(prompts, axis=-1, keepdims=True) for stat in (np.mean, np.std)]

    context_state = prompts.copy()
    times = 1.0 - np.arange(t_steps + 1) / t_steps
    latents = np.empty((t_steps + 1,) + z.shape)
    contexts = np.empty((t_steps + 1,) + prompts.shape)
    latents[0] = z

    for j in range(t_steps):
        t = times[j]
        dt = times[j] - times[j + 1]
        in_window = repulsion is not None and fraction_in_interval(
            j, t_steps, repulsion.timestep_interval
        )

        if method == "latent" and in_window:
            z = repulse(ContextBatch(z), repulsion).vectors
        if latent_hook is not None:
            z = latent_hook(j, t, z)
        offsets, sq = _offsets(world, z, t)

        base = context_state
        if method == "cads" and fraction_in_interval(j, t_steps, cads_interval):
            noise = _normals(cads_rngs, prompts.shape)
            base = _cads_corrupt(prompts, prompt_stats, t, cads, noise)
        effective = base + world.feedback_scale * _feedback(sq)
        if method == "contextual" and in_window:
            repelled = repulse(ContextBatch(effective), repulsion).vectors
            context_state = context_state + (repelled - effective)
            effective = repelled
        if context_hook is not None:
            effective = context_hook(j, t, effective)

        weights = conditional_weights(effective, world.guidance_gamma)
        t_resp = max(times[j + 1], times[t_steps - 1])
        x0, _ = _denoise(world, offsets, t, _offsets(world, z, t_resp)[1], t_resp, weights)
        z = z - (dt / t) * (z - x0)

        contexts[j] = effective
        latents[j + 1] = z

    contexts[t_steps] = contexts[t_steps - 1]
    return times, latents, contexts


def _trajectories(times: np.ndarray, latents: np.ndarray, contexts: np.ndarray):
    """One :class:`SampleTrajectory` per sample of (T + 1, B, .) records."""
    return [
        SampleTrajectory(
            times=times.copy(), latents=latents[:, i, :].copy(), contexts=contexts[:, i, :].copy()
        )
        for i in range(latents.shape[1])
    ]


def _cads_corrupt(prompts: np.ndarray, prompt_stats, t: float, cads: CadsParams,
                  noise: np.ndarray) -> np.ndarray:
    gamma_c = cads.corruption(t)
    corrupted = math.sqrt(gamma_c) * prompts + cads.scale * math.sqrt(1.0 - gamma_c) * noise
    if cads.psi == 0.0:
        return corrupted
    mean_in, std_in = prompt_stats
    mean_c = corrupted.mean(axis=-1, keepdims=True)
    std_c = corrupted.std(axis=-1, keepdims=True)
    safe_std = np.where(std_c > 0.0, std_c, 1.0)
    rescaled = (corrupted - mean_c) / safe_std * std_in + mean_in
    return cads.psi * rescaled + (1.0 - cads.psi) * corrupted


def evaluate(trajectories: list[SampleTrajectory], world: MixtureWorld) -> RunMetrics:
    """Diversity and fidelity metrics over the batch's final samples."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    finals = np.stack([tr.latents[-1] for tr in trajectories])
    batch = finals.shape[0]

    diff = finals[:, None, :] - world.mode_centers[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    nearest = np.argmin(dist, axis=1)
    nearest_dist = dist[np.arange(batch), nearest]
    on_manifold = nearest_dist <= 3.0 * world.mode_sigma

    # bincount, not np.unique: np.unique imports numpy.ma on its first call
    coverage = int(np.count_nonzero(np.bincount(nearest[on_manifold], minlength=world.n_modes)))
    off_rate = float(np.mean(~on_manifold))
    mean_dist = float(np.mean(nearest_dist))

    kernel = rbf_kernel(ContextBatch(finals), world.radius / 2.0)
    vendi = entropy_and_score(kernel).score
    pair = average_pair_vendi(kernel) if batch >= 2 else 1.0
    return RunMetrics(
        vendi_rbf=float(vendi),
        mode_coverage=coverage,
        off_manifold_rate=off_rate,
        mean_nearest_mode_distance=mean_dist,
        avg_pair_vendi=float(pair),
    )
