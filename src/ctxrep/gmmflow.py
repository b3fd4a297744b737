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
bit its own :func:`sample_batch` run, and :func:`evaluate_seed_block` scores
the block's (S, B, 2) finals in one pass, each seed bit for bit its own
:func:`evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ContextBatch, _rbf_entries, _row_sums
from .repulsion import RepulsionConfig, check_interval, fraction_in_interval, repulse
from .rng import derive_seed
from .vendi import _kernel_entropies, _mean_pair_scores

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
    weights = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights


def conditional_weights(context: np.ndarray, gamma: float) -> np.ndarray:
    """softmax(gamma * context); shift-invariant in the logits."""
    return _softmax(gamma * np.asarray(context, dtype=float))


def _noise_scale_sq(world: MixtureWorld, t: float) -> float:
    return (1.0 - t) ** 2 * world.mode_sigma**2 + t * t


def _offsets(z: np.ndarray, centers: np.ndarray):
    """Offsets z - c of each latent from the time-scaled mode centers
    ``centers`` = (1-t) mu, shape (..., B, K, 2) for (K, 2) centers, and their
    squared lengths, shape (..., B, K). More leading axes of ``centers``
    (several times at once) come before the K axis."""
    diff = z.reshape(z.shape[:-1] + (1,) * (centers.ndim - 1) + (2,)) - centers
    # x^2 + y^2 is the sum over the last axis, which numpy walks slowly at length 2
    squares = diff * diff
    return diff, squares[..., 0] + squares[..., 1]


def _feedback(sq: np.ndarray) -> np.ndarray:
    """Image feedback in logit space: centered negative half squared offsets.

    Deliberately omits the 1/s_t^2 likelihood precision so the feedback stays
    commensurate with prompt logits for the whole trajectory instead of
    dominating them as t -> 0.
    """
    affinity = sq * -0.5
    affinity -= np.add.reduce(affinity, axis=-1, keepdims=True) / sq.shape[-1]
    return affinity


def _log_joint(world: MixtureWorld, sq: np.ndarray, t: float, weights: np.ndarray) -> np.ndarray:
    """log w_k + log N(z; (1-t) mu_k, s_t^2 I) from the squared offsets at t.

    A weight of exactly 0 gives a log of -inf, so callers silence numpy's
    divide-by-zero warning.
    """
    s2 = _noise_scale_sq(world, t)
    log_lik = sq / (-2.0 * s2)
    log_lik -= math.log(2.0 * math.pi * s2)
    log_lik += np.log(weights)
    return log_lik


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
    pulled = shrink * offsets
    pulled += world.mode_centers
    pulled *= resp[..., None]
    return np.add.reduce(pulled, axis=-2), resp


def posterior_denoiser(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray):
    """Closed-form E[x0 | z_t] and mode responsibilities for one latent.

    Underflow is handled in log space, so the responsibilities are always a
    valid distribution.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    offsets, sq = _offsets(_point(z), (1.0 - t) * world.mode_centers)
    w2 = np.asarray(weights, dtype=float).reshape(1, world.n_modes)
    with np.errstate(divide="ignore"):
        x0, resp = _denoise(world, offsets, t, sq, t, w2)
    return x0[0], resp[0]


def _point(z) -> np.ndarray:
    """One latent as a (1, 2) batch."""
    return np.asarray(z, dtype=float).reshape(1, 2)


def log_density(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray) -> float:
    """log p_t(z) of the mixture marginal, via log-sum-exp."""
    sq = _offsets(_point(z), (1.0 - t) * world.mode_centers)[1][0]
    with np.errstate(divide="ignore"):
        terms = _log_joint(world, sq, t, np.asarray(weights, dtype=float))
    peak = np.max(terms)
    return float(peak + np.log(np.sum(np.exp(terms - peak))))


def mixture_score(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray) -> np.ndarray:
    """Analytic grad_z log p_t(z) = -sum_k r_k (z - (1-t) mu_k) / s_t^2."""
    _, resp = posterior_denoiser(world, z, t, weights)
    diff = _offsets(_point(z), (1.0 - t) * world.mode_centers)[0][0]
    return -np.sum(resp[:, None] * diff, axis=0) / _noise_scale_sq(world, t)


def one_hot_prompts(world: MixtureWorld, batch: int, mode: int = 0, strength: float = 10.0) -> np.ndarray:
    """The collapse-regime prompt: every sample asks for the same mode."""
    prompts = np.zeros((batch, world.n_modes))
    prompts[:, mode % world.n_modes] = strength
    return prompts


def seed_prompt(world: MixtureWorld, seed: int, strength: float = 10.0) -> np.ndarray:
    """A one-hot prompt whose mode is derived from the seed (for steering runs)."""
    return one_hot_prompts(world, 1, mode=seed, strength=strength)[0]


def check_seeds(seeds) -> None:
    """Raise ValueError naming the first of ``seeds`` below 0.

    numpy rejects a negative seed too, but its message does not name the seed.
    """
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")


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
    seeds = list(seeds)
    run = _seed_block(world, prompts, method, seeds, repulsion, cads, cads_interval)
    if run is None:
        return []
    times, latents, contexts = run
    return [_trajectories(times, latents[:, s], contexts[:, s]) for s in range(len(seeds))]


def evaluate_seed_block(
    world: MixtureWorld,
    prompts: np.ndarray,
    method: str = "none",
    *,
    seeds,
    repulsion: RepulsionConfig | None = None,
    cads: CadsParams | None = None,
    cads_interval: tuple[float, float] = (0.0, 1.0),
) -> list[RunMetrics]:
    """:func:`evaluate` of each entry of :func:`sample_seed_block`, bit for
    bit, scored in one pass over the block's (S, B, 2) finals without
    building a trajectory per sample."""
    run = _seed_block(world, prompts, method, list(seeds), repulsion, cads, cads_interval)
    return [] if run is None else _score_finals(world, run[1][-1])


def _seed_block(world, prompts, method, seeds: list, repulsion, cads, cads_interval):
    """The times, latents and contexts of ``seeds`` on the same checked
    prompts, as one run on (S, B, .) states; None for no seeds."""
    prompts = _checked_prompts(world, prompts, method, repulsion, cads_interval)
    if not seeds:
        return None
    stacked = np.broadcast_to(prompts, (len(seeds),) + prompts.shape).copy()
    return _integrate(world, stacked, method, seeds, repulsion, cads, cads_interval)


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
    check_seeds(seeds)
    t_steps = world.n_steps
    z = _normals([np.random.default_rng(seed) for seed in seeds], prompts.shape[:-1] + (2,))
    if method == "cads":
        cads = CadsParams() if cads is None else cads
        cads_rngs = [np.random.default_rng(derive_seed(seed, _CADS_SALT)) for seed in seeds]
        # fixed for the run: the row mean and std that the psi rescaling restores
        prompt_mean, _, prompt_std = _row_moments(prompts)

    context_state = prompts.copy()
    times = 1.0 - np.arange(t_steps + 1) / t_steps
    # step j departs from t_j and takes its responsibilities at the arrival
    # time max(t_{j+1}, t_{T-1}); row j holds (1 - t) mu at both times, so one
    # subtraction gives the step both offsets
    arrival = [min(j + 1, t_steps - 1) for j in range(t_steps)]
    scaled = (1.0 - times[:t_steps, None, None]) * world.mode_centers
    centers = np.stack([scaled, scaled[arrival]], axis=1)
    latents = np.empty((t_steps + 1,) + z.shape)
    contexts = np.empty((t_steps + 1,) + prompts.shape)
    latents[0] = z

    # a weight that underflows to 0 has log -inf, which the softmax handles
    with np.errstate(divide="ignore"):
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
            diff, sq = _offsets(z, centers[j])

            base = context_state
            if method == "cads" and fraction_in_interval(j, t_steps, cads_interval):
                noise = _normals(cads_rngs, prompts.shape)
                base = _cads_corrupt(prompts, prompt_mean, prompt_std, t, cads, noise)
            effective = base + world.feedback_scale * _feedback(sq[..., 0, :])
            if method == "contextual" and in_window:
                repelled = repulse(ContextBatch(effective), repulsion).vectors
                context_state = context_state + (repelled - effective)
                effective = repelled
            if context_hook is not None:
                effective = context_hook(j, t, effective)

            weights = _softmax(world.guidance_gamma * effective)
            x0, _ = _denoise(world, diff[..., 0, :, :], t, sq[..., 1, :], times[arrival[j]],
                             weights)
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


def _row_moments(rows: np.ndarray):
    """Each row's mean, the rows less their means, and each row's population
    std, as columns: the bits of ``np.mean`` and ``np.std`` on the last axis,
    which centre the rows the same way, with the centring done once."""
    n = rows.shape[-1]
    mean = np.add.reduce(rows, axis=-1, keepdims=True) / n
    centred = rows - mean
    return mean, centred, np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / n)


def _cads_corrupt(prompts: np.ndarray, mean_in: np.ndarray, std_in: np.ndarray, t: float,
                  cads: CadsParams, noise: np.ndarray) -> np.ndarray:
    gamma_c = cads.corruption(t)
    corrupted = math.sqrt(gamma_c) * prompts + cads.scale * math.sqrt(1.0 - gamma_c) * noise
    if cads.psi == 0.0:
        return corrupted
    _, centred, std_c = _row_moments(corrupted)
    safe_std = np.where(std_c > 0.0, std_c, 1.0)
    rescaled = centred / safe_std * std_in + mean_in
    return cads.psi * rescaled + (1.0 - cads.psi) * corrupted


def evaluate(trajectories: list[SampleTrajectory], world: MixtureWorld) -> RunMetrics:
    """Diversity and fidelity metrics over the batch's final samples: the
    one-seed case of :func:`_score_finals`."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    return _score_finals(world, np.stack([tr.latents[-1] for tr in trajectories])[None])[0]


def _score_finals(world: MixtureWorld, finals: np.ndarray) -> list[RunMetrics]:
    """The metrics of each batch of an (S, B, 2) stack of final samples.

    Each batch gets the bits it gets alone: the kernels are elementwise or
    one BLAS call per matrix, the spectra one LAPACK call per matrix, and
    every sum over more than two entries is taken one batch at a time
    (``linalg._row_sums``). One RBF kernel per batch feeds both scores.
    """
    seeds, batch, _ = finals.shape
    diff = finals[..., None, :] - world.mode_centers
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    nearest = dist.argmin(axis=-1)
    nearest_dist = np.take_along_axis(dist, nearest[..., None], axis=-1)[..., 0]
    on_manifold = nearest_dist <= 3.0 * world.mode_sigma
    covered = np.zeros((seeds, world.n_modes), dtype=bool)
    covered[np.nonzero(on_manifold)[0], nearest[on_manifold]] = True
    coverage = np.count_nonzero(covered, axis=-1)
    off_rate = np.count_nonzero(~on_manifold, axis=-1) / batch
    mean_dist = _row_sums(nearest_dist) / batch

    # a fresh ContextBatch rejects non-finite finals, naming them as evaluate always has
    kernels = _rbf_entries(ContextBatch(finals).vectors, world.radius / 2.0)
    vendi = np.exp(_kernel_entropies(kernels))
    pair = _mean_pair_scores(kernels) if batch >= 2 else np.ones(seeds)
    return [
        RunMetrics(*values)
        for values in zip(vendi.tolist(), coverage.tolist(), off_rate.tolist(),
                          mean_dist.tolist(), pair.tolist())
    ]
