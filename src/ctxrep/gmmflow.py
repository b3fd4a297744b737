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

One integrator runs every sampler entry point. It advances segments, batches
of any sizes that share the world, the method and the seeds, side by side on
the batch axis of one (S, B_1 + ... + B_V, .) state for S seeds. Each
segment has its own prompts and windows; the steps are elementwise or reduce
over the mode axis row by row, and the interventions act on each segment's
own columns, so each segment at each seed is bit for bit its own
:func:`sample_batch` run. Every sampler checks its segments and calls the
integrator through one helper: :func:`sample_batch` is the one-segment,
one-seed case and the only one that takes the steering hooks,
:func:`sample_segments` returns every trajectory, and
:func:`evaluate_segments` scores each segment's (S, B, 2) finals in one pass,
each seed bit for bit its own :func:`evaluate`.

The step loop runs only the work that depends on the state. Each step's
scalars come from a table of Python floats built once per run, the
(T + 1, ...) contexts record is each step's context buffer, which the step
writes in place, and the ``cads`` baseline builds every corrupted prompt of
a run before the first step, one noise draw per segment and seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ContextBatch, _rbf_entries, _row_sums
from .repulsion import (
    NumericOverflow,
    RepulsionConfig,
    check_interval,
    fraction_in_interval,
    repulse,
)
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


@dataclass(frozen=True)
class Segment:
    """One batch of a segmented run: its (B, M) prompts, the repulsion config
    whose window gates ``contextual`` and ``latent``, and the window of
    ``cads``. The segments of a run share the world, the method, the cads
    params and the seeds; each is the run :func:`sample_batch` makes of it."""

    prompts: np.ndarray
    repulsion: RepulsionConfig | None = None
    cads_interval: tuple[float, float] = (0.0, 1.0)


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


def _likelihood(world: MixtureWorld, t: float) -> tuple[float, float]:
    """-2 s_t^2 and log(2 pi s_t^2): the scalars of log N(.; (1-t) mu_k, s_t^2 I)."""
    s2 = _noise_scale_sq(world, t)
    return -2.0 * s2, math.log(2.0 * math.pi * s2)


def _shrink(world: MixtureWorld, t: float) -> float:
    """(1-t) sigma^2 / s_t^2: the weight of an offset at t in its component's
    posterior mean."""
    return (1.0 - t) * world.mode_sigma**2 / _noise_scale_sq(world, t)


def _log_joint(sq: np.ndarray, likelihood: tuple[float, float], weights: np.ndarray) -> np.ndarray:
    """log w_k + log N(z; (1-t) mu_k, s_t^2 I) from the squared offsets at t
    and ``likelihood``, :func:`_likelihood` at t.

    A weight of exactly 0 gives a log of -inf, so callers silence numpy's
    divide-by-zero warning.
    """
    neg_two_s2, log_norm = likelihood
    log_lik = sq / neg_two_s2
    log_lik -= log_norm
    log_lik += np.log(weights)
    return log_lik


def _denoise(world: MixtureWorld, offsets: np.ndarray, shrink: float, sq_resp: np.ndarray,
             likelihood: tuple[float, float], weights: np.ndarray):
    """E[x0 | z_t] and its responsibilities: component posterior means from the
    offsets at ``t`` and ``shrink``, :func:`_shrink` at t; responsibilities
    from the squared offsets at ``t_resp`` and ``likelihood``,
    :func:`_likelihood` at t_resp.

    The sampler takes ``t_resp`` at the step's arrival time. The earlier mode
    commitment cancels the discretization smear that same-time evaluation
    leaves near basin boundaries; single-mode dynamics are untouched and the
    scheme stays first-order consistent with the same ODE.
    """
    resp = _softmax(_log_joint(sq_resp, likelihood, weights))
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
        x0, resp = _denoise(world, offsets, _shrink(world, t), sq, _likelihood(world, t), w2)
    return x0[0], resp[0]


def _point(z) -> np.ndarray:
    """One latent as a (1, 2) batch."""
    return np.asarray(z, dtype=float).reshape(1, 2)


def log_density(world: MixtureWorld, z: np.ndarray, t: float, weights: np.ndarray) -> float:
    """log p_t(z) of the mixture marginal, via log-sum-exp."""
    sq = _offsets(_point(z), (1.0 - t) * world.mode_centers)[1][0]
    with np.errstate(divide="ignore"):
        terms = _log_joint(sq, _likelihood(world, t), np.asarray(weights, dtype=float))
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
    after the method intervention; they are called as ``hook(j, t, state)``
    with the step index, the departure time ``t`` as a Python float, and (B, 2)
    latents or (B, M) contexts. The context a context hook receives is a view
    of the run's contexts record: it may edit it in place and return it, or
    return a new array, which is written into the record.
    """
    times, latents, contexts, _ = _segment_run(
        world, [Segment(prompts, repulsion, cads_interval)], method, [seed], cads,
        context_hook, latent_hook,
    )
    return _trajectories(times, latents[:, 0], contexts[:, 0])


def sample_segments(
    world: MixtureWorld,
    segments: list[Segment],
    method: str = "none",
    *,
    seeds,
    cads: CadsParams | None = None,
) -> list[list[list[SampleTrajectory]]]:
    """The trajectories of each of ``segments`` at each of ``seeds``, run as
    one array program on (S, B_1 + ... + B_V, .) states.

    Each segment keeps its own noise streams, and each repulsion acts on its
    own segment, so entry [v][s] is bit for bit ``sample_batch`` of segment v
    at ``seeds[s]``. A non-finite state or an overflow in any segment at any
    seed raises, as a solo call of that run would.
    """
    seeds = list(seeds)
    run = _segment_run(world, segments, method, seeds, cads)
    if run is None:
        return [[] for _ in segments]
    times, latents, contexts, columns = run
    return [
        [_trajectories(times, latents[:, s, cols], contexts[:, s, cols])
         for s in range(len(seeds))]
        for cols in columns
    ]


def evaluate_segments(
    world: MixtureWorld,
    segments: list[Segment],
    method: str = "none",
    *,
    seeds,
    cads: CadsParams | None = None,
) -> list[list[RunMetrics]]:
    """:func:`evaluate` of each entry of :func:`sample_segments`, bit for bit,
    each segment scored in one pass over its (S, B, 2) finals without
    building a trajectory per sample."""
    run = _segment_run(world, segments, method, list(seeds), cads)
    if run is None:
        return [[] for _ in segments]
    finals, columns = run[1][-1], run[3]
    return [_score_finals(world, finals[:, cols]) for cols in columns]


def _segment_run(world, segments, method, seeds: list, cads, context_hook=None,
                 latent_hook=None):
    """:func:`_integrate` of ``segments`` at ``seeds``, once every segment is
    checked; None for no seeds or no segments."""
    segments = [_checked_segment(world, segment, method) for segment in segments]
    if not seeds or not segments:
        return None
    return _integrate(world, segments, method, seeds, cads, context_hook, latent_hook)


def _checked_segment(world: MixtureWorld, segment: Segment, method: str) -> Segment:
    """``segment`` with its prompts copied to a float array, once they and
    the windows ``method`` reads are checked."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "cads":
        check_interval(segment.cads_interval, "cads")
    prompts = np.array(segment.prompts, dtype=float)
    if prompts.ndim != 2 or prompts.shape[1] != world.n_modes:
        raise ValueError(f"prompts must have shape (B, {world.n_modes})")
    if prompts.shape[0] < 1:
        raise ValueError("prompts must hold at least one sample")
    if not np.all(np.isfinite(prompts)):
        raise ValueError("prompt entries must be finite")
    if method in ("contextual", "latent") and segment.repulsion is None:
        raise ValueError(f"method {method!r} requires a repulsion config")
    return dataclasses.replace(segment, prompts=prompts)


def _columns(segments: list[Segment]) -> list[slice]:
    """Each segment's columns on the batch axis of a segmented state."""
    columns, end = [], 0
    for segment in segments:
        start, end = end, end + len(segment.prompts)
        columns.append(slice(start, end))
    return columns


def _normals(rngs: list, shape: tuple[int, ...]) -> np.ndarray:
    """One standard-normal draw of shape ``shape[-2:]`` per generator, in
    order, laid out as ``shape``."""
    out = np.empty(shape)
    for rng, block in zip(rngs, out.reshape((-1,) + shape[-2:])):
        rng.standard_normal(out=block)
    return out


def _steps_in(interval: tuple[float, float], t_steps: int) -> list[bool]:
    return [fraction_in_interval(j, t_steps, interval) for j in range(t_steps)]


def _integrate(world, segments, method, seeds, cads, context_hook=None, latent_hook=None):
    """The sampler loop on checked ``segments`` side by side at S ``seeds``,
    as (S, B_1 + ... + B_V, .) states, or (B_1 + ... + B_V, .) for one seed;
    returns the times, the (T + 1, S, B_1 + ... + B_V, .) latents and
    contexts, and each segment's columns.

    The loop runs only the work that depends on the state. Each step's
    scalars are Python floats from a table built once per run, and the
    ``contexts`` record is each step's context buffer: the step adds the
    image feedback into row j in place. For ``cads``, before the first step,
    the record holds each segment's corrupted prompts in its in-window rows
    and the prompts everywhere else (:func:`_write_cads_rows`).

    Each step, everything but the interventions runs once on the whole state:
    every operation there is elementwise or reduces over the mode axis row by
    row, so each row gets the bits it gets in a solo run. Each segment draws
    its initial latents and its cads noise from its own generators, and is
    repelled and corrupted on its own columns, as a solo run. The hooks see
    the state of a one-seed run, (B, 2) latents and (B, M) contexts for one
    segment, the contexts as a view of the record's row j.
    """
    check_seeds(seeds)
    t_steps = world.n_steps
    # a lone seed runs without the seed axis, which would cost on every step
    lead = (len(seeds),) if len(seeds) > 1 else ()
    slices = _columns(segments)
    columns = [(..., cols, slice(None)) for cols in slices]
    prompts = np.empty(lead + (slices[-1].stop, world.n_modes))
    z = np.empty(prompts.shape[:-1] + (2,))
    for seg, cols in zip(segments, columns):
        prompts[cols] = seg.prompts
        z[cols] = _normals([np.random.default_rng(seed) for seed in seeds], z[cols].shape)
    latents = np.empty((t_steps + 1,) + z.shape)
    contexts = np.empty((t_steps + 1,) + prompts.shape)
    latents[0] = z

    times = 1.0 - np.arange(t_steps + 1) / t_steps
    # step j departs from t_j and takes its responsibilities at the arrival
    # time max(t_{j+1}, t_{T-1}); row j holds (1 - t) mu at both times, so one
    # subtraction gives the step both offsets
    arrival = [min(j + 1, t_steps - 1) for j in range(t_steps)]
    scaled = (1.0 - times[:t_steps, None, None]) * world.mode_centers
    centers = np.stack([scaled, scaled[arrival]], axis=1)
    # per step: t, dt / t, the shrink at t and the likelihood at the arrival time
    t_list = times.tolist()
    steps = [
        (t, (t - t_list[j + 1]) / t, _shrink(world, t), _likelihood(world, t_list[arrival[j]]))
        for j, t in enumerate(t_list[:t_steps])
    ]

    # the segments each repulsion acts on, by step; steps without any are left out
    repelled = {}
    if method in ("contextual", "latent"):
        for seg, cols in zip(segments, columns):
            for j, inside in enumerate(_steps_in(seg.repulsion.timestep_interval, t_steps)):
                if inside:
                    repelled.setdefault(j, []).append((cols, seg.repulsion))
    elif method == "cads":
        contexts[:t_steps] = prompts
        # an overflow is an error: an infinite row std would make the psi
        # rescaling erase each prompt to its mean, or fill its rows with NaN
        with np.errstate(over="raise", invalid="raise"):
            try:
                _write_cads_rows(contexts, prompts, segments, columns, seeds, t_list,
                                 CadsParams() if cads is None else cads)
            except FloatingPointError as exc:
                raise NumericOverflow(f"cads corruption: {exc}") from None
    # what each step adds the feedback to: the record's own row for cads, and
    # the prompts plus any contextual deltas otherwise
    context_state = None if method == "cads" else prompts

    # a weight that underflows to 0 has log -inf, which the softmax handles
    with np.errstate(divide="ignore"):
        for j, (t, rate, shrink, likelihood) in enumerate(steps):
            if method == "latent":
                for cols, repulsion in repelled.get(j, ()):
                    z[cols] = repulse(ContextBatch(z[cols]), repulsion).vectors
            if latent_hook is not None:
                z = latent_hook(j, t, z)
            diff, sq = _offsets(z, centers[j])

            effective = contexts[j]
            feedback = _feedback(sq[..., 0, :])
            feedback *= world.feedback_scale
            np.add(effective if context_state is None else context_state, feedback, out=effective)
            if method == "contextual":
                for cols, repulsion in repelled.get(j, ()):
                    moved = repulse(ContextBatch(effective[cols]), repulsion).vectors
                    context_state[cols] += moved - effective[cols]
                    effective[cols] = moved
            if context_hook is not None:
                effective[...] = context_hook(j, t, effective)

            weights = _softmax(world.guidance_gamma * effective)
            x0, _ = _denoise(world, diff[..., 0, :, :], shrink, sq[..., 1, :], likelihood, weights)
            z = z - rate * (z - x0)
            latents[j + 1] = z

    contexts[t_steps] = contexts[t_steps - 1]
    if not lead:
        return times, latents[:, None], contexts[:, None], slices
    return times, latents, contexts, slices


# the most entries of record rows corrupted in one pass, so that the
# temporaries of a large seed block stay a few MB
_CADS_CHUNK = 1 << 15


def _write_cads_rows(contexts, prompts, segments, columns, seeds, t_list, cads) -> None:
    """Write each segment's corrupted prompts into its in-window rows of the
    (T + 1, [S,] B_1 + ... + B_V, M) record, before the first step.

    Per segment and seed, one generator draws the noise of every in-window
    step in one call: the stream, in the order, of one (B, M) draw per step.
    The rows take the noise and are corrupted in place, a chunk of steps at a
    time, so the only buffer is one seed's (steps, B, M) noise.
    """
    # fixed for the run: the row mean and std that the psi rescaling restores
    mean, _, std = _row_moments(prompts)
    t_steps = len(t_list) - 1
    for seg, cols in zip(segments, columns):
        window = [j for j, inside in enumerate(_steps_in(seg.cads_interval, t_steps)) if inside]
        if not window:
            continue
        first, stop = window[0], window[-1] + 1
        rows = contexts[first:stop][cols]
        noise = np.empty((stop - first,) + seg.prompts.shape)
        by_seed = rows if rows.ndim == 4 else rows[:, None]
        for s, seed in enumerate(seeds):
            np.random.default_rng(derive_seed(seed, _CADS_SALT)).standard_normal(out=noise)
            by_seed[:, s] = noise
        times = t_list[first:stop]
        chunk = max(1, _CADS_CHUNK // rows[0].size)
        for c in range(0, len(times), chunk):
            _cads_corrupt(prompts[cols], mean[cols], std[cols], times[c:c + chunk], cads,
                          rows[c:c + chunk])


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


def _cads_corrupt(prompts: np.ndarray, mean_in: np.ndarray, std_in: np.ndarray, times: list,
                  cads: CadsParams, rows: np.ndarray) -> None:
    """Corrupt ``rows`` in place: row block i holds standard normals on entry
    and ``prompts`` corrupted at ``times[i]`` on return.

    The weights sqrt(gamma) and scale * sqrt(1 - gamma) are Python floats,
    one per time, and every operation is elementwise or reduces a row, so
    each block has the bits of a corruption at its time alone.
    """
    gammas = [cads.corruption(t) for t in times]
    shape = (len(times),) + (1,) * prompts.ndim
    rows *= np.array([cads.scale * math.sqrt(1.0 - g) for g in gammas]).reshape(shape)
    rows += np.array([math.sqrt(g) for g in gammas]).reshape(shape) * prompts
    if cads.psi == 0.0:
        return
    _, rescaled, std_c = _row_moments(rows)
    rescaled /= np.where(std_c > 0.0, std_c, 1.0)
    rescaled *= std_in
    rescaled += mean_in
    rescaled *= cads.psi
    rows *= 1.0 - cads.psi
    rows += rescaled


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
