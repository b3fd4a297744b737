import dataclasses
import itertools
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxrep.gmmflow as gf
from ctxrep.linalg import ContextBatch, rbf_kernel
from ctxrep.repulsion import NumericOverflow, RepulsionConfig, fraction_in_interval
from ctxrep.rng import derive_seed
from ctxrep.vendi import average_pair_vendi, entropy_and_score

from . import _oracles
from ._golden import COLLAPSE_REPULSION, METHOD_KWARGS, digest, trajectory_arrays, where
from .test_golden_matrix import GOLDEN_KERNELS, GOLDEN_MATRIX


class TestWorld:
    def test_separability_guard(self):
        with pytest.raises(ValueError, match="separable"):
            gf.MixtureWorld(mode_sigma=1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("n_modes", 0, "n_modes must be >= 1"),
        ("n_steps", 0, "n_steps must be >= 1"),
        ("guidance_gamma", -1.0, "guidance_gamma must be >= 0"),
    ])
    def test_out_of_range_fields_are_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gf.MixtureWorld(**{field: value})

    def test_centers_on_circle(self):
        world = gf.MixtureWorld()
        radii = np.linalg.norm(world.mode_centers, axis=1)
        assert np.allclose(radii, world.radius, atol=1e-12)

    def test_centers_built_once_and_read_only(self):
        world = gf.MixtureWorld()
        assert world.mode_centers is world.mode_centers
        with pytest.raises(ValueError):
            world.mode_centers[0, 0] = 1.0

    def test_replace_builds_fresh_centers(self):
        world = gf.MixtureWorld()
        assert np.allclose(np.linalg.norm(world.mode_centers, axis=1), 4.0, atol=1e-12)
        wider = dataclasses.replace(world, radius=6.0)
        assert np.allclose(np.linalg.norm(wider.mode_centers, axis=1), 6.0, atol=1e-12)

    def test_pickled_world_compares_equal(self):
        world = gf.MixtureWorld(n_modes=5)
        centers = world.mode_centers
        copy = pickle.loads(pickle.dumps(world))
        assert copy == world and hash(copy) == hash(world)
        assert np.array_equal(copy.mode_centers, centers)
        assert not copy.mode_centers.flags.writeable


def plan_record(world: gf.MixtureWorld, method: str, batch: int, seed: int) -> bytes:
    """The bytes of one run's record, and of its metrics where the world has
    a radius to set the RBF bandwidth."""
    kwargs = METHOD_KWARGS[method]
    run = gf.sample_batch(world, gf.one_hot_prompts(world, batch), method, seed=seed, **kwargs)
    metrics = repr(gf.evaluate(run, world)) if world.radius else ""
    return b"".join(a.tobytes() for a in (run.times, run.latents, run.contexts)) + metrics.encode()


class TestPlan:
    def test_equal_worlds_built_apart_share_one_plan(self):
        assert gf.MixtureWorld().mode_centers is gf.MixtureWorld().mode_centers
        assert gf._plan(gf.MixtureWorld(n_steps=6)) is gf._plan(gf.MixtureWorld(n_steps=6))
        runs = [gf.sample_batch(gf.MixtureWorld(n_steps=6), np.zeros((2, 8)), seed=s)
                for s in (0, 1)]
        assert runs[0].times is runs[1].times

    def test_every_plan_array_and_the_times_are_read_only(self):
        world = gf.MixtureWorld(n_modes=3, n_steps=5)
        plan = gf._plan(world)
        arrays = [value for value in vars(plan).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 4
        arrays.append(gf.sample_batch(world, np.zeros((2, 3)), seed=0).times)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[0] = 1.0
        # everything else is a tuple of Python numbers
        for value in (plan.t_list, plan.steps, plan.fractions):
            assert isinstance(value, tuple)

    @pytest.mark.parametrize("steps", (1, 2, 7, 64))
    def test_a_window_is_the_steps_fraction_in_interval_admits(self, steps):
        plan = gf._plan(gf.MixtureWorld(n_steps=steps))
        for interval in ((0.0, 1.0), (0.0, 0.25), (0.25, 0.75), (0.5, 1.0), (0.9, 1.0),
                         (1 / 7, 3 / 7), (0, 1), (0.999, 1.0)):
            assert list(plan.window(interval)) == [
                j for j in range(steps) if fraction_in_interval(j, steps, interval)]

    def test_a_signed_zero_radius_keeps_its_own_centers(self):
        # equal worlds, but the centers of a -0.0 radius are -0.0: the plan
        # is keyed on the radius's sign too, whichever is built first
        positive, negative = (gf.MixtureWorld(n_modes=1, radius=r) for r in (0.0, -0.0))
        assert positive == negative
        for first, second in ((positive, negative), (negative, positive)):
            gf._built_plan.cache_clear()
            gf._plan(first), gf._plan(second)
            assert np.signbit(negative.mode_centers).all()
            assert not np.signbit(positive.mode_centers).any()

    @pytest.mark.parametrize("method", gf.METHODS)
    def test_a_float32_sigma_keeps_its_own_step_table(self, method):
        # equal worlds, but a float32 sigma rounds s_t^2 in float32: the plan
        # is keyed on the fields' types too, whichever is built first
        worlds = [gf.MixtureWorld(n_steps=8, mode_sigma=s) for s in (0.25, np.float32(0.25))]
        assert worlds[0] == worlds[1]
        alone = []
        for world in worlds:
            gf._built_plan.cache_clear()
            alone.append(plan_record(world, method, 3, 1))
        assert alone[0] != alone[1]
        for order in ((0, 1), (1, 0)):
            gf._built_plan.cache_clear()
            for i in order:
                assert plan_record(worlds[i], method, 3, 1) == alone[i]

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(gf.METHODS),
        world=st.sampled_from([{"n_modes": 1, "radius": 0.0}, {"n_modes": 1, "radius": -0.0},
                               {"n_modes": 3, "radius": 2.0}, {}]),
        steps=st.integers(1, 9),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(method="contextual", world={"n_modes": 1, "radius": -0.0}, steps=8, batch=3, seed=1)
    @example(method="latent", world={"n_modes": 1, "radius": 0.0}, steps=8, batch=3, seed=1)
    def test_records_do_not_depend_on_the_plan_cache(self, method, world, steps, batch, seed):
        gf._built_plan.cache_clear()
        reused = gf.MixtureWorld(n_steps=steps, **world)
        first = plan_record(reused, method, batch, seed)
        # a fresh equal world, the reused one, and at a zero radius the
        # equal world of the other sign, built after this one
        twin = dict(world, radius=-world["radius"]) if world.get("radius") == 0.0 else world
        for other in (gf.MixtureWorld(n_steps=steps, **world), reused,
                      gf.MixtureWorld(n_steps=steps, **twin)):
            assert plan_record(other, method, batch, seed) == first
        # more distinct worlds than the cache holds evict the plan
        centers = reused.mode_centers
        for extra in range(gf._PLANS):
            gf._plan(gf.MixtureWorld(n_steps=steps + 1 + extra, **world))
        assert reused.mode_centers is not centers
        assert plan_record(reused, method, batch, seed) == first


class TestConditionalWeights:
    def test_zero_gamma_uniform(self):
        w = gf.conditional_weights(np.array([5.0, -3.0, 1.0, 0.0]), 0.0)
        assert np.allclose(w, 0.25, atol=1e-15)

    def test_one_hot_dominance(self):
        world = gf.MixtureWorld()
        w = gf.conditional_weights(gf.one_hot_prompts(world, 1)[0], 1.0)
        assert w.max() >= 0.999

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(8)
        a = gf.conditional_weights(c, 1.3)
        b = gf.conditional_weights(c + 7.7, 1.3)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((5, 8))
        w = gf.conditional_weights(c, 2.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12


class TestPosteriorDenoiser:
    def test_small_time_limit_at_center(self):
        world = gf.MixtureWorld()
        z = world.mode_centers[2].copy()
        x0, _ = gf.posterior_denoiser(world, z, 1e-4, np.full(8, 1.0 / 8.0))
        assert np.linalg.norm(x0 - z) <= 1e-3
        x0b, _ = gf.posterior_denoiser(world, z, 1e-6, np.full(8, 1.0 / 8.0))
        assert np.linalg.norm(x0b - z) <= 1e-5

    def test_single_mode_matches_scalar_formula(self):
        world = gf.MixtureWorld(n_modes=1, radius=0.0, mode_sigma=0.3)
        z = np.array([0.4, -0.2])
        t = 0.6
        x0, resp = gf.posterior_denoiser(world, z, t, np.array([1.0]))
        s2 = (1 - t) ** 2 * 0.09 + t * t
        manual = (1 - t) * 0.09 / s2 * z
        assert np.max(np.abs(x0 - manual)) <= 1e-14
        assert resp[0] == 1.0

    def test_rejects_nonpositive_time(self):
        world = gf.MixtureWorld()
        with pytest.raises(ValueError):
            gf.posterior_denoiser(world, np.zeros(2), 0.0, np.full(8, 1.0 / 8.0))

    def test_no_nan_under_extreme_underflow(self):
        world = gf.MixtureWorld()
        weights = gf.conditional_weights(gf.one_hot_prompts(world, 1)[0] * 100, 1.0)
        x0, resp = gf.posterior_denoiser(world, np.array([100.0, -40.0]), 1e-3, weights)
        assert np.all(np.isfinite(x0)) and np.all(np.isfinite(resp))
        assert abs(resp.sum() - 1.0) <= 1e-12

    def test_score_matches_finite_differences(self):
        world = gf.MixtureWorld()
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(25):
            z = rng.normal(0.0, 2.0, 2)
            t = rng.uniform(0.05, 1.0)
            weights = gf.conditional_weights(rng.standard_normal(8), 1.0)
            analytic = gf.mixture_score(world, z, t, weights)
            fd = np.array(
                [
                    (
                        gf.log_density(world, z + h * e, t, weights)
                        - gf.log_density(world, z - h * e, t, weights)
                    )
                    / (2.0 * h)
                    for e in np.eye(2)
                ]
            )
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            assert rel <= 1e-6


class TestCoordinateMajorStep:
    @settings(max_examples=100, deadline=None)
    @given(
        seeds=st.sampled_from([1, 2, 5, 64]),
        batch=st.sampled_from([1, 2, 3, 8, 28]),
        modes=st.sampled_from([1, 2, 3, 8, 16]),
        log_scale=st.floats(-5.0, 5.0),
        step=st.integers(0, 7),
        draw=st.integers(0, 2**31),
    )
    def test_step_matches_the_sample_major_step(self, seeds, batch, modes, log_scale, step,
                                                draw):
        # offsets, squared offsets, feedback, posterior means and
        # responsibilities of the coordinate-major step have the bits of the
        # (..., B, 2t, K, 2) step, at one seed without the seed axis as the
        # integrator runs it
        world = gf.MixtureWorld(n_modes=modes, mode_sigma=0.2, n_steps=8)
        rng = np.random.default_rng(draw)
        lead = (seeds, batch) if seeds > 1 else (batch,)
        z = rng.standard_normal(lead + (2,)) * np.exp(log_scale)
        weights = gf._softmax(rng.standard_normal(lead + (modes,)))
        t, t_resp = 1.0 - step / 8, 1.0 - min(step + 1, 7) / 8
        centers = np.stack([(1.0 - t) * world.mode_centers, (1.0 - t_resp) * world.mode_centers])
        shrink = _oracles.step_scalars(world, t)[0]
        likelihood = _oracles.step_scalars(world, t_resp)[1]

        diff, sq = gf._offsets(z.reshape(-1, 2).T.copy(), centers[..., None])
        x0, resp = gf._denoise(world.mode_centers[..., None], diff[0], shrink, sq[1], likelihood,
                               weights.reshape(-1, modes))
        diff_rows, sq_rows = _oracles.offsets_rows(z, centers)
        x0_rows, resp_rows = _oracles.denoise_rows(world, diff_rows[..., 0, :, :], shrink,
                                                   sq_rows[..., 1, :], likelihood, weights)

        assert diff.transpose(3, 0, 1, 2).tobytes() == diff_rows.tobytes()
        assert sq.transpose(1, 0, 2).tobytes() == sq_rows.tobytes()
        assert gf._feedback(sq[0]).tobytes() == gf._feedback(sq_rows[..., 0, :]).tobytes()
        assert resp.tobytes() == resp_rows.tobytes()
        assert x0.T.tobytes() == x0_rows.tobytes()

    def test_step_scalars_match_the_oracle(self):
        world = gf.MixtureWorld()
        for t in (1.0, 0.75, 0.015625):
            s2 = gf._noise_scale_sq(world, t)
            assert (gf._shrink(world, t, s2), gf._likelihood(s2)) == _oracles.step_scalars(world, t)


class TestSampleBatch:
    def test_trajectory_shape_and_times(self):
        world = gf.MixtureWorld(n_steps=16)
        tr = gf.sample_batch(world, np.zeros((3, 8)), "none", seed=0)
        assert tr.latents.shape == (17, 3, 2)
        assert tr.contexts.shape == (17, 3, 8)
        assert tr.times[0] == 1.0 and tr.times[-1] == 0.0
        assert np.all(np.diff(tr.times) < 0)

    def test_bitwise_determinism(self):
        world = gf.MixtureWorld(n_steps=32)
        prompts = gf.one_hot_prompts(world, 4)
        a = gf.sample_batch(world, prompts, "contextual", seed=9, repulsion=COLLAPSE_REPULSION)
        b = gf.sample_batch(world, prompts, "contextual", seed=9, repulsion=COLLAPSE_REPULSION)
        assert np.array_equal(a.latents, b.latents)
        assert np.array_equal(a.contexts, b.contexts)

    def test_uniform_world_covers_all_modes(self):
        world = gf.MixtureWorld(guidance_gamma=0.0)
        for seed in range(3):
            trajectories = gf.sample_batch(world, np.zeros((64, 8)), "none", seed=seed)
            metrics = gf.evaluate(trajectories, world)
            assert metrics.mode_coverage == 8

    def test_collapse_under_sharp_prompts(self):
        world = gf.MixtureWorld()
        prompts = gf.one_hot_prompts(world, 8)
        for seed in range(5):
            metrics = gf.evaluate(gf.sample_batch(world, prompts, "none", seed=seed), world)
            assert metrics.mode_coverage == 1

    def test_contextual_rescue_beats_baseline(self):
        world = gf.MixtureWorld()
        prompts = gf.one_hot_prompts(world, 8)
        for seed in range(5):
            base = gf.evaluate(gf.sample_batch(world, prompts, "none", seed=seed), world)
            resc = gf.evaluate(
                gf.sample_batch(
                    world, prompts, "contextual", seed=seed, repulsion=COLLAPSE_REPULSION
                ),
                world,
            )
            assert resc.mode_coverage >= 2
            assert resc.vendi_rbf > base.vendi_rbf

    def test_latent_method_moves_samples_off_manifold(self):
        world = gf.MixtureWorld()
        prompts = gf.one_hot_prompts(world, 8)
        cfg = RepulsionConfig(
            eta=0.65, inner_steps=2, timestep_interval=(0.0, 1.0), gradient_normalization=True
        )
        offs = [
            gf.evaluate(
                gf.sample_batch(world, prompts, "latent", seed=seed, repulsion=cfg), world
            ).off_manifold_rate
            for seed in range(5)
        ]
        assert np.mean(offs) > 0.1

    def test_cads_schedule_and_determinism(self):
        params = gf.CadsParams(scale=0.3)
        assert params.corruption(0.2) == 1.0
        assert params.corruption(0.9) == 0.0
        assert abs(params.corruption(0.55) - 0.5) <= 1e-12

        world = gf.MixtureWorld()
        prompts = gf.one_hot_prompts(world, 4)
        a = gf.sample_batch(world, prompts, "cads", seed=4, cads=params)
        b = gf.sample_batch(world, prompts, "cads", seed=4, cads=params)
        assert np.array_equal(a.latents, b.latents)

    def test_cads_schedule_must_not_run_backwards(self):
        with pytest.raises(ValueError, match=r"^cads tau1 must not exceed tau2, got tau1 0\.9 > "
                                             r"tau2 0\.8$"):
            gf.CadsParams(tau1=0.9, tau2=0.8)
        # equal ends are a step at tau, with no division
        step = gf.CadsParams(tau1=0.5, tau2=0.5)
        assert [step.corruption(t) for t in (0.0, 0.5, 0.5000001, 1.0)] == [1.0, 1.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_cads_overflow_raises(self):
        # an infinite std of the corrupted rows would erase the prompts
        world = gf.MixtureWorld(n_steps=4, feedback_scale=0.0)
        prompts = gf.one_hot_prompts(world, 2)
        with pytest.raises(NumericOverflow, match="^cads corruption: overflow encountered"):
            gf.sample_batch(world, prompts, "cads", cads=gf.CadsParams(scale=1e300))
        gf.sample_batch(world, prompts, "cads", cads=gf.CadsParams(scale=1e40))

    @pytest.mark.parametrize("method", gf.METHODS)
    def test_seed_block_matches_sample_batch(self, method):
        # a repeated seed, a batch of 3 and the uniform world's 5 modes
        world = gf.MixtureWorld(n_modes=5, n_steps=24)
        prompts = gf.one_hot_prompts(world, 3, strength=4.0)
        kwargs = METHOD_KWARGS[method]
        seeds = [3, 1, 3, 12]
        segment = one_segment(prompts, **kwargs)
        cads = kwargs.get("cads")
        (blocks,) = gf.sample_segments(world, [segment], method, seeds=seeds, cads=cads)
        for seed, block in zip(seeds, blocks):
            solo = gf.sample_batch(world, prompts, method, seed=seed, **kwargs)
            assert trajectory_digest(block) == trajectory_digest(solo)
        assert gf.sample_segments(world, [segment], method, seeds=[], cads=cads) == [[]]

    def test_seed_block_validates_like_sample_batch(self):
        world = gf.MixtureWorld()
        with pytest.raises(ValueError, match="shape"):
            gf.sample_segments(world, [gf.Segment(np.zeros((2, 3)))], "none", seeds=[0])
        with pytest.raises(ValueError, match="requires a repulsion"):
            gf.sample_segments(world, [gf.Segment(gf.one_hot_prompts(world, 2))], "latent",
                               seeds=[0])
        prompts = gf.one_hot_prompts(world, 2)
        for bad in [(0.8, 0.2), (0.5, 0.5), (-0.1, 0.5), (0.0, 1.5)]:
            with pytest.raises(ValueError, match="cads interval"):
                gf.sample_batch(world, prompts, "cads", cads_interval=bad)
            with pytest.raises(ValueError, match="cads interval"):
                gf.sample_segments(world, [gf.Segment(prompts, cads_interval=bad)], "cads",
                                   seeds=[0])
            # other methods ignore the cads window
            gf.sample_batch(gf.MixtureWorld(n_steps=2), prompts, "none", cads_interval=bad)

    @pytest.mark.parametrize(
        "sample, seed",
        [
            (lambda w, p: gf.sample_batch(w, p, "none", seed=-1), -1),
            (lambda w, p: gf.sample_segments(w, [gf.Segment(p)], "cads", seeds=[0, -4, -5]), -4),
        ],
        ids=["sample_batch", "sample_segments"],
    )
    def test_negative_seed_is_named(self, sample, seed):
        world = gf.MixtureWorld(n_steps=2)
        with pytest.raises(ValueError) as caught:
            sample(world, gf.one_hot_prompts(world, 2))
        assert str(caught.value) == f"seed must be >= 0, got {seed}"

    def test_prompt_validation(self):
        world = gf.MixtureWorld()
        with pytest.raises(ValueError):
            gf.sample_batch(world, np.zeros((2, 5)), "none")
        with pytest.raises(ValueError):
            gf.sample_batch(world, np.zeros((2, 8)), "warp")
        with pytest.raises(ValueError):
            gf.sample_batch(world, np.zeros((2, 8)), "contextual")

    def test_repulsion_null_direction_on_logits(self):
        # shifting any context by a multiple of the all-ones vector cannot
        # change the conditional weights the repulsion feeds into
        world = gf.MixtureWorld()
        rng = np.random.default_rng(3)
        contexts = gf.one_hot_prompts(world, 4) + 0.1 * rng.standard_normal((4, 8))
        from ctxrep.linalg import ContextBatch
        from ctxrep.vendi import entropy_gradient

        grad = entropy_gradient(ContextBatch(contexts))
        ones = np.ones(8) / np.sqrt(8.0)
        parallel = (grad @ ones)[:, None] * ones[None, :]
        before = gf.conditional_weights(contexts, world.guidance_gamma)
        after = gf.conditional_weights(contexts + parallel, world.guidance_gamma)
        assert np.max(np.abs(after - before)) <= 1e-9


def two_row_record(start, finals) -> gf.Trajectories:
    """A hand-built record of one step from ``start`` to the (B, 2) ``finals``."""
    finals = np.array(finals, dtype=float)
    return gf.Trajectories(
        times=np.array([1.0, 0.0]),
        latents=np.stack([np.broadcast_to(start, finals.shape), finals]),
        contexts=np.zeros((2, len(finals), 8)),
    )


class TestEvaluate:
    def test_single_cluster_at_center(self):
        world = gf.MixtureWorld()
        center = world.mode_centers[0]
        trajectories = two_row_record([0.0, 0.0], [center] * 4)
        metrics = gf.evaluate(trajectories, world)
        assert metrics.mode_coverage == 1
        assert metrics.off_manifold_rate == 0.0
        assert abs(metrics.vendi_rbf - 1.0) <= 1e-9
        assert abs(metrics.avg_pair_vendi - 1.0) <= 1e-9

    def test_one_sample_per_center(self):
        world = gf.MixtureWorld()
        trajectories = two_row_record([0.0, 0.0], world.mode_centers)
        metrics = gf.evaluate(trajectories, world)
        assert metrics.mode_coverage == 8
        assert metrics.off_manifold_rate == 0.0

    def test_final_latent_at_origin_accepted(self):
        world = gf.MixtureWorld()
        trajectories = two_row_record([1.0, 1.0], [np.zeros(2), world.mode_centers[0]])
        metrics = gf.evaluate(trajectories, world)
        assert metrics.off_manifold_rate == 0.5
        assert 1.0 < metrics.vendi_rbf <= 2.0
        assert 1.0 < metrics.avg_pair_vendi <= 2.0

    def test_displaced_sample_counts_off_manifold(self):
        world = gf.MixtureWorld()
        displaced = world.mode_centers[0] + np.array([10.0 * world.mode_sigma, 0.0])
        points = [world.mode_centers[0], world.mode_centers[1], displaced, world.mode_centers[2]]
        trajectories = two_row_record([0.0, 0.0], points)
        metrics = gf.evaluate(trajectories, world)
        assert metrics.off_manifold_rate == 0.25

    def test_empty_record_is_rejected_by_name(self):
        # a record of no samples fails before any arithmetic, not as a
        # floating-point fault from the mean of no distances
        world = gf.MixtureWorld(n_steps=2)
        empty = gf.Trajectories(np.array([1.0, 0.5, 0.0]), np.empty((3, 0, 2)),
                                np.empty((3, 0, 8)))
        with pytest.raises(ValueError, match="^batch must contain at least one sample$"):
            gf.evaluate(empty, world)

    def test_one_rbf_kernel_feeds_both_scores(self, monkeypatch):
        world = gf.MixtureWorld()
        trajectories = gf.sample_batch(world, gf.one_hot_prompts(world, 6), "none", seed=3)
        built = []
        original = gf._rbf_entries

        def counting(points, bandwidth):
            built.append(bandwidth)
            return original(points, bandwidth)

        monkeypatch.setattr(gf, "_rbf_entries", counting)
        metrics = gf.evaluate(trajectories, world)
        assert built == [world.radius / 2.0]
        # the kernel is the public rbf_kernel's, and both scores are the public ones
        finals = ContextBatch(trajectories.latents[-1])
        kernel = rbf_kernel(finals, world.radius / 2.0)
        assert metrics.avg_pair_vendi == average_pair_vendi(kernel)
        assert metrics.vendi_rbf == entropy_and_score(kernel).score

    def test_scoring_overflow_raises(self):
        # two steps leave the finals far inside a circle of radius 1e154, so
        # squaring their offsets from the modes overflows. Scoring raises, as
        # the CLI does, instead of warning and returning a finite mean
        # nearest-mode distance
        world = gf.MixtureWorld(radius=1e154, n_steps=2)
        prompts = gf.one_hot_prompts(world, 8, strength=-1e300)
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            gf.evaluate_segments(world, [one_segment(prompts)], seeds=[0])


def one_segment(prompts, repulsion=None, cads=None, cads_interval=(0.0, 1.0)) -> gf.Segment:
    """The one segment that ``sample_batch`` makes of its keyword arguments;
    ``cads`` is a run's, not a segment's, so it is left out."""
    return gf.Segment(prompts, repulsion, cads_interval)


def trajectory_digest(run) -> str:
    return digest(trajectory_arrays(run))


class TestGoldenTrajectories:
    @pytest.mark.parametrize("method", gf.METHODS)
    def test_seed_block(self, method):
        # one array program over the seeds, each entry the seed's own golden run
        world = gf.MixtureWorld()
        seeds = (0, 7, 19)
        kwargs = METHOD_KWARGS[method]
        (blocks,) = gf.sample_segments(
            world, [one_segment(gf.one_hot_prompts(world, 8), **kwargs)], method, seeds=seeds,
            cads=kwargs.get("cads"),
        )
        assert [trajectory_digest(b) for b in blocks] == [
            GOLDEN_MATRIX[f"sample_batch-{method}-{seed}", "trajectories"] for seed in seeds
        ], where(GOLDEN_KERNELS)


class TestStackedScoring:
    @pytest.mark.parametrize("method", gf.METHODS)
    @pytest.mark.parametrize("seeds", (1, 2, 5))
    @pytest.mark.parametrize("batch", (1, 2, 8, 16))
    @settings(max_examples=2, deadline=None)
    @given(start=st.integers(0, 2**31))
    def test_each_seed_scores_as_evaluate(self, method, seeds, batch, start):
        # every record of one stacked pass has the bits of its seed's own
        # evaluate, and of the per-batch scoring evaluate replaced
        world = gf.MixtureWorld(n_steps=8)
        prompts = gf.one_hot_prompts(world, batch)
        block = range(start, start + seeds)
        kwargs = METHOD_KWARGS[method]
        (stacked,) = gf.evaluate_segments(world, [one_segment(prompts, **kwargs)], method,
                                          seeds=block, cads=kwargs.get("cads"))
        assert len(stacked) == seeds
        for seed, metrics in zip(block, stacked):
            trajectories = gf.sample_batch(world, prompts, method, seed=seed,
                                           **METHOD_KWARGS[method])
            assert repr(metrics) == repr(gf.evaluate(trajectories, world))
            assert repr(metrics.as_dict()) == repr(_oracles.batch_metrics(trajectories, world))

    def test_no_seeds_no_records(self):
        world = gf.MixtureWorld(n_steps=4)
        segment = gf.Segment(gf.one_hot_prompts(world, 3))
        assert gf.evaluate_segments(world, [segment], seeds=[]) == [[]]

    def test_non_finite_finals_are_named(self):
        world = gf.MixtureWorld()
        trajectories = gf.sample_batch(world, gf.one_hot_prompts(world, 3), "none", seed=0)
        latents = trajectories.latents.copy()
        latents[-1, 1, 0] = np.nan
        with pytest.raises(ValueError, match="^batch entries must be finite$"):
            gf.evaluate(dataclasses.replace(trajectories, latents=latents), world)


# With 8 steps: the first two, the middle four, the last half, all, and none
# (step 7 sits at 0.875).
SEGMENT_WINDOWS = [(0.0, 0.25), (0.25, 0.75), (0.5, 1.0), (0.0, 1.0), (0.9, 1.0)]


def segment_of(method: str, size: int, mode: int, window) -> gf.Segment:
    """A one-hot segment of ``size`` samples whose method reads ``window``."""
    world = gf.MixtureWorld(n_modes=5)
    prompts = gf.one_hot_prompts(world, size, mode=mode, strength=4.0)
    if method in ("contextual", "latent"):
        base = METHOD_KWARGS[method]["repulsion"]
        return gf.Segment(prompts, dataclasses.replace(base, timestep_interval=window))
    return gf.Segment(prompts, cads_interval=window)


class TestSegments:
    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(gf.METHODS),
        layout=st.lists(
            st.tuples(st.integers(1, 16), st.integers(0, 4), st.sampled_from(SEGMENT_WINDOWS)),
            min_size=1, max_size=4,
        ),
        seeds=st.sampled_from([1, 3]).flatmap(
            lambda n: st.lists(st.integers(0, 2**31), min_size=n, max_size=n)
        ),
    )
    @example(method="contextual", seeds=[5, 0, 5], layout=[
        (1, 0, (0.0, 0.25)), (16, 0, (0.9, 1.0)), (3, 2, (0.0, 1.0)), (1, 0, (0.0, 1.0)),
    ])
    def test_each_segment_runs_as_its_own_batch(self, method, layout, seeds):
        # every segment's latents, contexts and metrics have the bits of its
        # own run, whatever the other segments' sizes, prompts and windows
        world = gf.MixtureWorld(n_modes=5, n_steps=8)
        cads = METHOD_KWARGS["cads"]["cads"]
        segments = [segment_of(method, *entry) for entry in layout]
        runs = gf.sample_segments(world, segments, method, seeds=seeds, cads=cads)
        metrics = gf.evaluate_segments(world, segments, method, seeds=seeds, cads=cads)
        assert [len(r) for r in runs] == [len(m) for m in metrics] == [len(seeds)] * len(layout)
        for segment, seg_runs, seg_metrics in zip(segments, runs, metrics):
            kwargs = {"repulsion": segment.repulsion, "cads": cads,
                      "cads_interval": segment.cads_interval}
            for seed, run, record in zip(seeds, seg_runs, seg_metrics):
                solo = gf.sample_batch(world, segment.prompts, method, seed=seed, **kwargs)
                assert trajectory_digest(run) == trajectory_digest(solo)
                assert repr(record) == repr(gf.evaluate(solo, world))
            assert repr(seg_metrics) == repr(
                gf.evaluate_segments(world, [segment], method, seeds=seeds, cads=cads)[0])

    def test_records_are_read_only_views_of_one_run(self):
        world = gf.MixtureWorld(n_modes=5, n_steps=8)
        segments = [segment_of("none", 2, 0, (0.0, 1.0)), segment_of("none", 3, 1, (0.0, 1.0))]
        records = [r for seg in gf.sample_segments(world, segments, seeds=[4, 9]) for r in seg]
        for record in records:
            for name in ("times", "latents", "contexts"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(record, name)[-1] = 0.0
        for a, b in itertools.combinations(records, 2):
            assert a.times is b.times
            assert not np.shares_memory(a.latents, b.latents)
            assert not np.shares_memory(a.contexts, b.contexts)
        # every record is a view of the run's one latents buffer, which they tile
        buffer = records[0].latents.base
        assert buffer is not None
        assert all(r.latents.base is buffer for r in records)
        assert sum(r.latents.size for r in records) == buffer.size

    @pytest.mark.parametrize("method", gf.METHODS)
    @pytest.mark.parametrize("form", ["nested-list", "int", "float32"])
    def test_prompts_of_any_numeric_form_run_as_float64(self, method, form):
        # each form is converted to the float64 array's bits, and the
        # caller's object is left as it was
        world = gf.MixtureWorld(n_modes=5, n_steps=8)
        prompts = np.concatenate([gf.one_hot_prompts(world, 2, mode=m, strength=4.0)
                                  for m in (0, 3)])
        given = {"nested-list": prompts.tolist(), "int": prompts.astype(int),
                 "float32": prompts.astype(np.float32)}[form]
        before = pickle.dumps(given)
        kwargs = METHOD_KWARGS[method]
        cads = kwargs.get("cads")
        reference = one_segment(prompts, kwargs.get("repulsion"))
        segment = one_segment(given, kwargs.get("repulsion"))
        seeds = [2, 9]
        for run, record in ((gf.sample_segments, trajectory_digest),
                            (gf.evaluate_segments, repr)):
            want, got = ([record(r) for r in run(world, [s], method, seeds=seeds, cads=cads)[0]]
                         for s in (reference, segment))
            assert got == want
        solo = gf.sample_batch(world, given, method, seed=2, **kwargs)
        assert trajectory_digest(solo) == trajectory_digest(
            gf.sample_batch(world, prompts, method, seed=2, **kwargs))
        assert segment.prompts is given
        assert pickle.dumps(given) == before

    def test_no_seeds_or_no_segments(self):
        world = gf.MixtureWorld(n_steps=4)
        segments = [gf.Segment(gf.one_hot_prompts(world, n)) for n in (2, 3)]
        assert gf.sample_segments(world, segments, seeds=[]) == [[], []]
        assert gf.evaluate_segments(world, segments, seeds=[]) == [[], []]
        assert gf.evaluate_segments(world, [], seeds=[0, 1]) == []

    def test_every_segment_is_checked_before_any_flow(self):
        world = gf.MixtureWorld(n_steps=4)
        good = gf.Segment(gf.one_hot_prompts(world, 2), COLLAPSE_REPULSION)
        with pytest.raises(ValueError, match="requires a repulsion"):
            gf.evaluate_segments(world, [good, gf.Segment(good.prompts)], "contextual",
                                 seeds=[])
        with pytest.raises(ValueError, match="cads interval"):
            gf.sample_segments(world, [good, gf.Segment(good.prompts, cads_interval=(0.5, 0.5))],
                               "cads", seeds=[0])


class TestFeedbackZero:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 16),
        mode=st.integers(0, 7),
        inner_and_eta=st.integers(1, 3).flatmap(
            lambda n: st.tuples(st.just(n), st.floats(0.0, 4.0 * n))),
        window=st.sampled_from(SEGMENT_WINDOWS),
        normalize=st.booleans(),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=3),
    )
    @example(batch=9, mode=0, inner_and_eta=(1, 4.0), window=(0.0, 1.0), normalize=True,
             seeds=[0])
    def test_contextual_is_none_bit_for_bit(self, batch, mode, inner_and_eta, window,
                                            normalize, seeds):
        """Without image feedback, contextual repulsion of identical one-hot
        prompts changes no bit of any latent or context.

        Why. At ``feedback_scale = 0`` each step's context is the prompt
        plus a feedback of signed zeros, so the repelled rows are the
        prompts exactly: B identical rows of ``strength`` at the prompted
        mode and zeros elsewhere. The entropy gradient of a row is a sum of
        scalars times the unit rows, so it is exactly 0 off the prompted
        mode. On the mode it is twice the difference of one kernel row sum
        taken in two orders (the BLAS product and the radial sum), over
        the strength: roundoff, at most 1.8e-16 at strength 10 for
        B <= 32 (it peaks at B = 9, and is exactly 0 for B <= 7). That is
        under the 1e-12 normalization floor, so the normalized gradient is
        the same roundoff. Each inner step adds eta / inner_steps times it
        to 10, whose half ulp is 8.9e-16: a step below 5 rounds back to 10,
        the context deltas are exactly 0, and the run is ``none``'s.

        Bound. eta / inner_steps < 5 at strength 10 (the step of 5.1 moves
        a bit at B = 9); this property tests eta / inner_steps <= 4.
        """
        inner, eta = inner_and_eta
        world = gf.MixtureWorld(n_steps=8, feedback_scale=0.0)
        prompts = gf.one_hot_prompts(world, batch, mode=mode, strength=10.0)
        repulsion = RepulsionConfig(eta=eta, inner_steps=inner, timestep_interval=window,
                                    gradient_normalization=normalize)
        (plain,) = gf.sample_segments(world, [gf.Segment(prompts)], "none", seeds=seeds)
        (repelled,) = gf.sample_segments(world, [gf.Segment(prompts, repulsion)], "contextual",
                                         seeds=seeds)
        assert [trajectory_digest(run) for run in repelled] == [
            trajectory_digest(run) for run in plain]


class CountingGenerator:
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self._rng.standard_normal(*args, **kwargs)


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCadsRows:
    @settings(max_examples=100, deadline=None)
    @given(
        layout=st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, 4), st.sampled_from(SEGMENT_WINDOWS)),
            min_size=1, max_size=3,
        ),
        seeds=st.sampled_from([1, 3]).flatmap(
            lambda n: st.lists(st.integers(0, 2**31), min_size=n, max_size=n)
        ),
        psi=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
        scale=st.sampled_from([0.0, 0.5]),
    )
    @example(layout=[(3, 1, (0.9, 1.0)), (1, 0, (0.25, 0.75)), (6, 4, (0.0, 1.0))],
             seeds=[7, 0, 7], psi=1.5, scale=0.5)
    def test_segments_match_the_step_by_step_loop(self, layout, seeds, psi, scale):
        # the corruption built once per run has the bits of one draw and one
        # corruption per in-window step, for empty, partial and full windows
        world = gf.MixtureWorld(n_modes=5, n_steps=8)
        cads = gf.CadsParams(scale=scale, psi=psi)
        segments = [segment_of("cads", *entry) for entry in layout]
        runs = gf.sample_segments(world, segments, "cads", seeds=seeds, cads=cads)
        for segment, seg_runs in zip(segments, runs):
            for seed, run in zip(seeds, seg_runs):
                latents, contexts = _oracles.cads_run(world, segment, seed, cads)
                assert run.latents.tobytes() == latents.tobytes()
                assert run.contexts.tobytes() == contexts.tobytes()

    def test_one_draw_per_seed_and_segment(self, monkeypatch):
        # each (seed, segment) draws all its in-window noise in one call, and
        # a segment whose window holds no step draws none
        world = gf.MixtureWorld(n_modes=5, n_steps=8)
        seeds = [3, 8, 3]
        segments = [segment_of("cads", 2, 0, window)
                    for window in [(0.0, 1.0), (0.9, 1.0), (0.25, 0.75)]]
        expected = gf.sample_segments(world, segments, "cads", seeds=seeds)
        built, real = [], np.random.default_rng

        def counting_rng(seed):
            built.append((seed, CountingGenerator(real(seed))))
            return built[-1][1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        runs = gf.sample_segments(world, segments, "cads", seeds=seeds)
        cads_seeds = {derive_seed(seed, gf._CADS_SALT) for seed in seeds}
        assert [g.calls for seed, g in built if seed in cads_seeds] == [1] * 6
        assert [g.calls for seed, g in built if seed not in cads_seeds] == [1] * 9
        assert [[trajectory_digest(r) for r in seg] for seg in runs] == [
            [trajectory_digest(r) for r in seg] for seg in expected]

    def test_peak_memory_stays_near_none(self):
        # the rows are corrupted in the record, a chunk of steps at a time,
        # so a cads block needs about the memory of a plain one
        world = gf.MixtureWorld()
        prompts = gf.one_hot_prompts(world, 8)
        peaks = {
            method: traced_peak(lambda: gf.evaluate_segments(
                world, [gf.Segment(prompts)], method, seeds=range(300),
                cads=gf.CadsParams(scale=0.5)))
            for method in ("none", "cads")
        }
        assert peaks["cads"] <= 1.5 * peaks["none"]


class TestContextHook:
    @pytest.mark.parametrize("method", gf.METHODS)
    def test_editing_the_argument_in_place_equals_returning_a_copy(self, method):
        # the hook sees a view of the record; editing it and returning it is
        # the same as returning an edited copy
        world = gf.MixtureWorld(n_steps=12)
        prompts = gf.one_hot_prompts(world, 4)
        times = []

        def in_place(step, t, context):
            times.append(t)
            context[:, step % world.n_modes] += 0.5
            return context

        def copying(step, t, context):
            edited = context.copy()
            edited[:, step % world.n_modes] += 0.5
            return edited

        runs = [
            gf.sample_batch(world, prompts, method, seed=5, context_hook=hook,
                            **METHOD_KWARGS[method])
            for hook in (in_place, copying, None)
        ]
        assert trajectory_digest(runs[0]) == trajectory_digest(runs[1])
        assert trajectory_digest(runs[0]) != trajectory_digest(runs[2])
        assert [type(t) for t in times] == [float] * world.n_steps

    def test_latent_hook_gets_a_python_float_time(self):
        world = gf.MixtureWorld(n_steps=6)
        times = []
        gf.sample_batch(world, gf.one_hot_prompts(world, 2), "none",
                        latent_hook=lambda step, t, z: times.append(t) or z)
        assert times == (1.0 - np.arange(6) / 6).tolist()
        assert [type(t) for t in times] == [float] * 6


class TestHooks:
    @settings(max_examples=20, deadline=None)
    @given(method=st.sampled_from(gf.METHODS), batch=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    def test_identity_hooks_returning_a_copy_keep_every_bit(self, method, batch, seed):
        world = gf.MixtureWorld(n_steps=10)
        prompts = gf.one_hot_prompts(world, batch)
        runs = [
            gf.sample_batch(world, prompts, method, seed=seed, **hooks, **METHOD_KWARGS[method])
            for hooks in ({}, {"latent_hook": lambda step, t, z: z.copy()},
                          {"context_hook": lambda step, t, context: context.copy()})
        ]
        assert len({trajectory_digest(run) for run in runs}) == 1

    @pytest.mark.parametrize("method", gf.METHODS)
    def test_the_latents_a_hook_returns_are_the_state(self, method):
        # an edit in place, an edited copy and an edited Fortran-ordered copy
        # all move the run alike, so the step reads what the hook returns
        world = gf.MixtureWorld(n_steps=10)
        prompts = gf.one_hot_prompts(world, 4)
        seen = []

        def in_place(step, t, z):
            seen.append(z.copy())
            z[:, 0] += 0.25
            return z

        hooks = [
            in_place,
            lambda step, t, z: z + [0.25, 0.0],
            lambda step, t, z: np.asfortranarray(z + [0.25, 0.0]),
            None,
        ]
        runs = [
            gf.sample_batch(world, prompts, method, seed=5, latent_hook=hook,
                            **METHOD_KWARGS[method])
            for hook in hooks
        ]
        digests = [trajectory_digest(run) for run in runs]
        assert digests[0] == digests[1] == digests[2] != digests[3]
        # without latent repulsion, step j's hook sees the record's row j
        if method != "latent":
            assert np.stack(seen).tobytes() == runs[0].latents[:-1].tobytes()


class TestUnderflowingWeights:
    @pytest.mark.parametrize("method", gf.METHODS)
    def test_no_warning_at_guidance_100(self, method):
        # the weights of the unprompted modes underflow to exactly 0, and the
        # sampler takes their log, -inf, without a divide-by-zero warning
        world = gf.MixtureWorld(guidance_gamma=100.0, n_steps=16)
        prompts = gf.one_hot_prompts(world, 4)
        assert np.count_nonzero(gf.conditional_weights(prompts[0], 100.0) == 0.0) == 7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectories = gf.sample_batch(world, prompts, method, seed=0,
                                           **METHOD_KWARGS[method])
            gf.evaluate(trajectories, world)
        assert np.isfinite(trajectories.latents).all()

