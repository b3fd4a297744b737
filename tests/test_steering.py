import numpy as np
import pytest

import ctxrep.gmmflow as gf
import ctxrep.toydit as td
from ctxrep.steering import (
    LengthMismatch,
    SteeringSpec,
    blend,
    steered_run,
    steered_toy_run,
)


class TestBlend:
    def test_endpoint_identities_bitwise(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        assert np.array_equal(blend(a, b, 0.0), a)
        assert np.array_equal(blend(a, b, 1.0), b)

    def test_extrapolation_arithmetic(self):
        out = blend(np.array([0.0, 0.0]), np.array([2.0, 4.0]), -0.5)
        assert np.array_equal(out, np.array([-1.0, -2.0]))

    def test_affine_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        resid = blend(a, b, 0.3) + blend(a, b, 0.7) - (a + b)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            blend(np.zeros(3), np.zeros(4), 0.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SteeringSpec(alpha=np.inf)
        with pytest.raises(ValueError):
            SteeringSpec(alpha=0.5, space="pixel")
        with pytest.raises(ValueError):
            SteeringSpec(alpha=0.5, apply_interval=(0.9, 0.2))


class TestSteeredMixtureRun:
    def test_alpha_zero_is_plain_source_run(self):
        world = gf.MixtureWorld()
        plain = gf.sample_batch(
            world, gf.seed_prompt(world, 0)[None, :], "none", seed=0
        )[0]
        for space in ("contextual", "latent"):
            steered = steered_run(world, 0, 3, SteeringSpec(alpha=0.0, space=space))
            assert np.array_equal(steered.latents, plain.latents)
            assert np.array_equal(steered.contexts, plain.contexts)

    def test_alpha_one_contextual_adopts_target_mode(self):
        world = gf.MixtureWorld()
        target = gf.sample_batch(
            world, gf.seed_prompt(world, 3)[None, :], "none", seed=3
        )[0]
        steered = steered_run(world, 0, 3, SteeringSpec(alpha=1.0, space="contextual"))
        uniform = np.full(world.n_modes, 1.0 / world.n_modes)
        t_probe = 1.0 / world.n_steps
        _, resp_target = gf.posterior_denoiser(world, target.latents[-1], t_probe, uniform)
        _, resp_steered = gf.posterior_denoiser(world, steered.latents[-1], t_probe, uniform)
        assert int(np.argmax(resp_steered)) == int(np.argmax(resp_target))

    def test_alpha_sweep_monotone_distance_to_target(self):
        world = gf.MixtureWorld()
        target_center = world.mode_centers[3 % world.n_modes]
        previous = None
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            run = steered_run(world, 0, 3, SteeringSpec(alpha=alpha, space="contextual"))
            distance = float(np.linalg.norm(run.latents[-1] - target_center))
            if previous is not None:
                assert distance <= previous + 1e-9
            previous = distance

    def test_latent_full_replacement_reaches_target(self):
        world = gf.MixtureWorld()
        target = gf.sample_batch(
            world, gf.seed_prompt(world, 3)[None, :], "none", seed=3
        )[0]
        steered = steered_run(world, 0, 3, SteeringSpec(alpha=1.0, space="latent"))
        assert np.max(np.abs(steered.latents[-1] - target.latents[-1])) <= 1e-12


class TestSteeredToyRun:
    def test_alpha_zero_matches_plain_run(self):
        cfg = td.ToyDiTConfig(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        plain, _ = td.forward_with_hooks(
            [td.encode_prompt(cfg, 0)], td.seed_image_tokens(cfg, 11)[None, :, :], weights
        )
        steered = steered_toy_run(weights, 0, 1, 11, 22, SteeringSpec(alpha=0.0))
        assert np.array_equal(steered.text_tokens, plain[0].text_tokens)
        assert np.array_equal(steered.image_tokens, plain[0].image_tokens)

    def test_alpha_one_adopts_target_text_at_final_block(self):
        cfg = td.ToyDiTConfig(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        target, _ = td.forward_with_hooks(
            [td.encode_prompt(cfg, 1)], td.seed_image_tokens(cfg, 22)[None, :, :], weights
        )
        steered = steered_toy_run(weights, 0, 1, 11, 22, SteeringSpec(alpha=1.0))
        assert np.array_equal(steered.text_tokens, target[0].text_tokens)
        assert not np.array_equal(steered.image_tokens, target[0].image_tokens)

    def test_both_runs_walk_the_stack_through_block_forward(self, monkeypatch):
        cfg = td.ToyDiTConfig(n_dual_blocks=2, n_single_blocks=1)
        weights = td.init_weights(cfg)
        blocks = []
        original = td.block_forward

        def recording(state, w, block):
            blocks.append(block)
            return original(state, w, block)

        monkeypatch.setattr(td, "block_forward", recording)
        steered_toy_run(weights, 0, 1, 11, 22, SteeringSpec(alpha=0.5))
        # the target run, then the steered source run
        assert blocks == [0, 1, 2, 0, 1, 2]

    def test_non_contextual_space_rejected(self):
        weights = td.init_weights(td.ToyDiTConfig(n_dual_blocks=1, n_single_blocks=0))
        with pytest.raises(ValueError, match="latent"):
            steered_toy_run(weights, 0, 1, 11, 22, SteeringSpec(alpha=0.5, space="latent"))
