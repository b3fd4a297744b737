"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

import csv
import pathlib
import time

import numpy as np

import ctxrep.gmmflow as gf
import ctxrep.toydit as td
from ctxrep.cli import run_command
from ctxrep.linalg import ContextBatch, SymMatrix, cosine_kernel, eigh
from ctxrep.repulsion import RepulsionConfig, repulse
from ctxrep.steering import SteeringSpec, blend, steered_run
from ctxrep.vendi import entropy_and_score, entropy_gradient

from ._oracles import fd_entropy_gradient

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

COLLAPSE_REPULSION = RepulsionConfig(
    eta=2.0, inner_steps=2, timestep_interval=(0.0, 0.25), gradient_normalization=True
)
# Latent eta grid that brackets contextual diversity; 0.65 is the shipped latent_eta.
LATENT_ETA_GRID = (0.5, 0.65, 1.0)


def _report(number: int, label: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{verdict}] {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def batch_score(vectors: np.ndarray) -> float:
    return entropy_and_score(cosine_kernel(ContextBatch(vectors))).score


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for b in (2, 4, 8):
        for nd in (4, 16, 64):
            for seed in range(100):
                rng = np.random.default_rng(seed * 31 + b * 7 + nd)
                vectors = rng.standard_normal((b, nd))
                analytic = entropy_gradient(ContextBatch(vectors))
                fd = fd_entropy_gradient(vectors, 1e-5)
                scale = float(np.max(np.abs(analytic)))
                worst = max(worst, float(np.max(np.abs(fd - analytic))) / max(scale, 1e-30))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "analytic gradient matches central differences over the B x ND grid",
        worst <= 1e-5 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_vendi_exactness():
    identical = entropy_and_score(SymMatrix(np.ones((4, 4))))
    orthonormal = entropy_and_score(SymMatrix(np.eye(4)))
    half = entropy_and_score(SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
    anchors = (
        abs(identical.score - 1.0) <= 1e-4
        and abs(orthonormal.score - 4.0) <= 1e-4
        and abs(half.score - 1.75477) <= 1e-4
    )

    rng = np.random.default_rng(2024)
    bounded = True
    for _ in range(1000):
        b = int(rng.integers(2, 9))
        nd = int(rng.integers(3, 17))
        value = entropy_and_score(cosine_kernel(ContextBatch(rng.standard_normal((b, nd)))))
        if not (1.0 - 1e-9 <= value.score <= b + 1e-9):
            bounded = False
            break
    _report(
        2,
        "score matches the analytic anchors and stays in [1, B] on 1000 random kernels",
        anchors and bounded,
        f"half-correlated pair score {half.score:.6f}",
    )


def test_criterion_3_eigensolver_residuals():
    # the solver the package runs: LAPACK through linalg.eigh
    rng = np.random.default_rng(7)
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        a = rng.standard_normal((n, n))
        m = SymMatrix((a + a.T) / 2.0)
        dec = eigh(m)
        scale = max(1.0, float(np.max(np.abs(m.entries))))
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        worst_recon = max(worst_recon, float(np.max(np.abs(rebuilt - m.entries))) / scale)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(n)))))

    worst_pair = 0.0
    for rho in np.linspace(-0.99, 0.99, 34):
        dec = eigh(SymMatrix(np.array([[1.0, rho], [rho, 1.0]])))
        expected = np.array([1.0 + abs(rho), 1.0 - abs(rho)])
        worst_pair = max(worst_pair, float(np.max(np.abs(dec.eigenvalues - expected))))

    _report(
        3,
        "reconstruction/orthonormality <= 1e-10 on 1000 matrices; exact 2x2 spectra",
        worst_recon <= 1e-10 and worst_orth <= 1e-10 and worst_pair <= 1e-12,
        f"recon {worst_recon:.1e}, orth {worst_orth:.1e}, pair {worst_pair:.1e}",
    )


def test_criterion_4_repulsion_contract():
    rng = np.random.default_rng(99)
    vectors = rng.standard_normal((4, 8))

    zero_eta = repulse(ContextBatch(vectors), RepulsionConfig(eta=0.0, inner_steps=4))
    single = repulse(ContextBatch(vectors[:1]), RepulsionConfig(eta=3.0, inner_steps=2))
    identities = np.array_equal(zero_eta.vectors, vectors) and np.array_equal(
        single.vectors, vectors[:1]
    )

    eta, k = 0.04, 2
    whole = repulse(ContextBatch(vectors), RepulsionConfig(eta=eta, inner_steps=2 * k))
    half_cfg = RepulsionConfig(eta=eta / 2.0, inner_steps=k)
    chained = repulse(repulse(ContextBatch(vectors), half_cfg), half_cfg)
    splitting = np.array_equal(whole.vectors, chained.vectors)

    monotone = True
    for trial in range(100):
        trial_rng = np.random.default_rng(trial)
        b = int(trial_rng.integers(2, 7))
        batch = trial_rng.standard_normal((b, 8))
        scale = float(np.mean(np.linalg.norm(batch, axis=1)))
        cfg = RepulsionConfig(eta=1e-3 * scale, inner_steps=1, gradient_normalization=True)
        if batch_score(repulse(ContextBatch(batch), cfg).vectors) < batch_score(batch) - 1e-9:
            monotone = False
            break

    _report(
        4,
        "eta=0 and B=1 bitwise identities, bitwise splitting, monotone normalized steps",
        identities and splitting and monotone,
    )


def test_criterion_5_toy_transformer_mechanism():
    cfg = td.ToyDiTConfig()
    weights = td.init_weights(cfg)
    prompts = [td.encode_prompt(cfg, 0) for _ in range(4)]
    images = np.stack([td.seed_image_tokens(cfg, i) for i in range(4)])

    finals, _ = td.forward_with_hooks(prompts, images, weights)
    independent = True
    for i in range(4):
        solo, _ = td.forward_with_hooks([prompts[i]], images[i : i + 1], weights)
        if not (
            np.array_equal(solo[0].text_tokens, finals[i].text_tokens)
            and np.array_equal(solo[0].image_tokens, finals[i].image_tokens)
        ):
            independent = False

    text_cfg = RepulsionConfig(
        eta=0.04, inner_steps=4, timestep_interval=(0.0, 1.0),
        target_stream="text", gradient_normalization=True,
    )
    _, snaps_on = td.forward_with_hooks(prompts, images, weights, text_cfg)
    final_text = [s for s in snaps_on if s.stream == "text"][-1]
    text_vendi = batch_score(final_text.vectors)

    one_block = td.ToyDiTConfig(n_dual_blocks=1, n_single_blocks=0)
    weights1 = td.init_weights(one_block)
    prompts1 = [td.encode_prompt(one_block, 0) for _ in range(4)]
    images1 = np.stack([td.seed_image_tokens(one_block, i) for i in range(4)])
    image_cfg = RepulsionConfig(
        eta=0.04, inner_steps=4, target_stream="image", gradient_normalization=True
    )
    _, base_snaps = td.forward_with_hooks(prompts1, images1, weights1)
    _, image_snaps = td.forward_with_hooks(prompts1, images1, weights1, image_cfg)
    text_base = [s for s in base_snaps if s.stream == "text"][0]
    text_imaged = [s for s in image_snaps if s.stream == "text"][0]
    image_base = [s for s in base_snaps if s.stream == "image"][0]
    image_imaged = [s for s in image_snaps if s.stream == "image"][0]
    wiring = np.array_equal(text_imaged.vectors, text_base.vectors) and not np.array_equal(
        image_imaged.vectors, image_base.vectors
    )

    _report(
        5,
        "batch independence bitwise; text repulsion lifts text Vendi; image wiring isolated",
        independent and text_vendi > 1.0 + 1e-6 and wiring,
        f"text vendi {text_vendi:.4f}",
    )


def test_criterion_6_flow_correctness_and_landing():
    world = gf.MixtureWorld()
    rng = np.random.default_rng(17)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
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
        worst = max(worst, float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)))

    uniform_world = gf.MixtureWorld(guidance_gamma=0.0)
    on_manifold = 0
    total = 0
    for seed in range(50):
        trajectories = gf.sample_batch(uniform_world, np.zeros((64, 8)), "none", seed=seed)
        finals = np.stack([tr.latents[-1] for tr in trajectories])
        diff = finals[:, None, :] - uniform_world.mode_centers[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2)).min(axis=1)
        on_manifold += int(np.sum(dist <= 3.0 * uniform_world.mode_sigma))
        total += finals.shape[0]
    rate = on_manifold / total

    _report(
        6,
        "score matches finite differences; T=64 flow lands >= 99% within 3 sigma",
        worst <= 1e-6 and rate >= 0.99,
        f"score rel err {worst:.1e}, landing {rate:.4f}",
    )


def test_criterion_7_collapse_and_rescue():
    world = gf.MixtureWorld()
    prompts = gf.one_hot_prompts(world, 8)
    collapse_clean = True
    vendi_wins = 0
    coverage_ok = True
    off_ok = True
    for seed in range(20):
        base = gf.evaluate(gf.sample_batch(world, prompts, "none", seed=seed), world)
        rescued = gf.evaluate(
            gf.sample_batch(world, prompts, "contextual", seed=seed, repulsion=COLLAPSE_REPULSION),
            world,
        )
        if base.mode_coverage != 1:
            collapse_clean = False
        if rescued.mode_coverage < 2:
            coverage_ok = False
        if rescued.off_manifold_rate > 1.0 / 8.0:
            off_ok = False
        if rescued.vendi_rbf > base.vendi_rbf:
            vendi_wins += 1
    _report(
        7,
        "collapse at coverage 1; contextual rescue with bounded off-manifold rate",
        collapse_clean and coverage_ok and off_ok and vendi_wins >= 18,
        f"vendi wins {vendi_wins}/20",
    )


def _collapse_metrics(world, prompts, method, repulsion):
    runs = [
        gf.evaluate(gf.sample_batch(world, prompts, method, seed=seed, repulsion=repulsion), world)
        for seed in range(20)
    ]
    return (
        np.array([r.vendi_rbf for r in runs]),
        np.array([r.off_manifold_rate for r in runs]),
    )


def test_criterion_8_contextual_vs_latent_ordering():
    # The 20-seed mean contextual Vendi has a seed standard error of about 0.23
    # and moves by about 0.1 when the prompts move by one ulp, so the claim is
    # tested on a fixed latent eta grid that brackets it, not at one matched eta.
    world = gf.MixtureWorld()
    details = []
    passed = True
    for scale in (1.0, 1.0 + 1e-15):
        prompts = gf.one_hot_prompts(world, 8) * scale
        ctx_vendi, ctx_off = _collapse_metrics(world, prompts, "contextual", COLLAPSE_REPULSION)
        lat_vendi, lat_off, ge_counts = [], [], []
        for eta in LATENT_ETA_GRID:
            latent = RepulsionConfig(
                eta=eta, inner_steps=2, timestep_interval=(0.0, 1.0), gradient_normalization=True
            )
            vendi, off = _collapse_metrics(world, prompts, "latent", latent)
            lat_vendi.append(float(np.mean(vendi)))
            lat_off.append(float(np.mean(off)))
            ge_counts.append(int(np.sum(off >= ctx_off)))

        bracketed = lat_vendi[0] <= float(np.mean(ctx_vendi)) <= lat_vendi[-1]
        more_off = all(off > float(np.mean(ctx_off)) for off in lat_off)
        per_seed = all(count >= 11 for count in ge_counts)
        monotone = all(a <= b for a, b in zip(lat_off, lat_off[1:]))
        passed = passed and bracketed and more_off and per_seed and monotone
        details.append(
            f"x{scale!r}: vendi {lat_vendi[0]:.3f} <= {np.mean(ctx_vendi):.3f} <= "
            f"{lat_vendi[-1]:.3f}; off {np.mean(ctx_off):.3f} vs "
            + "/".join(f"{off:.3f}" for off in lat_off)
            + "; ge " + "/".join(str(count) for count in ge_counts)
        )
    _report(
        8,
        "latent repulsion strays off-manifold more than contextual across a bracket of its diversity",
        passed,
        "; ".join(details),
    )


def _aggregate_csv(path, value_key, metric):
    groups = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            groups.setdefault(row[value_key], []).append(float(row[metric]))
    return {value: float(np.mean(items)) for value, items in groups.items()}


def test_criterion_9_ablation_trends(tmp_path):
    batch_csv = tmp_path / "batch.csv"
    code = run_command(
        ["ablate", "--axis", "batch", "--config", str(CONFIG_DIR / "ablate_batch.cfg"),
         "--output", str(batch_csv)]
    )
    assert code == 0
    pair = _aggregate_csv(batch_csv, "value", "avg_pair_vendi")
    series = [pair[str(b)] for b in (4, 8, 16)]
    batch_trend = series[0] <= series[1] <= series[2]

    timestep_csv = tmp_path / "timestep.csv"
    code = run_command(
        ["ablate", "--axis", "timestep", "--config", str(CONFIG_DIR / "ablate_timestep.cfg"),
         "--output", str(timestep_csv)]
    )
    assert code == 0
    off = _aggregate_csv(timestep_csv, "value", "off_manifold_rate")
    late, full = off["0.75:1"], off["0:1"]
    timestep_trend = late < full

    _report(
        9,
        "pair score non-decreasing in batch size; late-window cheaper than full window",
        batch_trend and timestep_trend,
        f"pair {series[0]:.3f}/{series[1]:.3f}/{series[2]:.3f}; off late {late:.3f} full {full:.3f}",
    )


def test_criterion_10_steering():
    world = gf.MixtureWorld()
    plain = gf.sample_batch(world, gf.seed_prompt(world, 0)[None, :], "none", seed=0)[0]
    endpoints = True
    for space in ("contextual", "latent"):
        zero = steered_run(world, 0, 3, SteeringSpec(alpha=0.0, space=space))
        if not np.array_equal(zero.latents, plain.latents):
            endpoints = False
    target = gf.sample_batch(world, gf.seed_prompt(world, 3)[None, :], "none", seed=3)[0]
    one = steered_run(world, 0, 3, SteeringSpec(alpha=1.0, space="latent"))
    if not np.array_equal(one.latents[-1], target.latents[-1]):
        endpoints = False
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    endpoints = endpoints and np.array_equal(blend(a, b, 0.0), a) and np.array_equal(
        blend(a, b, 1.0), b
    )

    target_center = world.mode_centers[3 % world.n_modes]
    distances = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        run = steered_run(world, 0, 3, SteeringSpec(alpha=alpha, space="contextual"))
        distances.append(float(np.linalg.norm(run.latents[-1] - target_center)))
    monotone = all(b <= a + 1e-9 for a, b in zip(distances, distances[1:]))

    _report(
        10,
        "endpoint identities bitwise; alpha sweep walks monotonically toward the target",
        endpoints and monotone,
        "distances " + "/".join(f"{d:.2f}" for d in distances),
    )
