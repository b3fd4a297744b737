"""Flat key = value experiment configuration with a strict schema.

Lines hold one ``key = value`` pair; ``#`` starts a comment. Unknown keys are
rejected so typos fail loudly. Each value is parsed by its field's type:
``tuple[float, float]`` intervals are written ``a:b`` and ``tuple[X, ...]``
lists are comma-separated items of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

from .repulsion import PRESETS, RepulsionConfig


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass
class ExperimentConfig:
    # mixture world
    world_modes: int = 8
    world_radius: float = 4.0
    world_sigma: float = 0.25
    world_gamma: float = 1.0
    world_steps: int = 64
    world_feedback: float = 0.5
    # prompts
    prompt_mode: int = 0
    prompt_strength: float = 10.0
    batch_size: int = 8
    # contextual repulsion; a config file's repulsion_preset fills the first three
    repulsion_eta: float = 2.0
    repulsion_steps: int = 2
    repulsion_interval: tuple[float, float] = (0.0, 0.25)
    repulsion_normalize: bool = True
    repulsion_block_selector: str = "all"
    repulsion_target_stream: str = "text"
    # latent-space repulsion baseline
    latent_eta: float = 0.65
    latent_steps: int = 2
    latent_interval: tuple[float, float] = (0.0, 1.0)
    latent_normalize: bool = True
    # annealed-noise baseline
    cads_scale: float = 0.5
    cads_tau1: float = 0.3
    cads_tau2: float = 0.8
    cads_psi: float = 1.0
    cads_interval: tuple[float, float] = (0.0, 1.0)
    # execution
    method: str = "contextual"
    seeds: int = 20
    seed_start: int = 0
    jobs: int = 1
    output: str = ""
    # sweep axes
    sweep_batch_sizes: tuple[int, ...] = (4, 8, 16)
    sweep_intervals: tuple[tuple[float, float], ...] = (
        (0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0), (0.0, 1.0),
    )
    sweep_block_groups: tuple[str, ...] = ("first_third", "middle_third", "last_third", "all")
    # toy transformer
    toy_text_tokens: int = 8
    toy_image_tokens: int = 16
    toy_dim: int = 16
    toy_dual_blocks: int = 4
    toy_single_blocks: int = 2
    toy_heads: int = 2
    toy_seed: int = 0
    toy_prompt_id: int = 0
    toy_batch: int = 4
    toy_step_index: int = 0
    toy_total_steps: int = 1
    output_snapshots: str = "toy_snapshots.csv"
    output_report: str = "toy_report.json"


def parse_interval(text: str) -> tuple[float, float]:
    """Parse ``a:b`` into a pair of floats; the bounds are checked by the consumer."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"interval must look like a:b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad interval {text!r}") from exc
    return (a, b)


def _parse_value(name: str, raw: str, kind):
    """Parse ``raw`` as the annotated type ``kind`` of field ``name``."""
    raw = raw.strip()
    if kind == tuple[float, float]:
        return parse_interval(raw)
    if get_origin(kind) is tuple and get_args(kind)[1:] == (Ellipsis,):
        item = get_args(kind)[0]
        if not raw:
            return ()
        parts = raw.split(",")
        if not all(part.strip() for part in parts):
            raise ConfigError(f"{name}: empty item in list {raw!r}")
        return tuple(_parse_value(name, part, item) for part in parts)
    if kind is bool:
        # before the try: its `except ValueError` would re-word this ConfigError
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}") from exc
    raise ConfigError(f"{name}: unsupported type {kind}")


# each key's annotated type, which picks its parser
FIELD_TYPES = get_type_hints(ExperimentConfig)
# a file may also set repulsion_preset, a directive that parse_config applies
# and drops: no config field holds it
_FILE_KEYS = {**FIELD_TYPES, "repulsion_preset": str}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, rejecting unknown keys and unknown presets.

    A ``repulsion_preset`` fills whichever of ``repulsion_eta``,
    ``repulsion_steps`` and ``repulsion_interval`` the text leaves unset. It
    is a directive of the file, not a field of the returned config.
    """
    values: dict = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, _FILE_KEYS[key])

    preset = values.pop("repulsion_preset", "")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown repulsion preset {preset!r}")
        base = PRESETS[preset]
        values = {
            "repulsion_eta": base.eta,
            "repulsion_steps": base.inner_steps,
            "repulsion_interval": base.timestep_interval,
            **values,
        }
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def repulsion_from_config(cfg: ExperimentConfig) -> RepulsionConfig:
    return RepulsionConfig(
        eta=cfg.repulsion_eta,
        inner_steps=cfg.repulsion_steps,
        timestep_interval=cfg.repulsion_interval,
        block_selector=cfg.repulsion_block_selector,
        target_stream=cfg.repulsion_target_stream,
        gradient_normalization=cfg.repulsion_normalize,
    )


def latent_repulsion_from_config(cfg: ExperimentConfig) -> RepulsionConfig:
    return RepulsionConfig(
        eta=cfg.latent_eta,
        inner_steps=cfg.latent_steps,
        timestep_interval=cfg.latent_interval,
        gradient_normalization=cfg.latent_normalize,
    )
