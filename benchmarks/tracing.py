"""Span tracing of ctxrep's public functions, from outside the package.

``Tracer`` replaces each traced function with a recording wrapper in every
ctxrep module namespace that binds it (modules import these names with
``from ... import``, so patching the defining module alone would miss most
calls), and puts the originals back on exit. Spans (name, start, end,
parent) stay in memory; ``layer_metrics`` turns one traced pass into
per-layer counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "linalg": ("jacobi_eigh", "cosine_kernel", "rbf_kernel"),
    "vendi": ("entropy_and_score", "entropy_gradient", "average_pair_vendi"),
    "repulsion": ("repulse",),
    "gmmflow": ("sample_batch", "evaluate"),
    "toydit": (
        "init_weights", "encode_prompt", "seed_image_tokens",
        "mm_block_forward", "single_block_forward", "forward_with_hooks",
    ),
    "rng": ("normal_array",),
    "config": ("load_config",),
}

EIGH_SIZES = (2, 4, 8, 16)

# repulse skips normalizing a gradient whose largest row norm is below this
# floor (see ctxrep.repulsion.repulse); such a step is wasted work.
NORMALIZATION_FLOOR = 1e-12


def _note(name: str, args, result):
    """The per-call detail a layer metric needs; taken after the span ends and
    cheap, so that the parent span's self time barely includes it."""
    if name == "linalg.jacobi_eigh":
        return args[0].dim
    if name == "rng.normal_array":
        return args[1]
    if name == "gmmflow.sample_batch":
        return args[0].n_steps
    if name == "vendi.entropy_gradient":
        return result  # reduced to a degeneracy flag after the pass
    return None


class Tracer:
    """Context manager that records a span for every traced call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _note(name, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ctxrep" or n.startswith("ctxrep.")]
        for home, names in TRACED.items():
            home_module = importlib.import_module(f"ctxrep.{home}")
            for attr in names:
                original = getattr(home_module, attr)
                wrapper = self._wrap(f"{home}.{attr}", original)
                for module in modules:
                    if vars(module).get(attr) is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as handle:
            for name, start, end, parent, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(spans: list[list], time_scale: float = 1.0) -> dict[str, float]:
    """Per-layer counts and self times (span minus its children) of one pass.

    Every duration is multiplied by ``time_scale``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += (end - start) * time_scale
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    eigh_calls: dict[int, int] = defaultdict(int)
    eigh_s: dict[int, float] = defaultdict(float)
    steps = normals = grads = degenerate = 0
    load_s = []
    for i, (name, start, end, parent, note) in enumerate(spans):
        own = (end - start) * time_scale - child[i]
        calls[name] += 1
        self_s[name] += own
        if name == "linalg.jacobi_eigh":
            eigh_calls[note] += 1
            eigh_s[note] += own
        elif name == "rng.normal_array":
            normals += int(np.prod(note))
        elif name == "gmmflow.sample_batch":
            steps += note
        elif name == "config.load_config":
            load_s.append((end - start) * time_scale)
        elif name == "vendi.entropy_gradient" and parent >= 0 \
                and spans[parent][0] == "repulsion.repulse":
            grads += 1
            degenerate += float(np.max(np.linalg.norm(note, axis=1))) < NORMALIZATION_FLOOR

    def per_call_us(total_s: float, count: int) -> float:
        return total_s / count * 1e6 if count else 0.0

    m: dict[str, float] = {}
    for n in EIGH_SIZES:
        m[f"linalg.jacobi_eigh.calls.n{n}"] = eigh_calls[n]
    for n in EIGH_SIZES:
        m[f"linalg.jacobi_eigh.us_per_call.n{n}"] = per_call_us(eigh_s[n], eigh_calls[n])
    m["linalg.jacobi_eigh.self_s"] = self_s["linalg.jacobi_eigh"]
    m["linalg.cosine_kernel.calls"] = calls["linalg.cosine_kernel"]
    m["linalg.cosine_kernel.self_s"] = self_s["linalg.cosine_kernel"]
    m["linalg.rbf_kernel.self_s"] = self_s["linalg.rbf_kernel"]
    for name in ("vendi.average_pair_vendi", "vendi.entropy_gradient",
                 "vendi.entropy_and_score", "repulsion.repulse"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["repulsion.degenerate_grad_ratio"] = degenerate / grads if grads else 0.0
    m["gmmflow.sample_batch.self_s"] = self_s["gmmflow.sample_batch"]
    m["gmmflow.steps"] = steps
    m["gmmflow.step_us"] = per_call_us(self_s["gmmflow.sample_batch"], steps)
    m["gmmflow.evaluate.self_s"] = self_s["gmmflow.evaluate"]
    for name in ("toydit.init_weights", "toydit.encode_prompt", "toydit.seed_image_tokens"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("toydit.mm_block_forward", "toydit.single_block_forward"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.us_per_call"] = per_call_us(self_s[name], calls[name])
    m["toydit.forward_with_hooks.self_s"] = self_s["toydit.forward_with_hooks"]
    m["rng.normal_array.values"] = normals
    m["rng.normal_array.self_s"] = self_s["rng.normal_array"]
    m["rng.normals_per_s"] = normals / self_s["rng.normal_array"] if normals else 0.0
    m["config.load_config.s"] = float(np.median(load_s)) if load_s else 0.0
    return m


# Metrics that must repeat exactly between traced passes of the same seeds.
EXACT = tuple(
    [f"linalg.jacobi_eigh.calls.n{n}" for n in EIGH_SIZES]
    + ["linalg.cosine_kernel.calls", "vendi.average_pair_vendi.calls",
       "vendi.entropy_gradient.calls", "vendi.entropy_and_score.calls",
       "repulsion.repulse.calls", "repulsion.degenerate_grad_ratio", "gmmflow.steps",
       "toydit.mm_block_forward.calls", "toydit.single_block_forward.calls",
       "rng.normal_array.values"]
)
