"""The benchmark's span tracer against the package it patches.

``benchmarks/tracing.py`` looks up every name in its ``TRACED`` table on the
package's modules, so renaming or deleting a traced function breaks
``benchmarks/run.py --trace 1``; this test makes that a tier-1 failure. A
call that bypasses a traced binding goes uncounted just as silently, so the
repulsion event's gradients are counted here too.
"""

import importlib
import pathlib
import sys

import pytest

import ctxrep.cli  # noqa: F401  (loads every module the tracer patches)
from ctxrep import gmmflow
from ctxrep.repulsion import RepulsionConfig

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def traced_bindings(tracing) -> dict:
    """Every binding of a traced name in a loaded ctxrep module namespace."""
    names = {attr for attrs in tracing.TRACED.values() for attr in attrs}
    return {
        (module_name, attr): vars(module)[attr]
        for module_name, module in list(sys.modules.items())
        if module_name == "ctxrep" or module_name.startswith("ctxrep.")
        for attr in names
        if attr in vars(module)
    }


def test_tracer_patches_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    before = traced_bindings(tracing)
    for home, attrs in tracing.TRACED.items():
        for attr in attrs:
            assert (f"ctxrep.{home}", attr) in before

    with tracing.Tracer() as tracer:
        inside = traced_bindings(tracing)
        assert len(tracer._patched) == len(before)
    assert tracer.spans == []

    assert inside.keys() == before.keys()
    for key, original in before.items():
        assert inside[key] is not original
        assert inside[key].__wrapped__ is original
    after = traced_bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is original for key, original in before.items())


@pytest.mark.parametrize("method", ["contextual", "latent"])
def test_every_inner_step_gradient_is_traced(monkeypatch, method):
    # repulse reaches entropy_gradient through its module binding, which the
    # tracer wraps; a gradient computed any other way would read as zero
    # vendi.entropy_gradient.calls and repulsion.degenerate_grad_ratio
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    world = gmmflow.MixtureWorld(n_steps=8)
    repulsion = RepulsionConfig(eta=2.0, inner_steps=2, timestep_interval=(0.0, 0.5),
                                gradient_normalization=True)
    with tracing.Tracer() as tracer:
        gmmflow.sample_batch(world, gmmflow.one_hot_prompts(world, 4), method, seed=3,
                             repulsion=repulsion)
    spans = tracer.spans
    events = [i for i, span in enumerate(spans) if span[0] == "repulsion.repulse"]
    assert len(events) == 4
    for i in events:
        assert [span[0] for span in spans if span[3] == i] == ["vendi.entropy_gradient"] * 2
    metrics = tracing.layer_metrics(spans)
    assert metrics["repulsion.repulse.calls"] == 4
    assert metrics["vendi.entropy_gradient.calls"] == 8
