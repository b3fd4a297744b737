"""The benchmark's span tracer against the package it patches.

``benchmarks/tracing.py`` looks up every name in its ``TRACED`` table on the
package's modules, so renaming or deleting a traced function breaks
``benchmarks/run.py --trace 1``; this test makes that a tier-1 failure.
"""

import importlib
import pathlib
import sys

import ctxrep.cli  # noqa: F401  (loads every module the tracer patches)

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
