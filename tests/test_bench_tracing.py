"""The benchmark's tracer (``bench/tracing.py``) wraps program functions by
name, so a rename or deletion under ``src/`` must fail here, and not only
in a traced benchmark run."""

import importlib.util
from pathlib import Path

from gordian import parse, prove_consequence

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for prefix, module, name, _ in tracing.WRAPPED:
        assert callable(getattr(module, name, None)), f"{prefix}: {module.__name__}.{name}"


def test_traced_calls_are_counted():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for logic in ("A", "RMt", "BIULm"):
            prove_consequence(logic, [], parse("p -> p"))
        prove_consequence("BIULm", [], parse("p * q -> p"))
        metrics = tracer.metrics(0.0, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["engine.goals"]["value"] == 4
    assert metrics["oracles.hilbert_calls"]["value"] >= 1
    assert metrics["oracles.countermodel_scans"]["value"] >= 1
