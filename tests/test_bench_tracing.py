"""The benchmark's ``--trace 1`` rounds wrap condlab's layer entry points by
the names the modules bind them under; a name that ``src/`` stops binding
would fail only in a traced run, so this binds and installs every wrapper."""

import importlib.util
import pathlib

import numpy as np

from condlab import conditioning, empirical as emp

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_is_bound_and_on_the_estimators_path():
    tracer = tracing.Tracer()
    tracing.layer_wrappers(tracer)  # getattr raises for a name that is not bound
    originals = [(owner, attr, original) for owner, attr, original, _ in tracer.patches]
    tracer.install()
    try:
        for owner, attr, _, traced in tracer.patches:
            assert getattr(owner, attr) is traced, attr
        tracer.begin_round()
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, -2.0, 0.5])
        config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=10)
        for kind in conditioning.PROBLEM_KINDS:
            emp.estimate_condition(kind, a, None if kind == "inversion" else b, config=config)
        layers = {layer for _, _, layer, _, _ in tracer.spans}
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    assert {"empirical", "rng", "linalg.lu", "conditioning", "norms.closed"} <= layers
    assert tracer.counts["empirical.perturbations"] > 0
