"""The benchmark's entry points keep working: every workload at smoke size, and tracing.

The benchmark in ``perfbench/`` drives the package from outside; these tests
load its modules from their files and run them in-process, so a change to
the package's exports or internals that the benchmark relies on fails here.
"""

import importlib.util
import numbers
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")

WORKLOADS = ("catalog-exact", "expand-deep", "numeric-seeded")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_batch_has_no_failures(workload):
    ops = workloads.make_ops(workload, seed=1, batch=0, size="smoke")
    results = workloads.run_ops(ops)
    attempted, failures = workloads.check(workload, ops, results)
    assert attempted > 0
    assert failures == []


def test_traced_catalog_batch_reports_every_metric():
    import theta5.catalog

    verify = theta5.catalog.verify
    ops = workloads.make_ops("catalog-exact", seed=2, batch=0, size="smoke")
    tracer = spans.Tracer("contract")
    tracer.install()
    try:
        results = workloads.run_ops(ops)
    finally:
        tracer.remove()
    assert theta5.catalog.verify is verify
    assert workloads.check("catalog-exact", ops, results)[1] == []
    metrics = tracer.metrics()
    assert len(spans.METRICS) == 29
    assert list(metrics) == list(spans.METRICS)
    assert all(isinstance(v, numbers.Real) for v in metrics.values())
    assert metrics["catalog.build_s"] > 0 and metrics["series.mul.calls"] > 0
