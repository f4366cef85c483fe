"""One fresh benchmark process.  ``run.py`` starts it as

    python3 perfbench/child.py '<json spec>'

with ``PYTHONPATH`` set to the checkout's ``src``, and reads one JSON object
from its standard output.  Modes: ``setup`` (time to a ready theta5 only),
``batch`` (one timed batch of a workload, optionally traced, then its output
checks) and ``layers`` (the isolated per-layer timings).
"""

import time

_T0 = time.perf_counter()
import theta5  # noqa: E402  (the import is what setup_s measures)
import theta5.cli  # noqa: E402

theta5.cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def run_batch(spec: dict) -> dict:
    import spans
    import workloads

    ops = workloads.make_ops(spec["workload"], spec["seed"], spec["batch"], spec["size"])
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(f"{spec['workload']}:{spec['seed']}:{spec['batch']}")
        tracer.install()
    t0 = time.perf_counter()
    results = workloads.run_ops(ops)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()
    out = {"wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    out["attempted"], out["failures"] = workloads.check(spec["workload"], ops, results)
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    if Path(theta5.__file__).resolve().parent != SRC.resolve() / "theta5":
        sys.exit(f"theta5 imported from {theta5.__file__}, not from {SRC}")
    out = {"setup_s": SETUP_S}
    if spec["mode"] == "batch":
        out.update(run_batch(spec))
    elif spec["mode"] == "layers":
        import layers
        out["layers"] = layers.measure()
    elif spec["mode"] != "setup":
        sys.exit(f"unknown mode {spec['mode']!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
