"""theta5 benchmark: cold catalog verification, deep single-object expansion, numeric lane.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-exact --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1          # all three workloads, one after another
    python3 perfbench/run.py --smoke --trace 1 # tiny sizes, every check, in seconds

Each timed batch runs in a fresh interpreter started from this process, one at
a time (no threads, no pools); the package is imported from ``src``.  The
process and its children stay on one CPU.  With ``--trace 0`` the run repeats
batches until ``--seconds`` would be exceeded and reports end-to-end figures
over them, scaled to a reference host speed (see ``calibrate.py``).  With
``--trace 1`` it runs one batch four times (untraced, traced, traced,
untraced), then the isolated layer timings, and reports the per-layer metrics.
Output checks run outside the timed region; any mismatch makes the exit code 1.
The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("catalog-exact", "expand-deep", "numeric-seeded")
#: Fresh interpreters timed for setup_s before each batch and after the last
#: one, so the samples span the run; every batch process adds its own as well.
SETUP_PROBES = 2
#: Every child must finish before this many seconds into the run.
DEADLINE_S = 170.0
#: The calibration kernel runs for CAL_FIRST_S seconds before the first batch
#: and after each batch for CAL_SHARE of the median batch time, within the
#: given limits; after the last batch it runs out the rest of the run.  The
#: host's noise decorrelates within about half a second, so the kernel needs a
#: good share of the run to match the batches' precision.
CAL_FIRST_S, CAL_SHARE, CAL_MIN_S, CAL_MAX_S = 4.0, 0.3, 0.5, 8.0


class BenchError(RuntimeError):
    pass


def child(spec: dict, started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # bytecode caches are written and reused, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} child exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_ratio", "_rate", "build_reuse")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def batch_spec(workload: str, seed: int, batch: int, size: str, trace: bool) -> dict:
    return {"mode": "batch", "workload": workload, "seed": seed, "batch": batch,
            "size": size, "trace": trace}


def end_to_end(workload: str, seed: int, seconds: float, size: str, started: float) -> dict:
    """Timed batches, with setup probes and calibration between them, while the next fits.

    The host's speed drifts by tens of percent over seconds to minutes, so each
    batch's wall time is scaled by ``calibrate.REFERENCE_S`` over the kernel's
    time per call in the slices just before and after it, and ``setup_s`` by the
    mean of those ratios; ``wall_s`` is the median scaled batch.  The unscaled
    figures are printed too.
    """

    def probes() -> list[float]:
        return [child({"mode": "setup"}, started)["setup_s"] for _ in range(SETUP_PROBES)]

    child({"mode": "setup"}, started)  # warm-up: writes bytecode caches on a fresh checkout
    setup, batches, steps, cal = [], [], [], [calibrate.seconds_per_call(CAL_FIRST_S)]
    while True:
        t0 = time.perf_counter()
        setup += probes()
        batches.append(child(batch_spec(workload, seed, len(batches), size, False), started))
        steps.append(time.perf_counter() - t0)
        span = min(CAL_MAX_S, max(CAL_MIN_S, CAL_SHARE * statistics.median(steps)))
        left = seconds - (time.perf_counter() - started)
        if left < 2 * span + statistics.median(steps):
            cal.append(calibrate.seconds_per_call(max(span, left)))
            break
        cal.append(calibrate.seconds_per_call(span))
    setup += probes()
    scales = [2 * calibrate.REFERENCE_S / (a + b) for a, b in zip(cal, cal[1:])]
    raw_wall = statistics.fmean(b["wall_s"] for b in batches)
    raw_setup = statistics.median(setup + [b["setup_s"] for b in batches])
    return {
        "batches": batches,
        "raw": {"wall_s": raw_wall, "setup_s": raw_setup, "host_scale": statistics.fmean(scales)},
        "metrics": {
            "wall_s": statistics.median(b["wall_s"] * k for b, k in zip(batches, scales)),
            "setup_s": raw_setup * statistics.fmean(scales),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        },
    }


def per_layer(workload: str, seed: int, size: str, started: float) -> dict:
    """The same batch untraced, traced, traced, untraced, then the isolated layer timings.

    The untraced-traced-traced-untraced order cancels a steady drift in machine
    speed from the overhead ratio; layer metrics come from the first traced batch.
    """
    order = (False, True, True, False)
    runs = [child(batch_spec(workload, seed, 0, size, t), started) for t in order]
    plain = statistics.fmean(r["wall_s"] for r, t in zip(runs, order) if not t)
    traced = statistics.fmean(r["wall_s"] for r, t in zip(runs, order) if t)
    metrics = dict(runs[1]["layers"])
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_ratio"] = traced / plain
    if size == "full":
        metrics.update(child({"mode": "layers"}, started)["layers"])
    return {"batches": runs, "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> bool:
    started = time.perf_counter()
    res = (per_layer(workload, seed, size, started) if trace
           else end_to_end(workload, seed, seconds, size, started))
    attempted = sum(b["attempted"] for b in res["batches"])
    failures = [f for b in res["batches"] for f in b["failures"]]
    for msg in failures[:20]:
        print(f"{workload}: check failed: {msg}", file=sys.stderr)
    metrics = res["metrics"]
    shown = "  ".join(f"{k}={v:.6g} {unit(k)}" for k, v in metrics.items())
    print(f"{workload} seed={seed} batches={len(res['batches'])}: {shown}  "
          f"error_rate={len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    if "raw" in res:
        print("  unscaled: " + "  ".join(f"{k}={v:.6g}" for k, v in res["raw"].items()))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }), flush=True)
    return not failures


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes and one batch: checks the harness end to end")
    args = p.parse_args()
    if not (SRC / "theta5" / "__init__.py").is_file():
        print(f"error: no theta5 package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process, its children and the calibration kernel alike: the
        # host's CPUs change speed independently, so the kernel must time the one in use
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seconds = 0.0 if args.smoke else args.seconds
    size = "smoke" if args.smoke else "full"
    ok = True
    try:
        for name in names:
            ok &= run_workload(name, args.seed, seconds, bool(args.trace), size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
