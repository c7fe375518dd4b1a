"""Run one workload once and print its result as one JSON line.

This is the command in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` times the end-to-end metrics with no shim anywhere;
``--trace 1`` spends a third of ``--seconds`` on an untraced reference
section, installs the tracer, and reports the per-layer metrics of the
remaining two thirds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}: no src/repro here; the benchmark measures that program")
# Run as a script, this directory leads sys.path; trace.py would then
# shadow the standard library's module of that name.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(__file__).parent]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.obs import metrics as obs_metrics  # noqa: E402

from benchmarks.e2e import harness, layers, spec, workloads  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def _operation(workload: workloads.Workload, tracer: Tracer | None = None):
    async def plain(index: int):
        outcome = await workload.operation(index)
        return outcome.passed, outcome.latency

    async def traced(index: int):
        with tracer.operation() as span:
            outcome = await workload.operation(index)
            span.query_id = outcome.query_id
        return outcome.passed, outcome.latency

    return plain if tracer is None else traced


async def _timed_section(
    workload: workloads.Workload,
    seconds: float,
    canary: harness.Canary,
    tracer: Tracer | None = None,
) -> harness.Section:
    return await harness.closed_loop(
        _operation(workload, tracer),
        inflight=workload.inflight,
        seconds=seconds,
        rss_after=workload.size.rss_after,
        canary=canary,
    )


async def end_to_end(name: str, seed: int, seconds: float, smoke: bool, setups: int):
    workload = workloads.make(name, seed, harness.Seams(), smoke)
    canary = harness.Canary()
    canary.start()
    setup_times = []
    verified = True
    for n in range(setups):
        if n:
            verified &= await workload.teardown()
        started = time.perf_counter()
        await workload.setup()
        ended = time.perf_counter()
        setup_times.append((ended - started) / canary.slowdown(started, ended))
    section = await _timed_section(workload, seconds, canary)
    await canary.stop()
    verified &= await workload.teardown()

    latencies = section.latencies_ms()
    rate = section.ops_per_s()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_latency_p50_ms": (statistics.median(latencies), "ms"),
        "ops_per_s": (rate, "1/s"),
        "tuples_per_s": (rate * workload.tuples_per_op, "1/s"),
        "cpu_ms_per_op": (section.cpu_ms_per_op(), "ms"),
        "peak_rss_mb": (section.rss_mb, "MB"),
    }
    return section, verified, metrics


async def per_layer(name: str, seed: int, seconds: float, smoke: bool):
    canary = harness.Canary()
    canary.start()
    reference_run = workloads.make(name, seed, harness.Seams(), smoke)
    await reference_run.setup()
    reference = await _timed_section(reference_run, seconds / 3, canary)
    verified = await reference_run.teardown()

    tracer = Tracer()
    shims = layers.Shims(tracer)
    shims.install()
    try:
        workload = workloads.make(name, seed, shims.seams(), smoke)
        await workload.setup()
        shims.reset()
        before = obs_metrics.REGISTRY.snapshot()
        section = await _timed_section(workload, seconds * 2 / 3, canary, tracer)
        after = obs_metrics.REGISTRY.snapshot()
        await canary.stop()
        metrics = layers.layer_metrics(
            shims, workload, reference, section, before, after
        )
        verified &= await workload.teardown()
    finally:
        tracer.uninstall()
    harness.WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(str(harness.WORK_DIR / f"trace-{name}.jsonl"))
    section.failed += reference.failed
    section.done += reference.done
    return section, verified, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up: a format check, not a measurement")
    args = parser.parse_args(argv)

    benchmark = spec.load()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    harness.select_engine()
    print(json.dumps({"environment": harness.environment(args.seed)}))
    if args.trace:
        run = per_layer(args.workload, args.seed, seconds, args.smoke)
        expected = benchmark["per_layer"]
    else:
        run = end_to_end(
            args.workload, args.seed, seconds, args.smoke, 1 if args.smoke else SETUPS
        )
        expected = benchmark["end_to_end"]
    section, verified, metrics = asyncio.run(run)

    # times above are at reference speed; wall clock = value x slowdown
    print(json.dumps({"host_slowdown": section.slowdown()}))
    declared = {metric["name"]: metric["unit"] for metric in expected}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if declared != measured:
        sys.exit(
            "BENCHMARK.json and the run disagree on metrics: "
            f"{sorted(set(declared.items()) ^ set(measured.items()))}"
        )
    print(json.dumps({
        "correct": verified and section.failed == 0,
        "attempted": section.attempted,
        "failed": section.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if verified and section.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
