"""``python -m benchmarks.e2e run|compare`` — the reviewer's front end.

``run`` starts every workload in a fresh interpreter (the same
``run.py`` the driver calls), prints every metric by name with its unit,
and exits non-zero when an output check failed.  ``compare`` diffs two
files written by ``run --out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e import compare as cmp
from benchmarks.e2e import spec

RUN_PY = Path(__file__).with_name("run.py")
#: fsync on these costs nothing, so durable results from them are no baseline
MEMORY_FILESYSTEMS = ("tmpfs", "ramfs")


def _run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, dict]:
    command = [
        sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run.py printed no result (exit {done.returncode})")
    environment = json.loads(lines[0])["environment"]
    result = json.loads(lines[-1])
    result.update(workload=workload, trace=trace)
    return environment, result


def _print_runs(benchmark: dict[str, Any], workload: str, runs: list[dict[str, Any]]) -> None:
    """Every metric by name with its unit; end-to-end rows also carry
    direction, bound and the sample count behind them."""
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    attempted = sum(run["attempted"] for run in runs if not run["trace"])
    failed = sum(run["failed"] for run in runs if not run["trace"])
    print(f"\n== {workload}")
    for trace in (0, 1):
        group = [run for run in runs if run["trace"] == trace]
        if not group:
            continue
        for name in group[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in group]
            metric = declared[name]
            row = f"  {name:32s} {statistics.median(values):16.6f} {metric['unit']:6s}"
            if not trace:
                n = statistics.median(run["attempted"] for run in group)
                row += (
                    f" better={metric['better']:6s} bound={metric['bound']:.2f}"
                    f" n={n:g} runs={len(values)}"
                )
            print(row)
        if not trace:
            share = failed / attempted if attempted else 1.0
            print(f"  {'failed_share':32s} {share:16.6f} ratio  better=lower  bound=0 (absolute)")


def run(args: argparse.Namespace) -> int:
    benchmark = spec.load()
    names = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else benchmark["run_seconds"]
    )
    environment: dict[str, Any] = {}
    runs: list[dict[str, Any]] = []
    correct = True
    for name in names:
        mine = []
        for trace in [0] * args.repeat + [1] * args.traced:
            environment, result = _run_once(name, args.seed, seconds, trace, args.smoke)
            mine.append(result)
            correct &= result["correct"]
        _print_runs(benchmark, name, mine)
        runs += mine
    print(f"\nenvironment: {json.dumps(environment)}")
    print("all outputs verified" if correct else "FAILED: an output check did not pass")
    if args.out:
        if environment.get("fs_type") in MEMORY_FILESYSTEMS:
            raise SystemExit(
                f"data dir is on {environment['fs_type']}: fsync is free there, "
                "refusing to write these results as a baseline"
            )
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment, "run_seconds": seconds,
                 "smoke": args.smoke, "runs": runs},
                fh, indent=1,
            )
            fh.write("\n")
    return 0 if correct else 1


def compare(args: argparse.Namespace) -> int:
    a, b = cmp.load(args.a), cmp.load(args.b)
    refuse, notes = cmp.environment_report(a["environment"], b["environment"])
    for note in notes:
        print(f"note: {note}")
    if refuse:
        print("not comparable, the environments differ in " + "; ".join(refuse))
        return 2
    rows, failed = cmp.compare(spec.load(), a, b)
    print(cmp.render(rows))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the workloads and print every metric")
    run_parser.add_argument("--workload", choices=[w["name"] for w in spec.load()["workloads"]])
    run_parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run_parser.add_argument("--seconds", type=float, default=None)
    run_parser.add_argument("--repeat", type=int, default=1,
                            help="untraced runs per workload (compare needs their spread)")
    run_parser.add_argument("--traced", action="store_true",
                            help="also make one traced run for the per-layer metrics")
    run_parser.add_argument("--smoke", action="store_true")
    run_parser.add_argument("--out", help="write the results as JSON")
    run_parser.set_defaults(call=run)
    compare_parser = commands.add_parser("compare", help="diff two --out files")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    compare_parser.set_defaults(call=compare)
    args = parser.parse_args(argv)
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
