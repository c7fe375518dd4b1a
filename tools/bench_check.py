"""Perf-regression gate: diff BENCH_*.json candidates against baselines.

Every benchmark in this repo publishes a ``BENCH_<name>.json`` at the
repo root — a nested dict of named scalars (seconds, rows/s, speedups)
plus an ``environment`` section.  This tool makes those files act as a
*gate* instead of a diary: run the benchmark at HEAD, then

    python tools/bench_check.py --baseline BENCH_store.json \\
        --candidate /tmp/BENCH_store.json --tolerance 0.25

fails (exit 1) when any metric regressed beyond the tolerance band.

Mechanics:

* **flattening** — numeric leaves become dotted paths
  (``after.tuples_per_s_tcp``); the ``environment`` / ``notes`` /
  ``description`` / ``methodology`` subtrees are informational and
  skipped.
* **direction** — inferred from the leaf name: throughput-ish names
  (``per_s``, ``speedup``, ``mb_s``, ``rps``, ``throughput``) must not
  drop; latency-ish names (``_s``, ``seconds``, ``p50/p95/p99``,
  ``wall``, ``elapsed``) must not rise; shape/config names (``batch``,
  ``window``, ``cpu_count``, counts) are informational and never gate.
  A name matching neither vocabulary is compared both ways and only
  *warned* about, never failed — an unknown metric must not brick CI.
* **machine-class awareness** — when the candidate's
  ``environment.cpu_count`` differs from the baseline's, every failure
  downgrades to a warning unless ``--strict``: the committed baselines
  come from 1-core CI boxes (see the PR 8/9 caveats in the files), and
  cross-class comparisons are noise.
* **noise floor** — values below ``--min-value`` (default 1 ms /
  1 unit-per-s) are skipped; a 0.2 ms phase doubling is measurement
  jitter, not a regression.

``--smoke`` (the CI entry) self-checks every committed ``BENCH_*.json``
against itself — exercising the full parse/flatten/compare path and
guaranteeing a later format change can't silently disable the gate.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SKIP_SUBTREES = ("environment", "notes", "description", "methodology")

HIGHER_IS_BETTER = (
    "per_s", "_rps", "rps_", "speedup", "throughput", "mb_s", "per_second",
    "hits",
)
LOWER_IS_BETTER = (
    "_s", "seconds", "p50", "p95", "p99", "wall", "elapsed", "latency",
    "overhead", "misses",
)
INFORMATIONAL = (
    "cpu_count", "batch", "window", "shards", "concurrency", "num_tds",
    "queries", "count", "bytes", "size", "repeats", "buckets", "alpha",
)


def flatten(tree: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    if isinstance(tree, dict):
        for key in sorted(tree):
            name = str(key)
            if not prefix and name in SKIP_SUBTREES:
                continue
            yield from flatten(tree[key], f"{prefix}{name}.")
    elif isinstance(tree, list):
        for index, item in enumerate(tree):
            yield from flatten(item, f"{prefix}{index}.")
    elif isinstance(tree, bool):
        return
    elif isinstance(tree, (int, float)):
        yield prefix.rstrip("."), float(tree)
    # strings (statuses like "skipped_single_core") are not metrics


def _matches(path: str, vocabulary: Tuple[str, ...]) -> bool:
    """Match a vocabulary token against the leaf name.

    A token with a leading underscore (``_s``, ``_rps``) must end the
    leaf — plain containment would drag ``batch_size`` into the latency
    vocabulary via ``_s``.  A trailing underscore (``rps_``) anchors the
    start; anything else matches anywhere (``per_s`` inside
    ``tuples_per_s_tcp``).
    """
    leaf = path.rsplit(".", 1)[-1]
    for token in vocabulary:
        if token.startswith("_") and leaf.endswith(token):
            return True
        if token.endswith("_") and leaf.startswith(token):
            return True
        if not token.startswith("_") and not token.endswith("_") and token in leaf:
            return True
    return False


def classify(path: str) -> str:
    """'higher' | 'lower' | 'info' | 'unknown' for a dotted metric path.

    Direction vocabularies win over the informational one so that e.g.
    ``queries_per_s`` gates (throughput) while a bare ``queries`` count
    stays informational.
    """
    if _matches(path, HIGHER_IS_BETTER):
        return "higher"
    if _matches(path, LOWER_IS_BETTER):
        return "lower"
    if _matches(path, INFORMATIONAL):
        return "info"
    return "unknown"


def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    tolerance: float,
    min_value: float,
) -> Tuple[List[str], List[str]]:
    """Returns (failures, warnings) as human-readable lines."""
    base = dict(flatten(baseline))
    cand = dict(flatten(candidate))
    failures: List[str] = []
    warnings: List[str] = []

    for path in sorted(base.keys() & cand.keys()):
        direction = classify(path)
        if direction == "info":
            continue
        b, c = base[path], cand[path]
        if abs(b) < min_value and abs(c) < min_value:
            continue
        worse_low = c < b * (1.0 - tolerance)  # bad if higher-is-better
        worse_high = c > b * (1.0 + tolerance)  # bad if lower-is-better
        if direction == "higher" and worse_low:
            failures.append(
                f"{path}: {c:g} fell below baseline {b:g} "
                f"(-{100 * (1 - c / b):.1f}%, tolerance {100 * tolerance:.0f}%)"
            )
        elif direction == "lower" and worse_high:
            failures.append(
                f"{path}: {c:g} rose above baseline {b:g} "
                f"(+{100 * (c / b - 1):.1f}%, tolerance {100 * tolerance:.0f}%)"
            )
        elif direction == "unknown" and (worse_low or worse_high):
            warnings.append(
                f"{path}: moved {b:g} -> {c:g} (direction unknown, not gated)"
            )

    for path in sorted(base.keys() - cand.keys()):
        if classify(path) != "info":
            warnings.append(f"{path}: present in baseline, missing in candidate")
    return failures, warnings


def machine_class_differs(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> bool:
    def _cpus(tree: Dict[str, object]) -> object:
        env = tree.get("environment")
        return env.get("cpu_count") if isinstance(env, dict) else None

    b, c = _cpus(baseline), _cpus(candidate)
    return b is not None and c is not None and b != c


def check_pair(
    baseline_path: str,
    candidate_path: str,
    tolerance: float,
    min_value: float,
    strict: bool,
) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(candidate_path) as fh:
        candidate = json.load(fh)
    failures, warnings = compare(baseline, candidate, tolerance, min_value)
    cross_class = machine_class_differs(baseline, candidate)
    if cross_class and not strict:
        warnings = [f"(cross-machine-class, downgraded) {f}" for f in failures] + warnings
        failures = []
    label = os.path.basename(baseline_path)
    for line in warnings:
        print(f"WARN  {label}: {line}")
    for line in failures:
        print(f"FAIL  {label}: {line}")
    if failures:
        return 1
    gated = "cross-class: warnings only" if cross_class and not strict else (
        f"tolerance {100 * tolerance:.0f}%"
    )
    print(f"ok    {label}: no regression vs {os.path.basename(candidate_path)} "
          f"({gated})")
    return 0


def smoke(tolerance: float, min_value: float) -> int:
    """Self-check every committed baseline against itself."""
    paths = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
    if not paths:
        print("FAIL  --smoke found no BENCH_*.json at the repo root")
        return 1
    status = 0
    for path in paths:
        status |= check_pair(path, path, tolerance, min_value, strict=True)
        with open(path) as fh:
            metrics = [
                p for p, _ in flatten(json.load(fh)) if classify(p) != "info"
            ]
        if not metrics:
            print(f"FAIL  {os.path.basename(path)}: no gated metrics found "
                  "(format change disabled the gate?)")
            status = 1
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json results against committed baselines"
    )
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--candidate", help="freshly measured JSON")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative regression before failing (default 0.25)",
    )
    parser.add_argument(
        "--min-value", type=float, default=0.001,
        help="ignore metrics where both sides are below this magnitude",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="gate even when environment.cpu_count differs",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-check every committed BENCH_*.json against itself",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.tolerance, args.min_value)
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required (or --smoke)")
    return check_pair(
        args.baseline, args.candidate, args.tolerance, args.min_value, args.strict
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
