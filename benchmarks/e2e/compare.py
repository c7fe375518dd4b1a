"""Compare two result files written by ``python -m benchmarks.e2e run --out``.

One row per workload × end-to-end metric: both medians, the bound and a
verdict.  Unit, direction and bound come from ``BENCHMARK.json`` — never
from the metric's name.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

#: environment fields that define the machine class and configuration;
#: results that differ in one of them are not comparable at all
SAME_OR_REFUSE = ("cpu_count", "engine", "fsync_policy", "fs_type", "traffic")
#: fields that may differ (a parent and a change differ in commit by
#: design) but are worth a line in the report
WORTH_A_NOTE = ("platform", "python", "cryptography", "git_commit", "seed")


def environment_report(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], list[str]]:
    """(reasons to refuse the comparison, notes)."""
    refuse = [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in SAME_OR_REFUSE
        if a.get(key) != b.get(key)
    ]
    notes = [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in WORTH_A_NOTE
        if a.get(key) != b.get(key)
    ]
    return refuse, notes


def _spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles with four or more runs, the whole range with fewer."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(median)
    return (max(values) - min(values)) / abs(median)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` / ``unresolved`` for
    runs *b* against runs *a*.

    A move counts when the medians differ by more than *bound* (a share
    of *a*'s median).  When either side's own runs spread wider than the
    bound, the medians cannot be trusted: the row is ``unresolved``
    unless every run of one side beats every run of the other."""
    noisy = max(_spread(a), _spread(b)) > bound
    if better == "lower":  # negate, so that higher is better from here on
        a, b = [-v for v in a], [-v for v in b]
    median_a, median_b = statistics.median(a), statistics.median(b)
    gain = (median_b - median_a) / abs(median_a) if median_a else 0.0
    if noisy:
        if min(b) > max(a):
            return "improved" if gain > bound else "unchanged"
        if max(b) < min(a) and gain < -bound:
            return "regressed"
        return "unresolved"
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "regressed"
    return "unchanged"


def _runs(result: dict[str, Any], workload: str) -> list[dict[str, Any]]:
    return [
        run for run in result["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def _failed_share(runs: list[dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(benchmark: dict[str, Any], a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict[str, Any]], bool]:
    """(rows, failed) — *failed* when a row regressed or a workload's
    share of failed operations rose."""
    rows = []
    failed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs_a, runs_b = _runs(a, workload), _runs(b, workload)
        if not runs_a or not runs_b:
            continue
        share_a, share_b = _failed_share(runs_a), _failed_share(runs_b)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "better": "lower", "bound": 0.0, "a": share_a, "b": share_b,
            "verdict": "regressed" if share_b > share_a else "unchanged",
        })
        failed |= share_b > share_a
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values_a = [run["metrics"][name]["value"] for run in runs_a]
            values_b = [run["metrics"][name]["value"] for run in runs_b]
            outcome = verdict(values_a, values_b, metric["better"], metric["bound"])
            failed |= outcome == "regressed"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"],
                "a": statistics.median(values_a), "b": statistics.median(values_b),
                "verdict": outcome,
            })
    return rows, failed


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':22s} {'metric':20s} {'A median':>14s} {'B median':>14s} "
        f"{'unit':6s} {'better':6s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['metric']:20s} {row['a']:14.4f} "
            f"{row['b']:14.4f} {row['unit']:6s} {row['better']:6s} "
            f"{row['bound']:6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
