"""Smoke test of the benchmark itself; outside tier-1 ``testpaths``::

    python -m pytest benchmarks/e2e -q

A format check at tiny sizes, not a measurement.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import compare, spec  # noqa: E402
from benchmarks.e2e.harness import rows_match  # noqa: E402


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = _cli("run", "--smoke", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text()), out


def test_every_declared_metric_is_printed_with_its_unit_and_nothing_else(smoke):
    stdout, result, _ = smoke
    benchmark = spec.load()
    declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for workload in (w["name"] for w in benchmark["workloads"]):
        section = stdout.split(f"== {workload}\n", 1)[1].split("\n== ", 1)[0]
        printed = {}
        for line in section.splitlines():
            fields = line.split()
            if len(fields) >= 3 and line.startswith("  "):
                printed[fields[0]] = fields[2]
        assert printed.pop("failed_share") == "ratio"
        assert printed == declared, workload
    for run in result["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        expected = benchmark["per_layer" if run["trace"] else "end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in expected}


def test_store_is_dark_exactly_where_there_is_no_store(smoke):
    _, result, _ = smoke
    for run in result["runs"]:
        if not run["trace"]:
            continue
        appends = run["metrics"]["store.appends"]["value"]
        if run["workload"].endswith("_mem"):
            assert appends == 0
        elif run["workload"] != "restart_recover":
            assert appends > 0


def test_a_perturbed_result_row_fails_the_check():
    want = [
        {"C.district": "d1", "AVG(P.cons)": 500.25, "COUNT(*)": 3},
        {"C.district": "d2", "AVG(P.cons)": 410.0, "COUNT(*)": 1},
    ]
    assert rows_match(list(reversed(copy.deepcopy(want))), want)
    rounding = copy.deepcopy(want)
    rounding[0]["AVG(P.cons)"] *= 1 + 1e-12
    assert rows_match(rounding, want)
    for key, value in (("AVG(P.cons)", 500.25 * (1 + 1e-6)), ("COUNT(*)", 4), ("C.district", "d3")):
        wrong = copy.deepcopy(want)
        wrong[0][key] = value
        assert not rows_match(wrong, want)
    assert not rows_match(want[:1], want)


def test_compare_flags_a_synthetic_regression(smoke, tmp_path):
    """20 % worse is a regression where the bound is 10 % (memory) and
    inside the bound where it is 25 % (latency); 30 % is past both."""
    _, result, out = smoke
    benchmark = spec.load()

    def worsened(metric: str, factor: float) -> dict:
        worse = copy.deepcopy(result)
        for run in worse["runs"]:
            if run["workload"] == "ingest_mem" and not run["trace"]:
                run["metrics"][metric]["value"] *= factor
        return worse

    def regressed(other: dict) -> list[tuple[str, str]]:
        rows, failed = compare.compare(benchmark, result, other)
        found = [(r["workload"], r["metric"]) for r in rows if r["verdict"] == "regressed"]
        assert failed == bool(found)
        return found

    assert regressed(worsened("peak_rss_mb", 1.2)) == [("ingest_mem", "peak_rss_mb")]
    assert regressed(worsened("op_latency_p50_ms", 1.2)) == []
    assert regressed(worsened("op_latency_p50_ms", 1.3)) == [("ingest_mem", "op_latency_p50_ms")]
    # direction comes from BENCHMARK.json: a rate that rises is no regression
    assert regressed(worsened("ops_per_s", 1.3)) == []
    assert regressed(worsened("ops_per_s", 0.7)) == [("ingest_mem", "ops_per_s")]

    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worsened("peak_rss_mb", 1.2)))
    assert _cli("compare", str(out), str(out)).returncode == 0
    assert _cli("compare", str(out), str(path)).returncode == 1

    lost = copy.deepcopy(result)
    lost["runs"][0]["failed"] += 1
    assert compare.compare(benchmark, result, lost)[1]


def test_verdicts():
    assert compare.verdict([100, 101, 99], [100, 102, 98], "lower", 0.1) == "unchanged"
    assert compare.verdict([100, 101, 99], [120, 121, 119], "lower", 0.1) == "regressed"
    assert compare.verdict([100, 101, 99], [120, 121, 119], "higher", 0.1) == "improved"
    # runs that spread wider than the bound and overlap settle nothing
    assert compare.verdict([100, 130, 80], [115, 140, 90], "lower", 0.1) == "unresolved"
    assert compare.verdict([100, 130, 80], [60, 70, 50], "lower", 0.1) == "improved"
