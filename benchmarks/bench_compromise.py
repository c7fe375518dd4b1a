"""Threat-model extension bench: leakage under c compromised TDSs (§8).

Runs a real S_Agg execution, then marks increasing numbers of workers as
compromised and measures the fraction of raw collected material they
decrypted — against the analytic c/W expectation.
"""

import random

from repro.bench import build_deployment, publish, render_table
from repro.exposure import analyze_trace_leakage, expected_leak_fraction
from repro.protocols import ProtocolDriver

GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


def run_leakage_sweep():
    deployment = build_deployment(num_tds=32, num_districts=4, seed=3)
    querier = deployment.make_querier()
    envelope = querier.make_envelope(GROUP_SQL)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi, deployment.tds_list, deployment.tds_list,
        random.Random(2), "s_agg",
    )
    driver.execute(envelope)
    workers = sorted({e.tds_id for e in driver.trace.events_in("aggregation", 0)})
    rows = []
    for compromised_count in range(0, len(workers) + 1, max(1, len(workers) // 6)):
        compromised = workers[:compromised_count]
        report = analyze_trace_leakage(driver.trace, compromised)
        rows.append(
            (
                compromised_count,
                expected_leak_fraction(compromised_count, len(workers)),
                report.raw_fraction,
                report.aggregate_fraction,
            )
        )
    return rows, len(workers)


def test_compromise_leakage(benchmark):
    rows, num_workers = benchmark.pedantic(run_leakage_sweep, rounds=1, iterations=1)
    publish(
        "ablation_compromise",
        render_table(
            f"Threat extension — leakage with c of {num_workers} round-0 "
            "workers compromised (S_Agg, 32 TDSs)",
            ["c compromised", "expected c/W", "raw fraction", "aggregate fraction"],
            rows,
        ),
    )

    # zero compromise leaks nothing; full compromise leaks everything
    assert rows[0][2] == 0.0 and rows[0][3] == 0.0
    assert rows[-1][2] == 1.0
    # leakage grows monotonically with the number of compromised workers
    raw = [r[2] for r in rows]
    assert raw == sorted(raw)
    # measured raw leakage tracks the uniform-assignment expectation
    for c, expected, measured, __ in rows:
        assert abs(measured - expected) < 0.35
