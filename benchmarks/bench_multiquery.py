"""Multi-query engine throughput: overlap and discovery-once measured.

Two claims of the multi-query engine, measured instead of asserted:

* **concurrency** — a batch of fleet-mode queries run through one
  :class:`~repro.net.multiquery.MultiQueryRunner` at concurrency 1
  (the serial baseline), 4 and 16; aggregate queries/second plus p50/p95
  per-query latency for each level.  Serial fleet-mode spends most of
  its wall clock waiting (poll intervals, wire round trips), which is
  exactly what overlapping queries reclaims — even on one core.
* **discovery once** — repeated ED_Hist and C_Noise driver-mode
  queries that either re-run the §4.3/§4.4 discovery phase (a full
  COUNT GROUP BY sweep over the fleet) before every query, or run it
  once and hold the histogram for all of them.  The JSON keeps its
  ``discovery_cache.cache_off`` / ``cache_on`` names so older baselines
  stay comparable.

Running the module directly writes ``BENCH_multiq.json`` at the repo
root (BENCH_crypto-style schema) and publishes a table under
``benchmarks/results/``.  ``--smoke`` is the CI entry: a small batch
over real TCP, asserting concurrent aggregate q/s beats the serial
baseline.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import random
import sys
import time

from repro.bench import publish, render_table
from repro.obs import spans as obs_spans
from repro.net.client import QuerierClient, RetryPolicy
from repro.net.fleet import FleetRunner
from repro.net.multiquery import MultiQueryRunner, QuerySpec
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport
from repro.protocols import Deployment, ProtocolDriver, build_histogram
from repro.sql.schema import Database, schema
from repro.tds.histogram import EquiDepthHistogram

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_multiq.json")
SPAN_EXPORT_PATH = os.path.join(
    REPO_ROOT, "benchmarks", "results", "spans_multiq.jsonl"
)

QUERY_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
BATCH = 16
LEVELS = (1, 4, 16)
DISCOVERY_REPEATS = 5
NUM_TDS = 16


def _factory(index, rng):
    db = Database()
    consumer = db.create_table(
        schema("Consumer", cid="INTEGER", district="TEXT")
    )
    consumer.insert({"cid": index, "district": f"d{index % 4}"})
    power = db.create_table(schema("Power", cid="INTEGER", cons="REAL"))
    power.insert({"cid": index, "cons": float(index)})
    return db


def _deployment(num_tds=NUM_TDS, seed=11):
    return Deployment.build(
        num_tds, _factory, tables=["Power", "Consumer"], seed=seed
    )


def _histogram(deployment, num_buckets=2):
    freq = {}
    for row in deployment.reference_answer(QUERY_SQL):
        freq[row["district"]] = row["n"]
    return EquiDepthHistogram.from_distribution(freq, num_buckets)


# --------------------------------------------------------------------- #
# concurrency sweep: one fleet, batches at increasing overlap
# --------------------------------------------------------------------- #
async def _run_level(concurrency, batch=BATCH, num_tds=NUM_TDS):
    """One serve+fleet+batch cycle; returns the runner's stats."""
    dep = _deployment(num_tds)
    dispatcher = SSIDispatcher(dep.ssi, partition_timeout=5.0)
    server = SSIServer(dispatcher)
    await server.start()
    fleet = FleetRunner(
        dep.tds_list,
        lambda: TCPTransport("127.0.0.1", server.port, window=32),
        histogram=_histogram(dep),
        policy=RetryPolicy(backoff_base=0.01),
        poll_interval=0.01,
        batch_size=64,
        batch_flush_interval=0.005,
        rng=random.Random(5),
    )
    fleet_task = asyncio.create_task(fleet.run(until_queries_done=batch))
    try:
        querier = dep.make_querier()
        client = QuerierClient(
            TCPTransport("127.0.0.1", server.port, window=32),
            RetryPolicy(backoff_base=0.01),
            rng=random.Random(6),
        )
        runner = MultiQueryRunner(
            querier,
            client,
            concurrency=concurrency,
            poll_interval=0.01,
            result_timeout=120.0,
        )
        try:
            stats = await runner.run(
                [QuerySpec(QUERY_SQL, "s_agg") for __ in range(batch)]
            )
        finally:
            await client.close()
        for outcome in stats.outcomes:
            assert outcome.rows, "query returned no rows"
        await fleet_task
        return stats
    finally:
        fleet.stop()
        await server.close()


def measure_concurrency(batch=BATCH, levels=LEVELS):
    rows = []
    for concurrency in levels:
        stats = asyncio.run(_run_level(concurrency, batch))
        rows.append(
            {
                "concurrency": concurrency,
                "batch": batch,
                "queries_per_s": stats.queries_per_s,
                "p50_s": stats.p50_s,
                "p95_s": stats.p95_s,
                "wall_s": stats.wall_seconds,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# discovery once: repeated ED_Hist / C_Noise driver-mode queries
# --------------------------------------------------------------------- #
def _drive(deployment, protocol, histogram):
    querier = deployment.make_querier()
    envelope = querier.make_envelope(QUERY_SQL)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.tds_list,
        rng=random.Random(7),
        meta=protocol,
        histogram=histogram,
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(
        deployment.ssi.fetch_result(envelope.query_id)
    )
    assert rows


def _discovery_run(once, repeats=DISCOVERY_REPEATS):
    """Wall clock of *repeats* ED_Hist + C_Noise queries each, with the
    discovery sweep either run once and held, or re-run per repeat."""
    dep = _deployment()
    start = time.perf_counter()
    histogram = None
    for __ in range(repeats):
        if histogram is None or not once:
            histogram = build_histogram(dep, "Consumer", "district", 2)
        # one discovered distribution: ED_Hist's buckets, C_Noise's domain
        _drive(dep, "ed_hist", histogram)
        _drive(dep, "c_noise", histogram)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "queries": repeats * 2}


def measure_discovery_once(repeats=DISCOVERY_REPEATS):
    off = _discovery_run(once=False, repeats=repeats)
    on = _discovery_run(once=True, repeats=repeats)
    return {
        "cache_off": off,
        "cache_on": on,
        "speedup": off["seconds"] / on["seconds"] if on["seconds"] else 0.0,
    }


# --------------------------------------------------------------------- #
# aggregation / entry points
# --------------------------------------------------------------------- #
def environment():
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "num_tds": NUM_TDS,
        "batch": BATCH,
    }


def _render(levels, discovery):
    rows = [
        [
            f"fleet batch={row['batch']} conc={row['concurrency']}",
            f"{row['queries_per_s']:,.2f} q/s  "
            f"p50={row['p50_s']:.3f}s p95={row['p95_s']:.3f}s",
        ]
        for row in levels
    ]
    serial = levels[0]["queries_per_s"]
    for row in levels[1:]:
        rows.append(
            [
                f"speedup conc={row['concurrency']} vs serial",
                f"{row['queries_per_s'] / serial:.2f}x",
            ]
        )
    rows.append(
        [
            "driver discovery per repeat",
            f"{discovery['cache_off']['seconds']:.3f}s "
            f"({discovery['cache_off']['queries']} queries)",
        ]
    )
    rows.append(
        [
            "driver discovery once",
            f"{discovery['cache_on']['seconds']:.3f}s "
            f"({discovery['cache_on']['queries']} queries)",
        ]
    )
    rows.append(["speedup discovery once", f"{discovery['speedup']:.2f}x"])
    return render_table("repro multi-query engine", ["metric", "value"], rows)


def smoke(batch=4, span_path=SPAN_EXPORT_PATH):
    """CI gate: *batch* concurrent queries over real TCP must complete
    and beat the same batch run serially on aggregate q/s.  Always
    exports the fleet spans JSONL so a failing run leaves a timeline
    to upload."""
    obs_spans.RECORDER.reset()
    try:
        serial = asyncio.run(_run_level(1, batch))
        concurrent = asyncio.run(_run_level(batch, batch))
    finally:
        os.makedirs(os.path.dirname(span_path), exist_ok=True)
        with open(span_path, "w") as fh:
            obs_spans.RECORDER.export_jsonl(fh)
    print(f"serial:     {serial.queries_per_s:,.2f} q/s "
          f"(wall {serial.wall_seconds:.2f}s)")
    print(f"concurrent: {concurrent.queries_per_s:,.2f} q/s "
          f"(wall {concurrent.wall_seconds:.2f}s)")
    if concurrent.queries_per_s < serial.queries_per_s:
        print("FAIL: concurrent batch slower than serial baseline")
        return 1
    print("ok: concurrent >= serial")
    return 0


def main(argv):
    if "--smoke" in argv:
        return smoke()
    levels = measure_concurrency()
    discovery = measure_discovery_once()
    table = _render(levels, discovery)
    print(table)
    publish("multiquery", table)
    serial = levels[0]["queries_per_s"]
    top = levels[-1]
    speedup_16 = top["queries_per_s"] / serial if serial else 0.0
    notes = ["metric values are seconds or queries/second as named"]
    if speedup_16 < 3.0:
        notes.append(
            f"16-concurrent speedup {speedup_16:.2f}x is below the 3x "
            "target on this box: single-core, so overlap reclaims only "
            "scheduler/poll wait, not compute"
        )
    payload = {
        "description": (
            "multi-query engine: fleet-mode batch throughput at "
            "increasing concurrency, and driver-mode discovery run once "
            "per batch vs once per repeat"
        ),
        "environment": environment(),
        "concurrency": [
            {k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}
            for row in levels
        ],
        "speedup_16_concurrent": round(speedup_16, 3),
        "discovery_cache": {
            "cache_off": {
                k: round(v, 3) if isinstance(v, float) else v
                for k, v in discovery["cache_off"].items()
            },
            "cache_on": {
                k: round(v, 3) if isinstance(v, float) else v
                for k, v in discovery["cache_on"].items()
            },
            "speedup": round(discovery["speedup"], 3),
        },
        "notes": notes,
    }
    with open(BASELINE_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
