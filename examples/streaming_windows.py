"""Stream-relational windows (§2.3): mean consumption per period & district.

The paper's canonical deployment pushes smart-meter data "in the form of
windows": the same aggregate query re-executes every period over freshly
acquired readings.  This example runs four windows; each window is a full
independent protocol execution (collection → aggregation → filtering)
with its own query id and covering result, so every window enjoys the
same security guarantees.

Run with:  python examples/streaming_windows.py
"""

import random

from repro import Deployment, ProtocolDriver
from repro.exposure import audit_query
from repro.protocols import WindowedQueryRunner, append_feed
from repro.sql.schema import Database, schema

NUM_METERS = 16
NUM_WINDOWS = 4
SQL = "SELECT district, AVG(cons) AS mean_cons, COUNT(*) AS readings " \
      "FROM Power GROUP BY district"

DISTRICTS = ["north", "south", "east"]


def empty_meter_factory():
    def factory(index, rng):
        db = Database()
        db.create_table(schema("Power", district="TEXT", cons="REAL"))
        return db

    return factory


def reading_feed():
    """Each window, every meter acquires one reading; a morning/evening
    pattern makes the running means drift as windows accumulate."""
    base_by_window = [300.0, 450.0, 820.0, 500.0]  # night/morning/evening/day

    def row(window_index, tds_index, rng):
        base = base_by_window[window_index % len(base_by_window)]
        return {
            "district": DISTRICTS[tds_index % len(DISTRICTS)],
            "cons": round(base + rng.uniform(-40, 40), 1),
        }

    return append_feed("Power", row)


def main() -> None:
    deployment = Deployment.build(
        NUM_METERS, empty_meter_factory(), tables=["Power"], seed=6
    )
    runner = WindowedQueryRunner(
        deployment,
        lambda dep, rng: ProtocolDriver(
            dep.ssi, dep.tds_list, dep.tds_list, rng, "s_agg"
        ),
        SQL,
        data_feed=reading_feed(),
        seed=10,
    )

    print(f"{SQL}\n")
    print(f"{'window':>6} | {'district':>8} | {'mean (kWh)':>10} | {'readings':>8}")
    print("-" * 44)
    for result in runner.run(NUM_WINDOWS):
        for row in sorted(result.rows, key=lambda r: r["district"]):
            print(
                f"{result.window_index:>6} | {row['district']:>8} | "
                f"{row['mean_cons']:>10.1f} | {row['readings']:>8}"
            )

    # every window's dataflow honoured the S_Agg contract
    clean = 0
    for query_id in list(deployment.ssi._storage):
        if audit_query(deployment.ssi.observer, query_id, "s_agg").ok():
            clean += 1
    print(f"\n✓ {clean}/{NUM_WINDOWS} window executions pass the security audit "
          f"(uniform sizes, zero grouping tags)")


if __name__ == "__main__":
    main()
