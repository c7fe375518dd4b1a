"""A query's phases are recorded where they are decided.

The SSI's :class:`~repro.net.coordinator.QueryCoordinator` opens the
``query`` root and each ``phase:*`` span at its own stage transitions,
so in either engine the phases tile the query, and nothing else — not
the facade's storage calls, not WAL replay — records a phase.
"""

import pytest

from repro.net.client import AsyncSSIClient
from repro.net.frames import PROTOCOLS, QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.obs import attribution
from repro.obs.spans import RECORDER
from repro.store import DurableStore

from ..net.conftest import finish_query, run_async
from ..net.golden.capture import block, envelope
from ..net.test_differential import meta_of, run_driver, run_fleet, sql_for

PHASES = ("phase:collection", "phase:aggregation", "phase:filtering")


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_the_phases_tile_the_query(protocol):
    sql, meta = sql_for(protocol), meta_of(protocol)
    modes = {
        "in process": lambda: run_driver(meta, sql),
        "loopback fleet": lambda: run_async(
            run_fleet(meta, sql, transport=LoopbackTransport)
        ),
    }
    for mode, run in modes.items():
        RECORDER.reset()
        outcome = run()
        spans = RECORDER.finished()
        (root,) = [s for s in spans if s.name == "query"]
        assert root.attributes["protocol"] == protocol, mode
        phases = sorted((s for s in spans if s.name in PHASES), key=lambda s: s.start)
        assert all(s.parent_id == root.span_id for s in phases), mode
        assert phases[0].name == "phase:collection", mode
        for before, after in zip(phases, phases[1:]):
            assert after.start >= before.end, mode
        assert any(s.name == "phase:filtering" for s in phases), mode
        records = [s.to_dict() for s in spans]
        (row,) = attribution.build_report(records)["queries"]
        assert row["other_s"] <= max(0.01 * row["wall_s"], 1e-3), mode
        rounds = outcome.counters[1]  # stats.aggregation_rounds
        assert row["aggregation_rounds"] == rounds, mode
        assert sum(s.name == "phase:aggregation" for s in phases) == rounds, mode


def test_a_restart_records_no_phantom_queries(tmp_path):
    """Three published queries and one live one are reopened: replay
    records nothing, and the live query gets the one root its rebuilt
    coordinator opens."""

    async def populate():
        store = DurableStore.open(tmp_path, fsync_policy="none")
        client = AsyncSSIClient(
            LoopbackTransport(SSIDispatcher.with_store(store).dispatch)
        )
        for query_id in ("q0", "q1", "q2", "live"):
            await client.post_query(envelope(query_id), meta=QueryMeta("basic"))
            await client.submit_tuples_batch(query_id, block(b"ct"))
        for query_id in ("q0", "q1", "q2"):
            await finish_query(client, query_id, [b"row"])
        store.close()

    run_async(populate())
    RECORDER.reset()
    store = DurableStore.open(tmp_path, fsync_policy="none")
    try:
        dispatcher = SSIDispatcher.with_store(store)
        assert sorted(dispatcher.coordinators) == ["live"]
        assert RECORDER.finished() == []
        roots = [s for s in RECORDER.snapshot() if s.name == "query"]
        assert [root.attributes["query_id"] for root in roots] == ["live"]
    finally:
        store.close()
