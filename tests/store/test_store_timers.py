"""The store's two disk stalls are timed: every WAL fsync and every
snapshot write adds one observation to its histogram, and nothing else
does."""

import asyncio

from repro.obs.metrics import REGISTRY
from repro.store import DurableStore
from repro.store import snapshot as store_snapshot
from tests.store.test_recovery import populate

FSYNC = "repro_store_wal_fsync_seconds"
SNAPSHOT = "repro_store_snapshot_seconds"


def observed(family: str) -> int:
    return REGISTRY.snapshot()[family][()]["count"]


def test_each_group_fsync_is_one_observation(tmp_path):
    store = DurableStore.open(tmp_path, fsync_policy="group")
    try:
        populate(store, tuples=2)
        before = observed(FSYNC)
        asyncio.run(store.sync(store.last_seq))
        assert observed(FSYNC) == before + 1
        # already durable: no fsync, no observation
        asyncio.run(store.sync(store.last_seq))
        assert observed(FSYNC) == before + 1
        store.journal.record("close_collection", "q1")
        asyncio.run(store.sync(store.last_seq))
        assert observed(FSYNC) == before + 2
    finally:
        store.close()


def test_each_snapshot_written_is_one_observation(tmp_path):
    store = DurableStore.open(tmp_path, snapshot_every=1)
    populate(store, tuples=1)
    before = observed(SNAPSHOT)
    assert asyncio.run(store.maybe_snapshot(store_snapshot.SnapshotState)) is True
    assert observed(SNAPSHOT) == before + 1
    # below the threshold again: nothing written, nothing observed
    assert asyncio.run(store.maybe_snapshot(store_snapshot.SnapshotState)) is False
    assert observed(SNAPSHOT) == before + 1
    store.close(store_snapshot.SnapshotState())
    assert observed(SNAPSHOT) == before + 2
