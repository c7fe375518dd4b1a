"""Crash recovery and the :class:`DurableStore` facade.

Startup sequence (``DurableStore.open``):

1. load the newest retained snapshot that passes verification (the
   previous generation is the fallback — snapshots are written
   atomically, but the disk the untrusted operator runs may not be);
2. scan the WAL in *repair* mode (torn tails truncated, prefix kept);
3. rebuild a fresh :class:`SupportingServerInfrastructure` from the
   snapshot, then replay every WAL record past the snapshot's sequence
   through the normal SSI methods with journaling disabled — replay is
   therefore idempotent by the same guards that make live requests
   idempotent (closed-collection drops, transition-only close/publish,
   the journaled watermark/ahead dedup state);
4. extend the commitment chain restored from the snapshot with the
   replayed records and check it is contiguous — a WAL that skips
   records the chain covers is corruption, not recoverable state.

Recovery invariants:

* **prefix**: the recovered state equals the state after some prefix of
  the acknowledged history; with ``fsync_policy=group`` that prefix
  includes every acknowledged durable op.
* **no double-apply**: journaled idempotency state means a client retry
  spanning the crash is dropped exactly as it would have been live.
* **chain continuity**: the commitment head after recovery extends
  every head previously handed to a client, or the clients' freshness
  checks fail loudly (:class:`~repro.exceptions.RollbackDetectedError`).
"""

from __future__ import annotations

import asyncio
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.exceptions import (
    CorruptLogError,
    DuplicateQueryError,
    StoreError,
    UnknownQueryError,
)
from repro.net.frames import QueryMeta
from repro.obs import metrics as obs_metrics
from repro.net import ops
from repro.ssi.idempotency import IdempotencyWindow
from repro.ssi.server import SupportingServerInfrastructure
from repro.store import records as store_records
from repro.store import snapshot as store_snapshot
from repro.store import wal as store_wal
from repro.store.commitment import (
    GENESIS_HEAD,
    Commitment,
    CommitmentChain,
    chain_step,
    record_digest,
)
from repro.store.records import StoreJournal, WalRecord
from repro.store.snapshot import SnapshotState

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"

FSYNC_POLICIES = ("group", "batch", "none")

# --------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------- #
_WAL_APPENDS = obs_metrics.REGISTRY.counter(
    "repro_store_wal_appends_total",
    "Records appended to the SSI write-ahead log.",
)
_WAL_BYTES = obs_metrics.REGISTRY.counter(
    "repro_store_wal_appended_bytes_total",
    "Record body bytes appended to the SSI write-ahead log.",
)
_WAL_FSYNC_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_store_wal_fsync_seconds",
    "Wall time of WAL fsync batches (each covers all pending appends).",
)
_FSYNC_COVERED = obs_metrics.REGISTRY.histogram(
    "repro_store_fsync_covered_records",
    "Records one WAL fsync made durable that no earlier one had.",
    buckets=obs_metrics.SIZE_BUCKETS,
)
_ACK_WAIT_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_store_ack_wait_seconds",
    "Time an ack waited in sync() for the fsync covering the records "
    "it answers for (nothing observed when they were already synced).",
)
_SNAPSHOT_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_store_snapshot_seconds",
    "Wall time spent writing one state snapshot.",
)
_SNAPSHOTS = obs_metrics.REGISTRY.counter(
    "repro_store_snapshots_total",
    "State snapshots written since process start.",
)
_RECOVERIES = obs_metrics.REGISTRY.counter(
    "repro_store_recoveries_total",
    "Store recoveries at startup, by outcome.",
    ("outcome",),
)
_RECOVERED_RECORDS = obs_metrics.REGISTRY.counter(
    "repro_store_recovered_records_total",
    "WAL records replayed during recovery.",
)
_RECOVERY_TRUNCATED = obs_metrics.REGISTRY.counter(
    "repro_store_recovery_truncated_bytes_total",
    "Torn-tail bytes discarded from the WAL during recovery.",
)
_SNAPSHOT_FALLBACKS = obs_metrics.REGISTRY.counter(
    "repro_store_snapshot_fallbacks_total",
    "Recoveries that skipped a corrupt snapshot for an older one.",
)

_c_wal_appends = _WAL_APPENDS.labels()
_c_wal_bytes = _WAL_BYTES.labels()
_h_fsync = _WAL_FSYNC_SECONDS.labels()
_h_fsync_covered = _FSYNC_COVERED.labels()
_h_ack_wait = _ACK_WAIT_SECONDS.labels()
_h_snapshot = _SNAPSHOT_SECONDS.labels()
_c_snapshots = _SNAPSHOTS.labels()
_c_recovered_records = _RECOVERED_RECORDS.labels()
_c_truncated = _RECOVERY_TRUNCATED.labels()
_c_fallbacks = _SNAPSHOT_FALLBACKS.labels()


@dataclass
class RecoveredState:
    """What recovery hands the dispatcher to resume serving."""

    ssi: SupportingServerInfrastructure
    metas: dict[str, QueryMeta] = field(default_factory=dict)
    tds_ids: dict[str, str] = field(default_factory=dict)
    idempotency: IdempotencyWindow = field(default_factory=IdempotencyWindow)
    #: True when the previous process shut down gracefully and nothing
    #: needed repair or replay
    clean: bool = False
    replayed_records: int = 0
    truncated_bytes: int = 0
    snapshot_seq: int = 0


def _restore_snapshot(
    ssi: SupportingServerInfrastructure, state: SnapshotState, out: RecoveredState
) -> None:
    for q in state.queries:
        ssi.post_query(q.envelope, q.tds_id)
        storage = ssi.storage_map()[q.query_id]
        storage.collected = list(q.collected)
        storage.collected_blocks = list(q.collected_blocks)
        storage.partials = list(q.partials)
        storage.result_rows = list(q.result_rows)
        if q.collection_closed:
            ssi.close_collection(q.query_id)
        if q.result_ready:
            ssi.publish_result(q.query_id)
        out.metas[q.query_id] = q.meta
        if q.tds_id is not None:
            out.tds_ids[q.query_id] = q.tds_id


def _apply_record(
    ssi: SupportingServerInfrastructure, record: WalRecord, out: RecoveredState
) -> None:
    """Replay one record through the facade method its row names."""
    try:
        if record.op is ops.POST_QUERY:
            envelope, tds_id, meta = record.args
            try:
                ssi.post_query(envelope, tds_id)
            except DuplicateQueryError:
                pass  # replayed post after a snapshot race: already there
            out.metas[envelope.query_id] = meta
            if tds_id is not None:
                out.tds_ids[envelope.query_id] = tds_id
        else:
            getattr(ssi, record.op.method)(*record.args)
    except UnknownQueryError as exc:
        raise CorruptLogError(
            f"WAL record references an unknown query ({exc}): its "
            "post_query record is missing — the log is not a prefix"
        ) from None
    if record.idem is not None:
        out.idempotency.mark(*record.idem)


class DurableStore:
    """WAL + snapshots + commitment chain behind one handle.

    Created via :meth:`open`, which performs recovery.  The dispatcher
    then routes every state mutation through :attr:`journal`, awaits
    :meth:`sync` up to the records an ack answers for, and calls
    :meth:`maybe_snapshot` after a request that appended.  Everything
    but ``os.fsync`` and the snapshot file write runs on the loop
    thread — the chain included, so a commitment read in the step that
    appended a record covers that record and no later one.
    """

    def __init__(
        self,
        data_dir: Path,
        wal_writer: store_wal.WalWriter,
        chain: CommitmentChain,
        recovered: RecoveredState,
        *,
        fsync_policy: str = "group",
        snapshot_every: int = 4096,
        batch_interval: float = 0.05,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.fsync_policy = fsync_policy
        self.snapshot_every = snapshot_every
        self.recovered = recovered
        # The journal reaches back weakly.  The SSI holds the journal and
        # the store holds the recovered SSI (and the journal): with a
        # strong reference here a closed store, and every ciphertext
        # its SSI retains, would wait for the cycle collector.
        append = weakref.WeakMethod(self.append_record)
        self.journal = StoreJournal(lambda body: append()(body))
        self._wal = wal_writer
        self._chain = chain
        self._snap_dir = self.data_dir / SNAPSHOT_SUBDIR
        self._synced_seq = wal_writer.last_seq
        self._sync_lock = asyncio.Lock()
        self._appends_since_snapshot = 0
        self._snapshot_lock = asyncio.Lock()
        self._batch_interval = batch_interval
        self._flusher: asyncio.Task[None] | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # startup / recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        data_dir: str | Path,
        *,
        fsync_policy: str = "group",
        segment_bytes: int = store_wal.DEFAULT_SEGMENT_BYTES,
        snapshot_every: int = 4096,
        batch_interval: float = 0.05,
    ) -> "DurableStore":
        if fsync_policy not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync_policy!r}; choose from "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        data_dir = Path(data_dir)
        wal_dir = data_dir / WAL_SUBDIR
        snap_dir = data_dir / SNAPSHOT_SUBDIR
        data_dir.mkdir(parents=True, exist_ok=True)

        state = SnapshotState()
        snapshots = store_snapshot.list_snapshots(snap_dir)
        loaded = False
        for _, path in reversed(snapshots):
            try:
                state = store_snapshot.load_snapshot(path)
            except CorruptLogError:
                # Fall back to the previous generation; the records
                # between it and the corrupt snapshot are still in the
                # WAL (GC only trims below the *oldest* retained one).
                _c_fallbacks.inc()
                continue
            loaded = True
            break
        if snapshots and not loaded:
            raise CorruptLogError(
                "every retained snapshot failed verification; refusing to "
                "restart from an empty state (the WAL alone may not reach "
                "back far enough)"
            )

        scan = store_wal.scan_segments(wal_dir, mode="repair")
        chain = CommitmentChain(state.chain_heads)
        ssi = SupportingServerInfrastructure()
        out = RecoveredState(
            ssi=ssi,
            snapshot_seq=state.wal_seq,
            truncated_bytes=scan.truncated_bytes,
        )
        out.idempotency.restore(state.applied_seq, state.applied_ahead)
        _restore_snapshot(ssi, state, out)
        for seq, body in scan.records:
            if seq <= state.wal_seq:
                continue
            if seq != chain.count + 1:
                raise CorruptLogError(
                    f"WAL resumes at seq {seq} but the snapshot chain ends "
                    f"at {chain.count}: records are missing in between"
                )
            chain.append(seq, body)
            _apply_record(ssi, store_records.decode_record(body), out)
            out.replayed_records += 1

        last_wal_seq = scan.next_seq - 1
        if last_wal_seq < state.wal_seq:
            # Snapshot is ahead of every surviving WAL record (segments
            # GC'd, or a torn tail ate acked-but-snapshotted records).
            # The stale segments are fully covered by the snapshot;
            # remove them so the writer's next segment stays contiguous.
            for path in scan.segments:
                path.unlink()
        next_seq = max(scan.next_seq, state.wal_seq + 1)
        if chain.count != next_seq - 1:
            raise CorruptLogError(
                f"commitment chain covers {chain.count} records but the "
                f"next WAL sequence is {next_seq}"
            )

        # A brand-new directory is a clean start, not a recovery.
        fresh = not snapshots and not scan.segments and not scan.records
        out.clean = (
            (state.clean or fresh)
            and out.replayed_records == 0
            and scan.truncated_bytes == 0
            and scan.dropped_segments == 0
        )
        _RECOVERIES.labels(outcome="clean" if out.clean else "recovered").inc()
        _c_recovered_records.inc(out.replayed_records)
        _c_truncated.inc(scan.truncated_bytes)

        writer = store_wal.WalWriter(
            wal_dir, next_seq=next_seq, segment_bytes=segment_bytes
        )
        return cls(
            data_dir,
            writer,
            chain,
            out,
            fsync_policy=fsync_policy,
            snapshot_every=snapshot_every,
            batch_interval=batch_interval,
        )

    # ------------------------------------------------------------------ #
    # append / durability
    # ------------------------------------------------------------------ #
    def append_record(self, body: bytes | memoryview | tuple[bytes | memoryview, ...]) -> int:
        """Append one encoded record to the WAL and extend the
        commitment chain with it, in that order and in one step.
        Public name on purpose: it is a PL007 taint sink — anything
        reaching it is persisted on the untrusted SSI's disk, so only
        ciphertext and paper-sanctioned cleartext may flow here."""
        if self._closed:
            raise StoreError("store is closed")
        parts = (
            (body,)
            if isinstance(body, (bytes, memoryview))
            else tuple(body)
        )
        seq = self._wal.append(parts)
        self._chain.append_leaf(record_digest(seq, parts))
        self._appends_since_snapshot += 1
        _c_wal_appends.inc()
        _c_wal_bytes.inc(sum(len(part) for part in parts))
        return seq

    @property
    def last_seq(self) -> int:
        return self._wal.last_seq

    def commitment(self) -> Commitment:
        return self._chain.commitment()

    def head_at(self, count: int) -> bytes | None:
        return self._chain.head_at(count)

    async def sync(self, upto: int) -> None:
        """Make the records up to sequence *upto* durable according to
        the policy.

        * ``group``: returns only once an fsync covering *upto*
          completed — at once when one already has.  Concurrent callers
          pile up on one lock; the first to take it fsyncs everything
          appended so far (group commit), the rest observe their target
          already synced.
        * ``batch``: returns immediately; a background flusher fsyncs on
          an interval.  Acks may precede durability by up to that
          interval — the documented weaker guarantee.
        * ``none``: never fsyncs (benchmark baseline; page cache only).
        """
        if self.fsync_policy == "none":
            return
        if self.fsync_policy == "batch":
            if self._flusher is None and not self._closed:
                self._flusher = asyncio.get_running_loop().create_task(
                    self._flush_loop()
                )
            return
        if upto <= self._synced_seq:
            return
        started = time.perf_counter()
        async with self._sync_lock:
            if upto > self._synced_seq:  # else a group commit ahead covered it
                await self._fsync()
        _h_ack_wait.observe(time.perf_counter() - started)

    async def _fsync(self) -> None:
        """One fsync of everything appended so far, off the loop thread.
        Caller holds ``_sync_lock``."""
        covered = self._wal.last_seq
        started = time.perf_counter()
        await asyncio.get_running_loop().run_in_executor(None, self._wal.fsync)
        _h_fsync.observe(time.perf_counter() - started)
        _h_fsync_covered.observe(covered - self._synced_seq)
        self._synced_seq = covered

    async def _flush_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self._batch_interval)
            async with self._sync_lock:
                if self._wal.last_seq > self._synced_seq:
                    await self._fsync()

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    async def maybe_snapshot(self, capture: Callable[[], SnapshotState]) -> bool:
        """Write a snapshot when enough records accumulated since the
        last one.  The capture callback and the store-owned stamping run
        synchronously on the loop thread (no await in between), so the
        captured state is consistent by construction; the file write is
        then offloaded to the default executor so in-flight requests
        keep being served while it lands (duration observed by
        ``repro_store_snapshot_seconds``)."""
        if (
            self._appends_since_snapshot < self.snapshot_every
            or self._snapshot_lock.locked()
            or self._closed
        ):
            return False
        async with self._snapshot_lock:
            if self._appends_since_snapshot < self.snapshot_every or self._closed:
                return False  # a writer ahead of us already covered these
            # Capture and stamping run with no await in between, so
            # wal_seq == len(chain_heads) by construction.
            state = capture()
            state.wal_seq = self._wal.last_seq
            state.chain_heads = self._chain.heads()
            state.clean = False
            # Reset before the write: appends landing while the file is
            # being written count toward the *next* snapshot.
            self._appends_since_snapshot = 0
            started = time.perf_counter()
            await asyncio.get_running_loop().run_in_executor(
                None, store_snapshot.write_snapshot, self._snap_dir, state
            )
            _h_snapshot.observe(time.perf_counter() - started)
            _c_snapshots.inc()
            store_snapshot.prune_snapshots(self._snap_dir)
            retained = store_snapshot.list_snapshots(self._snap_dir)
            if retained:
                self._wal.gc(retained[0][0])
        return True

    def _write_snapshot(self, state: SnapshotState, *, clean: bool) -> None:
        # Stamp store-owned fields: the capture callback only fills the
        # dispatcher's view (queries + idempotency state).
        state.wal_seq = self._wal.last_seq
        state.chain_heads = self._chain.heads()
        state.clean = clean
        started = time.perf_counter()
        store_snapshot.write_snapshot(self._snap_dir, state)
        _h_snapshot.observe(time.perf_counter() - started)
        _c_snapshots.inc()
        self._appends_since_snapshot = 0
        store_snapshot.prune_snapshots(self._snap_dir)
        retained = store_snapshot.list_snapshots(self._snap_dir)
        if retained:
            self._wal.gc(retained[0][0])

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def close(self, final_state: SnapshotState | None = None) -> None:
        """Flush the WAL and optionally persist a clean-shutdown
        snapshot (graceful SIGTERM path)."""
        if self._closed:
            return
        self._closed = True
        if self._flusher is not None:
            self._flusher.cancel()
            self._flusher = None
        if final_state is not None:
            self._write_snapshot(final_state, clean=True)
        self._wal.close()


# --------------------------------------------------------------------- #
# offline verification (`repro verify-log`)
# --------------------------------------------------------------------- #
def verify_data_dir(data_dir: str | Path) -> dict[str, object]:
    """Strict integrity check of a data directory; raises
    :class:`CorruptLogError` on the first violation, modifies nothing.

    Checks: WAL framing/CRC/contiguity, record decodability, snapshot
    framing/CRC for *every* retained snapshot, and that the WAL records
    agree byte-for-byte with the newest snapshot's commitment chain
    (overlapping records must reproduce the persisted heads; records
    past the snapshot must extend the chain contiguously)."""
    data_dir = Path(data_dir)
    scan = store_wal.scan_segments(data_dir / WAL_SUBDIR, mode="verify")
    snapshots = store_snapshot.list_snapshots(data_dir / SNAPSHOT_SUBDIR)
    latest: SnapshotState | None = None
    for file_seq, path in snapshots:
        state = store_snapshot.load_snapshot(path)
        if state.wal_seq != file_seq:
            raise CorruptLogError(
                f"{path.name} claims WAL seq {state.wal_seq} in its payload"
            )
        latest = state
    heads = latest.chain_heads if latest is not None else []
    snap_seq = latest.wal_seq if latest is not None else 0
    count = snap_seq
    head = heads[-1] if heads else GENESIS_HEAD
    first_unseen = snap_seq + 1
    for seq, body in scan.records:
        store_records.decode_record(body)
        leaf = record_digest(seq, body)
        if seq <= snap_seq:
            prev = heads[seq - 2] if seq >= 2 else GENESIS_HEAD
            if chain_step(prev, leaf) != heads[seq - 1]:
                raise CorruptLogError(
                    f"WAL record {seq} disagrees with the snapshot's "
                    "commitment chain"
                )
        else:
            if seq != first_unseen:
                raise CorruptLogError(
                    f"WAL resumes at seq {seq} but the snapshot chain ends "
                    f"at {first_unseen - 1}"
                )
            head = chain_step(head, leaf)
            count += 1
            first_unseen += 1
    return {
        "wal_segments": len(scan.segments),
        "wal_records": len(scan.records),
        "snapshots": len(snapshots),
        "snapshot_seq": snap_seq,
        "commitment_count": count,
        "commitment_head": head.hex(),
        "clean": bool(latest.clean) if latest is not None else False,
    }
