"""Crash recovery and the :class:`DurableStore` facade.

Startup sequence (``DurableStore.open``):

1. load the newest retained snapshot that passes verification, the
   sequence in its file name included (the previous generation is the
   fallback — snapshots are written atomically, but the disk the
   untrusted operator runs may not be);
2. scan the WAL in *repair* mode (a torn tail of the last segment cut,
   a fault anywhere else refused);
3. rebuild a fresh :class:`SupportingServerInfrastructure` from the
   snapshot, then replay every WAL record past the snapshot's sequence
   through the normal SSI methods with journaling disabled — replay is
   therefore idempotent by the same guards that make live requests
   idempotent (closed-collection drops, transition-only close/publish,
   the journaled watermark/ahead dedup state);
4. extend the commitment chain restored from the snapshot with the
   records past it (:func:`_chain_past_snapshot`) — a WAL that skips
   records the chain covers is corruption, not recoverable state.

``verify_data_dir`` (``repro verify-log``) reads a data dir through the
same snapshot loader and the same chain walk, so it cannot pass a dir
``open`` would refuse.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.exceptions import (
    CorruptLogError,
    DuplicateQueryError,
    StoreError,
    UnknownQueryError,
)
from repro.obs import metrics as obs_metrics
from repro.ssi.idempotency import IdempotencyWindow
from repro.ssi.server import SupportingServerInfrastructure
from repro.store import records as store_records
from repro.store import snapshot as store_snapshot
from repro.store import wal as store_wal
from repro.store.commitment import Commitment, CommitmentChain, record_digest
from repro.store.records import StoreJournal, WalRecord
from repro.store.snapshot import SnapshotState

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"

FSYNC_POLICIES = ("group", "batch", "none")

# --------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------- #
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

_c_wal_bytes = _WAL_BYTES.labels()
_h_fsync = _WAL_FSYNC_SECONDS.labels()
_h_fsync_covered = _FSYNC_COVERED.labels()
_h_ack_wait = _ACK_WAIT_SECONDS.labels()
_h_snapshot = _SNAPSHOT_SECONDS.labels()
_c_snapshots = _SNAPSHOTS.labels()


@dataclass
class RecoveredState:
    """What recovery hands the dispatcher to resume serving."""

    ssi: SupportingServerInfrastructure
    idempotency: IdempotencyWindow = field(default_factory=IdempotencyWindow)
    #: True when the previous process shut down gracefully and nothing
    #: needed repair or replay
    clean: bool = False
    replayed_records: int = 0
    #: torn-tail bytes cut from the WAL
    truncated_bytes: int = 0
    #: retained snapshots skipped as corrupt for an older generation
    snapshot_fallbacks: int = 0
    snapshot_seq: int = 0


def _restore_snapshot(
    ssi: SupportingServerInfrastructure, state: SnapshotState
) -> None:
    for q in state.queries:
        query_id = q.envelope.query_id
        ssi.post_query(q.envelope, q.tds_id, q.meta)
        storage = ssi.query(query_id)
        storage.collected_blocks = list(q.collected_blocks)
        storage.partials = list(q.partials)
        storage.result_rows = list(q.result_rows)
        if q.collection_closed:
            ssi.close_collection(query_id)
        if q.result_ready:
            ssi.publish_result(query_id)


def _chain_past_snapshot(
    chain: CommitmentChain, scan: store_wal.ScanResult
) -> list[tuple[int, bytes]]:
    """Extend *chain*, restored from a snapshot, with the scanned records
    past its end, and return them.  The log must continue the chain
    with no gap; the records the snapshot covers are skipped unread."""
    past = [(seq, body) for seq, body in scan.records if seq > chain.count]
    resume = past[0][0] if past else scan.next_seq
    if resume > chain.count + 1:
        raise CorruptLogError(
            f"WAL resumes at seq {resume} but the snapshot chain ends at "
            f"{chain.count}: records are missing in between"
        )
    for seq, body in past:
        chain.append(seq, body)
    return past


def _apply_record(
    ssi: SupportingServerInfrastructure, record: WalRecord, out: RecoveredState
) -> None:
    """Replay one record through the facade method its row names."""
    try:
        getattr(ssi, record.op.method)(*record.args)
    except DuplicateQueryError:
        pass  # replayed post after a snapshot race: already there
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
        failures: list[CorruptLogError] = []
        for _, path in reversed(snapshots):
            try:
                state = store_snapshot.load_snapshot(path)
                break
            except CorruptLogError as exc:
                # Fall back to the previous generation; the records
                # between it and the corrupt snapshot are still in the
                # WAL (GC only trims below the *oldest* retained one).
                failures.append(exc)
        if snapshots and len(failures) == len(snapshots):
            raise CorruptLogError(
                f"every retained snapshot failed verification (newest: "
                f"{failures[0]}); refusing to restart from an empty state (the "
                "WAL alone may not reach back far enough)"
            )

        scan = store_wal.scan_segments(wal_dir, mode="repair")
        chain = CommitmentChain(state.chain_heads)
        past = _chain_past_snapshot(chain, scan)
        ssi = SupportingServerInfrastructure()
        out = RecoveredState(
            ssi=ssi,
            replayed_records=len(past),
            snapshot_seq=state.wal_seq,
            truncated_bytes=scan.truncated_bytes,
            snapshot_fallbacks=len(failures),
        )
        out.idempotency.restore(state.applied_seq, state.applied_ahead)
        _restore_snapshot(ssi, state)
        for _, body in past:
            _apply_record(ssi, store_records.decode_record(body), out)

        if scan.next_seq - 1 < state.wal_seq:
            # Snapshot is ahead of every surviving WAL record (segments
            # GC'd, or a torn tail ate acked-but-snapshotted records).
            # The stale segments are fully covered by the snapshot;
            # remove them so the writer's next segment stays contiguous.
            for path in scan.segments:
                path.unlink()

        # A brand-new directory is a clean start, not a recovery.
        fresh = not snapshots and not scan.segments
        out.clean = (state.clean or fresh) and not past and not scan.repaired

        writer = store_wal.WalWriter(
            wal_dir, next_seq=chain.count + 1, segment_bytes=segment_bytes
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
        * ``none``: no ack waits for an fsync (benchmark baseline; page
          cache only); WAL rotation still syncs each retired segment.
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
        keep being served while it lands."""
        if (
            self._appends_since_snapshot < self.snapshot_every
            or self._snapshot_lock.locked()
            or self._closed
        ):
            return False
        async with self._snapshot_lock:
            if self._appends_since_snapshot < self.snapshot_every or self._closed:
                return False  # a writer ahead of us already covered these
            with self._snapshot(capture(), clean=False) as state:
                await asyncio.get_running_loop().run_in_executor(
                    None, store_snapshot.write_snapshot, self._snap_dir, state
                )
        return True

    @contextmanager
    def _snapshot(
        self, state: SnapshotState, *, clean: bool
    ) -> Iterator[SnapshotState]:
        """Around one snapshot write (the ``with`` body): stamp *state*
        with the store-owned fields — the capture callback only fills the
        dispatcher's view (queries + idempotency state) — and restart the
        append count; once written, time and count the write
        (``repro_store_snapshot_seconds``), prune the snapshots and GC the
        WAL below the oldest one kept."""
        # No await between the capture and here, so wal_seq ==
        # len(chain_heads) by construction, and appends landing while the
        # file is written count toward the *next* snapshot.
        state.wal_seq = self._wal.last_seq
        state.chain_heads = self._chain.heads()
        state.clean = clean
        self._appends_since_snapshot = 0
        started = time.perf_counter()
        yield state
        _h_snapshot.observe(time.perf_counter() - started)
        _c_snapshots.inc()
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
            with self._snapshot(final_state, clean=True):
                store_snapshot.write_snapshot(self._snap_dir, final_state)
        self._wal.close()


# --------------------------------------------------------------------- #
# offline verification (`repro verify-log`)
# --------------------------------------------------------------------- #
def verify_data_dir(data_dir: str | Path) -> dict[str, object]:
    """Strict integrity check of a data directory; raises
    :class:`CorruptLogError` on the first violation, modifies nothing.

    Checks what ``open`` checks, with the same snapshot loader and chain
    walk — WAL framing/CRC/contiguity and records past the newest
    snapshot extending its chain with no gap — and more: *every*
    retained snapshot must load, every record must decode, and the
    records the newest snapshot covers must reproduce its heads."""
    data_dir = Path(data_dir)
    scan = store_wal.scan_segments(data_dir / WAL_SUBDIR, mode="verify")
    snapshots = store_snapshot.list_snapshots(data_dir / SNAPSHOT_SUBDIR)
    latest = SnapshotState()
    for _, path in snapshots:
        latest = store_snapshot.load_snapshot(path)
    chain = CommitmentChain(latest.chain_heads)
    for seq, body in scan.records:
        store_records.decode_record(body)
        if seq <= latest.wal_seq and not chain.commits_to(seq, body):
            raise CorruptLogError(
                f"WAL record {seq} disagrees with the snapshot's "
                "commitment chain"
            )
    _chain_past_snapshot(chain, scan)
    return {
        "wal_segments": len(scan.segments),
        "wal_records": len(scan.records),
        "snapshots": len(snapshots),
        "snapshot_seq": latest.wal_seq,
        "commitment_count": chain.count,
        "commitment_head": chain.head.hex(),
        "clean": latest.clean,
    }
