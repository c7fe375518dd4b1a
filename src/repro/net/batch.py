"""Client-side tuple batching for the v3 collection fast path.

The fleet's contribution traffic is many small ``submit_tuples`` calls —
a few tuples per TDS per query.  :class:`TupleBatcher` coalesces them:
contributions accumulate in a per-query buffer and are flushed as one
columnar ``MSG_SUBMIT_TUPLES_BATCH`` frame when the buffer reaches
``max_tuples`` *or* is ``max_delay`` seconds old, whichever comes
first.

Contribution semantics are preserved: :meth:`submit` resolves only once
the batch containing those tuples has been acknowledged by the SSI (or
raises if the flush failed), so callers can keep the rule "mark
contributed only after the submission succeeded" without knowing whether
batching is on.

This module is ``tds``-role code: it handles ciphertext produced by the
TDSs and talks *to* the SSI through a client.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Sequence

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock
from repro.exceptions import ProtocolError
from repro.net.client import AsyncSSIClient
from repro.obs import metrics as obs_metrics

_FLUSHES = obs_metrics.REGISTRY.counter(
    "repro_batch_flushes_total",
    "Batch flushes, by what triggered them (size threshold, age, or a "
    "shutdown/explicit drain).",
    ("reason",),
)
_BATCH_SIZE = obs_metrics.REGISTRY.histogram(
    "repro_batch_size_tuples",
    "Tuples per flushed batch.",
    buckets=obs_metrics.SIZE_BUCKETS,
)

_c_flush_size = _FLUSHES.labels(reason="size")
_c_flush_age = _FLUSHES.labels(reason="age")
_c_flush_drain = _FLUSHES.labels(reason="drain")
_h_batch_size = _BATCH_SIZE.labels()


class _PendingBatch:
    """Blocks awaiting flush for one query, plus their waiters.

    Contributions are kept in their already-columnar block form; a flush
    concatenates them (offset rebase only, no payload re-framing) into
    one wire frame."""

    __slots__ = ("blocks", "count", "waiters", "age_flush")

    #: flushes the batch ``max_delay`` after its creation, unless a size
    #: flush took it first
    age_flush: asyncio.Task[None]

    def __init__(self) -> None:
        self.blocks: list[EncryptedTupleBlock] = []
        self.count = 0
        self.waiters: list[asyncio.Future[None]] = []


class TupleBatcher:
    """Coalesce many small tuple submissions into columnar batch frames.

    One batcher owns one :class:`AsyncSSIClient` (its own connection and
    idempotency identity).  Batches are per-query; a size threshold
    flushes inline, and every batch is flushed ``max_delay`` seconds
    after its first contribution at the latest, by a task armed when the
    batch is created, so a trickle of contributions is never stranded.
    :meth:`run` ends that at shutdown."""

    def __init__(
        self,
        client: AsyncSSIClient,
        *,
        max_tuples: int = 256,
        max_delay: float = 0.02,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        if max_tuples < 1:
            raise ProtocolError("batch size must be >= 1")
        if max_delay <= 0:
            raise ProtocolError("batch flush delay must be > 0")
        self.client = client
        self.max_tuples = max_tuples
        self.max_delay = max_delay
        self._sleep = sleep
        self._pending: dict[str, _PendingBatch] = {}
        self._flush_lock = asyncio.Lock()
        #: batches flushed / tuples coalesced (observability)
        self.batches_flushed = 0
        self.tuples_flushed = 0

    # ------------------------------------------------------------------ #
    async def submit(
        self, query_id: str, tuples: Sequence[EncryptedTuple]
    ) -> None:
        """Queue *tuples* for *query_id* and return once the batch they
        joined has been acknowledged by the SSI."""
        if not tuples:
            return
        await self.submit_block(query_id, EncryptedTupleBlock.from_tuples(tuples))

    async def submit_block(
        self, query_id: str, block: EncryptedTupleBlock
    ) -> None:
        """Queue an already-columnar *block* for *query_id* (what
        ``TrustedDataServer.seal_frames`` returns, no per-tuple copy) and
        return once the batch it joined has been acknowledged by the SSI."""
        if not len(block):
            return
        loop = asyncio.get_running_loop()
        batch = self._pending.get(query_id)
        if batch is None:
            batch = self._pending[query_id] = _PendingBatch()
            batch.age_flush = loop.create_task(
                self._flush_when_due(query_id, batch)
            )
        batch.blocks.append(block)
        batch.count += len(block)
        future: asyncio.Future[None] = loop.create_future()
        batch.waiters.append(future)
        if batch.count >= self.max_tuples:
            try:
                await self.flush(query_id, reason="size")
            except BaseException:
                # flush() already failed our own waiter with the same
                # exception; retrieve it so the future never hits the
                # event loop's "exception was never retrieved" reporter,
                # then surface the flush error (once) to the caller.
                if future.done():
                    future.exception()
                else:
                    future.cancel()
                raise
        await future

    async def flush(
        self, query_id: str | None = None, *, reason: str = "drain"
    ) -> None:
        """Flush one query's batch (or every batch when *query_id* is
        None) as columnar frames, resolving or failing its waiters.
        ``reason`` ("size" | "age" | "drain") is recorded per flushed
        batch so the flush-trigger mix is visible in the metrics."""
        if reason == "size":
            flush_counter = _c_flush_size
        elif reason == "age":
            flush_counter = _c_flush_age
        else:
            flush_counter = _c_flush_drain
        async with self._flush_lock:
            ids = [query_id] if query_id is not None else list(self._pending)
            for qid in ids:
                batch = self._pending.pop(qid, None)
                if batch is None or not batch.count:
                    continue
                try:
                    await self.client.submit_tuples_batch(
                        qid, EncryptedTupleBlock.concat(batch.blocks)
                    )
                except BaseException as exc:
                    for waiter in batch.waiters:
                        if not waiter.done():
                            waiter.set_exception(exc)
                    raise
                self.batches_flushed += 1
                self.tuples_flushed += batch.count
                flush_counter.inc()
                _h_batch_size.observe(batch.count)
                for waiter in batch.waiters:
                    if not waiter.done():
                        waiter.set_result(None)

    async def _flush_when_due(self, query_id: str, batch: _PendingBatch) -> None:
        """The age flush of *batch*, ``max_delay`` after its creation.
        A size flush may have taken it by then, and the query's next
        batch has a deadline of its own."""
        await self._sleep(self.max_delay)
        if self._pending.get(query_id) is batch:
            try:
                await self.flush(query_id, reason="age")
            except Exception:
                pass  # reported through the batch's waiters

    async def run(self, stop: asyncio.Event) -> None:
        """Wait for *stop*, then call off the age flushes of the batches
        still pending and flush those now."""
        try:
            await stop.wait()
        finally:
            for batch in self._pending.values():
                batch.age_flush.cancel()
        await self.drain()

    async def drain(self) -> None:
        """Final flush of everything still pending (shutdown path)."""
        try:
            await self.flush()
        except Exception:
            pass  # reported through the waiters
