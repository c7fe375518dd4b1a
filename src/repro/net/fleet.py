"""An async fleet of TDS clients serving the SSI over the wire.

Each :class:`TrustedDataServer` gets its own :class:`TDSClient` (own
transport, own connection) and runs the paper's device loop: connect and
ask the SSI what it has (``await_work``, which the SSI parks while it has
nothing), contribute encrypted tuples for the queries it names, fold or
finalize the partition it hands over, ask again — the
connect/contribute/disconnect cycle of §3.2 in pull mode (§3.1: the TDS
initiates every exchange), concurrent and over real sockets.  A
semaphore caps how many devices do heavy work simultaneously.

Failure injection takes the same ``(tds_id, partition) -> bool``
injectors as the in-process driver (:mod:`repro.simulation.failures`
builds the usual shapes) and manifests them as *network* faults — a
firing injector makes the client drop its connection (or stall past the
partition timeout) instead of submitting, so the SSI-side tracker must
detect the timeout and reassign, end-to-end.
"""

from __future__ import annotations

import asyncio
import importlib
import logging
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

from repro.core.messages import FailureInjector, Partition, QueryEnvelope
from repro.exceptions import (
    AccessDeniedError,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.net.batch import TupleBatcher
from repro.net.client import RetryPolicy, TDSClient
from repro.net.frames import QueryMeta, WorkUnit
from repro.net.transport import TCPTransport, Transport
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.sql.ast import SelectStatement
from repro.tds.histogram import EquiDepthHistogram
from repro.tds.node import TrustedDataServer

logger = logging.getLogger(__name__)

_CONTRIBUTIONS = obs_metrics.REGISTRY.counter(
    "repro_fleet_contributions_total",
    "Successful per-device tuple contributions, by shard.",
    ("shard",),
)
_TUPLES_SUBMITTED = obs_metrics.REGISTRY.counter(
    "repro_fleet_tuples_submitted_total",
    "Encrypted tuples submitted by fleet devices, by shard.",
    ("shard",),
)
_PARTITIONS = obs_metrics.REGISTRY.counter(
    "repro_fleet_partitions_total",
    "Partition work units processed by fleet devices, by shard.",
    ("shard",),
)
_PROTOCOL_ERRORS = obs_metrics.REGISTRY.counter(
    "repro_fleet_protocol_errors_total",
    "Typed errors (ReproError) absorbed by the per-device loop, by shard.",
    ("shard",),
)


#: what one device holds per query id: the envelope, and the statement
#: it read from it (None until it has: its policy denied the query, or
#: it never contributed to it)
_HeldQueries = dict[str, tuple[QueryEnvelope, SelectStatement | None]]


@dataclass
class FaultPlan:
    """How a firing injector manifests on the wire.

    * ``drop`` — close the connection without submitting (the tracker
      times the partition out and reassigns it);
    * ``stall`` — hold the response past ``stall_seconds`` first, then
      drop (a hung device rather than a dead one)."""

    injector: FailureInjector
    mode: str = "drop"
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("drop", "stall"):
            raise ProtocolError(f"unknown fault mode {self.mode!r}")


@dataclass
class FleetStats:
    """Aggregate observability for one fleet run."""

    contributions: int = 0
    tuples_submitted: int = 0
    partitions_processed: int = 0
    injected_faults: int = 0
    queries_completed: set[str] = field(default_factory=set)
    participants: set[str] = field(default_factory=set)


class FleetRunner:
    """Drive N TDS clients concurrently against one SSI endpoint.

    ``poll_interval`` paces nothing while exchanges succeed (devices
    wait parked at the SSI): it is the pause before a device re-arms
    after a failed exchange — transport error, timeout, typed protocol
    error — times ``health_backoff`` while the SSI reports degraded."""

    def __init__(
        self,
        tds_list: Sequence[TrustedDataServer],
        transport_factory: Callable[[], Transport],
        *,
        histogram: EquiDepthHistogram | None = None,
        fault_plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        concurrency: int = 8,
        poll_interval: float = 0.02,
        batch_size: int = 0,
        batch_flush_interval: float = 0.02,
        close_no_size_queries: bool = True,
        shard_label: str = "local",
        health_check_interval: float = 0.0,
        health_backoff: float = 4.0,
        rng: random.Random | None = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        if not tds_list:
            raise ProtocolError("a fleet needs at least one TDS")
        if concurrency < 1:
            raise ProtocolError("concurrency must be >= 1")
        if batch_size < 0:
            raise ProtocolError("batch size must be >= 0 (0 disables batching)")
        if batch_flush_interval <= 0:
            raise ProtocolError("batch flush interval must be > 0")
        self.tds_list = list(tds_list)
        self.transport_factory = transport_factory
        #: the discovered distribution every device holds: ED_Hist's
        #: buckets (§4.4) and, as its value set, the noise protocols'
        #: domain (§4.3) — discovery is one COUNT … GROUP BY for both
        self.histogram = histogram
        self.fault_plan = fault_plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.concurrency = concurrency
        self.poll_interval = poll_interval
        #: 0: each device sends its own block; > 0: a batcher coalesces
        #: blocks into frames of about this many tuples
        self.batch_size = batch_size
        self.batch_flush_interval = batch_flush_interval
        #: shard workers set this False: their device subset must not close
        #: a no-SIZE collection other shards are still contributing to
        self.close_no_size_queries = close_no_size_queries
        #: labels this runner's samples in the per-shard metric families
        self.shard_label = shard_label
        #: > 0 probes MSG_GET_HEALTH on this cadence and, while the SSI
        #: reports a degraded/critical verdict, stretches every worker's
        #: pause after a failed exchange by ``health_backoff`` — the
        #: fleet retries a struggling node more slowly instead of piling
        #: on.  0 (the default) skips the probe entirely.
        self.health_check_interval = health_check_interval
        self.health_backoff = max(1.0, health_backoff)
        self._degraded = False
        self._c_contributions = _CONTRIBUTIONS.labels(shard=shard_label)
        self._c_tuples = _TUPLES_SUBMITTED.labels(shard=shard_label)
        self._c_partitions = _PARTITIONS.labels(shard=shard_label)
        self._c_protocol_errors = _PROTOCOL_ERRORS.labels(shard=shard_label)
        self.stats = FleetStats()
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._stop = asyncio.Event()
        self._semaphore: asyncio.Semaphore | None = None
        self._until: int | None = None
        self._batcher: TupleBatcher | None = None
        self._population = len({tds.tds_id for tds in self.tds_list})
        #: per device, what it holds (see :meth:`_serve_tds`)
        self._held: dict[str, _HeldQueries] = {}
        #: shared across workers: who contributed to each no-SIZE query
        #: still short of the whole population (dropped once complete)
        self._contributed: dict[str, set[str]] = {}

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        self._stop.set()

    async def run(self, until_queries_done: int | None = None) -> FleetStats:
        """Run every TDS worker until :meth:`stop` (or until
        *until_queries_done* queries have completed)."""
        self._semaphore = asyncio.Semaphore(self.concurrency)
        self._until = until_queries_done
        batch_client: TDSClient | None = None
        flusher: asyncio.Task[None] | None = None
        if self.batch_size > 0:
            # The batcher gets its own client (own connection and
            # idempotency identity) so batch frames never interleave
            # with a worker's request stream mid-retry.
            batch_client = TDSClient(
                self.transport_factory(), self.policy, sleep=self._sleep
            )
            self._batcher = TupleBatcher(
                batch_client,
                max_tuples=self.batch_size,
                max_delay=self.batch_flush_interval,
                sleep=self._sleep,
            )
            flusher = asyncio.create_task(self._batcher.run(self._stop))
        workers = [
            asyncio.create_task(self._serve_tds(tds)) for tds in self.tds_list
        ]
        prober: asyncio.Task[None] | None = None
        if self.health_check_interval > 0:
            prober = asyncio.create_task(self._health_loop())
        try:
            await self._stop.wait()
        finally:
            self._stop.set()
            tasks = [*workers]
            if flusher is not None:
                tasks.append(flusher)
            if prober is not None:
                tasks.append(prober)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if batch_client is not None:
                await batch_client.close()
        return self.stats

    # ------------------------------------------------------------------ #
    # per-device loop
    # ------------------------------------------------------------------ #
    async def _serve_tds(self, tds: TrustedDataServer) -> None:
        """The device loop: leave one ``await_work`` request with the
        SSI, serve its answer, ask again — no pause while exchanges
        succeed."""
        client = TDSClient(
            self.transport_factory(),
            self.policy,
            rng=random.Random(self._rng.getrandbits(64)),
            sleep=self._sleep,
        )
        # The queries this device holds — contributed to, or handed a
        # partition of — until the SSI reports them finished; the
        # statement is the one it opened to contribute, kept for its
        # first fold.
        held = self._held[tds.tds_id] = {}
        try:
            while not self._stop.is_set():
                try:
                    answer = await client.await_work(
                        tds.tds_id, list(held), client.hold
                    )
                    await self._serve_answer(tds, client, held, *answer)
                except (TransportError, asyncio.TimeoutError):
                    # server briefly unreachable: back off and re-arm
                    await self._back_off()
                except ReproError as exc:
                    # e.g. a typed server error outside the handled set,
                    # or a query this device cannot evaluate (an unknown
                    # column: SQLError); log and keep serving — one bad
                    # exchange must not retire the worker.  The
                    # structured fields (tds_id, cumulative retry count,
                    # shard) make a stalled shard diagnosable from one
                    # line; str(exc) is a typed wire-error message, never
                    # payload bytes, and any other error is logged by
                    # type alone (its message may quote the query).
                    self._c_protocol_errors.inc()
                    obs_logs.log_event(
                        logger,
                        "fleet_protocol_error",
                        level=logging.WARNING,
                        tds_id=tds.tds_id,
                        shard=self.shard_label,
                        retries=client.retries,
                        error=(
                            str(exc)
                            if isinstance(exc, ProtocolError)
                            else type(exc).__name__
                        ),
                    )
                    await self._back_off()
        finally:
            await client.close()

    async def _back_off(self) -> None:
        """The pause before re-arming after a failed exchange — all that
        ``poll_interval`` paces."""
        interval = self.poll_interval
        if self._degraded:
            # Longer while the SSI self-reports degraded: the probe loop
            # clears the flag when the verdict heals.
            interval *= self.health_backoff
        await self._sleep(interval)

    async def _health_loop(self) -> None:
        """Probe MSG_GET_HEALTH; flag workers off a degraded node."""
        client = TDSClient(
            self.transport_factory(), self.policy, sleep=self._sleep
        )
        try:
            while not self._stop.is_set():
                try:
                    verdict = await client.get_health()
                    degraded = verdict["status"] != "ok"
                    status = str(verdict["status"])
                except (TransportError, ProtocolError, asyncio.TimeoutError):
                    # Unreachable, or it answered with a typed error: treat
                    # as degraded-unknown rather than hammering it.
                    degraded = True
                    status = "unreachable"
                if degraded != self._degraded:
                    self._degraded = degraded
                    obs_logs.log_event(
                        logger,
                        "fleet_health_transition",
                        level=logging.WARNING if degraded else logging.INFO,
                        shard=self.shard_label,
                        status=status,
                    )
                await self._sleep(self.health_check_interval)
        finally:
            await client.close()

    async def _serve_answer(
        self,
        tds: TrustedDataServer,
        client: TDSClient,
        held: _HeldQueries,
        queries: list[tuple[QueryEnvelope, QueryMeta]],
        unit: WorkUnit | None,
        done: list[str],
    ) -> None:
        for query_id in done:
            held.pop(query_id, None)
            self._forget(query_id)
        failure: BaseException | None = None
        if queries:
            # One contribution pass serves every new query concurrently:
            # the submissions interleave on the multiplexed connection
            # (bounded by the semaphore), so N overlapping queries cost
            # about one round trip instead of N.  A query is held only
            # once its own submission succeeded — until then the SSI
            # offers it again, or a no-SIZE query would never close.
            outcomes = await asyncio.gather(
                *(
                    self._contribute(tds, client, held, envelope, meta)
                    for envelope, meta in queries
                ),
                return_exceptions=True,
            )
            failure = next(
                (o for o in outcomes if isinstance(o, BaseException)), None
            )
        if unit is not None:
            await self._process_unit(tds, client, held, unit)
        if failure is not None:
            raise failure

    def _forget(self, query_id: str) -> None:
        """The SSI reported *query_id* finished (or no longer knows it)."""
        self._contributed.pop(query_id, None)
        self.stats.queries_completed.add(query_id)
        if self._until is not None and len(
            self.stats.queries_completed
        ) >= self._until:
            self.stop()

    async def _contribute(
        self,
        tds: TrustedDataServer,
        client: TDSClient,
        held: _HeldQueries,
        envelope: QueryEnvelope,
        meta: QueryMeta,
    ) -> None:
        assert self._semaphore is not None
        with obs_spans.RECORDER.span(
            "contribution",
            trace_id=obs_spans.derive_trace_id(envelope.query_id),
            tds_id=tds.tds_id,
            shard=self.shard_label,
        ) as span:
            queued = time.perf_counter()
            async with self._semaphore:
                queue_seconds = time.perf_counter() - queued
                crypto_started = time.perf_counter()
                try:
                    statement = tds.open_query(envelope)
                except AccessDeniedError:
                    statement = None  # collect_frames answers for the denial
                frame_block = tds.collect_frames(
                    envelope, meta, histogram=self.histogram, statement=statement
                )
                block = tds.seal_frames(frame_block)
                crypto_seconds = time.perf_counter() - crypto_started
                wire_started = time.perf_counter()
                if self._batcher is None:
                    await client.submit_tuples_batch(envelope.query_id, block)
            if self._batcher is not None:
                # Awaited outside the semaphore: a waiter parked on a batch
                # ack must not pin a concurrency slot for up to max_delay.
                await self._batcher.submit_block(envelope.query_id, block)
            held[envelope.query_id] = (envelope, statement)
            span.annotate(
                count=len(block),
                queue_seconds=round(queue_seconds, 6),
                crypto_seconds=round(crypto_seconds, 6),
                wire_seconds=round(time.perf_counter() - wire_started, 6),
            )
        self.stats.contributions += 1
        self.stats.tuples_submitted += len(block)
        self.stats.participants.add(tds.tds_id)
        self._c_contributions.inc()
        self._c_tuples.inc(len(block))
        await self._close_when_complete(tds, client, envelope)

    async def _process_unit(
        self,
        tds: TrustedDataServer,
        client: TDSClient,
        held: _HeldQueries,
        unit: WorkUnit,
    ) -> None:
        assert self._semaphore is not None
        partition = Partition(unit.partition_id, unit.block)
        if self.fault_plan is not None and self.fault_plan.injector(
            tds.tds_id, partition
        ):
            await self._inject_fault(client)
            return
        if unit.query_id not in held:
            # its collection closed before this device connected
            envelope, _meta = await client.fetch_query(unit.query_id)
            held[unit.query_id] = (envelope, None)
        envelope, statement = held[unit.query_id]
        if statement is None:
            # Credential and policy gate what a device contributes, not
            # whether it may serve a partition: k1 authenticates the
            # envelope, and refusing here would tell the SSI (by a
            # partition that times out) exactly who denied (§3.2).
            statement = tds.decrypt_query(envelope)
            held[unit.query_id] = (envelope, statement)
        with obs_spans.RECORDER.span(
            "partition",
            trace_id=obs_spans.derive_trace_id(unit.query_id),
            tds_id=tds.tds_id,
            shard=self.shard_label,
            partition_id=unit.partition_id,
            kind=unit.kind,
        ) as span:
            queued = time.perf_counter()
            async with self._semaphore:
                queue_seconds = time.perf_counter() - queued
                crypto_started = time.perf_counter()
                result = tds.serve_partition(unit.kind, statement, partition)
                crypto_seconds = time.perf_counter() - crypto_started
                wire_started = time.perf_counter()
                await client.submit_partition_result(
                    unit.query_id, unit.partition_id, tds.tds_id, result
                )
            span.annotate(
                count=len(partition.block),
                queue_seconds=round(queue_seconds, 6),
                crypto_seconds=round(crypto_seconds, 6),
                wire_seconds=round(time.perf_counter() - wire_started, 6),
            )
        self.stats.partitions_processed += 1
        self.stats.participants.add(tds.tds_id)
        self._c_partitions.inc()

    async def _inject_fault(self, client: TDSClient) -> None:
        """The §3.2 failure, on a real wire: go silent mid-partition."""
        self.stats.injected_faults += 1
        plan = self.fault_plan
        assert plan is not None
        if plan.mode == "stall":
            await self._sleep(plan.stall_seconds)
        transport = client.transport
        if isinstance(transport, TCPTransport):
            await transport.drop()

    # ------------------------------------------------------------------ #
    # collection closing (queries without a SIZE clause)
    # ------------------------------------------------------------------ #
    async def _close_when_complete(
        self, tds: TrustedDataServer, client: TDSClient, envelope: QueryEnvelope
    ) -> None:
        """The drivers stop collection after their collector list; the
        fleet analogue closes a no-SIZE query once every device has
        contributed (the SSI closes SIZE-clause queries itself).  The
        device whose acknowledged contribution completes the set sends
        the close, and keeps at it until the SSI has it."""
        if (
            not self.close_no_size_queries
            or envelope.size_tuples is not None
            or envelope.size_seconds is not None
        ):
            return
        contributors = self._contributed.setdefault(envelope.query_id, set())
        contributors.add(tds.tds_id)
        if len(contributors) < self._population:
            return
        del self._contributed[envelope.query_id]
        while not self._stop.is_set():
            try:
                await client.close_collection(envelope.query_id)
                return
            except (TransportError, asyncio.TimeoutError):
                await self._back_off()


# ---------------------------------------------------------------------- #
# sharded multiprocess fleet
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSpec:
    """Picklable description of one shard worker process.

    ``builder`` is a ``"module:function"`` string; the resolved function
    is called with ``*builder_args`` in the worker and must return
    ``(tds_list, histogram_or_None)`` for the *full* population — every
    worker builds the same deployment (same seed, same keys) and serves
    the slice ``tds_list[shard_index::shard_count]``.  Strings rather
    than callables because spawn workers re-import rather than fork."""

    host: str
    port: int
    shard_index: int
    shard_count: int
    builder: str
    builder_args: tuple
    seed: int
    batch_size: int = 0
    batch_flush_interval: float = 0.02
    window: int = 32
    concurrency: int = 8
    #: pause before a device re-arms after a failed exchange (see
    #: :class:`FleetRunner`); paces nothing while exchanges succeed
    poll_interval: float = 0.02
    until_queries_done: int | None = None
    #: when set, the worker writes its span log to
    #: ``{span_export}.shard{index}.jsonl`` on exit (spans otherwise die
    #: with the process)
    span_export: str | None = None


def resolve_builder(spec: str) -> Callable[..., tuple]:
    """Resolve a ``"module:function"`` builder string."""
    module_name, sep, func_name = spec.partition(":")
    if not sep or not module_name or not func_name:
        raise ProtocolError(
            f"builder must be a 'module:function' string, got {spec!r}"
        )
    try:
        module = importlib.import_module(module_name)
        builder = getattr(module, func_name)
    except (ImportError, AttributeError) as exc:
        raise ProtocolError(f"cannot resolve builder {spec!r}: {exc}") from exc
    if not callable(builder):
        raise ProtocolError(f"builder {spec!r} is not callable")
    return builder


def run_shard(spec: ShardSpec) -> dict[str, object]:
    """Entry point of one shard worker process (module-level so spawn
    can pickle it).  Returns the shard's stats as primitives."""
    builder = resolve_builder(spec.builder)
    tds_list, histogram = builder(*spec.builder_args)
    shard = list(tds_list)[spec.shard_index :: spec.shard_count]
    if not shard:
        return _stats_to_dict(FleetStats())
    obs_spans.set_process_label(f"fleet-{spec.shard_index}")

    async def main() -> FleetStats:
        runner = FleetRunner(
            shard,
            lambda: TCPTransport(spec.host, spec.port, window=spec.window),
            histogram=histogram,
            concurrency=spec.concurrency,
            poll_interval=spec.poll_interval,
            batch_size=spec.batch_size,
            batch_flush_interval=spec.batch_flush_interval,
            # One shard seeing "all my devices contributed" says nothing
            # about the other shards; only the SSI (SIZE clause) may
            # close a sharded collection.
            close_no_size_queries=False,
            shard_label=f"shard{spec.shard_index}",
            rng=random.Random(spec.seed),
        )
        return await runner.run(spec.until_queries_done)

    stats = _stats_to_dict(asyncio.run(main()))
    if spec.span_export is not None:
        path = f"{spec.span_export}.shard{spec.shard_index}.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            obs_spans.RECORDER.export_jsonl(fp)
    return stats


def _stats_to_dict(stats: FleetStats) -> dict[str, object]:
    return {
        "contributions": stats.contributions,
        "tuples_submitted": stats.tuples_submitted,
        "partitions_processed": stats.partitions_processed,
        "injected_faults": stats.injected_faults,
        "queries_completed": sorted(stats.queries_completed),
        "participants": sorted(stats.participants),
    }


class ShardedFleetRunner:
    """Partition the TDS population across spawn worker processes.

    Each worker rebuilds the deployment from the shared seed (so keys
    and credentials agree), takes the strided slice of the population
    for its shard index, and runs a :class:`FleetRunner` against the
    same SSI endpoint with its own deterministic per-shard rng seed.

    ``shards=None`` sizes the pool to ``os.cpu_count()``; an explicit
    count is honored as given (useful for tests and for oversubscribing
    I/O-bound runs on small machines).  Sharded runs rely on the SSI to
    close collections — give queries a SIZE clause."""

    def __init__(
        self,
        host: str,
        port: int,
        builder: str,
        builder_args: tuple = (),
        *,
        shards: int | None = None,
        seed: int = 0,
        batch_size: int = 0,
        batch_flush_interval: float = 0.02,
        window: int = 32,
        concurrency: int = 8,
        poll_interval: float = 0.02,
        span_export: str | None = None,
    ) -> None:
        if shards is None:
            shards = os.cpu_count() or 1
        if shards < 1:
            raise ProtocolError("shard count must be >= 1")
        resolve_builder(builder)  # fail fast, before any process spawns
        self.host = host
        self.port = port
        self.builder = builder
        self.builder_args = tuple(builder_args)
        self.shards = shards
        self.seed = seed
        self.batch_size = batch_size
        self.batch_flush_interval = batch_flush_interval
        self.window = window
        self.concurrency = concurrency
        self.poll_interval = poll_interval
        self.span_export = span_export

    def specs(self, until_queries_done: int | None = None) -> list[ShardSpec]:
        rng = random.Random(self.seed)
        return [
            ShardSpec(
                host=self.host,
                port=self.port,
                shard_index=index,
                shard_count=self.shards,
                builder=self.builder,
                builder_args=self.builder_args,
                seed=rng.getrandbits(64),
                batch_size=self.batch_size,
                batch_flush_interval=self.batch_flush_interval,
                window=self.window,
                concurrency=self.concurrency,
                poll_interval=self.poll_interval,
                until_queries_done=until_queries_done,
                span_export=self.span_export,
            )
            for index in range(self.shards)
        ]

    async def run(self, until_queries_done: int | None = None) -> FleetStats:
        """Run every shard worker to completion and merge their stats.

        Workers stop on their own once *until_queries_done* queries have
        been reported finished (every shard's devices learn it from the
        SSI with their next answer, at the latest when a hold expires),
        so no cross-process signalling is needed."""
        from concurrent.futures import ProcessPoolExecutor

        loop = asyncio.get_running_loop()
        ctx = multiprocessing.get_context("spawn")
        specs = self.specs(until_queries_done)
        with ProcessPoolExecutor(
            max_workers=self.shards, mp_context=ctx
        ) as pool:
            results = await asyncio.gather(
                *(loop.run_in_executor(pool, run_shard, spec) for spec in specs)
            )
        return self.merge(results)

    @staticmethod
    def merge(shard_stats: Sequence[dict[str, object]]) -> FleetStats:
        merged = FleetStats()
        for entry in shard_stats:
            merged.contributions += int(entry["contributions"])  # type: ignore[call-overload]
            merged.tuples_submitted += int(entry["tuples_submitted"])  # type: ignore[call-overload]
            merged.partitions_processed += int(entry["partitions_processed"])  # type: ignore[call-overload]
            merged.injected_faults += int(entry["injected_faults"])  # type: ignore[call-overload]
            merged.queries_completed.update(entry["queries_completed"])  # type: ignore[arg-type]
            merged.participants.update(entry["participants"])  # type: ignore[arg-type]
        return merged
