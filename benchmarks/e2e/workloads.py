"""The six workloads.  README.md records why each exists; the sizes here
are what fits the driver's run-time cap on a 2-core host.

Every workload is a closed loop over one ``operation``: a query
(``make_envelope`` → rows decrypted and verified), an ingest round, or a
recovery.  ``setup`` is everything before the first timed operation and
is what ``setup_s`` times.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import shutil
import time
from pathlib import Path
from typing import NamedTuple

from repro.core.messages import fresh_query_id
from repro.net.client import RetryPolicy, TDSClient
from repro.net.coordinator import QueryCoordinator
from repro.net.frames import QueryMeta
from repro.net.multiquery import MultiQueryRunner, QuerySpec
from repro.net.server import SSIDispatcher, SSIServer
from repro.ssi.admission import AdmissionPolicy
from repro import store as repro_store

from benchmarks.e2e.harness import (
    FSYNC_POLICY,
    HOST,
    POLL_INTERVAL,
    RESULT_TIMEOUT,
    SQL,
    WORK_DIR,
    Seams,
    Stack,
    build_deployment,
    data_dir_verifies,
    open_dispatcher,
    rows_match,
)


@dataclasses.dataclass(frozen=True)
class Size:
    num_tds: int
    readings: int
    #: untimed operations at the end of set-up: key cache, connections
    #: and discovery fill before anything is timed
    warmup: int
    #: peak RSS is read once this many timed operations completed, so a
    #: faster program (more operations retained per run) does not read
    #: as a memory regression
    rss_after: int
    #: restart_recover only: queries written before the store is closed
    populate: int = 0


class Outcome(NamedTuple):
    passed: bool
    #: seconds, when the operation times less than its whole duration
    latency: float | None = None
    query_id: str | None = None


class Workload:
    name: str
    inflight = 1
    durable = False
    #: acknowledged true tuples (restart_recover: WAL records) per operation
    tuples_per_op = 0
    #: restart_recover only: WAL records the last recovery replayed
    replayed_records = 0

    def __init__(self, name: str, size: Size, seed: int, seams: Seams) -> None:
        self.name = name
        self.size = size
        self.seed = seed
        self.seams = seams
        self.data_dir: Path | None = None
        self._dirs = 0

    def _fresh_data_dir(self) -> Path | None:
        if not self.durable:
            return None
        self._dirs += 1
        path = WORK_DIR / f"{self.name}-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    async def setup(self) -> None:
        raise NotImplementedError

    async def operation(self, index: int) -> Outcome:
        raise NotImplementedError

    async def teardown(self) -> bool:
        """Stop everything set-up started; True when the post-run checks
        (the durable data dir verifies) passed."""
        raise NotImplementedError

    def coordinators(self) -> dict[str, QueryCoordinator]:
        """The SSI's per-query schedulers, for the traced run's counts."""
        return {}

    async def _warm_up(self) -> None:
        for index in range(self.size.warmup):
            if not (await self.operation(index)).passed:
                raise RuntimeError(f"{self.name}: warm-up operation {index} failed")

    def _drop_data_dir(self) -> bool:
        if self.data_dir is None:
            return True
        verified = data_dir_verifies(self.data_dir)
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir = None
        return verified


async def run_query(stack: Stack, protocol: str) -> Outcome:
    """One private query: ``make_envelope`` → rows decrypted and checked
    against the plaintext answer."""
    query_id = fresh_query_id()
    envelope = stack.querier.make_envelope(SQL, query_id=query_id)
    await stack.client.post_query(envelope, meta=QueryMeta(protocol))
    result = await stack.client.wait_result(
        query_id, poll_interval=POLL_INTERVAL, timeout=RESULT_TIMEOUT
    )
    rows = stack.querier.decrypt_result(result)
    return Outcome(rows_match(rows, stack.reference), None, query_id)


class QueryWorkload(Workload):
    """Fleet-mode queries, one after another on one querier connection."""

    def __init__(
        self,
        name: str,
        size: Size,
        seed: int,
        seams: Seams,
        *,
        protocols: tuple[str, ...],
        durable: bool,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        super().__init__(name, size, seed, seams)
        self.protocols = protocols
        self.durable = durable
        self.admission = admission
        self.tuples_per_op = size.num_tds * size.readings
        self.stack: Stack

    async def setup(self) -> None:
        self.data_dir = self._fresh_data_dir()
        self.stack = await Stack.start(
            num_tds=self.size.num_tds,
            readings=self.size.readings,
            seed=self.seed,
            data_dir=self.data_dir,
            seams=self.seams,
            admission=self.admission,
        )
        await self._warm_up()

    async def operation(self, index: int) -> Outcome:
        return await run_query(self.stack, self.protocols[index % len(self.protocols)])

    async def teardown(self) -> bool:
        await self.stack.stop()
        return self._drop_data_dir()

    def coordinators(self) -> dict[str, QueryCoordinator]:
        return self.stack.dispatcher.coordinators


class MultiQueryWorkload(QueryWorkload):
    """Eight queries in flight on one multiplexed connection, through
    the program's own :class:`MultiQueryRunner`."""

    inflight = 8

    async def operation(self, index: int) -> Outcome:
        stack = self.stack
        runner = MultiQueryRunner(
            stack.querier,
            stack.client,
            concurrency=self.inflight,
            poll_interval=POLL_INTERVAL,
            result_timeout=RESULT_TIMEOUT,
        )
        protocol = self.protocols[index % len(self.protocols)]
        stats = await runner.run([QuerySpec(SQL, protocol)])
        outcome = stats.outcomes[0]
        return Outcome(rows_match(outcome.rows, stack.reference), None, outcome.query_id)


class IngestWorkload(Workload):
    """SSI ingest with the fleet out of the way: blocks sealed once at
    set-up are submitted again under a new query id every round."""

    CONNECTIONS = 2
    WINDOW = 8
    #: a snapshot can stall an ack for seconds; the load generator waits
    #: it out instead of timing out and sending the request again
    POLICY = RetryPolicy(request_timeout=60.0)

    def __init__(
        self, name: str, size: Size, seed: int, seams: Seams, *, durable: bool
    ) -> None:
        super().__init__(name, size, seed, seams)
        self.durable = durable
        self.tuples_per_op = size.num_tds * size.readings

    async def setup(self) -> None:
        self.data_dir = self._fresh_data_dir()
        deployment = build_deployment(self.size.num_tds, self.size.readings, self.seed)
        self.envelope = deployment.make_querier().make_envelope(SQL)
        self.blocks = [
            tds.collect_block(self.envelope, "s_agg") for tds in deployment.tds_list
        ]
        self.dispatcher, self.store = open_dispatcher(self.data_dir, deployment)
        self.server = SSIServer(self.dispatcher, HOST)
        await self.server.start()
        self.clients = [
            TDSClient(
                self.seams.transport(self.server.port, self.WINDOW),
                self.POLICY,
                rng=random.Random(self.seed + 1 + index),
                sleep=self.seams.client_sleep,
            )
            for index in range(self.CONNECTIONS)
        ]
        await self._warm_up()

    async def operation(self, index: int) -> Outcome:
        query_id = fresh_query_id("ingest")
        envelope = dataclasses.replace(self.envelope, query_id=query_id)
        # default QueryMeta: driver mode, the SSI schedules nothing
        await self.clients[0].post_query(envelope)
        await asyncio.gather(
            *(
                self.clients[n % self.CONNECTIONS].submit_tuples_batch(query_id, block)
                for n, block in enumerate(self.blocks)
            )
        )
        count = await self.clients[0].collected_count(query_id)
        return Outcome(count == self.tuples_per_op, None, query_id)

    async def teardown(self) -> bool:
        for client in self.clients:
            await client.close()
        await self.server.close()
        if self.store is not None:
            self.store.close()
        return self._drop_data_dir()


class RecoverWorkload(Workload):
    """The read side of the store: reopen a populated data dir, then
    verify it offline.  Latency is open → dispatcher ready; the rate
    covers the whole cycle."""

    durable = True

    async def setup(self) -> None:
        self.data_dir = self._fresh_data_dir()
        stack = await Stack.start(
            num_tds=self.size.num_tds,
            readings=self.size.readings,
            seed=self.seed,
            data_dir=self.data_dir,
            seams=self.seams,
        )
        self.acknowledged: dict[str, int] = {}
        for index in range(self.size.populate):
            outcome = await run_query(stack, "ed_hist")
            if not outcome.passed:
                raise RuntimeError(f"{self.name}: populating query {index} failed")
            assert outcome.query_id is not None
            self.acknowledged[outcome.query_id] = await stack.client.collected_count(
                outcome.query_id
            )
        if set(self.acknowledged.values()) != {self.size.num_tds * self.size.readings}:
            raise RuntimeError(f"{self.name}: acknowledged {self.acknowledged}")
        assert stack.store is not None
        self.commitment = stack.store.commitment()
        await stack.stop()
        # each cycle replays every record and then verifies every record
        self.tuples_per_op = 2 * self.commitment.count
        await self._warm_up()

    async def operation(self, index: int) -> Outcome:
        assert self.data_dir is not None
        start = time.perf_counter()
        store = repro_store.DurableStore.open(self.data_dir, fsync_policy=FSYNC_POLICY)
        dispatcher = SSIDispatcher.with_store(store)
        ready = time.perf_counter()
        try:
            passed = store.commitment() == self.commitment and all(
                dispatcher.ssi.collected_count(query_id) == count
                for query_id, count in self.acknowledged.items()
            )
            self.replayed_records = store.recovered.replayed_records
        finally:
            store.close()
        report = repro_store.verify_data_dir(self.data_dir)
        passed = (
            passed
            and report["commitment_count"] == self.commitment.count
            and report["commitment_head"] == self.commitment.head.hex()
        )
        return Outcome(passed, ready - start)

    async def teardown(self) -> bool:
        return self._drop_data_dir()


# ---------------------------------------------------------------------- #
FULL = {
    "sagg_serial_durable": Size(num_tds=64, readings=1, warmup=3, rss_after=10),
    "edhist_bulk_durable": Size(num_tds=8, readings=250, warmup=3, rss_after=5),
    "ingest_durable": Size(num_tds=16, readings=64, warmup=3, rss_after=30),
    "ingest_mem": Size(num_tds=16, readings=64, warmup=3, rss_after=30),
    "multiq_mixed_mem": Size(num_tds=64, readings=1, warmup=4, rss_after=20),
    "restart_recover": Size(num_tds=8, readings=250, warmup=2, rss_after=10, populate=4),
}
SMOKE = {
    "sagg_serial_durable": Size(num_tds=8, readings=1, warmup=1, rss_after=1),
    "edhist_bulk_durable": Size(num_tds=4, readings=20, warmup=1, rss_after=1),
    "ingest_durable": Size(num_tds=4, readings=16, warmup=1, rss_after=1),
    "ingest_mem": Size(num_tds=4, readings=16, warmup=1, rss_after=1),
    "multiq_mixed_mem": Size(num_tds=8, readings=1, warmup=2, rss_after=1),
    "restart_recover": Size(num_tds=4, readings=20, warmup=1, rss_after=1, populate=2),
}
NAMES = tuple(FULL)


def make(name: str, seed: int, seams: Seams, smoke: bool = False) -> Workload:
    size = (SMOKE if smoke else FULL)[name]
    if name == "sagg_serial_durable":
        return QueryWorkload(name, size, seed, seams, protocols=("s_agg",), durable=True)
    if name == "edhist_bulk_durable":
        return QueryWorkload(name, size, seed, seams, protocols=("ed_hist",), durable=True)
    if name in ("ingest_durable", "ingest_mem"):
        return IngestWorkload(name, size, seed, seams, durable=name == "ingest_durable")
    if name == "multiq_mixed_mem":
        return MultiQueryWorkload(
            name, size, seed, seams,
            protocols=("s_agg", "ed_hist"),
            durable=False,
            # twice the in-flight count: the gate runs on every post but
            # refuses nothing in steady state
            admission=AdmissionPolicy(max_active_queries=2 * MultiQueryWorkload.inflight),
        )
    if name == "restart_recover":
        return RecoverWorkload(name, size, seed, seams)
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
