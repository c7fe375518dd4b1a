"""Where the tracer's shims go, and the per-layer metrics they yield.

A layer is a module of ``repro``.  Shims enter through constructor
seams where the program has them (``transport_factory``, ``sleep=``) and
as attribute wrappers otherwise; counts the program already keeps are
read from ``obs.metrics.REGISTRY`` before and after the traced section.
Every count and busy time is reported **per operation**, so two runs of
different length compare.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any

from repro.core import codec
from repro.crypto.det import DeterministicCipher
from repro.crypto.hashing import BucketHasher
from repro.crypto.ndet import NonDeterministicCipher
from repro.net import frames
from repro.net.coordinator import QueryCoordinator
from repro.net.transport import TCPTransport
from repro.obs import metrics as obs_metrics
from repro.sql import executor as sql_executor
from repro.sql import parser as sql_parser
from repro.sql.partial import PartialAggregation
from repro.ssi.admission import AdmissionController
from repro.ssi.server import SupportingServerInfrastructure
from repro.store import commitment as store_commitment
from repro.store import recovery as store_recovery
from repro.store.recovery import DurableStore
from repro.store.wal import WalWriter
from repro.tds.node import TrustedDataServer

from benchmarks.e2e.harness import HOST, POLL_INTERVAL, Canary, Section, Seams
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import Workload

_perf = time.perf_counter

#: which layer owns an event-loop step, by the module (under ``repro/``)
#: that defines the step's coroutine
_STEP_OWNERS = {
    "net.fleet": "net.fleet",
    "net.batch": "net.fleet",
    "net.client": "net.client",
    "net.multiquery": "net.client",
    "net.transport": "net.transport",
    "net.server": "net.server",
    # the only task made of a frames.py coroutine is the server's
    # ``wait_for(read_frame(...))``
    "net.frames": "net.server",
}


#: the SSI operations that move or hold data; its one-line accessors
#: (``envelope``, ``result_ready`` …) cost less than a wrapper would add
_SSI_OPERATIONS = (
    "post_query", "active_queries", "submit_partials", "evaluate_size_clause",
    "close_collection", "covering_result", "take_partials", "store_result_rows",
    "publish_result", "fetch_result",
)


def _owner_of_file(filename: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        module = path.rsplit("/repro/", 1)[1].removesuffix(".py").replace("/", ".")
        return _STEP_OWNERS.get(module, module.split(".")[0])
    if "/benchmarks/e2e/" in path:
        # the load generator is the querier side: its steps are client.py
        # glue plus this package's own loop
        return "net.client"
    return "asyncio"


class Shims:
    """Everything a traced run installs, and what only the shims see."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: query id -> {"handout" | "finalize" | "published": perf_counter}
        self.marks: dict[str, dict[str, float]] = {}
        self.reset()

    def reset(self) -> None:
        """Forget what set-up and warm-up put through the shims."""
        self.tracer.reset()
        self.bytes_out = 0
        self.bytes_in = 0
        self.marks.clear()

    # -- constructor seams --------------------------------------------- #
    def seams(self) -> Seams:
        shims = self
        tracer = self.tracer

        class TimingTransport(TCPTransport):
            async def request(self, message: bytes) -> bytes:
                start = _perf()
                response = await super().request(message)
                tracer.wait("net.transport.rtt", start, _perf())
                shims.bytes_out += len(message)
                shims.bytes_in += frames.LENGTH_PREFIX_BYTES + len(response)
                return response

        tracer.own(TimingTransport.request, "net.transport")

        async def fleet_sleep(delay: float) -> None:
            start = _perf()
            await asyncio.sleep(delay)
            tracer.wait("net.fleet.poll_sleep", start, _perf())

        async def client_sleep(delay: float) -> None:
            # the client sleeps between result polls and before a retry;
            # only the delay tells the two apart from outside
            start = _perf()
            await asyncio.sleep(delay)
            name = "poll_sleep" if delay == POLL_INTERVAL else "retry_wait"
            tracer.wait(f"net.client.{name}", start, _perf())

        return Seams(
            transport=lambda port, window: TimingTransport(HOST, port, window=window),
            fleet_sleep=fleet_sleep,
            client_sleep=client_sleep,
        )

    # -- attribute wrappers -------------------------------------------- #
    def install(self) -> None:
        """Call inside the running loop, before the traced set-up builds
        the objects (a bound method captured earlier stays unwrapped)."""
        tracer = self.tracer
        tracer.hook_loop(_owner_of_file)
        tracer.own(Canary._run, "canary")

        for name in ("encode", "encode_many", "encode_packed"):
            tracer.wrap_function(codec, name, "core.codec", nbytes=_codec_out)
        for name in ("decode", "decode_many", "decode_packed"):
            tracer.wrap_function(codec, name, "core.codec", nbytes=_codec_in)

        for cipher in (NonDeterministicCipher, DeterministicCipher):
            for name in ("encrypt", "decrypt", "encrypt_many", "decrypt_many",
                         "encrypt_block", "decrypt_block"):
                tracer.wrap(cipher, name, "crypto", nbytes=_cipher_in)
        tracer.wrap(BucketHasher, "hash_bucket", "crypto")

        for name, value in list(vars(frames).items()):
            if callable(value) and name.startswith(
                ("pack_", "unpack_", "write_", "read_")
            ) and not asyncio.iscoroutinefunction(value):
                tracer.wrap_function(frames, name, "net.frames")

        tracer.wrap_function(sql_parser, "parse", "sql")
        for name in ("local_matching_rows", "group_key", "finalize_groups"):
            tracer.wrap_function(sql_executor, name, "sql")
        for name in ("add_row", "merge", "to_portable", "from_portable"):
            tracer.wrap(PartialAggregation, name, "sql")

        for name in ("open_query", "collect_frames", "seal_frames"):
            tracer.wrap(TrustedDataServer, name, "tds.collect", record=True)
        for name in ("aggregate_partition", "aggregate_partition_per_group"):
            tracer.wrap(TrustedDataServer, name, "tds.fold", record=True)
        tracer.wrap(TrustedDataServer, "finalize_partition", "tds.finalize", record=True)

        for name in ("submit_tuples", "submit_tuple_block"):
            tracer.wrap(SupportingServerInfrastructure, name, "ssi.collect",
                        nbytes=_submitted_payload)
        for name in _SSI_OPERATIONS:
            tracer.wrap(SupportingServerInfrastructure, name, "ssi")
        for name in ("admit_query", "register_query", "charge", "release"):
            tracer.wrap(AdmissionController, name, "ssi.admission")

        tracer.wrap(DurableStore, "append_record", "store.append", record=True)
        tracer.wrap(DurableStore, "open", "store.open", record=True)
        tracer.wrap(WalWriter, "fsync", "store.fsync", record=True)
        tracer.wrap_function(store_commitment, "record_digest", "store.hash")
        tracer.wrap_function(store_recovery, "verify_data_dir", "store.verify", record=True)

        by_query = lambda args: args[0].query_id  # noqa: E731 - args[0] is the coordinator
        tracer.wrap(QueryCoordinator, "next_work", "net.coordinator",
                    record=True, query_id=by_query)
        tracer.wrap(QueryCoordinator, "complete", "net.coordinator",
                    record=True, query_id=by_query)
        self._mark_phases()

    def _mark_phases(self) -> None:
        """Timestamps of the paper's phase boundaries (§4), seen at the
        coordinator: first partition handed out ends collection, first
        ``WORK_FINALIZE`` ends aggregation, the last completion publishes."""
        marks = self.marks
        next_work = QueryCoordinator.next_work
        complete = QueryCoordinator.complete

        def marking_next_work(coordinator: QueryCoordinator, *args: Any) -> Any:
            unit = next_work(coordinator, *args)
            if unit is not None:
                seen = marks.setdefault(coordinator.query_id, {})
                now = _perf()
                seen.setdefault("handout", now)
                if unit.kind == frames.WORK_FINALIZE:
                    seen.setdefault("finalize", now)
            return unit

        def marking_complete(coordinator: QueryCoordinator, *args: Any) -> None:
            complete(coordinator, *args)
            if coordinator.done():
                marks.setdefault(coordinator.query_id, {}).setdefault(
                    "published", _perf()
                )

        self.tracer.patch(QueryCoordinator, "next_work", marking_next_work)
        self.tracer.patch(QueryCoordinator, "complete", marking_complete)


def _nbytes(data: Any) -> int:
    """Bytes in one buffer or in a list of buffers."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    return sum(len(blob) for blob in data)


def _codec_out(_args: tuple, result: Any) -> int:
    # encode_packed returns (buffer, offsets)
    return _nbytes(result[0] if isinstance(result, tuple) else result)


def _codec_in(args: tuple, _result: Any) -> int:
    return _nbytes(args[0])


def _cipher_in(args: tuple, _result: Any) -> int:
    return _nbytes(args[1])  # args[0] is the cipher


def _submitted_payload(args: tuple, _result: Any) -> int:
    submitted = args[2]  # (ssi, query_id, tuples | block)
    payloads = getattr(submitted, "payloads", None)
    if payloads is not None:
        return len(payloads)
    return sum(len(item.payload) for item in submitted)


# ---------------------------------------------------------------------- #
# from raw measurements to the metrics BENCHMARK.json names
# ---------------------------------------------------------------------- #
def _counter(diff: dict, family: str, **labels: str) -> float:
    total = 0.0
    for key, sample in diff.get(family, {}).items():
        pairs = dict(key)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += sample["count"] if isinstance(sample, dict) else sample
    return total


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    shims: Shims,
    workload: Workload,
    reference: Section,
    traced: Section,
    before: dict,
    after: dict,
) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric.  Times are at
    reference speed, like the end-to-end ones: divided by the canary's
    slowdown over the traced section."""
    tracer = shims.tracer
    ops = max(1, traced.attempted)
    wall = traced.ended - traced.started
    slowdown = traced.slowdown()
    diff = obs_metrics.diff_snapshots(before, after)
    busy = tracer.totals()
    on_loop = tracer.totals(loop_only=True)

    def calls(*keys: str) -> float:
        return sum(busy.get(key, (0, 0.0, 0))[0] for key in keys) / ops

    def seconds(*keys: str) -> float:
        return sum(busy.get(key, (0, 0.0, 0))[1] for key in keys) / ops / slowdown

    def size(*keys: str) -> float:
        return sum(busy.get(key, (0, 0.0, 0))[2] for key in keys) / ops

    def waited(name: str) -> float:
        return sum(tracer.waits.get(name, ())) / ops / slowdown

    # phases, per traced query that has all three coordinator marks
    phases: dict[str, list[float]] = {
        "collection": [], "aggregation": [], "filtering": [], "result_wait": []
    }
    participants: list[float] = []
    rounds = partitions = reassigned = 0
    coordinators = workload.coordinators()
    for _id, _name, start, end, _parent, query_id in tracer.spans_named(["op"]):
        seen = shims.marks.get(query_id or "", {})
        if len(seen) == 3:
            phases["collection"].append((seen["handout"] - start) / slowdown)
            phases["aggregation"].append((seen["finalize"] - seen["handout"]) / slowdown)
            phases["filtering"].append((seen["published"] - seen["finalize"]) / slowdown)
            phases["result_wait"].append((end - seen["published"]) / slowdown)
        if query_id in coordinators:
            stats = coordinators[query_id].stats
            participants.append(len(stats.participants))
            rounds += stats.aggregation_rounds
            partitions += stats.partitions_processed
            reassigned += stats.reassigned_partitions

    requests = _counter(diff, "repro_ssi_requests_total")
    polls = _counter(diff, "repro_ssi_requests_total", msg_type="active_queries")
    fetches = _counter(diff, "repro_ssi_requests_total", msg_type="fetch_partition")
    useful = _counter(diff, "repro_fleet_partitions_total") + _counter(
        diff, "repro_fleet_contributions_total"
    )
    rtts_ms = [
        rtt * 1e3 / slowdown for rtt in tracer.waits.get("net.transport.rtt", ())
    ]
    wal_bytes = _counter(diff, "repro_store_wal_appended_bytes_total")
    payload_bytes = busy.get("ssi.collect", (0, 0.0, 0))[2]
    tds_spans_ms = [
        (end - start) * 1e3 / slowdown
        for _id, _name, start, end, _parent, _query in tracer.spans_named(
            ["tds.collect", "tds.fold", "tds.finalize"]
        )
    ]
    loop_busy = sum(total[1] for total in on_loop.values())
    reference_p50 = _median(reference.latencies_ms())
    traced_p50 = _median(traced.latencies_ms())

    return {
        "phase.collection_s": (_median(phases["collection"]), "s"),
        "phase.aggregation_s": (_median(phases["aggregation"]), "s"),
        "phase.filtering_s": (_median(phases["filtering"]), "s"),
        "phase.result_wait_s": (_median(phases["result_wait"]), "s"),
        "net.fleet.polls": (polls / ops, "1/op"),
        "net.fleet.useful_poll_share": (
            useful / (polls + fetches) if polls + fetches else 0.0, "ratio"),
        "net.fleet.poll_sleep_s": (waited("net.fleet.poll_sleep"), "s/op"),
        "net.fleet.batch_flushes": (_counter(diff, "repro_batch_flushes_total") / ops, "1/op"),
        "net.fleet.busy_s": (seconds("net.fleet"), "s/op"),
        "net.client.result_polls": (
            _counter(diff, "repro_ssi_requests_total", msg_type="result_ready") / ops, "1/op"),
        "net.client.poll_sleep_s": (waited("net.client.poll_sleep"), "s/op"),
        "net.client.retries": (_counter(diff, "repro_client_retries_total") / ops, "1/op"),
        "net.client.timeouts": (
            _counter(diff, "repro_client_request_timeouts_total") / ops, "1/op"),
        "net.client.busy_s": (seconds("net.client"), "s/op"),
        "net.transport.requests": (len(rtts_ms) / ops, "1/op"),
        "net.transport.bytes_out": (shims.bytes_out / ops, "B/op"),
        "net.transport.bytes_in": (shims.bytes_in / ops, "B/op"),
        "net.transport.rtt_p50_ms": (_median(rtts_ms), "ms"),
        "net.transport.rtt_p90_ms": (_percentile(rtts_ms, 0.9), "ms"),
        "net.transport.busy_s": (seconds("net.transport"), "s/op"),
        "net.frames.calls": (calls("net.frames"), "1/op"),
        "net.frames.busy_s": (seconds("net.frames"), "s/op"),
        "net.server.requests": (requests, "count"),
        "net.server.requests_per_op": (requests / ops, "1/op"),
        "net.server.busy_s": (seconds("net.server"), "s/op"),
        "net.server.backpressure": (_counter(diff, "repro_ssi_backpressure_total") / ops, "1/op"),
        "net.coordinator.calls": (calls("net.coordinator"), "1/op"),
        "net.coordinator.busy_s": (seconds("net.coordinator"), "s/op"),
        "net.coordinator.rounds": (rounds / ops, "1/op"),
        "net.coordinator.partitions": (partitions / ops, "1/op"),
        "net.coordinator.reassigned": (reassigned / ops, "1/op"),
        "ssi.calls": (calls("ssi", "ssi.collect"), "1/op"),
        "ssi.busy_s": (seconds("ssi", "ssi.collect"), "s/op"),
        "ssi.admission.calls": (calls("ssi.admission"), "1/op"),
        "ssi.admission.busy_s": (seconds("ssi.admission"), "s/op"),
        "ssi.admission.rejects": (
            _counter(diff, "repro_ssi_admission_rejections_total") / ops, "1/op"),
        "ssi.admission.retry_wait_s": (waited("net.client.retry_wait"), "s/op"),
        "store.appends": (calls("store.append"), "1/op"),
        "store.append_busy_s": (seconds("store.append"), "s/op"),
        "store.wal_bytes": (wal_bytes / ops, "B/op"),
        "store.fsyncs": (calls("store.fsync"), "1/op"),
        "store.fsync_busy_s": (seconds("store.fsync"), "s/op"),
        "store.hash_busy_s": (seconds("store.hash"), "s/op"),
        "store.bytes_per_payload_byte": (
            wal_bytes / payload_bytes if payload_bytes else 0.0, "ratio"),
        "store.snapshots": (_counter(diff, "repro_store_snapshots_total"), "count"),
        "store.open_busy_s": (seconds("store.open"), "s/op"),
        "store.verify_busy_s": (seconds("store.verify"), "s/op"),
        "store.replayed_records": (float(workload.replayed_records), "count"),
        "crypto.calls": (calls("crypto"), "1/op"),
        "crypto.bytes": (size("crypto"), "B/op"),
        "crypto.busy_s": (seconds("crypto"), "s/op"),
        "core.codec.calls": (calls("core.codec"), "1/op"),
        "core.codec.bytes": (size("core.codec"), "B/op"),
        "core.codec.busy_s": (seconds("core.codec"), "s/op"),
        "sql.calls": (calls("sql"), "1/op"),
        "sql.busy_s": (seconds("sql"), "s/op"),
        "tds.collect_calls": (calls("tds.collect"), "1/op"),
        "tds.collect_busy_s": (seconds("tds.collect"), "s/op"),
        "tds.fold_calls": (calls("tds.fold"), "1/op"),
        "tds.fold_busy_s": (seconds("tds.fold"), "s/op"),
        "tds.finalize_busy_s": (seconds("tds.finalize"), "s/op"),
        "asyncio.busy_s": (seconds("asyncio") + tracer.poll_s / ops / slowdown, "s/op"),
        "paper.loadq_bytes": ((shims.bytes_out + shims.bytes_in) / ops, "B/op"),
        "paper.ptds": (_median(participants), "count"),
        "paper.tq_s": (
            _median(phases["aggregation"]) + _median(phases["filtering"]), "s"),
        "paper.tlocal_ms": (_median(tds_spans_ms), "ms"),
        "trace.ops": (float(traced.attempted), "count"),
        "trace.op_latency_p50_ms": (traced_p50, "ms"),
        "trace.op_latency_p90_ms": (_percentile(traced.latencies_ms(), 0.9), "ms"),
        "trace.overhead_share": (
            traced_p50 / reference_p50 - 1.0 if reference_p50 else 0.0, "ratio"),
        "trace.cpu_share": (traced.cpu_s / wall, "ratio"),
        "trace.idle_share": (tracer.idle_s / wall, "ratio"),
        "trace.unattributed_share": (
            max(0.0, wall - loop_busy - tracer.poll_s - tracer.idle_s) / wall, "ratio"),
    }
