"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``demo``      — run one private query over a synthetic smart-meter
  population with any of the protocols and print the result + stats;
* ``figures``   — regenerate the paper's figure series without pytest;
* ``costmodel`` — evaluate the calibrated cost model at one parameter
  point (all four metrics, all five protocols);
* ``recommend`` — pick a protocol for a deployment scenario (§6.4);
* ``serve``     — run the SSI as an asyncio TCP service (``--data-dir``
  adds durable, tamper-evident state with crash recovery);
* ``fleet``     — run a population of TDS clients against a served SSI
  (``--shard I/N``: one of N processes that serve it together);
* ``query``     — post one query to a served SSI and await the result;
* ``multiquery`` — post N concurrent queries to a served SSI and report
  aggregate queries/s and latency percentiles;
* ``stats``     — fetch a served SSI's metrics (Prometheus text form);
* ``verify-log`` — offline integrity check of a ``serve`` data dir.

``serve``/``fleet``/``query`` are three independent processes speaking
the :mod:`repro.net` wire protocol; ``fleet`` and ``query`` must agree
on ``--tds/--districts/--seed`` so both rebuild the same deterministic
deployment (same keys, same credential authority) — the served SSI
itself never holds either.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
from typing import Sequence

from repro.bench import (
    loadq_vs_g,
    ptds_vs_g,
    render_series,
    render_table,
    tlocal_vs_g,
    tq_vs_g,
)
from repro.costmodel import PAPER_DEFAULTS, all_protocol_metrics
from repro.crypto import cache as crypto_cache
from repro.exceptions import ProtocolError
from repro.net.frames import SUPPORTED_PROTOCOLS, QueryMeta
from repro.protocols import (
    Deployment,
    PCEHR_TOKEN_PRIORITIES,
    Priorities,
    ProtocolDriver,
    SMART_METER_PRIORITIES,
    build_histogram,
    recommend_protocol,
)
from repro.sql.parser import parse
from repro.workloads import smart_meter_factory

_DEFAULT_QUERY = (
    "SELECT district, AVG(cons) AS avg_cons, COUNT(*) AS meters "
    "FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY district"
)

#: every protocol runs in every mode: in process (``demo``) and over the
#: wire (``query`` / ``multiquery``)
PROTOCOL_CHOICES = SUPPORTED_PROTOCOLS


def _mismatched(args: argparse.Namespace) -> bool:
    """Whether ``--protocol`` cannot run ``--query`` (said on stderr).
    Checked before anything is posted: every device would refuse to
    contribute, and nothing can fail a posted query."""
    try:
        parse(args.query).check_protocol(args.protocol)
    except ProtocolError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return True
    return False


def _build_driver(name, deployment, workers, rng, nf, histogram):
    """The driver for protocol *name*, with the discovered *histogram*
    its devices collect by (ED_Hist's buckets, the noise protocols'
    domain), or None when they need none."""
    return ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=workers,
        rng=rng,
        meta=QueryMeta(name, {"nf": nf} if name == "rnf_noise" else {}),
        histogram=histogram,
    )


def cmd_demo(args: argparse.Namespace) -> int:
    if _mismatched(args):
        return 2
    deployment = Deployment.build(
        args.tds,
        smart_meter_factory(num_districts=args.districts),
        tables=["Power", "Consumer"],
        seed=args.seed,
    )
    querier = deployment.make_querier()
    rng = random.Random(args.seed + 1)
    workers = deployment.connected_tds(args.availability)
    histogram = None
    if args.protocol in ("rnf_noise", "c_noise", "ed_hist"):
        histogram = build_histogram(
            deployment, "Consumer", "district", num_buckets=2
        )
    envelope = querier.make_envelope(args.query)
    deployment.ssi.post_query(envelope)
    driver = _build_driver(
        args.protocol, deployment, workers, rng, args.nf, histogram
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))

    print(f"protocol : {driver.meta.protocol}")
    print(f"query    : {args.query}")
    print(f"result   : {len(rows)} row(s)")
    for row in sorted(rows, key=str):
        print(f"  {row}")
    stats = driver.stats
    print(
        f"stats    : covering result {stats.tuples_collected} tuples, "
        f"{len(stats.participants)} TDSs, "
        f"{stats.aggregation_rounds} aggregation round(s), "
        f"{stats.bytes_processed} bytes moved"
    )
    tags = deployment.ssi.observer.tag_frequencies(envelope.query_id)
    print(f"SSI view : {len(tags)} distinct grouping tag(s) observed")
    return 0


_FIGURES = {
    "fig10a": ("PTDS vs G", ptds_vs_g),
    "fig10c": ("LoadQ (MB) vs G", loadq_vs_g),
    "fig10e": ("TQ (s) vs G", tq_vs_g),
    "fig10g": ("Tlocal (s) vs G", tlocal_vs_g),
}


def cmd_figures(args: argparse.Namespace) -> int:
    names = [args.only] if args.only else list(_FIGURES)
    for name in names:
        if name not in _FIGURES:
            raise SystemExit(
                f"unknown figure {name!r}; choose from {', '.join(_FIGURES)} "
                f"(the full set lives in benchmarks/)"
            )
        title, generator = _FIGURES[name]
        print(render_series(f"{name} — {title}", "G", generator()))
        print()
    return 0


def cmd_costmodel(args: argparse.Namespace) -> int:
    params = PAPER_DEFAULTS.with_(
        nt=args.nt, g=args.g, available_fraction=args.availability
    )
    metrics = all_protocol_metrics(params)
    rows = [
        [name, m.p_tds, m.load_q_mb, m.t_q_seconds, m.t_local_seconds]
        for name, m in metrics.items()
    ]
    print(
        render_table(
            f"Cost model @ Nt={params.nt:,}, G={params.g:,}, "
            f"availability={params.available_fraction:.0%}",
            ["protocol", "PTDS", "LoadQ (MB)", "TQ (s)", "Tlocal (s)"],
            rows,
        )
    )
    return 0


_SCENARIOS = {
    "pcehr-token": PCEHR_TOKEN_PRIORITIES,
    "smart-meter": SMART_METER_PRIORITIES,
    "balanced": Priorities(),
}


def cmd_recommend(args: argparse.Namespace) -> int:
    priorities = _SCENARIOS[args.scenario]
    params = PAPER_DEFAULTS.with_(g=args.g)
    recommendation = recommend_protocol(priorities, params)
    print(f"scenario      : {args.scenario}")
    print(f"recommendation: {recommendation.protocol}")
    print("scores        :")
    for name, score in sorted(recommendation.scores.items(), key=lambda kv: -kv[1]):
        print(f"  {name:>12}: {score:.2f}")
    print("axes (worst < ... < best):")
    for axis, ordering in recommendation.rationale.items():
        print(f"  {axis}: {ordering}")
    return 0


_FLEET_QUERY = "SELECT district, COUNT(*) AS meters FROM Consumer GROUP BY district"


def _fleet_deployment(args: argparse.Namespace) -> Deployment:
    """The deterministic population ``fleet`` and ``query`` both rebuild
    (identical keys/authority under identical --tds/--districts/--seed)."""
    return Deployment.build(
        args.tds,
        smart_meter_factory(num_districts=args.districts),
        tables=["Power", "Consumer"],
        seed=args.seed,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.net.server import SSIDispatcher, SSIServer
    from repro.obs import spans as obs_spans
    from repro.obs.health import HealthMonitor
    from repro.obs.http import start_metrics_server
    from repro.obs.logs import configure_json_logging
    from repro.ssi.admission import AdmissionPolicy
    from repro.ssi.server import SupportingServerInfrastructure

    obs_spans.set_process_label("ssi")
    if args.json_logs:
        configure_json_logging()
    admission = AdmissionPolicy(
        max_active_queries=args.max_active_queries,
        max_pending_bytes=args.max_pending_bytes,
        retry_after=args.admission_retry_after,
    )

    async def _serve() -> None:
        store = None
        if args.data_dir is not None:
            from repro.store import DurableStore

            store = DurableStore.open(
                args.data_dir, fsync_policy=args.fsync_policy
            )
            recovered = store.recovered
            dispatcher = SSIDispatcher.with_store(
                store,
                partition_timeout=args.partition_timeout,
                admission=admission,
            )
            print(
                f"durable state: {args.data_dir} "
                f"({'clean start' if recovered.clean else 'recovered'}: "
                f"{len(dispatcher.ssi.storage_map())} query(ies), "
                f"{recovered.replayed_records} record(s) replayed, "
                f"{recovered.truncated_bytes} torn-tail byte(s) dropped, "
                f"{recovered.snapshot_fallbacks} corrupt snapshot(s) skipped, "
                f"commitment at {store.commitment().count}, "
                f"fsync={args.fsync_policy})",
                flush=True,
            )
        else:
            dispatcher = SSIDispatcher(
                SupportingServerInfrastructure(),
                partition_timeout=args.partition_timeout,
                admission=admission,
            )
        # Rolling-window SLO verdicts: answers MSG_GET_HEALTH, drives
        # the repro_health_status gauge and upgrades /healthz to a JSON
        # verdict with a 503 on degradation.
        monitor = HealthMonitor(
            window=args.health_window, interval=args.health_interval
        )
        dispatcher.health = monitor
        server = SSIServer(
            dispatcher,
            host=args.host,
            port=args.port,
            read_timeout=args.read_timeout,
        )
        await server.start()
        await monitor.start()
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = await start_metrics_server(
                host=args.host, port=args.metrics_port, health=monitor
            )
            metrics_port = metrics_server.sockets[0].getsockname()[1]
            print(
                f"metrics on http://{args.host}:{metrics_port}/metrics",
                flush=True,
            )
        print(f"SSI listening on {server.host}:{server.port}", flush=True)
        # Graceful shutdown (SIGTERM/SIGINT): stop accepting, drain
        # in-flight requests, flush the WAL and write a clean-shutdown
        # snapshot so the next start recovers without replay.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                (serve_task, stop_task), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_task.cancel()
            serve_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            await monitor.stop()
            drained = await server.drain(timeout=args.drain_timeout)
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            await server.close()
            if store is not None:
                store.close(dispatcher.capture_state())
                print(
                    "SSI stopped "
                    f"({'drained' if drained else 'drain timed out'}; "
                    f"durable state flushed, commitment at "
                    f"{store.commitment().count})",
                    flush=True,
                )
            else:
                print("SSI stopped", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("SSI stopped")
    return 0


def cmd_verify_log(args: argparse.Namespace) -> int:
    from repro.exceptions import CorruptLogError
    from repro.store import verify_data_dir

    try:
        report = verify_data_dir(args.data_dir)
    except CorruptLogError as exc:
        print(f"verify-log FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"data dir  : {args.data_dir}")
    print(
        f"WAL       : {report['wal_records']} record(s) in "
        f"{report['wal_segments']} segment(s)"
    )
    print(
        f"snapshots : {report['snapshots']} retained "
        f"(latest at WAL seq {report['snapshot_seq']}, "
        f"clean={'yes' if report['clean'] else 'no'})"
    )
    print(
        f"commitment: {report['commitment_count']} record(s), "
        f"head {report['commitment_head']}"
    )
    print("verify-log OK")
    return 0


def parse_shard(value: str) -> tuple[int, int]:
    """``--shard I/N``: this process is shard *I* of *N* and serves the
    devices ``I::N`` of the population."""
    index, sep, count = value.partition("/")
    if sep and index.isdecimal() and count.isdecimal():
        if int(index) < int(count):
            return int(index), int(count)
    raise ProtocolError(f"--shard must be I/N with 0 <= I < N, got {value!r}")


def shard_rng(seed: int, index: int, count: int) -> random.Random:
    """The device-loop rng of shard *index* of *count*.  A whole fleet's
    is ``Random(seed + 1)``; shard I of several is seeded by the
    (I+1)-th 64-bit draw of that stream, so the seed and the index alone
    fix every stream a shard runs."""
    rng = random.Random(seed + 1)
    if count == 1:
        return rng
    for _ in range(index):
        rng.getrandbits(64)
    return random.Random(rng.getrandbits(64))


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.net.fleet import FleetRunner
    from repro.net.transport import TCPTransport
    from repro.obs import spans as obs_spans

    try:
        index, count = parse_shard(args.shard)
    except ProtocolError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    if args.buckets < 1:
        print(f"fleet: --buckets must be >= 1, got {args.buckets}", file=sys.stderr)
        return 2
    crypto_cache.use_engine(args.crypto_engine)
    deployment = _fleet_deployment(args)
    devices = deployment.tds_list[index::count]
    if not devices:
        print(
            f"fleet: --shard {args.shard} holds no device of a "
            f"{len(deployment.tds_list)}-TDS population",
            file=sys.stderr,
        )
        return 2
    # Every shard is a whole fleet over its slice, except that it cannot
    # know the others have contributed: only the SSI (SIZE clause) closes
    # a collection a sharded fleet serves.
    sharded = count > 1
    obs_spans.set_process_label(f"fleet-{index}" if sharded else "fleet")
    suffix = f".shard{index}" if sharded else ""
    span_path = f"{args.span_export}{suffix}.jsonl"
    histogram = build_histogram(
        deployment, "Consumer", "district", num_buckets=args.buckets
    )

    async def _run() -> None:
        fleet = FleetRunner(
            devices,
            lambda: TCPTransport(args.host, args.port, window=args.window),
            histogram=histogram,
            concurrency=args.concurrency,
            poll_interval=args.poll_interval,
            batch_size=args.batch,
            close_no_size_queries=not sharded,
            shard_label=f"shard{index}" if sharded else "local",
            health_check_interval=args.health_check_interval,
            rng=shard_rng(args.seed, index, count),
        )
        shard_note = f" (shard {index}/{count} of {args.tds})" if sharded else ""
        print(
            f"fleet of {len(devices)} TDS clients{shard_note} -> "
            f"{args.host}:{args.port}",
            flush=True,
        )
        stats = await fleet.run(until_queries_done=args.queries)
        print(
            f"fleet done: {stats.contributions} contributions, "
            f"{stats.tuples_submitted} tuples, "
            f"{stats.partitions_processed} partitions, "
            f"{len(stats.queries_completed)} query(ies) completed"
        )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("fleet stopped")
    finally:
        if args.span_export:
            with open(span_path, "w", encoding="utf-8") as fp:
                exported = obs_spans.RECORDER.export_jsonl(fp)
            print(f"spans    : {exported} -> {span_path}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import uuid

    from repro.net.client import QuerierClient
    from repro.net.transport import TCPTransport
    from repro.obs import spans as obs_spans

    if _mismatched(args):
        return 2
    obs_spans.set_process_label("querier")
    deployment = _fleet_deployment(args)
    querier = deployment.make_querier()
    # fresh_query_id() is only process-unique; independent `query`
    # processes hitting one served SSI need globally unique ids.
    query_id = args.query_id or f"q-{uuid.uuid4().hex[:12]}"
    envelope = querier.make_envelope(args.query, query_id=query_id)
    # the protocol's row supplies every other scheduling default
    meta = QueryMeta(args.protocol, {"partition_timeout": args.partition_timeout})
    trace_id = obs_spans.derive_trace_id(query_id)
    root = obs_spans.RECORDER.start(
        "query", trace_id=trace_id, query_id=query_id, protocol=args.protocol
    )

    async def _run() -> list[dict]:
        client = QuerierClient(TCPTransport(args.host, args.port))
        client.set_trace_context(
            obs_spans.TraceContext(trace_id, root.context.span_id)
        )
        try:
            await client.post_query(envelope, meta=meta)
            result = await client.wait_result(
                envelope.query_id, timeout=args.timeout
            )
        finally:
            await client.close()
        return querier.decrypt_result(result)

    try:
        rows = asyncio.run(_run())
    finally:
        root.finish()
        if args.span_export:
            with open(f"{args.span_export}.jsonl", "w", encoding="utf-8") as fp:
                obs_spans.RECORDER.export_jsonl(fp)
    print(f"protocol : {args.protocol} (fleet-mode over TCP)")
    print(f"query    : {args.query}")
    print(f"result   : {len(rows)} row(s)")
    for row in sorted(rows, key=str):
        print(f"  {row}")
    return 0


def cmd_multiquery(args: argparse.Namespace) -> int:
    import uuid

    from repro.net.client import QuerierClient
    from repro.net.multiquery import MultiQueryRunner, QuerySpec
    from repro.net.transport import TCPTransport
    from repro.obs import spans as obs_spans

    if _mismatched(args):
        return 2
    obs_spans.set_process_label("querier")
    deployment = _fleet_deployment(args)
    querier = deployment.make_querier()
    sql = args.query
    if args.size_tuples > 0 and "SIZE" not in sql.upper():
        sql = f"{sql} SIZE {args.size_tuples} TUPLES"
    params = {"partition_timeout": args.partition_timeout}
    specs = [
        QuerySpec(sql, protocol=args.protocol, params=params)
        for _ in range(args.count)
    ]

    async def _run():
        client = QuerierClient(
            TCPTransport(args.host, args.port, window=args.window)
        )
        runner = MultiQueryRunner(
            querier,
            client,
            concurrency=args.concurrency,
            result_timeout=args.timeout,
            id_factory=lambda: f"q-{uuid.uuid4().hex[:12]}",
        )
        try:
            return await runner.run(specs)
        finally:
            await client.close()

    stats = asyncio.run(_run())
    print(f"protocol : {args.protocol} (fleet-mode over TCP)")
    print(f"query    : {sql}")
    print(
        f"batch    : {len(stats.outcomes)} queries, "
        f"concurrency {args.concurrency}"
    )
    print(
        f"timing   : {stats.wall_seconds:.3f}s wall, "
        f"{stats.queries_per_s:.2f} queries/s, "
        f"p50 {stats.p50_s:.3f}s, p95 {stats.p95_s:.3f}s"
    )
    for outcome in stats.outcomes[: args.show_rows]:
        print(f"  {outcome.query_id}: {len(outcome.rows)} row(s)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.net.client import AsyncSSIClient
    from repro.net.transport import TCPTransport
    from repro.obs.metrics import diff_snapshots, parse_prometheus_text

    async def _fetch() -> str:
        client = AsyncSSIClient(TCPTransport(args.host, args.port))
        try:
            return await client.get_stats()
        finally:
            await client.close()

    if not args.watch:
        sys.stdout.write(asyncio.run(_fetch()))
        return 0

    # --watch: periodic redraw of per-interval deltas.  Counters and
    # histograms become rates over the interval; gauges stay absolute
    # (their level is the signal, not their derivative).
    import time as _time

    from repro.bench import render_table

    previous = None
    iteration = 0
    while True:
        snapshot, kinds = parse_prometheus_text(asyncio.run(_fetch()))
        if previous is not None:
            gauges = tuple(n for n, kind in kinds.items() if kind == "gauge")
            delta = diff_snapshots(previous, snapshot, absolute=gauges)
            rows = []
            for name in sorted(delta):
                for key, sample in sorted(delta[name].items()):
                    labels = ",".join(f"{k}={v}" for k, v in key)
                    if isinstance(sample, dict):
                        count = sample["count"]
                        if not count:
                            continue
                        rows.append(
                            [
                                f"{name}{{{labels}}}" if labels else name,
                                f"{count / args.interval:,.1f}/s "
                                f"avg={sample['sum'] / count:.4f}s",
                            ]
                        )
                    elif kinds.get(name) == "gauge":
                        if sample:
                            rows.append(
                                [f"{name}{{{labels}}}" if labels else name,
                                 f"{sample:,.1f}"]
                            )
                    elif sample:
                        rows.append(
                            [
                                f"{name}{{{labels}}}" if labels else name,
                                f"{sample / args.interval:,.1f}/s",
                            ]
                        )
            print(
                render_table(
                    f"rates over the last {args.interval:g}s "
                    f"(gauges absolute)",
                    ["series", "value"],
                    rows or [["(no activity)", "-"]],
                ),
                flush=True,
            )
            print(flush=True)
        previous = snapshot
        iteration += 1
        if args.count and iteration > args.count:
            return 0
        _time.sleep(args.interval)


def cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import attribution

    records = []
    if args.spans:
        records.extend(attribution.load_records(args.spans))
    if args.url:
        records.extend(attribution.fetch_records(args.url))
    if not records:
        print("no spans: pass --spans FILE... and/or --url URL", file=sys.stderr)
        return 2
    report = attribution.build_report(records)
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(attribution.render_html(report))
        print(f"wrote {args.html}")
    if args.json:
        print(attribution.report_json(report))
    else:
        print(attribution.render_console(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving decentralized SQL (EDBT 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one private query end-to-end")
    demo.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="s_agg")
    demo.add_argument("--query", default=_DEFAULT_QUERY)
    demo.add_argument("--tds", type=int, default=30, help="population size")
    demo.add_argument("--districts", type=int, default=4)
    demo.add_argument("--availability", type=float, default=0.5)
    demo.add_argument("--nf", type=int, default=2, help="fakes per tuple (rnf_noise)")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_demo)

    figures = sub.add_parser("figures", help="print paper figure series")
    figures.add_argument("--only", help="one of: " + ", ".join(_FIGURES))
    figures.set_defaults(func=cmd_figures)

    costmodel = sub.add_parser("costmodel", help="evaluate the cost model")
    costmodel.add_argument("--nt", type=int, default=PAPER_DEFAULTS.nt)
    costmodel.add_argument("--g", type=int, default=PAPER_DEFAULTS.g)
    costmodel.add_argument(
        "--availability", type=float, default=PAPER_DEFAULTS.available_fraction
    )
    costmodel.set_defaults(func=cmd_costmodel)

    recommend = sub.add_parser(
        "recommend", help="pick a protocol for a deployment scenario (§6.4)"
    )
    recommend.add_argument(
        "--scenario", choices=sorted(_SCENARIOS), default="balanced"
    )
    recommend.add_argument("--g", type=int, default=PAPER_DEFAULTS.g)
    recommend.set_defaults(func=cmd_recommend)

    serve = sub.add_parser("serve", help="run the SSI as an asyncio TCP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7464)
    serve.add_argument(
        "--partition-timeout", type=float, default=5.0,
        help="seconds before an assigned partition is reassigned",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=30.0,
        help="per-connection idle read timeout in seconds",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="also expose GET /metrics on this HTTP port (0 = ephemeral)",
    )
    serve.add_argument(
        "--json-logs", action="store_true",
        help="emit structured JSON logs (redaction-filtered) on stderr",
    )
    serve.add_argument(
        "--data-dir", default=None,
        help="persist SSI state (WAL + snapshots) here and recover from "
        "it on start; default is in-memory only",
    )
    serve.add_argument(
        "--fsync-policy", choices=("group", "batch", "none"), default="group",
        help="WAL durability: group = ack after fsync (group commit), "
        "batch = background fsync interval, none = page cache only",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--max-active-queries", type=int, default=0,
        help="per-querier quota of unpublished queries (0 = unlimited); "
        "a post over quota answers ERR_ADMISSION with a retry-after hint",
    )
    serve.add_argument(
        "--max-pending-bytes", type=int, default=0,
        help="refuse a submission whose wire size exceeds this many bytes "
        "(0 = unlimited; submissions are applied on arrival, none queue)",
    )
    serve.add_argument(
        "--admission-retry-after", type=float, default=0.05,
        help="backoff hint (seconds) carried on ERR_ADMISSION rejections",
    )
    serve.add_argument(
        "--health-window", type=float, default=30.0,
        help="rolling window (seconds) the health monitor evaluates "
        "SLOs over",
    )
    serve.add_argument(
        "--health-interval", type=float, default=5.0,
        help="seconds between health monitor registry samples",
    )
    serve.set_defaults(func=cmd_serve)

    verify_log = sub.add_parser(
        "verify-log",
        help="verify a serve --data-dir offline (WAL CRCs, snapshot "
        "integrity, commitment-chain consistency); exits 1 on corruption",
    )
    verify_log.add_argument("--data-dir", required=True)
    verify_log.set_defaults(func=cmd_verify_log)

    fleet = sub.add_parser(
        "fleet", help="run a population of TDS clients against a served SSI"
    )
    fleet.add_argument("--host", default="127.0.0.1")
    fleet.add_argument("--port", type=int, default=7464)
    fleet.add_argument("--tds", type=int, default=16, help="population size")
    fleet.add_argument("--districts", type=int, default=4)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--buckets", type=int, default=2, help="ed_hist buckets")
    fleet.add_argument("--concurrency", type=int, default=8)
    fleet.add_argument(
        "--poll-interval", type=float, default=0.05,
        help="seconds a device pauses before asking again after a failed "
        "exchange (transport error, timeout, typed error); paces nothing "
        "while exchanges succeed — devices wait parked at the SSI",
    )
    fleet.add_argument(
        "--shard",
        default="0/1",
        help="I/N: serve the devices I::N of the population (start N "
        "processes, I = 0..N-1, to spread one fleet over N cores); "
        "with N > 1 only a SIZE clause closes a collection",
    )
    fleet.add_argument(
        "--batch",
        type=int,
        default=0,
        help="coalesce contributions into batch frames of this size (0=off)",
    )
    fleet.add_argument(
        "--window",
        type=int,
        default=32,
        help="max in-flight pipelined requests per connection",
    )
    fleet.add_argument(
        "--crypto-engine",
        choices=crypto_cache.ENGINE_CHOICES,
        default="auto",
        help="AES engine (auto prefers the cryptography package)",
    )
    fleet.add_argument(
        "--queries", type=int, default=None,
        help="stop after this many completed queries (default: run forever)",
    )
    fleet.add_argument(
        "--span-export", default=None,
        help="write lifecycle spans to <prefix>[.shardI].jsonl on exit",
    )
    fleet.add_argument(
        "--health-check-interval", type=float, default=0.0,
        help="probe MSG_GET_HEALTH this often (seconds) and stretch the "
        "pause after a failed exchange while the SSI self-reports "
        "degraded (0=off)",
    )
    fleet.set_defaults(func=cmd_fleet)

    query = sub.add_parser(
        "query", help="post one query to a served SSI and await the result"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7464)
    query.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="s_agg")
    query.add_argument("--query", default=_FLEET_QUERY)
    query.add_argument("--tds", type=int, default=16, help="population size")
    query.add_argument("--districts", type=int, default=4)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--partition-timeout", type=float, default=5.0)
    query.add_argument("--timeout", type=float, default=60.0)
    query.add_argument(
        "--query-id", default=None,
        help="explicit query id (default: a fresh globally unique id)",
    )
    query.add_argument(
        "--span-export", default=None,
        help="write the querier-side lifecycle spans to <prefix>.jsonl",
    )
    query.set_defaults(func=cmd_query)

    multiquery = sub.add_parser(
        "multiquery",
        help="post N concurrent queries to a served SSI and report "
        "aggregate queries/s and latency percentiles",
    )
    multiquery.add_argument("--host", default="127.0.0.1")
    multiquery.add_argument("--port", type=int, default=7464)
    multiquery.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="s_agg")
    multiquery.add_argument("--query", default=_FLEET_QUERY)
    multiquery.add_argument("--count", type=int, default=4, help="queries to run")
    multiquery.add_argument(
        "--concurrency", type=int, default=4,
        help="max queries in flight at once (1 = serial baseline)",
    )
    multiquery.add_argument("--tds", type=int, default=16, help="population size")
    multiquery.add_argument("--districts", type=int, default=4)
    multiquery.add_argument("--seed", type=int, default=0)
    multiquery.add_argument(
        "--size-tuples", type=int, default=0,
        help="append a SIZE clause so the SSI closes collection "
        "(0 = post the query text as-is)",
    )
    multiquery.add_argument("--partition-timeout", type=float, default=5.0)
    multiquery.add_argument("--timeout", type=float, default=60.0)
    multiquery.add_argument("--window", type=int, default=32)
    multiquery.add_argument(
        "--show-rows", type=int, default=0,
        help="print per-query row counts for the first N queries",
    )
    multiquery.set_defaults(func=cmd_multiquery)

    stats = sub.add_parser(
        "stats", help="fetch a served SSI's metrics (Prometheus text form)"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=7464)
    stats.add_argument(
        "--watch", action="store_true",
        help="redraw per-interval rates instead of dumping totals once",
    )
    stats.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --watch samples",
    )
    stats.add_argument(
        "--count", type=int, default=0,
        help="stop --watch after this many redraws (0 = until ^C)",
    )
    stats.set_defaults(func=cmd_stats)

    obs = sub.add_parser(
        "obs", help="interpret observability exports (spans, metrics)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="latency attribution from span JSONL (file or /spans URL)",
    )
    report.add_argument(
        "--spans", nargs="+", default=[],
        help="span JSONL export path(s), e.g. "
        "benchmarks/results/spans_multiq.jsonl",
    )
    report.add_argument(
        "--url", default=None,
        help="fetch spans from a live endpoint, e.g. "
        "http://127.0.0.1:9464/spans",
    )
    report.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    report.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a single-file HTML report here",
    )
    report.set_defaults(func=cmd_obs_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
