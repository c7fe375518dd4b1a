"""MSG_GET_HEALTH and /healthz: the health verdict on both surfaces.

The acceptance check for the health monitor is end-to-end: a blocking
sleep injected into the dispatch path must flip the verdict to degraded
within one rolling window, and the degradation must be visible both to
wire peers (``MSG_GET_HEALTH``, how the fleet routes around a sick SSI)
and to scrapers (``GET /healthz`` answering 503 with the JSON verdict).
"""

import asyncio
import json
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.net import frames
from repro.net.client import AsyncSSIClient
from repro.net.fleet import FleetRunner
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.obs import http as obs_http
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.health import HealthMonitor, SLOPolicy

from .conftest import build_deployment, run_async


@pytest.fixture(autouse=True)
def reset_obs():
    obs_metrics.REGISTRY.reset()
    obs_spans.RECORDER.reset()
    yield
    obs_metrics.REGISTRY.reset()
    obs_spans.RECORDER.reset()


def loopback_client(dispatcher):
    return AsyncSSIClient(
        LoopbackTransport(dispatcher.dispatch), rng=random.Random(1)
    )


def stall_slo():
    """Tight thresholds so a 0.2s stall trips within a short test."""
    return SLOPolicy(eventloop_lag_degraded=0.05, eventloop_lag_critical=5.0)


async def fetch_healthz(port):
    """GET /healthz off-loop; returns (http_status, parsed_json)."""

    def fetch():
        url = f"http://127.0.0.1:{port}/healthz"
        try:
            with urllib.request.urlopen(url, timeout=5) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    return await asyncio.to_thread(fetch)


class TestGetHealthOp:
    def test_capability_advertised_in_hello(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            _, caps = await client.hello()
            assert caps & frames.CAP_HEALTH

        run_async(run())

    def test_unmonitored_server_says_so(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            verdict = await client.get_health()
            assert verdict["monitored"] is False
            assert verdict["status"] == "ok"
            assert verdict["reasons"] == []

        run_async(run())

    def test_monitored_server_returns_the_verdict(self):
        async def run():
            dispatcher = SSIDispatcher()
            dispatcher.health = HealthMonitor(window=30.0)
            dispatcher.health.record_sample()
            client = loopback_client(dispatcher)
            verdict = await client.get_health()
            assert verdict["monitored"] is True
            assert verdict["status"] == "ok"
            assert verdict["window_seconds"] >= 0.0

        run_async(run())

    def test_degraded_verdict_carries_reasons(self):
        async def run():
            dispatcher = SSIDispatcher()
            dispatcher.health = HealthMonitor(window=30.0, slo=stall_slo())
            dispatcher.health.record_lag(0.5)
            client = loopback_client(dispatcher)
            verdict = await client.get_health()
            assert verdict["status"] == "degraded"
            assert "eventloop_lag" in verdict["reasons"]
            assert verdict["eventloop_lag_seconds"] >= 0.5

        run_async(run())


class TestInjectedStallAcceptance:
    def test_stall_flags_on_both_surfaces_within_one_window(self):
        """sleep(0.2) in the dispatch path → degraded via MSG_GET_HEALTH
        *and* /healthz 503, inside a single 5s rolling window."""

        async def run():
            dispatcher = SSIDispatcher()
            monitor = HealthMonitor(
                window=5.0,
                interval=10.0,  # snapshot sampler out of the way
                lag_interval=0.02,
                slo=stall_slo(),
            )
            dispatcher.health = monitor

            real_dispatch = dispatcher.dispatch

            async def stalling_dispatch(data):
                time.sleep(0.2)  # the injected stall: blocks the loop
                return await real_dispatch(data)

            dispatcher.dispatch = stalling_dispatch

            server = SSIServer(dispatcher, host="127.0.0.1", port=0)
            await server.start()
            metrics_srv = await obs_http.start_metrics_server(
                "127.0.0.1", 0, health=monitor
            )
            metrics_port = metrics_srv.sockets[0].getsockname()[1]
            await monitor.start()
            try:
                # healthy before the first stalled request
                status, body = await fetch_healthz(metrics_port)
                assert (status, body["status"]) == (200, "ok")

                client = AsyncSSIClient(
                    TCPTransport("127.0.0.1", server.port),
                    rng=random.Random(3),
                )
                await client.ping()  # rides the stalled dispatch path
                await asyncio.sleep(0.05)  # one sampler tick post-stall

                wire = await client.get_health()
                assert wire["status"] == "degraded"
                assert "eventloop_lag" in wire["reasons"]

                status, body = await fetch_healthz(metrics_port)
                assert status == 503
                assert body["status"] == "degraded"
                assert "eventloop_lag" in body["reasons"]
                await client.close()
            finally:
                await monitor.stop()
                metrics_srv.close()
                await metrics_srv.wait_closed()
                await server.close()

        run_async(run())


class TestFleetRoutesAroundDegradedSSI:
    def test_prober_flips_degraded_and_heals(self):
        async def run():
            dispatcher = SSIDispatcher()
            monitor = HealthMonitor(window=30.0, slo=stall_slo())
            dispatcher.health = monitor

            runner = FleetRunner(
                build_deployment(num_tds=1).tds_list,
                lambda: LoopbackTransport(dispatcher.dispatch),
                health_check_interval=0.02,
            )
            prober = asyncio.create_task(runner._health_loop())
            try:
                monitor.record_lag(0.5)  # degrade
                for _ in range(100):
                    if runner._degraded:
                        break
                    await asyncio.sleep(0.01)
                assert runner._degraded

                monitor.record_lag(0.0)
                monitor._lags.clear()
                for _ in range(100):
                    if not runner._degraded:
                        break
                    await asyncio.sleep(0.01)
                assert not runner._degraded
            finally:
                prober.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await prober

        run_async(run())


class TestParkedFleetIsHealthy:
    def test_an_idle_parked_fleet_reads_ok_on_both_surfaces(self):
        """Devices with nothing to do wait parked at the SSI for whole
        holds.  That time is not handling time: with a latency objective
        far below the hold, the verdict stays ``ok`` — over the wire and
        on /healthz — and a fleet probing it does not back itself off."""
        from repro.net.client import RetryPolicy

        async def run():
            dispatcher = SSIDispatcher()
            monitor = HealthMonitor(
                window=30.0,
                interval=10.0,
                slo=SLOPolicy(latency_objective=0.05, min_requests=20),
            )
            dispatcher.health = monitor
            server = SSIServer(dispatcher, host="127.0.0.1", port=0)
            await server.start()
            metrics_srv = await obs_http.start_metrics_server(
                "127.0.0.1", 0, health=monitor
            )
            metrics_port = metrics_srv.sockets[0].getsockname()[1]
            await monitor.start()
            runner = FleetRunner(
                build_deployment(num_tds=8).tds_list,
                lambda: TCPTransport("127.0.0.1", server.port),
                # holds of 0.15 s, three times the objective
                policy=RetryPolicy(request_timeout=0.3),
                health_check_interval=0.05,
                rng=random.Random(4),
            )
            fleet_task = asyncio.create_task(runner.run())
            try:
                await asyncio.sleep(0.7)  # ~4 expired holds per device
                seconds = obs_metrics.REGISTRY.snapshot()[
                    "repro_ssi_request_seconds"
                ][(("msg_type", "await_work"),)]
                assert seconds["count"] >= 20  # enough for the SLO to bind
                assert seconds["sum"] / seconds["count"] < 0.05

                client = AsyncSSIClient(
                    TCPTransport("127.0.0.1", server.port), rng=random.Random(3)
                )
                wire = await client.get_health()
                assert (wire["status"], wire["reasons"]) == ("ok", [])
                status, body = await fetch_healthz(metrics_port)
                assert (status, body["status"]) == (200, "ok")
                assert not runner._degraded
                await client.close()
            finally:
                runner.stop()
                await fleet_task
                await monitor.stop()
                metrics_srv.close()
                await metrics_srv.wait_closed()
                await server.close()

        run_async(run())
