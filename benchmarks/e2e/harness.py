"""The system under test and the load generator.

:class:`Stack` is the topology every query workload shares: one process,
one asyncio loop, real 127.0.0.1 TCP sockets (the host's loopback
interface) between an :class:`SSIServer`, a :class:`FleetRunner` holding
one connection per TDS, and a querier.  :func:`closed_loop` is the load
generator: each lane sends its next operation only after the previous one
completed, so a slower system receives less load.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable

import cryptography

from repro.crypto import cache as crypto_cache
from repro.net.client import QuerierClient
from repro.net.fleet import FleetRunner
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport, Transport
from repro.protocols import Deployment
from repro.protocols.base import Querier
from repro.ssi.admission import AdmissionPolicy
from repro import store as repro_store
from repro.store import DurableStore
from repro.tds.histogram import EquiDepthHistogram
from repro.workloads.smartmeter import smart_meter_factory

HOST = "127.0.0.1"
ENGINE = "cryptography"
FSYNC_POLICY = "group"
SQL = (
    "SELECT C.district, AVG(P.cons), COUNT(*) FROM Power P, Consumer C "
    "WHERE C.cid = P.cid GROUP BY C.district"
)
POLL_INTERVAL = 0.01
FLEET_SETTINGS = dict(
    batch_size=64, batch_flush_interval=0.005, poll_interval=POLL_INTERVAL, concurrency=8
)
HISTOGRAM_BUCKETS = 4
RESULT_TIMEOUT = 60.0

REPO_ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = REPO_ROOT / ".bench_work"

Sleep = Callable[[float], Awaitable[None]]


@dataclass
class Seams:
    """The constructor parameters through which a traced run slips its
    shims in; the defaults are the program's own."""

    transport: Callable[[int, int], Transport] = lambda port, window: TCPTransport(
        HOST, port, window=window
    )
    fleet_sleep: Sleep = asyncio.sleep
    client_sleep: Sleep = asyncio.sleep


def select_engine() -> None:
    """The ``cryptography`` engine or nothing: named explicitly,
    ``use_engine`` raises instead of falling back, and a fallback would
    silently measure a different program."""
    crypto_cache.use_engine(ENGINE)


def build_deployment(num_tds: int, readings: int, seed: int) -> Deployment:
    return Deployment.build(
        num_tds,
        smart_meter_factory(num_districts=8, readings_per_meter=readings),
        tables=["Power", "Consumer"],
        seed=seed,
    )


def histogram_of(reference: list[dict[str, Any]]) -> EquiDepthHistogram:
    frequencies = {row["C.district"]: row["COUNT(*)"] for row in reference}
    return EquiDepthHistogram.from_distribution(frequencies, HISTOGRAM_BUCKETS)


def open_dispatcher(
    data_dir: Path | None,
    deployment: Deployment | None = None,
    admission: AdmissionPolicy | None = None,
) -> tuple[SSIDispatcher, DurableStore | None]:
    if data_dir is None:
        ssi = deployment.ssi if deployment is not None else None
        return SSIDispatcher(ssi, admission=admission), None
    store = DurableStore.open(data_dir, fsync_policy=FSYNC_POLICY)
    return SSIDispatcher.with_store(store, admission=admission), store


@dataclass
class Stack:
    """SSI server + fleet + querier, wired over loopback TCP."""

    deployment: Deployment
    #: the plaintext answer every query must reproduce
    reference: list[dict[str, Any]]
    dispatcher: SSIDispatcher
    store: DurableStore | None
    server: SSIServer
    fleet: FleetRunner
    fleet_task: asyncio.Task
    querier: Querier
    client: QuerierClient

    @classmethod
    async def start(
        cls,
        *,
        num_tds: int,
        readings: int,
        seed: int,
        data_dir: Path | None,
        seams: Seams,
        admission: AdmissionPolicy | None = None,
    ) -> "Stack":
        deployment = build_deployment(num_tds, readings, seed)
        reference = deployment.reference_answer(SQL)
        dispatcher, store = open_dispatcher(data_dir, deployment, admission)
        server = SSIServer(dispatcher, HOST)
        await server.start()
        port = server.port
        fleet = FleetRunner(
            deployment.tds_list,
            lambda: seams.transport(port, 32),
            histogram=histogram_of(reference),
            rng=random.Random(seed + 1),
            sleep=seams.fleet_sleep,
            **FLEET_SETTINGS,
        )
        client = QuerierClient(
            seams.transport(port, 32),
            rng=random.Random(seed + 2),
            sleep=seams.client_sleep,
        )
        return cls(
            deployment, reference, dispatcher, store, server, fleet,
            asyncio.create_task(fleet.run()), deployment.make_querier(), client,
        )

    async def stop(self) -> None:
        self.fleet.stop()
        await self.fleet_task
        await self.client.close()
        await self.server.close()
        if self.store is not None:
            self.store.close()


def rows_match(got: list[dict[str, Any]], want: list[dict[str, Any]]) -> bool:
    """Order-insensitive row comparison, floats at 1e-9 relative."""
    if len(got) != len(want):
        return False

    def order(row: dict[str, Any]) -> str:
        return repr(sorted((k, v) for k, v in row.items() if not isinstance(v, float)))

    for a, b in zip(sorted(got, key=order), sorted(want, key=order)):
        if a.keys() != b.keys():
            return False
        for key, value in a.items():
            other = b[key]
            if isinstance(value, float) or isinstance(other, float):
                if not math.isclose(value, other, rel_tol=1e-9):
                    return False
            elif value != other:
                return False
    return True


def data_dir_verifies(data_dir: Path) -> bool:
    try:
        # looked up at call time: a traced run wraps the module attribute
        repro_store.verify_data_dir(data_dir)
    except Exception:  # any corruption report is a failed check
        traceback.print_exc()
        return False
    return True


# ---------------------------------------------------------------------- #
# the host's speed
# ---------------------------------------------------------------------- #
class Canary:
    """A small fixed piece of work timed every 20 ms beside the workload.

    The 2-vCPU hosts this runs on share cores with other tenants, and
    the interpreter runs up to 1.6 times slower for seconds or minutes
    at a time.  The canary suffers the same slowdown, so dividing a
    duration by :meth:`slowdown` over the same interval gives the time
    the work would have taken on an undisturbed core: a **reference-
    speed** time.  Its two parts are kinds of work the program does —
    interpreter arithmetic, and hashing and slicing bytes — because
    contention slows them unequally; the geometric mean of the two
    slowdowns tracks the workloads better than either (README, "Host
    noise").  Neither part allocates containers, so the program's heap
    and collector do not reach the canary.  On a quiet host the slowdown
    is 1 and nothing changes."""

    #: seconds each part takes between two operations on an undisturbed
    #: core of the host class the committed results come from (5th
    #: percentile over all six workloads)
    REFERENCE_S = (0.000293, 0.000160)
    PERIOD_S = 0.02
    _BLOB = bytes(range(256)) * 256

    def __init__(self) -> None:
        self._times: list[float] = []
        self._slowdowns: list[float] = []
        self._task: asyncio.Task | None = None

    @classmethod
    def parts(cls) -> tuple[float, float]:
        """Seconds taken by the two parts, each run once."""
        t0 = time.perf_counter()
        x = 0
        for i in range(5_000):
            x += i * i % 7
        t1 = time.perf_counter()
        blob = cls._BLOB
        hashlib.blake2b(blob).digest()
        b"".join([blob[i : i + 64] for i in range(0, 32_768, 64)])
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1

    @classmethod
    def probe(cls) -> float:
        """The host's slowdown right now: geometric mean over the parts."""
        ratios = [took / ref for took, ref in zip(cls.parts(), cls.REFERENCE_S)]
        return math.prod(ratios) ** (1 / len(ratios))

    async def _run(self) -> None:
        while True:
            self._times.append(time.perf_counter())
            self._slowdowns.append(self.probe())
            await asyncio.sleep(self.PERIOD_S)

    def start(self) -> None:
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe over [start, end] and its nearest neighbours
        outside; 1.0 for a canary that never ran."""
        low = bisect.bisect_left(self._times, start) - 1
        high = bisect.bisect_right(self._times, end) + 1
        window = self._slowdowns[max(0, low):high]
        return statistics.median(window) if window else 1.0


# ---------------------------------------------------------------------- #
# the load generator
# ---------------------------------------------------------------------- #
@dataclass
class Section:
    """What one timed section of a closed loop observed.  Every time it
    reports is at reference speed (see :class:`Canary`)."""

    canary: Canary
    started: float
    cpu_started: float
    ended: float = 0.0
    cpu_s: float = 0.0
    #: (completion time, latency seconds, process CPU seconds so far) of
    #: each operation that passed
    done: list[tuple[float, float, float]] = field(default_factory=list)
    failed: int = 0
    #: ru_maxrss (MB) once ``rss_after`` operations had completed
    rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.done) + self.failed

    def slowdown(self) -> float:
        return self.canary.slowdown(self.started, self.ended)

    def latencies_ms(self) -> list[float]:
        return [
            latency * 1e3 / self.canary.slowdown(end - latency, end)
            for end, latency, _ in self.done
        ]

    def _per_segment(self) -> list[tuple[int, float, float]]:
        """(operations, wall seconds, CPU seconds) of ten equal-count
        segments of the section, in completion order."""
        done = sorted(self.done)
        size = max(1, len(done) // 10)
        out = []
        previous_end, previous_cpu = self.started, self.cpu_started
        for index in range(size - 1, len(done), size):
            end, _, cpu = done[index]
            slowdown = self.canary.slowdown(previous_end, end)
            out.append(
                (size, (end - previous_end) / slowdown, (cpu - previous_cpu) / slowdown)
            )
            previous_end, previous_cpu = end, cpu
        return out

    def ops_per_s(self) -> float:
        """Median over the segments, so one stall (an fsync, a snapshot)
        cannot move the number."""
        return statistics.median(ops / wall for ops, wall, _ in self._per_segment())

    def cpu_ms_per_op(self) -> float:
        """Process CPU (all threads) per operation, median over the same
        segments."""
        return statistics.median(
            cpu * 1e3 / ops for ops, _, cpu in self._per_segment()
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: an operation: index -> (passed, latency override in seconds or None)
Operation = Callable[[int], Awaitable[tuple[bool, float | None]]]


async def closed_loop(
    operation: Operation,
    *,
    inflight: int,
    seconds: float,
    rss_after: int,
    canary: Canary,
) -> Section:
    """Run *operation* on *inflight* lanes until *seconds* have passed;
    a lane starts its next operation when the previous one completes."""
    indices = itertools.count()
    section = Section(canary, time.perf_counter(), time.process_time())
    deadline = section.started + seconds

    async def lane() -> None:
        while time.perf_counter() < deadline:
            index = next(indices)
            start = time.perf_counter()
            try:
                passed, latency = await operation(index)
            except Exception:  # the loop must go on; the failure is counted
                traceback.print_exc()
                passed, latency = False, None
            end = time.perf_counter()
            if passed:
                section.done.append(
                    (end, end - start if latency is None else latency, time.process_time())
                )
            else:
                section.failed += 1
            if section.attempted == rss_after:
                section.rss_mb = peak_rss_mb()
            # an operation that never suspends must not starve the canary
            await asyncio.sleep(0)

    await asyncio.gather(*(lane() for _ in range(inflight)))
    section.ended = time.perf_counter()
    section.cpu_s = time.process_time() - section.cpu_started
    if not section.rss_mb:
        section.rss_mb = peak_rss_mb()
    return section


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #
def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding *path* (longest mount-point match
    in /proc/mounts); tmpfs makes fsync free."""
    target = str(path.resolve())
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _device, mount, kind = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (target + "/").startswith(prefix) and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"  # the driver's checkout; git would search its parents
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict[str, Any]:
    WORK_DIR.mkdir(exist_ok=True)
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "engine": crypto_cache.selected_engine(),
        "fsync_policy": FSYNC_POLICY,
        "fs_type": filesystem_type(WORK_DIR),
        "git_commit": git_commit(),
        "seed": seed,
        "traffic": "host loopback interface (127.0.0.1), no real link",
    }
