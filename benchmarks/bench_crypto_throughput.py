"""Crypto throughput: block-parallel nDet_Enc vs. the seed baseline.

Measures ``nDet_Enc`` encrypt+decrypt throughput along the block path
(ISSUE 6):

* **before** — the seed's per-byte AES and chaining loops, preserved
  verbatim in :mod:`repro.crypto.reference`;
* **per_tuple** — the PR 2 methodology: batched ``encrypt_many`` /
  ``decrypt_many`` on the stdlib T-table engine (what BENCH_crypto.json
  previously called *after*);
* **after** — the block path: one packed buffer + offsets vector through
  ``encrypt_block`` / ``decrypt_block`` on the stdlib T-table engine.
  This is the committed acceptance number (``--check`` reads it);
* **block_cryptography** — the same block path on the optional
  OpenSSL-backed engine, reported separately when importable;
* **fleet_timeline** — a real serve+fleet+query over localhost TCP; the
  per-contribution spans split wall-clock into queue/crypto/wire, and
  the acceptance bar is crypto ≤ wire+queue.

Running the module directly re-measures everything and writes the
committed baseline ``BENCH_crypto.json`` at the repo root.  ``--check``
re-measures only the block fast path and fails when it has regressed
more than ``CHECK_TOLERANCE`` below the committed figure.  ``--smoke``
is the CI-sized run: small block count, no fleet, asserting the block
path keeps up with the per-tuple path.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import secrets
import sys
import time

from repro.bench import publish, render_table
from repro.crypto import cache
from repro.crypto.keys import derive_subkey
from repro.crypto.ndet import NonDeterministicCipher
from repro.crypto.reference import (
    ReferenceAES128,
    reference_cbc_mac,
    reference_ctr_transform,
)
from repro.tds.device import SECURE_TOKEN

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_crypto.json")

#: acceptance bar for the block path vs. the seed reference
MIN_SPEEDUP = 5.0
#: ISSUE 6 bar: the block path must also be >= 5x the previously
#: committed per-tuple stdlib figure
MIN_SPEEDUP_VS_PREVIOUS = 5.0
#: the per-tuple stdlib number BENCH_crypto.json carried before the
#: block path landed (PR 2 methodology, this machine class)
PREVIOUS_COMMITTED_MB_S = 3.3520945808699385
#: --check fails when throughput drops more than this below the baseline
CHECK_TOLERANCE = 0.30

KEY = bytes(range(16))
MESSAGE_BYTES = 1024

#: reference workload is small — the per-byte loops run ~60 µs/block
REF_MESSAGES = 16
#: block workload: enough lanes that the lockstep CBC-MAC amortizes its
#: per-step numpy dispatch (the regime a covering result actually hits)
BLOCK_MESSAGES = 2048
#: --smoke block count: CI-sized, still past the vectorization knee
SMOKE_MESSAGES = 512
REPEATS = 3
#: --smoke takes more best-of samples — it asserts an ordering, not a
#: throughput floor, and scheduler noise must not flip it
SMOKE_REPEATS = 5

FLEET_TDS = 8
FLEET_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


def _messages(count: int, size: int = MESSAGE_BYTES) -> list[bytes]:
    rng = random.Random(20140324)
    return [rng.getrandbits(8 * size).to_bytes(size, "big") for __ in range(count)]


def _pack(messages: list[bytes]) -> tuple[bytes, tuple[int, ...]]:
    offsets = [0]
    total = 0
    for message in messages:
        total += len(message)
        offsets.append(total)
    return b"".join(messages), tuple(offsets)


# --------------------------------------------------------------------- #
# the seed's nDet_Enc, byte for byte
# --------------------------------------------------------------------- #
class _ReferenceNDet:
    def __init__(self, key: bytes) -> None:
        self._enc = ReferenceAES128(derive_subkey(key, b"nDet/enc"))
        self._mac = ReferenceAES128(derive_subkey(key, b"nDet/mac"))

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = secrets.token_bytes(8)
        body = reference_ctr_transform(self._enc, nonce, plaintext)
        tag = reference_cbc_mac(self._mac, nonce + body)
        return nonce + body + tag

    def decrypt(self, ciphertext: bytes) -> bytes:
        nonce, body, tag = ciphertext[:8], ciphertext[8:-16], ciphertext[-16:]
        if reference_cbc_mac(self._mac, nonce + body) != tag:
            raise ValueError("reference tag mismatch")
        return reference_ctr_transform(self._enc, nonce, body)


def _throughput(total_bytes: int, seconds: float) -> float:
    return total_bytes / seconds / 1e6 if seconds > 0 else float("inf")


def measure_reference(num_messages: int = REF_MESSAGES) -> dict[str, float]:
    cipher = _ReferenceNDet(KEY)
    plaintexts = _messages(num_messages)
    total = sum(len(p) for p in plaintexts)

    start = time.perf_counter()
    ciphertexts = [cipher.encrypt(p) for p in plaintexts]
    encrypt_s = time.perf_counter() - start

    start = time.perf_counter()
    recovered = [cipher.decrypt(c) for c in ciphertexts]
    decrypt_s = time.perf_counter() - start
    assert recovered == plaintexts

    return {
        "encrypt_mb_s": _throughput(total, encrypt_s),
        "decrypt_mb_s": _throughput(total, decrypt_s),
        "combined_mb_s": _throughput(2 * total, encrypt_s + decrypt_s),
    }


def measure_per_tuple(
    num_messages: int = BLOCK_MESSAGES,
    repeats: int = REPEATS,
    engine: str = "ttable",
) -> dict[str, float]:
    """``encrypt_many``/``decrypt_many`` — one Python object per tuple."""
    cache.use_engine(engine)
    cipher = NonDeterministicCipher(KEY)
    plaintexts = _messages(num_messages)
    total = sum(len(p) for p in plaintexts)

    best_encrypt = best_decrypt = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        ciphertexts = cipher.encrypt_many(plaintexts)
        best_encrypt = min(best_encrypt, time.perf_counter() - start)

        start = time.perf_counter()
        recovered = cipher.decrypt_many(ciphertexts)
        best_decrypt = min(best_decrypt, time.perf_counter() - start)
        assert recovered == plaintexts

    return {
        "encrypt_mb_s": _throughput(total, best_encrypt),
        "decrypt_mb_s": _throughput(total, best_decrypt),
        "combined_mb_s": _throughput(2 * total, best_encrypt + best_decrypt),
    }


def measure_block(
    num_messages: int = BLOCK_MESSAGES,
    repeats: int = REPEATS,
    engine: str = "ttable",
) -> dict[str, float]:
    """``encrypt_block``/``decrypt_block`` — one packed buffer per pass."""
    cache.use_engine(engine)
    cipher = NonDeterministicCipher(KEY)
    payloads, offsets = _pack(_messages(num_messages))
    total = len(payloads)

    best_encrypt = best_decrypt = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        sealed, sealed_offsets = cipher.encrypt_block(payloads, offsets)
        best_encrypt = min(best_encrypt, time.perf_counter() - start)

        start = time.perf_counter()
        plain, plain_offsets = cipher.decrypt_block(sealed, sealed_offsets)
        best_decrypt = min(best_decrypt, time.perf_counter() - start)
        assert plain == payloads and plain_offsets == offsets

    return {
        "encrypt_mb_s": _throughput(total, best_encrypt),
        "decrypt_mb_s": _throughput(total, best_decrypt),
        "combined_mb_s": _throughput(2 * total, best_encrypt + best_decrypt),
    }


# --------------------------------------------------------------------- #
# TCP fleet-query span timeline
# --------------------------------------------------------------------- #
def measure_fleet_timeline(
    num_tds: int = FLEET_TDS, engine: str = "ttable"
) -> dict[str, object]:
    """Run serve+fleet+query over localhost TCP and fold the span
    annotations into a queue/crypto/wire timeline."""
    from repro.net.client import QuerierClient, RetryPolicy
    from repro.net.fleet import FleetRunner
    from repro.net.frames import QueryMeta
    from repro.net.server import SSIDispatcher, SSIServer
    from repro.net.transport import TCPTransport
    from repro.obs import spans as obs_spans
    from repro.protocols import Deployment
    from repro.workloads.smartmeter import smart_meter_factory

    cache.use_engine(engine)
    obs_spans.RECORDER.reset()

    async def run() -> int:
        dep = Deployment.build(
            num_tds,
            smart_meter_factory(num_districts=4),
            tables=["Power", "Consumer"],
            seed=7,
        )
        dispatcher = SSIDispatcher(dep.ssi, partition_timeout=5.0)
        server = SSIServer(dispatcher)
        await server.start()
        fleet = FleetRunner(
            dep.tds_list,
            lambda: TCPTransport("127.0.0.1", server.port),
            policy=RetryPolicy(backoff_base=0.01),
            poll_interval=0.01,
            batch_size=64,
            batch_flush_interval=0.005,
            rng=random.Random(5),
        )
        fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
        try:
            querier = dep.make_querier()
            envelope = querier.make_envelope(FLEET_SQL)
            client = QuerierClient(TCPTransport("127.0.0.1", server.port))
            try:
                await client.post_query(envelope, meta=QueryMeta("s_agg", {}))
                result = await client.wait_result(
                    envelope.query_id, poll_interval=0.01, timeout=60.0
                )
            finally:
                await client.close()
            assert querier.decrypt_result(result)
            await fleet_task
            return fleet.stats.contributions
        finally:
            fleet.stop()
            await server.close()

    contributions = asyncio.run(run())
    totals = {"queue_seconds": 0.0, "crypto_seconds": 0.0, "wire_seconds": 0.0}
    spans = 0
    for span in obs_spans.RECORDER.finished():
        attrs = span.attributes
        if not all(key in attrs for key in totals):
            continue
        spans += 1
        for key in totals:
            totals[key] += float(attrs[key])
    wire_plus_queue = totals["wire_seconds"] + totals["queue_seconds"]
    return {
        "engine": engine,
        "tds": num_tds,
        "contributions": contributions,
        "spans": spans,
        "queue_seconds": round(totals["queue_seconds"], 6),
        "crypto_seconds": round(totals["crypto_seconds"], 6),
        "wire_seconds": round(totals["wire_seconds"], 6),
        "crypto_le_wire_plus_queue": totals["crypto_seconds"] <= wire_plus_queue,
    }


def _cryptography_available() -> bool:
    try:
        from repro.crypto.openssl import OpenSSLAES128  # noqa: F401
    except Exception:
        return False
    return True


def measure_all() -> dict:
    try:
        before = measure_reference()
        per_tuple = measure_per_tuple()
        after = measure_block()
        block_crypto = (
            measure_block(engine="cryptography")
            if _cryptography_available()
            else None
        )
        timeline = measure_fleet_timeline()
    finally:
        cache.use_engine("auto")
    return {
        "workload": {
            "message_bytes": MESSAGE_BYTES,
            "reference_messages": REF_MESSAGES,
            "block_messages": BLOCK_MESSAGES,
            "scheme": "nDet_Enc (CTR + CBC-MAC, 16-byte key)",
            "engine": "ttable (stdlib+numpy); cryptography reported separately",
        },
        "before": before,
        "per_tuple": per_tuple,
        "after": after,
        "block_cryptography": block_crypto,
        "fleet_timeline": timeline,
        "speedup": after["combined_mb_s"] / before["combined_mb_s"],
        "previous_committed_mb_s": PREVIOUS_COMMITTED_MB_S,
        "speedup_vs_previous": (
            after["combined_mb_s"] / PREVIOUS_COMMITTED_MB_S
        ),
        #: the paper's crypto-coprocessor figure (§6.2), for context
        "secure_token_model_mb_s": (
            SECURE_TOKEN.crypto_throughput_bytes_per_second() / 1e6
        ),
    }


# --------------------------------------------------------------------- #
# pytest entry
# --------------------------------------------------------------------- #
def test_crypto_throughput(benchmark):
    plaintexts = _messages(SMOKE_MESSAGES)
    payloads, offsets = _pack(plaintexts)
    cipher = NonDeterministicCipher(KEY)
    benchmark(cipher.encrypt_block, payloads, offsets)

    try:
        before = measure_reference()
        per_tuple = measure_per_tuple(SMOKE_MESSAGES)
        after = measure_block(SMOKE_MESSAGES)
    finally:
        cache.use_engine("auto")
    publish(
        "crypto_throughput",
        render_table(
            "nDet_Enc throughput: seed baseline vs. per-tuple vs. block path",
            ["variant", "encrypt (MB/s)", "decrypt (MB/s)", "combined (MB/s)"],
            [
                ("seed (per-byte)",) + tuple(before.values()),
                ("per-tuple (ttable)",) + tuple(per_tuple.values()),
                ("block (ttable)",) + tuple(after.values()),
            ],
        ),
    )
    assert after["combined_mb_s"] / before["combined_mb_s"] >= MIN_SPEEDUP


# --------------------------------------------------------------------- #
# standalone: write / check / smoke the committed baseline
# --------------------------------------------------------------------- #
def _run_check() -> int:
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    committed = baseline["after"]["combined_mb_s"]
    try:
        current = measure_block()["combined_mb_s"]
    finally:
        cache.use_engine("auto")
    floor = committed * (1 - CHECK_TOLERANCE)
    print(
        f"block path: {current:.2f} MB/s "
        f"(baseline {committed:.2f}, floor {floor:.2f})"
    )
    if current < floor:
        print("FAIL: crypto throughput regressed more than "
              f"{CHECK_TOLERANCE:.0%} below the committed baseline")
        return 1
    print("OK")
    return 0


def _run_smoke() -> int:
    """CI-sized: the block path must at least keep up with per-tuple."""
    try:
        per_tuple = measure_per_tuple(SMOKE_MESSAGES, repeats=SMOKE_REPEATS)
        block = measure_block(SMOKE_MESSAGES, repeats=SMOKE_REPEATS)
    finally:
        cache.use_engine("auto")
    print(
        f"per-tuple {per_tuple['combined_mb_s']:.2f} MB/s, "
        f"block {block['combined_mb_s']:.2f} MB/s "
        f"({SMOKE_MESSAGES} x {MESSAGE_BYTES} B, ttable engine)"
    )
    if block["combined_mb_s"] < per_tuple["combined_mb_s"]:
        print("FAIL: block path slower than the per-tuple path")
        return 1
    print("OK")
    return 0


def main(argv: list[str]) -> int:
    if "--check" in argv:
        return _run_check()
    if "--smoke" in argv:
        return _run_smoke()

    results = measure_all()
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(json.dumps(results, indent=2))
    failed = False
    if results["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {results['speedup']:.1f}x < {MIN_SPEEDUP}x")
        failed = True
    if results["speedup_vs_previous"] < MIN_SPEEDUP_VS_PREVIOUS:
        print(
            f"FAIL: block path {results['speedup_vs_previous']:.1f}x over the "
            f"previous per-tuple figure < {MIN_SPEEDUP_VS_PREVIOUS}x"
        )
        failed = True
    if not results["fleet_timeline"]["crypto_le_wire_plus_queue"]:
        print("FAIL: crypto still dominates the fleet span timeline")
        failed = True
    if failed:
        return 1
    print(
        f"OK: {results['speedup']:.1f}x vs seed, "
        f"{results['speedup_vs_previous']:.1f}x vs previous per-tuple"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
