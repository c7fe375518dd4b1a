"""Hardware calibration (§6.2) and the Fig. 9b unit-test decomposition.

The paper calibrates its cost model by measuring "encryption, decryption,
hashing, communication and CPU time" on the secure development board and
plugging the numbers into the formulas.  We do the same twice over:

* :func:`unit_test_breakdown` — the *device* decomposition of Fig. 9b,
  straight from :data:`~repro.tds.device.SECURE_TOKEN`'s constants;
* :func:`calibrate_software_crypto` — measures our pure-Python AES and
  reports the slowdown factor versus the hardware coprocessor, documenting
  why concrete simulations use the device model for timing rather than
  wall-clock Python.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto import cache
from repro.crypto.ndet import NonDeterministicCipher
from repro.tds.device import SECURE_TOKEN, DeviceProfile

#: Fig. 9 uses 4 KB partitions for the unit test.
UNIT_TEST_PARTITION_BYTES = 4096
#: the aggregated result re-encrypted and uploaded after processing
UNIT_TEST_RESULT_BYTES = 64


@dataclass(frozen=True)
class UnitTestBreakdown:
    """Per-operation time to manage one partition (seconds)."""

    transfer: float
    cpu: float
    decrypt: float
    encrypt: float

    def total(self) -> float:
        return self.transfer + self.cpu + self.decrypt + self.encrypt

    def ordering(self) -> list[str]:
        """Operation names sorted by cost, highest first — Fig. 9b's
        message is the ordering transfer > cpu > decrypt > encrypt."""
        named = [
            ("transfer", self.transfer),
            ("cpu", self.cpu),
            ("decrypt", self.decrypt),
            ("encrypt", self.encrypt),
        ]
        return [name for name, __ in sorted(named, key=lambda kv: -kv[1])]


def unit_test_breakdown(
    device: DeviceProfile = SECURE_TOKEN,
    partition_bytes: int = UNIT_TEST_PARTITION_BYTES,
    result_bytes: int = UNIT_TEST_RESULT_BYTES,
) -> UnitTestBreakdown:
    """The Fig. 9b decomposition on *device* for one partition."""
    return UnitTestBreakdown(
        transfer=device.transfer_time(partition_bytes)
        + device.transfer_time(result_bytes),
        cpu=device.cpu_time(partition_bytes),
        decrypt=device.crypto_time(partition_bytes),
        encrypt=device.crypto_time(result_bytes),
    )


@dataclass(frozen=True)
class SoftwareCalibration:
    """Measured pure-Python crypto speed vs. the device coprocessor."""

    python_seconds_per_kb: float
    device_seconds_per_kb: float

    @property
    def slowdown(self) -> float:
        return self.python_seconds_per_kb / self.device_seconds_per_kb


def calibrate_software_crypto(
    sample_bytes: int = 4096, repetitions: int = 3
) -> SoftwareCalibration:
    """Time our pure-Python nDet_Enc on *sample_bytes* and compare with
    the crypto-coprocessor model — the software analogue of the paper's
    unit test.

    "Pure Python" is pinned, not assumed: the measurement runs on the
    ``ttable`` engine whatever the process-wide cache had selected (a
    warm ``cryptography`` engine is *faster* than the 120 MHz
    coprocessor model), and the previous selection is restored."""
    previous = cache.selected_engine()
    cache.use_engine("ttable")
    try:
        cipher = NonDeterministicCipher(bytes(16))
        payload = bytes(sample_bytes)
        best = float("inf")
        for __ in range(repetitions):
            start = time.perf_counter()
            cipher.decrypt(cipher.encrypt(payload))
            best = min(best, time.perf_counter() - start)
    finally:
        cache.use_engine(previous)
    python_per_kb = best / (2 * sample_bytes / 1024)  # encrypt + decrypt
    device_per_kb = SECURE_TOKEN.crypto_time(1024)
    return SoftwareCalibration(python_per_kb, device_per_kb)
