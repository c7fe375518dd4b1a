"""Hardware model of a secure device hosting a TDS.

The paper calibrates its cost model on a development board "representative
of secure tokens-like TDSs" (§6.2):

* 32-bit RISC CPU clocked at 120 MHz;
* AES/SHA crypto-coprocessor: one 128-bit block costs 167 cycles;
* 64 KB static RAM, 1 MB NOR flash, 1 GB external NAND flash;
* USB full-speed link: 12 Mbps nominal, **7.9 Mbps measured**.

:class:`DeviceProfile` turns those numbers into per-operation timings used
both by the analytic cost model (:mod:`repro.costmodel`) and by the
discrete-event simulator (:mod:`repro.simulation`).  The paper's
observation hierarchy — transfer ≫ CPU > decryption ≫ encryption for a
4 KB partition (Fig. 9b) — emerges from these constants and is asserted in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

AES_BLOCK_BYTES = 16


@dataclass(frozen=True)
class DeviceProfile:
    """Timing/resource model of one secure device.

    All times returned are in **seconds**.
    """

    name: str
    cpu_hz: float
    #: cycles for the crypto-coprocessor to process one 16-byte AES block
    crypto_cycles_per_block: int
    #: cycles of general CPU work per payload byte (deserialization, number
    #: conversion, aggregate arithmetic — the "CPU cost" of Fig. 9b)
    cpu_cycles_per_byte: float
    #: effective link throughput in bits per second (measured, not nominal)
    link_bps: float
    #: static RAM available for the partial-aggregate structure, in bytes
    ram_bytes: int

    def __post_init__(self) -> None:
        if self.cpu_hz <= 0 or self.link_bps <= 0:
            raise ConfigurationError("cpu_hz and link_bps must be positive")
        if self.ram_bytes <= 0:
            raise ConfigurationError("ram_bytes must be positive")

    # ------------------------------------------------------------------ #
    # elementary costs
    # ------------------------------------------------------------------ #
    def crypto_time(self, num_bytes: int) -> float:
        """Time for the coprocessor to encrypt *or* decrypt *num_bytes*."""
        blocks = (num_bytes + AES_BLOCK_BYTES - 1) // AES_BLOCK_BYTES
        return blocks * self.crypto_cycles_per_block / self.cpu_hz

    def crypto_throughput_bytes_per_second(self) -> float:
        """Sustained coprocessor throughput in bytes/second — the model
        figure benchmarks (e.g. ``bench_crypto_throughput``) compare the
        software AES fast path against."""
        return AES_BLOCK_BYTES * self.cpu_hz / self.crypto_cycles_per_block

    def cpu_time(self, num_bytes: int) -> float:
        """General CPU time to process *num_bytes* of decrypted payload."""
        return num_bytes * self.cpu_cycles_per_byte / self.cpu_hz

    def transfer_time(self, num_bytes: int) -> float:
        """Time to move *num_bytes* over the device link (either way)."""
        return num_bytes * 8 / self.link_bps

    # ------------------------------------------------------------------ #
    # composite costs
    # ------------------------------------------------------------------ #
    def tuple_time(self, tuple_bytes: int) -> float:
        """The cost model's Tt: time for one TDS to fully process one
        encrypted tuple of *tuple_bytes* (transfer + crypto + CPU)."""
        return (
            self.transfer_time(tuple_bytes)
            + self.crypto_time(tuple_bytes)
            + self.cpu_time(tuple_bytes)
        )

    def ram_slots(self, slot_bytes: int = 16) -> int:
        """How many *slot_bytes*-wide scalar slots fit in RAM — the bound
        on the partial-aggregate structure of §4.2."""
        return self.ram_bytes // slot_bytes


#: The paper's development board (§6.2) — a Gemalto-class secure token.
SECURE_TOKEN = DeviceProfile(
    name="secure-token",
    cpu_hz=120e6,
    crypto_cycles_per_block=167,
    cpu_cycles_per_byte=30.0,
    link_bps=7.9e6,
    ram_bytes=64 * 1024,
)

#: A smart-meter class TDS: same security hardware, always-on Ethernet-ish
#: link and a little more RAM (the paper notes power meters are "connected
#: all the time and mostly idle", §6.4).
SMART_METER = DeviceProfile(
    name="smart-meter",
    cpu_hz=120e6,
    crypto_cycles_per_block=167,
    cpu_cycles_per_byte=30.0,
    link_bps=10e6,
    ram_bytes=128 * 1024,
)

#: A TrustZone smartphone-class TDS (§1: "a full TEE will soon be present
#: in any client device").
SMARTPHONE = DeviceProfile(
    name="smartphone",
    cpu_hz=1.2e9,
    crypto_cycles_per_block=167,
    cpu_cycles_per_byte=20.0,
    link_bps=50e6,
    ram_bytes=4 * 1024 * 1024,
)
