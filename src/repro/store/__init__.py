"""repro.store — durable, tamper-evident SSI state.

The paper's SSI is *untrusted* infrastructure (§2.1): it must hold the
encrypted covering result reliably, yet its operator may crash it, roll
its disk back to an earlier state, or selectively drop contributions.
This package gives the SSI:

* :mod:`repro.store.wal` — an append-only, CRC-framed write-ahead log of
  every state mutation, with group-commit fsync batching and torn-tail
  repair;
* :mod:`repro.store.snapshot` — periodic compact snapshots of every
  posted query's ``QueryStorage`` record plus WAL segment GC;
* :mod:`repro.store.commitment` — a blake2b hash chain over appended
  records whose (head, count) pair rides submission acks and the
  ``MSG_GET_COMMITMENT`` wire op, so queriers/TDSs detect rollback;
* :mod:`repro.store.recovery` — snapshot + WAL replay on
  ``repro serve --data-dir`` startup, idempotent against the journaled
  watermark/ahead-set dedup state.

Trust boundary: everything in this package is ``ssi``-role under the
privacy lint — only ciphertext blobs, sizes, tags and paper-sanctioned
cleartext ever reach disk.
"""

from __future__ import annotations

from repro.store.commitment import GENESIS_HEAD, Commitment, CommitmentChain
from repro.store.recovery import DurableStore, RecoveredState, verify_data_dir
from repro.store.wal import WalWriter, scan_segments

__all__ = [
    "GENESIS_HEAD",
    "Commitment",
    "CommitmentChain",
    "DurableStore",
    "RecoveredState",
    "WalWriter",
    "scan_segments",
    "verify_data_dir",
]
