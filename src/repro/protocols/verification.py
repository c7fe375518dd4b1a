"""Spot-check verification of aggregation work (§8 threat extension).

§2.2 argues a *malicious* SSI "is likely to be detected"; the same
argument extends to a compromised TDS that tampers with partial
aggregations instead of merely leaking.  Because every aggregation step
is deterministic given the partition content (the Ω ⊕ algebra is
order-insensitive per group), any honest TDS can **recompute** a suspect
partition and compare results — no trust in the original worker needed.

:func:`verify_partition` implements the spot check; :class:`SpotChecker`
drives randomized auditing at a configurable rate and reports offenders.
Ciphertexts cannot be compared directly (nDet_Enc is probabilistic), so
comparison happens on the decrypted, canonicalized partial — inside the
verifying TDS's trusted boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.messages import EncryptedTupleBlock, Partition
from repro.core.wire import decode_frame
from repro.sql.ast import SelectStatement
from repro.sql.partial import PartialAggregation
from repro.tds.node import TrustedDataServer


def _canonical(statement: SelectStatement, payload_portable: list[Any]) -> dict:
    """Canonical form of a partial aggregation for comparison: group key →
    sorted portable states."""
    partial = PartialAggregation.from_portable(statement, payload_portable)
    return {
        key: [state.to_portable() for state in states]
        for key, states in sorted(partial.groups().items(), key=lambda kv: str(kv[0]))
    }


def verify_partition(
    verifier: TrustedDataServer,
    statement: SelectStatement,
    partition: Partition,
    claimed: EncryptedTupleBlock,
) -> bool:
    """Recompute *partition* on *verifier* and compare with *claimed*,
    the block of one partial the worker sent back.

    Returns True when the claimed output is consistent with an honest
    execution.  The verifier decrypts both its own recomputation and the
    claimed output with k2 — entirely inside trusted hardware."""
    if len(claimed) != 1:
        return False
    recomputed = verifier.aggregate_partition(statement, partition)
    cipher = verifier._k2_cipher()
    kind_r, body_r = decode_frame(cipher.decrypt(recomputed.payloads))
    kind_c, body_c = decode_frame(cipher.decrypt(claimed.payloads))
    if kind_r != "partial" or kind_c != "partial":
        return False
    return _canonical(statement, body_r) == _canonical(statement, body_c)


@dataclass
class SpotChecker:
    """Randomized auditing: re-verify a fraction of processed partitions.

    A compromised worker tampering with a fraction t of its partitions is
    caught per partition with probability ``audit_rate`` — after k audited
    tampered partitions the detection probability is 1 − (1 − t·r)^k,
    which is what makes large-scale tampering irrational (§2.2's
    "irreversible political/financial damage" argument, now enforced)."""

    verifier: TrustedDataServer
    audit_rate: float
    rng: random.Random
    flagged: list[str] = field(default_factory=list)
    audited: int = 0

    def maybe_audit(
        self,
        statement: SelectStatement,
        partition: Partition,
        claimed: EncryptedTupleBlock,
        worker_id: str,
    ) -> bool | None:
        """Audit with probability ``audit_rate``.

        Returns True/False for an audited partition (valid/tampered,
        flagging the worker when tampered), None when skipped."""
        if self.rng.random() >= self.audit_rate:
            return None
        self.audited += 1
        valid = verify_partition(self.verifier, statement, partition, claimed)
        if not valid:
            self.flagged.append(worker_id)
        return valid

    def detection_probability(self, tamper_rate: float, audits: int) -> float:
        """Analytic detection probability after *audits* audited partitions
        from a worker tampering with *tamper_rate* of its work."""
        per_audit = tamper_rate
        return 1.0 - (1.0 - per_audit) ** audits

    def audit_and_correct(
        self,
        statement: SelectStatement,
        partition: Partition,
        claimed: EncryptedTupleBlock,
        worker_id: str,
    ) -> EncryptedTupleBlock:
        """Audit (always) and return a trustworthy partial: the claimed one
        when it verifies, the verifier's own recomputation otherwise.

        This is the correction path a driver takes once a worker is under
        suspicion: the query completes with the right answer even while the
        tamperer is being flagged."""
        self.audited += 1
        if verify_partition(self.verifier, statement, partition, claimed):
            return claimed
        self.flagged.append(worker_id)
        return self.verifier.aggregate_partition(statement, partition)
