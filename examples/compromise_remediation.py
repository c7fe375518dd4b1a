"""Threat-model extension (§8): detect a cheating TDS, revoke it, rotate k2.

The paper's trust story assumes tamper-resistant TDSs; its future work
asks what happens when "a small number of compromised TDSs" exist.  This
example runs the full remediation pipeline this library implements:

1. a compromised worker returns a *tampered* partial aggregation
   (dropping half its partition);
2. randomized spot-check verification recomputes the partition on an
   honest TDS and flags the cheater;
3. the key provider revokes the cheater and broadcasts a fresh k2 to the
   surviving devices — whatever the cheater exfiltrated no longer
   decrypts anything from the new epoch;
4. the leakage analyzer quantifies what the cheater saw before detection.

Run with:  python examples/compromise_remediation.py
"""

import random

from repro import Deployment, ProtocolDriver, smart_meter_factory
from repro.core.messages import EncryptedTupleBlock, Partition
from repro.crypto.broadcast import (
    BroadcastKeyDistributor,
    DeviceKeyStore,
    receive_broadcast,
)
from repro.exceptions import CryptoError
from repro.exposure import analyze_trace_leakage, expected_leak_fraction
from repro.protocols import SpotChecker

SQL = "SELECT district, SUM(cons) AS s FROM Power P, Consumer C " \
      "WHERE C.cid = P.cid GROUP BY district"


def main() -> None:
    deployment = Deployment.build(
        20, smart_meter_factory(num_districts=3),
        tables=["Power", "Consumer"], seed=12,
    )
    querier = deployment.make_querier()
    envelope = querier.make_envelope(SQL)
    deployment.ssi.post_query(envelope)
    statement = deployment.tds_list[0].open_query(envelope)

    # --- 1. a compromised worker tampers with a partition ---------------
    block = EncryptedTupleBlock.concat(
        [tds.collect_block(envelope, "s_agg") for tds in deployment.tds_list]
    )
    partition = Partition(0, block)
    half = len(block) // 2
    cheater = deployment.tds_list[7]
    tampered = cheater.aggregate_partition(
        statement, Partition(0, block.gather(range(half)))
    )
    print(f"worker {cheater.tds_id} returned a partial over only "
          f"{half}/{len(block)} tuples")

    # --- 2. spot-check verification flags it ----------------------------
    verifier = deployment.tds_list[2]
    checker = SpotChecker(verifier, audit_rate=1.0, rng=random.Random(0))
    verdict = checker.maybe_audit(statement, partition, tampered, cheater.tds_id)
    print(f"spot check by {verifier.tds_id}: "
          f"{'TAMPERING DETECTED' if verdict is False else 'ok'}; "
          f"flagged = {checker.flagged}")
    print(f"  (a worker tampering 30% of the time survives 10 audits with "
          f"probability {1 - checker.detection_probability(0.3, 10):.1%})")

    # --- 3. revoke + rotate via broadcast -------------------------------
    rng = random.Random(1)
    store = DeviceKeyStore(rng)
    for tds in deployment.tds_list:
        store.enroll(tds.tds_id)
    distributor = BroadcastKeyDistributor(store, rng)
    for flagged in checker.flagged:
        distributor.revoke(flagged)
    new_k2, broadcast = distributor.broadcast_new_key()
    received = 0
    locked_out = 0
    for tds in deployment.tds_list:
        try:
            key = receive_broadcast(tds.tds_id, store.device_key(tds.tds_id), broadcast)
            assert key == new_k2
            received += 1
        except CryptoError:
            locked_out += 1
    print(f"k2 rotated (epoch {broadcast.epoch}): {received} devices updated, "
          f"{locked_out} revoked device locked out of the new epoch")

    # --- 4. what did the cheater see before detection? ------------------
    driver = ProtocolDriver(
        deployment.ssi, deployment.tds_list, deployment.tds_list,
        random.Random(3), "s_agg",
    )
    envelope2 = querier.make_envelope(SQL)
    deployment.ssi.post_query(envelope2)
    driver.execute(envelope2)
    workers = sorted({e.tds_id for e in driver.trace.events_in("aggregation", 0)})
    compromised_worker = workers[0]  # suppose the cheater landed in round 0
    report = analyze_trace_leakage(driver.trace, [compromised_worker])
    print(f"\nbefore detection, one compromised worker among {len(workers)} "
          f"decrypted {report.raw_fraction:.1%} of the covering result "
          f"(uniform-assignment expectation "
          f"{expected_leak_fraction(1, len(workers)):.1%})")
    print("after revocation its key material is dead weight.")


if __name__ == "__main__":
    main()
