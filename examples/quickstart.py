"""Quickstart: a private GROUP BY over 30 Trusted Data Servers.

Builds a small smart-meter population, runs the paper's most secure
protocol (S_Agg) end-to-end — real encryption, untrusted SSI in the
middle — and shows that the querier gets the right answer while the SSI
saw nothing but ciphertext.

Run with:  python examples/quickstart.py
"""

import random

from repro import Deployment, ProtocolDriver, smart_meter_factory

NUM_TDS = 30
SQL = "SELECT district, AVG(cons) AS avg_cons, COUNT(*) AS meters " \
      "FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY district"


def main() -> None:
    # 1. Provision a population: 30 secure tokens, one household each.
    deployment = Deployment.build(
        NUM_TDS,
        smart_meter_factory(num_districts=4),
        tables=["Power", "Consumer"],
        seed=2024,
    )

    # 2. The querier holds k1 only; its credential is signed by the
    #    authority; the SSI holds no keys at all.
    querier = deployment.make_querier(subject="energy-provider")

    # 3. Post the encrypted query to the SSI's global querybox.
    envelope = querier.make_envelope(SQL)
    deployment.ssi.post_query(envelope)

    # 4. Run S_Agg: collection -> iterative aggregation -> filtering.
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.connected_tds(0.5),  # 50% of TDSs online
        rng=random.Random(7),
        meta="s_agg",
    )
    driver.execute(envelope)

    # 5. Download and decrypt the result.
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
    rows.sort(key=lambda r: r["district"])

    print(f"Query: {SQL}\n")
    print(f"{'district':>14} | {'avg cons (kWh)':>14} | {'meters':>6}")
    print("-" * 42)
    for row in rows:
        print(f"{row['district']:>14} | {row['avg_cons']:>14.1f} | {row['meters']:>6}")

    # 6. Verify against the plaintext ground truth (test-only oracle).
    #    AVG is merged as (sum, count) partials; summation order differs
    #    from the centralized run, so compare floats with a tolerance.
    reference = sorted(
        deployment.reference_answer(SQL), key=lambda r: r["district"]
    )
    for got, want in zip(rows, reference):
        assert got["district"] == want["district"]
        assert got["meters"] == want["meters"]
        assert abs(got["avg_cons"] - want["avg_cons"]) < 1e-9 * want["avg_cons"]
    print("\n✓ matches the plaintext reference answer")

    # 7. What did the untrusted SSI actually see?
    observer = deployment.ssi.observer
    tags = observer.tag_frequencies(envelope.query_id)
    sizes = observer.payload_size_frequencies(envelope.query_id)
    print(f"✓ SSI observed {observer.distinct_payloads_seen(envelope.query_id)} "
          f"opaque payloads, {len(tags)} grouping tags (S_Agg: zero), "
          f"{len(sizes)} payload size class(es)")
    print(f"✓ {driver.stats.aggregation_rounds} aggregation rounds, "
          f"{len(driver.stats.participants)} TDSs participated")


if __name__ == "__main__":
    main()
