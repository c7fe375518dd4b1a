"""The paper's smart-metering scenario (§2.3), full pipeline.

The energy distribution company wants the mean consumption of detached
houses per district, only for districts with enough respondents, stopping
after a bounded number of answers:

    SELECT AVG(Cons) FROM Power P, Consumer C
    WHERE C.accomodation='detached house' AND C.cid = P.cid
    GROUP BY C.district
    HAVING COUNT(DISTINCT C.cid) > <threshold>
    SIZE <bound>

The company must never see raw readings (at 1 Hz granularity, appliance
signatures reveal the inhabitants' activities — paper footnote 6), so the
TDS policy grants it *aggregate-only* access.  This example runs the
query with ED_Hist — the protocol §6.4 recommends for this setting — and
demonstrates that a raw SELECT by the same company is refused by every
meter.

Run with:  python examples/smart_metering.py
"""

import random

from repro import Deployment, ProtocolDriver, build_histogram, smart_meter_factory
from repro.exceptions import AccessDeniedError
from repro.protocols import SMART_METER_PRIORITIES, recommend_protocol
from repro.tds.access_control import AccessPolicy

NUM_METERS = 60
THRESHOLD = 3

AGGREGATE_SQL = (
    "SELECT AVG(P.cons) AS avg_cons FROM Power P, Consumer C "
    "WHERE C.accomodation = 'detached house' AND C.cid = P.cid "
    f"GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > {THRESHOLD} "
    "SIZE 50000"
)
RAW_SQL = "SELECT cons FROM Power"


def main() -> None:
    # The distributor's policy: aggregate-only on both tables.
    policy = (
        AccessPolicy()
        .grant("energy-provider", "Power", aggregate_only=True)
        .grant("energy-provider", "Consumer", aggregate_only=True)
    )
    deployment = Deployment.build(
        NUM_METERS,
        smart_meter_factory(num_districts=5, readings_per_meter=3),
        tables=["Power", "Consumer"],
        seed=99,
        policy=policy,
    )
    company = deployment.make_querier(
        subject="distribution-company", roles=["energy-provider"]
    )

    # §6.4's decision procedure, for the record: an always-on metering
    # platform weights global computation capacity highest -> S_Agg;
    # this example still runs ED_Hist to showcase the histogram pipeline.
    recommendation = recommend_protocol(SMART_METER_PRIORITIES)
    print(f"(§6.4 selector would recommend {recommendation.protocol} "
          f"for a metering platform)\n")

    # --- pre-protocol: discover the district distribution (ED_Hist) ----
    # In production this is refreshed rarely; it is itself a private
    # S_Agg count query (§4.4).  The discovery querier uses the company's
    # aggregate-only role.
    histogram = build_histogram(
        deployment, "Consumer", "district", num_buckets=2,
        roles=["energy-provider"],
    )
    print(f"discovered distribution -> {histogram.bucket_count()} equi-depth "
          f"buckets, collision factor h = {histogram.collision_factor():.1f}, "
          f"skew = {histogram.skew():.2f}")

    # --- the aggregate query, allowed ----------------------------------
    envelope = company.make_envelope(AGGREGATE_SQL)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.connected_tds(0.3),
        rng=random.Random(1),
        meta="ed_hist",
        histogram=histogram,
    )
    driver.execute(envelope)
    rows = company.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
    rows.sort(key=lambda r: str(r))

    print(f"\n{AGGREGATE_SQL}\n")
    if rows:
        for row in rows:
            print(f"  avg detached-house consumption: {row['avg_cons']:.1f} kWh")
    reference = deployment.reference_answer(AGGREGATE_SQL)
    got = sorted(row["avg_cons"] for row in rows)
    want = sorted(row["avg_cons"] for row in reference)
    assert len(got) == len(want)
    assert all(abs(a - b) < 1e-9 * max(1.0, abs(b)) for a, b in zip(got, want))
    print(f"\n✓ {len(rows)} district(s) passed the HAVING threshold "
          f"(> {THRESHOLD} distinct respondents); result matches plaintext oracle")

    # --- the raw query, refused by every meter -------------------------
    raw_envelope = company.make_envelope(RAW_SQL)
    refused = 0
    for meter in deployment.tds_list[:10]:
        try:
            meter.open_query(raw_envelope)
        except AccessDeniedError:
            refused += 1
    print(f"✓ raw 'SELECT cons FROM Power' refused by {refused}/10 meters "
          f"(aggregate-only policy enforced inside the secure hardware)")

    # --- what the SSI learned -------------------------------------------
    tags = deployment.ssi.observer.tag_frequencies(envelope.query_id)
    counts = sorted(tags.values())
    print(f"✓ SSI saw {len(tags)} opaque bucket tags (counts {counts}); the "
          f"buckets are equi-depth w.r.t. the *population* distribution, so "
          f"individual district frequencies stay hidden behind h = "
          f"{histogram.collision_factor():.1f} colliding districts per tag")


if __name__ == "__main__":
    main()
