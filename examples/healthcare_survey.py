"""Healthcare scenario (§2.3): PCEHRs in seldom-connected secure tokens.

Two-stage epidemic alert, exactly the paper's motivating example:

1. a privacy-preserving surveillance query counts flu cases per state
   (Group By, no individual ever identified);
2. if Tennessee crosses the threshold, an *identifying* query — allowed
   because the concerned individuals consented (role-based policy) —
   selects who should receive the alert (older than 80, in Memphis).

Tokens are rarely online, so the run is replayed on a simulated timeline
with a 5 % duty cycle: the answer is identical, only the latency grows —
"the challenge is not on the overall response time, but rather to show
that the query computation is tractable" (§2.3).

Run with:  python examples/healthcare_survey.py
"""

import random

from repro import Deployment, ProtocolDriver, pcehr_factory
from repro.simulation import duty_cycle, run_simulated
from repro.tds.access_control import AccessPolicy
from repro.workloads import ALERT_QUERY, FLU_SURVEILLANCE_QUERY

NUM_PATIENTS = 80
FLU_THRESHOLD = 5


def main() -> None:
    # Health-ministry policy: surveillance role may aggregate over any
    # column; the alert service may only read pid/age/city of consenting
    # patients (modelled as the alert role's column grant).
    policy = (
        AccessPolicy()
        .grant("surveillance", "Patient", aggregate_only=True)
        .grant("alert-service", "Patient", columns=["pid", "age", "city"])
    )
    deployment = Deployment.build(
        NUM_PATIENTS,
        pcehr_factory(elderly_fraction=0.3),
        tables=["Patient"],
        seed=4,
        policy=policy,
    )

    # ---- stage 1: anonymous surveillance (S_Agg) -----------------------
    ministry = deployment.make_querier(
        subject="health-ministry", roles=["surveillance"]
    )
    envelope = ministry.make_envelope(FLU_SURVEILLANCE_QUERY)
    deployment.ssi.post_query(envelope)
    ProtocolDriver(
        deployment.ssi, deployment.tds_list, deployment.tds_list,
        random.Random(0), "s_agg",
    ).execute(envelope)
    counts = ministry.decrypt_result(
        deployment.ssi.fetch_result(envelope.query_id)
    )
    print(FLU_SURVEILLANCE_QUERY)
    tennessee_cases = 0
    for row in sorted(counts, key=lambda r: r["state"]):
        print(f"  {row['state']:>10}: {row['flu_cases']} flu cases")
        if row["state"] == "Tennessee":
            tennessee_cases = row["flu_cases"]

    # ---- stage 2: consent-based identifying alert ----------------------
    if tennessee_cases >= FLU_THRESHOLD:
        print(f"\nTennessee ≥ {FLU_THRESHOLD} cases -> issuing alert query")
        alert_service = deployment.make_querier(
            subject="alert-service", roles=["alert-service"]
        )
        alert_envelope = alert_service.make_envelope(ALERT_QUERY)
        deployment.ssi.post_query(alert_envelope)
        ProtocolDriver(
            deployment.ssi, deployment.tds_list, deployment.tds_list,
            random.Random(1), "basic",
        ).execute(alert_envelope)
        recipients = alert_service.decrypt_result(
            deployment.ssi.fetch_result(alert_envelope.query_id)
        )
        pids = sorted(r["pid"] for r in recipients)
        print(f"  alert recipients (consenting, >80, Memphis): {pids}")
    else:
        print(f"\nTennessee below threshold ({tennessee_cases} < {FLU_THRESHOLD}); "
              f"no identifying query issued")

    # ---- the same surveillance on seldom-connected tokens --------------
    deployment2 = Deployment.build(
        NUM_PATIENTS, pcehr_factory(elderly_fraction=0.3),
        tables=["Patient"], seed=4, policy=policy,
    )
    schedule = duty_cycle(
        [tds.tds_id for tds in deployment2.tds_list],
        random.Random(3),
        horizon=7 * 24 * 3600,  # a week
        duty=0.05,              # online 5% of the time (doctor visits)
        session_length=600,     # ten-minute sessions
    )
    run = run_simulated(
        deployment2, "s_agg", FLU_SURVEILLANCE_QUERY,
        schedule=schedule, seed=0, roles=["surveillance"],
    )
    assert sorted(map(str, run.rows)) == sorted(map(str, counts))
    print(f"\nWith tokens online 5% of the time (simulated):")
    print(f"  collection phase : {run.report.collection_duration / 3600:8.2f} h")
    print(f"  aggregation (TQ) : {run.report.t_q / 3600:8.2f} h")
    print(f"  mean TDS busy    : {run.report.t_local_mean():8.4f} s")
    print("  -> identical answer; latency, not tractability, is the cost")


if __name__ == "__main__":
    main()
