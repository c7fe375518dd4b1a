"""Property-based end-to-end check: every protocol equals the reference
executor on randomized populations and randomized aggregate queries."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.frames import QueryMeta
from repro.protocols import Deployment, ProtocolDriver
from repro.sql.schema import Database, schema
from repro.tds.histogram import EquiDepthHistogram


AGGREGATES = ["COUNT(*)", "SUM(x)", "AVG(x)", "MIN(x)", "MAX(x)", "MEDIAN(x)"]


def build_deployment(values, seed):
    """One TDS per (g, x) pair."""

    def factory(index, rng):
        db = Database()
        t = db.create_table(schema("T", g="TEXT", x="INTEGER"))
        g, x = values[index]
        t.insert({"g": g, "x": x})
        return db

    return Deployment.build(len(values), factory, tables=["T"], seed=seed)


def approx_rows(rows):
    """Order-insensitive, float-tolerant canonical form."""
    canonical = []
    for row in rows:
        canonical.append(
            tuple(
                (k, round(v, 6) if isinstance(v, float) else v)
                for k, v in sorted(row.items())
            )
        )
    return sorted(canonical, key=str)


population = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(-20, 20)),
    min_size=2,
    max_size=12,
)


@given(population, st.sampled_from(AGGREGATES), st.randoms(use_true_random=False))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sagg_equals_reference(values, aggregate, rnd):
    sql = f"SELECT g, {aggregate} AS v FROM T GROUP BY g"
    deployment = build_deployment(values, seed=7)
    querier = deployment.make_querier()
    envelope = querier.make_envelope(sql)
    deployment.ssi.post_query(envelope)
    ProtocolDriver(
        deployment.ssi, deployment.tds_list, deployment.tds_list,
        random.Random(rnd.randint(0, 1 << 30)), "s_agg",
    ).execute(envelope)
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
    assert approx_rows(rows) == approx_rows(deployment.reference_answer(sql))


@given(population, st.integers(0, 3))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_noise_protocols_equal_reference(values, nf):
    sql = "SELECT g, SUM(x) AS s, COUNT(*) AS n FROM T GROUP BY g"
    # the discovered distribution: its values are the noise domain
    histogram = EquiDepthHistogram.from_distribution({"a": 1, "b": 1, "c": 1}, 1)
    for meta in [QueryMeta("rnf_noise", {"nf": nf}), QueryMeta("c_noise")]:
        deployment = build_deployment(values, seed=9)
        querier = deployment.make_querier()
        envelope = querier.make_envelope(sql)
        deployment.ssi.post_query(envelope)
        ProtocolDriver(
            deployment.ssi, deployment.tds_list, deployment.tds_list,
            random.Random(11), meta, histogram=histogram,
        ).execute(envelope)
        rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
        assert approx_rows(rows) == approx_rows(deployment.reference_answer(sql))


@given(population, st.integers(1, 3))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ed_hist_equals_reference(values, num_buckets):
    sql = "SELECT g, SUM(x) AS s FROM T GROUP BY g"
    deployment = build_deployment(values, seed=5)
    frequencies = {}
    for g, __ in values:
        frequencies[g] = frequencies.get(g, 0) + 1
    histogram = EquiDepthHistogram.from_distribution(frequencies, num_buckets)
    querier = deployment.make_querier()
    envelope = querier.make_envelope(sql)
    deployment.ssi.post_query(envelope)
    ProtocolDriver(
        deployment.ssi, deployment.tds_list, deployment.tds_list,
        random.Random(13), "ed_hist", histogram=histogram,
    ).execute(envelope)
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
    assert approx_rows(rows) == approx_rows(deployment.reference_answer(sql))
