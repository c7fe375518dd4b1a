"""End-to-end frequency attack against live protocol runs.

The decisive security tests: an honest-but-curious SSI replays its
observation log through the rank-matching attacker and the paper's claims
must hold on real ciphertext dataflows.
"""

import random
from collections import Counter

import pytest

from repro.exposure.attack import FrequencyAttacker, prior_from_rows
from repro.net.frames import QueryMeta
from repro.protocols import Deployment, ProtocolDriver
from repro.sql.schema import Database, schema
from repro.tds.histogram import EquiDepthHistogram


DISTRICT_WEIGHTS = {"center": 10, "north": 4, "south": 2, "east": 1, "west": 1}


def skewed_factory():
    """A deliberately skewed district distribution (frequency attacks need
    skew to bite)."""
    assignment = []
    for district, weight in DISTRICT_WEIGHTS.items():
        assignment.extend([district] * weight)

    def factory(index, rng):
        db = Database()
        consumer = db.create_table(schema("Consumer", cid="INTEGER", district="TEXT"))
        consumer.insert({"cid": index, "district": assignment[index % len(assignment)]})
        return db

    return factory


@pytest.fixture
def deployment():
    return Deployment.build(36, skewed_factory(), tables=["Consumer"], seed=11)


SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
#: the discovered distribution every device holds; its values are the
#: domain the noise protocols draw fakes from
HISTOGRAM = EquiDepthHistogram.from_distribution(DISTRICT_WEIGHTS, 2)


def run(deployment, meta, **kwargs):
    querier = deployment.make_querier()
    envelope = querier.make_envelope(SQL)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.tds_list,
        rng=random.Random(5),
        meta=meta,
        **kwargs,
    )
    driver.execute(envelope)
    return envelope.query_id


def ground_truth_tags(deployment, query_id):
    """God's-eye mapping tag → district, reconstructed with k2 (which the
    SSI does NOT have — this is for scoring only)."""
    from repro.crypto.det import DeterministicCipher
    from repro.core.codec import encode

    k2 = deployment.provisioner.bundle_for_tds().k2.current.material
    det = DeterministicCipher(k2)
    truth = {}
    for district in DISTRICT_WEIGHTS:
        truth[det.encrypt(encode([district]))] = district
    return truth


def attacker_prior(deployment):
    rows = deployment.reference_answer(SQL)
    return {row["district"]: row["n"] for row in rows}


class TestAttackOutcomes:
    def test_no_noise_det_enc_attack_succeeds(self, deployment):
        """nf = 0: the SSI recovers the district of (almost) every tuple."""
        query_id = run(deployment, QueryMeta("rnf_noise", {"nf": 0}), histogram=HISTOGRAM)
        attacker = FrequencyAttacker(attacker_prior(deployment))
        outcome = attacker.evaluate(
            deployment.ssi.observer, query_id, ground_truth_tags(deployment, query_id)
        )
        assert outcome.attack_surface == len(DISTRICT_WEIGHTS)
        assert outcome.accuracy > 0.8
        assert outcome.succeeded(threshold=0.8)

    def test_s_agg_no_attack_surface(self, deployment):
        """S_Agg: nothing tagged, nothing to attack."""
        query_id = run(deployment, "s_agg")
        attacker = FrequencyAttacker(attacker_prior(deployment))
        outcome = attacker.evaluate(deployment.ssi.observer, query_id, {})
        assert outcome.attack_surface == 0
        assert outcome.accuracy == 0.0
        assert not outcome.succeeded()

    def test_c_noise_attack_degenerates_to_chance(self, deployment):
        """C_Noise: flat tag distribution → rank matching is guessing."""
        query_id = run(deployment, "c_noise", histogram=HISTOGRAM)
        attacker = FrequencyAttacker(attacker_prior(deployment))
        truth = ground_truth_tags(deployment, query_id)
        outcome = attacker.evaluate(deployment.ssi.observer, query_id, truth)
        # All tags have identical frequency: alignment is arbitrary.  The
        # attacker cannot do meaningfully better than 1/|domain| per tag,
        # and (crucially) can never *know* which guesses are right.
        frequencies = deployment.ssi.observer.tag_frequencies(query_id)
        assert len(set(frequencies.values())) == 1
        assert not outcome.succeeded(threshold=0.9)

    def test_ed_hist_attack_fails(self, deployment):
        """ED_Hist: near-uniform bucket tags; tag↔district mapping is not
        even well-defined (buckets hold several districts)."""
        freq = attacker_prior(deployment)
        hist = EquiDepthHistogram.from_distribution(freq, 2)
        query_id = run(deployment, "ed_hist", histogram=hist)
        frequencies = deployment.ssi.observer.tag_frequencies(query_id)
        assert len(frequencies) == 2
        counts = sorted(frequencies.values())
        assert counts[-1] <= counts[0] * 1.6  # nearly equi-depth

    def test_large_noise_degrades_attack(self, deployment):
        query_id = run(deployment, QueryMeta("rnf_noise", {"nf": 60}), histogram=HISTOGRAM)
        attacker = FrequencyAttacker(attacker_prior(deployment))
        truth = ground_truth_tags(deployment, query_id)
        outcome = attacker.evaluate(deployment.ssi.observer, query_id, truth)
        baseline_query = run(deployment, QueryMeta("rnf_noise", {"nf": 0}), histogram=HISTOGRAM)
        baseline = attacker.evaluate(
            deployment.ssi.observer, baseline_query, truth
        )
        assert outcome.accuracy <= baseline.accuracy


class TestPriorHelper:
    def test_prior_from_rows(self):
        rows = [{"d": "a"}, {"d": "a"}, {"d": "b"}]
        assert prior_from_rows(rows, "d") == Counter({"a": 2, "b": 1})
