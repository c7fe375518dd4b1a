"""Noise-based protocol tests: Rnf_Noise and C_Noise (§4.3)."""

from collections import Counter

import pytest

from repro.exceptions import ProtocolError
from repro.net.frames import QueryMeta

from .conftest import DISTRICTS, district_histogram, run_protocol, sorted_rows


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
DOMAIN = [(d,) for d in DISTRICTS]
#: what every device holds: its values are the domain fakes come from
HISTOGRAM = district_histogram()


class TestRnfNoiseCorrectness:
    @pytest.mark.parametrize("nf", [0, 1, 5])
    def test_matches_reference(self, deployment, nf):
        rows, __ = run_protocol(
            deployment, QueryMeta("rnf_noise", {"nf": nf}), GROUP_SQL, histogram=HISTOGRAM
        )
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    def test_avg_with_having(self, deployment):
        sql = (
            "SELECT C.district, AVG(P.cons) AS a FROM Power P, Consumer C "
            "WHERE C.cid = P.cid GROUP BY C.district "
            "HAVING COUNT(DISTINCT C.cid) > 2"
        )
        rows, __ = run_protocol(
            deployment, QueryMeta("rnf_noise", {"nf": 2}), sql, histogram=HISTOGRAM
        )
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_covering_result_inflated_by_nf(self, deployment):
        __, driver = run_protocol(
            deployment, QueryMeta("rnf_noise", {"nf": 3}), GROUP_SQL, histogram=HISTOGRAM
        )
        # every TDS holds 1 matching row → (nf+1) tuples each
        assert driver.stats.tuples_collected == len(deployment.tds_list) * 4

    def test_no_distribution_rejected(self, deployment):
        """The domain fakes are drawn from is the discovered
        distribution's value set: without one a device cannot collect."""
        with pytest.raises(ProtocolError, match="discovered distribution"):
            run_protocol(deployment, "rnf_noise", GROUP_SQL)


class TestCNoiseCorrectness:
    def test_matches_reference(self, deployment):
        rows, __ = run_protocol(
            deployment, "c_noise", GROUP_SQL, histogram=HISTOGRAM
        )
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    def test_expansion_is_domain_cardinality(self, deployment):
        __, driver = run_protocol(
            deployment, "c_noise", GROUP_SQL, histogram=HISTOGRAM
        )
        assert driver.stats.tuples_collected == len(deployment.tds_list) * len(DOMAIN)

    def test_sum_correct_despite_fakes(self, deployment):
        sql = "SELECT district, SUM(cid) AS s FROM Consumer GROUP BY district"
        rows, __ = run_protocol(deployment, "c_noise", sql, histogram=HISTOGRAM)
        assert rows == sorted_rows(deployment.reference_answer(sql))


class TestNoiseSecurity:
    def _tag_counts(self, deployment):
        query_id = next(iter(deployment.ssi._storage))
        return deployment.ssi.observer.tag_frequencies(query_id)

    def test_cnoise_tag_distribution_exactly_flat(self, deployment):
        """C_Noise guarantee: the SSI-visible tag distribution is uniform,
        whatever the true distribution (§4.3)."""
        run_protocol(deployment, "c_noise", GROUP_SQL, histogram=HISTOGRAM)
        counts = self._tag_counts(deployment)
        assert len(counts) == len(DOMAIN)
        assert len(set(counts.values())) == 1

    def test_rnf_zero_noise_reveals_distribution(self, deployment):
        """nf = 0 degenerates to bare Det_Enc: the SSI sees the *true*
        group sizes — the exposure the noise exists to prevent."""
        run_protocol(deployment, QueryMeta("rnf_noise", {"nf": 0}), GROUP_SQL, histogram=HISTOGRAM)
        counts = self._tag_counts(deployment)
        true_distribution = Counter(
            row["n"] for row in deployment.reference_answer(GROUP_SQL)
        )
        assert Counter(counts.values()) == true_distribution

    def test_rnf_large_noise_flattens(self, deployment):
        run_protocol(
            deployment, QueryMeta("rnf_noise", {"nf": 50}), GROUP_SQL, histogram=HISTOGRAM
        )
        counts = self._tag_counts(deployment)
        values = sorted(counts.values())
        assert values[-1] / values[0] < 1.5  # fake distribution dominates

    def test_payloads_remain_ndet_encrypted(self, deployment):
        """Only the grouping tag is deterministic; tuple payloads stay
        probabilistic (Ā_G under nDet_Enc, Fig. 5)."""
        run_protocol(deployment, "c_noise", GROUP_SQL, histogram=HISTOGRAM)
        query_id = next(iter(deployment.ssi._storage))
        sizes = deployment.ssi.observer.payload_size_frequencies(query_id)
        assert len(sizes) == 1  # uniform padded size, nothing else to read
