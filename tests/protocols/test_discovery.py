"""Discovery protocol tests (§4.3 cardinality / §4.4 distribution)."""

from repro.protocols import build_histogram, discover_distribution

from .conftest import DISTRICTS


class TestDiscoverDistribution:
    def test_matches_true_frequencies(self, deployment):
        distribution = discover_distribution(deployment, "Consumer", "district")
        assert distribution == {d: 4 for d in DISTRICTS}

    def test_numeric_column(self, deployment):
        distribution = discover_distribution(deployment, "Consumer", "cid")
        assert len(distribution) == len(deployment.tds_list)
        assert all(count == 1 for count in distribution.values())


class TestDiscoverDomain:
    """The noise protocols' domain is the discovered histogram's values."""

    def test_sorted_distinct_values(self, deployment):
        domain = build_histogram(deployment, "Consumer", "district", 2).values()
        assert domain == sorted(DISTRICTS)

    def test_domain_cardinality(self, deployment):
        domain = build_histogram(deployment, "Consumer", "accomodation", 2).values()
        assert len(domain) == 2

    def test_values_in_discovered_order(self, deployment):
        # one order every process agrees on: by type name, then by str()
        for column in ("district", "cid"):
            distribution = discover_distribution(deployment, "Consumer", column)
            histogram = build_histogram(deployment, "Consumer", column, 2)
            assert histogram.values() == sorted(
                distribution, key=lambda v: (str(type(v)), str(v))
            )


class TestBuildHistogram:
    def test_histogram_covers_domain(self, deployment):
        histogram = build_histogram(deployment, "Consumer", "district", 2)
        covered = set()
        for bucket in histogram.buckets():
            covered |= bucket.values
        assert covered == set(DISTRICTS)

    def test_equi_depth_on_uniform_data(self, deployment):
        histogram = build_histogram(deployment, "Consumer", "district", 2)
        assert histogram.skew() == 1.0
