"""Key lifecycle integration: rotation of k2 between and within queries."""

import random

import pytest

from repro.exceptions import DecryptionError
from repro.protocols import Deployment, ProtocolDriver
from repro.workloads import smart_meter_factory

from ..protocols.conftest import run_protocol, sorted_rows


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


@pytest.fixture
def deployment():
    return Deployment.build(
        12, smart_meter_factory(num_districts=3),
        tables=["Power", "Consumer"], seed=31,
    )


class TestRotation:
    def test_query_works_after_rotation(self, deployment):
        """Rotating k2 (footnote 7: keys 'may change over time') must not
        break subsequent queries: every TDS picks up the new version."""
        deployment.provisioner.rotate_k2()
        rows, __ = run_protocol(deployment, "s_agg", GROUP_SQL)
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    def test_multiple_rotations(self, deployment):
        for __ in range(3):
            deployment.provisioner.rotate_k2()
        rows, __ = run_protocol(deployment, "s_agg", GROUP_SQL)
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    def test_old_ciphertexts_unreadable_under_new_key(self, deployment):
        """Material encrypted before a rotation does not decrypt under the
        new current key (forward isolation of key epochs)."""
        querier = deployment.make_querier()
        envelope = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(envelope)
        tds = deployment.tds_list[0]
        old_tuples = list(tds.collect_block(envelope, "s_agg").tuples())
        deployment.provisioner.rotate_k2()
        with pytest.raises(DecryptionError):
            tds._k2_cipher().decrypt(old_tuples[0].payload)

    def test_old_version_still_retrievable(self, deployment):
        """The ring keeps old versions so in-flight data can be handled by
        explicitly selecting the right epoch."""
        bundle = deployment.provisioner.bundle_for_tds()
        before = bundle.k2.current.material
        deployment.provisioner.rotate_k2()
        assert bundle.k2.get(0).material == before
        assert bundle.k2.current.material != before

    def test_mid_query_rotation_breaks_cleanly(self, deployment):
        """Rotating k2 *between* collection and aggregation makes old
        payloads unreadable — the deployment must schedule rotations at
        query boundaries, and the failure mode is a clean DecryptionError,
        never silent corruption."""
        querier = deployment.make_querier()
        envelope = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(envelope)
        driver = ProtocolDriver(
            deployment.ssi, deployment.tds_list, deployment.tds_list,
            random.Random(0), "s_agg",
        )
        driver.collect(envelope)
        deployment.provisioner.rotate_k2()
        with pytest.raises(DecryptionError):
            driver.process(envelope)
