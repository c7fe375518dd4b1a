"""AdmissionController unit behaviour (no wire)."""

import pytest

from repro.exceptions import AdmissionError
from repro.ssi.admission import AdmissionController, AdmissionPolicy


def never_ready(_query_id: str) -> bool:
    return False


class TestAdmissionPolicy:
    def test_default_policy_enforces_nothing(self):
        policy = AdmissionPolicy()
        assert not policy.enforcing


class TestActiveQueryQuota:
    def test_unlimited_by_default(self):
        controller = AdmissionController()
        for i in range(50):
            controller.admit_query("alice", never_ready)
            controller.register_query(f"q{i}", "alice")

    def test_quota_breach_raises_with_retry_after(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active_queries=2, retry_after=0.25)
        )
        for i in range(2):
            controller.admit_query("alice", never_ready)
            controller.register_query(f"q{i}", "alice")
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit_query("alice", never_ready)
        assert excinfo.value.retry_after == 0.25

    def test_quota_is_per_subject(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active_queries=1)
        )
        controller.admit_query("alice", never_ready)
        controller.register_query("qa", "alice")
        # bob's quota is untouched by alice's query
        controller.admit_query("bob", never_ready)

    def test_published_queries_prune_lazily(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active_queries=1)
        )
        controller.admit_query("alice", never_ready)
        controller.register_query("q0", "alice")
        published = {"q0"}
        # the finished query no longer counts at the next admit
        controller.admit_query("alice", lambda qid: qid in published)
        controller.register_query("q1", "alice")
        with pytest.raises(AdmissionError):
            controller.admit_query("alice", lambda qid: qid in published)


class TestByteQuota:
    def test_charge_and_release(self):
        controller = AdmissionController(
            AdmissionPolicy(max_pending_bytes=100)
        )
        controller.register_query("q0", "alice")
        controller.charge("q0", 60)
        assert controller.pending_bytes("alice") == 60
        controller.release("q0", 60)
        assert controller.pending_bytes("alice") == 0

    def test_over_quota_charge_raises_and_charges_nothing(self):
        controller = AdmissionController(
            AdmissionPolicy(max_pending_bytes=100)
        )
        controller.register_query("q0", "alice")
        controller.charge("q0", 80)
        with pytest.raises(AdmissionError):
            controller.charge("q0", 30)
        assert controller.pending_bytes("alice") == 80

    def test_quota_spans_a_subjects_queries(self):
        controller = AdmissionController(
            AdmissionPolicy(max_pending_bytes=100)
        )
        controller.register_query("q0", "alice")
        controller.register_query("q1", "alice")
        controller.charge("q0", 70)
        with pytest.raises(AdmissionError):
            controller.charge("q1", 40)

    def test_release_never_goes_negative(self):
        controller = AdmissionController()
        controller.register_query("q0", "alice")
        controller.release("q0", 999)
        assert controller.pending_bytes("alice") == 0

