"""Per-querier admission control for the SSI.

The paper's SSI serves *many* queriers at once (§2.1, §6); nothing in the
protocols bounds how much of the SSI one querier may occupy.  This module
adds that bound, on exactly the cleartext the SSI legitimately holds: the
credential subject on every query envelope and the *sizes* of the opaque
submissions made to each query.  Two quotas per querier:

* **active queries** — posted and not yet published.  A post over quota
  answers ``ERR_ADMISSION`` with a retry-after hint; nothing is applied,
  so the client's retry (same idempotency key) is executed, not dropped.
* **in-flight bytes** — ciphertext bytes of that querier's queries the
  dispatcher is applying, charged before the apply and released after
  it.  A submission is applied in the call that accepted it, on one
  event loop, so no backlog forms: all this quota ever does is refuse
  one submission whose wire size alone exceeds it.

Trust boundary: this module is ssi-role.  It sees subjects (sanctioned
envelope cleartext), query ids and byte counts — never payload bytes or
plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import AdmissionError
from repro.obs import metrics as obs_metrics

_REJECTIONS = obs_metrics.REGISTRY.counter(
    "repro_ssi_admission_rejections_total",
    "Requests refused by admission control, by querier subject and quota.",
    ("querier", "reason"),
)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Quotas, per querier subject.

    ``0`` disables a quota (unlimited) — the default, so an SSI without
    an explicit policy behaves exactly as before this module existed."""

    max_active_queries: int = 0
    max_pending_bytes: int = 0
    retry_after: float = 0.05

    @property
    def enforcing(self) -> bool:
        return self.max_active_queries > 0 or self.max_pending_bytes > 0


class AdmissionController:
    """Track per-querier occupancy and enforce an :class:`AdmissionPolicy`.

    Active-query accounting is *lazy*: rather than hooking every path
    that can publish a result (the coordinator publishes internally), the
    controller re-counts a subject's registered queries against a
    ``result_ready`` predicate at the next admission decision and prunes
    the finished ones.  post_query is rare, so the O(queries-per-subject)
    recount never touches the submission hot path."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        #: query id -> posting querier's subject
        self._subjects: dict[str, str] = {}
        #: subject -> ids of its not-yet-pruned queries
        self._queries: dict[str, set[str]] = {}
        #: subject -> bytes charged and not yet released
        self._pending_bytes: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # active-query quota
    # ------------------------------------------------------------------ #
    def subject_of(self, query_id: str) -> str:
        return self._subjects.get(query_id, "")

    def admit_query(
        self, subject: str, result_ready: Callable[[str], bool]
    ) -> None:
        """Gate one post_query by *subject*.  Raises
        :class:`AdmissionError` when the subject already holds
        ``max_active_queries`` unfinished queries; *result_ready* is the
        predicate used to prune finished ones first."""
        limit = self.policy.max_active_queries
        if limit <= 0:
            return
        active = self._prune(subject, result_ready)
        if active >= limit:
            _REJECTIONS.labels(querier=subject, reason="query_quota").inc()
            raise AdmissionError(
                f"querier {subject!r} has {active} active queries "
                f"(quota {limit}); retry after a result publishes",
                retry_after=self.policy.retry_after,
            )

    def register_query(self, query_id: str, subject: str) -> None:
        """Record *query_id* as owned by *subject* (post succeeded)."""
        self._subjects[query_id] = subject
        self._queries.setdefault(subject, set()).add(query_id)

    def _prune(
        self, subject: str, result_ready: Callable[[str], bool]
    ) -> int:
        queries = self._queries.get(subject)
        if not queries:
            return 0
        finished = {qid for qid in queries if result_ready(qid)}
        queries -= finished
        return len(queries)

    # ------------------------------------------------------------------ #
    # in-flight-bytes quota (charged and released around each apply)
    # ------------------------------------------------------------------ #
    def charge(self, query_id: str, nbytes: int) -> None:
        """Charge *nbytes* of submitted ciphertext to the query's poster.
        Raises :class:`AdmissionError` when the charge would push the
        subject past ``max_pending_bytes`` (nothing is charged then)."""
        subject = self.subject_of(query_id)
        limit = self.policy.max_pending_bytes
        held = self._pending_bytes.get(subject, 0)
        if limit > 0 and held + nbytes > limit:
            _REJECTIONS.labels(querier=subject, reason="byte_quota").inc()
            raise AdmissionError(
                f"querier {subject!r} has {held} submission bytes in flight "
                f"(+{nbytes} would exceed quota {limit}); back off",
                retry_after=self.policy.retry_after,
            )
        self._pending_bytes[subject] = held + nbytes

    def release(self, query_id: str, nbytes: int) -> None:
        """Return *nbytes* of quota once the charged submission was
        applied (or its apply raised)."""
        subject = self.subject_of(query_id)
        self._pending_bytes[subject] = max(
            0, self._pending_bytes.get(subject, 0) - nbytes
        )

    def pending_bytes(self, subject: str) -> int:
        return self._pending_bytes.get(subject, 0)
