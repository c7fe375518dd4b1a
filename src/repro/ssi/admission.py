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

# --------------------------------------------------------------------- #
# instruments (per-querier label children; children are resolved once per
# subject and cached, PR 5's pre-resolved-child hot-path pattern)
# --------------------------------------------------------------------- #
_ACTIVE_QUERIES = obs_metrics.REGISTRY.gauge(
    "repro_ssi_active_queries",
    "Queries posted and not yet published, by querier subject.",
    ("querier",),
)
_REJECTIONS = obs_metrics.REGISTRY.counter(
    "repro_ssi_admission_rejections_total",
    "Requests refused by admission control, by querier subject and quota.",
    ("querier", "reason"),
)
_PENDING_BYTES = obs_metrics.REGISTRY.gauge(
    "repro_ssi_admission_pending_bytes",
    "Ciphertext bytes of a querier's submissions being applied.",
    ("querier",),
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
        # pre-resolved metric children, one per subject seen
        self._g_active: dict[str, obs_metrics.GaugeChild] = {}
        self._g_bytes: dict[str, obs_metrics.GaugeChild] = {}
        self._c_rejected: dict[tuple[str, str], obs_metrics.CounterChild] = {}

    # ------------------------------------------------------------------ #
    # metric children
    # ------------------------------------------------------------------ #
    def _active_gauge(self, subject: str) -> obs_metrics.GaugeChild:
        child = self._g_active.get(subject)
        if child is None:
            child = self._g_active[subject] = _ACTIVE_QUERIES.labels(
                querier=subject
            )
        return child

    def _bytes_gauge(self, subject: str) -> obs_metrics.GaugeChild:
        child = self._g_bytes.get(subject)
        if child is None:
            child = self._g_bytes[subject] = _PENDING_BYTES.labels(
                querier=subject
            )
        return child

    def _rejected(self, subject: str, reason: str) -> obs_metrics.CounterChild:
        key = (subject, reason)
        child = self._c_rejected.get(key)
        if child is None:
            child = self._c_rejected[key] = _REJECTIONS.labels(
                querier=subject, reason=reason
            )
        return child

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
            self._rejected(subject, "query_quota").inc()
            raise AdmissionError(
                f"querier {subject!r} has {active} active queries "
                f"(quota {limit}); retry after a result publishes",
                retry_after=self.policy.retry_after,
            )

    def register_query(self, query_id: str, subject: str) -> None:
        """Record *query_id* as owned by *subject* (post succeeded)."""
        self._subjects[query_id] = subject
        queries = self._queries.setdefault(subject, set())
        queries.add(query_id)
        self._active_gauge(subject).set(len(queries))

    def _prune(
        self, subject: str, result_ready: Callable[[str], bool]
    ) -> int:
        queries = self._queries.get(subject)
        if not queries:
            return 0
        finished = {qid for qid in queries if result_ready(qid)}
        queries -= finished
        self._active_gauge(subject).set(len(queries))
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
            self._rejected(subject, "byte_quota").inc()
            raise AdmissionError(
                f"querier {subject!r} has {held} submission bytes in flight "
                f"(+{nbytes} would exceed quota {limit}); back off",
                retry_after=self.policy.retry_after,
            )
        self._pending_bytes[subject] = held + nbytes
        self._bytes_gauge(subject).set(held + nbytes)

    def release(self, query_id: str, nbytes: int) -> None:
        """Return *nbytes* of quota once the charged submission was
        applied (or its apply raised)."""
        subject = self.subject_of(query_id)
        held = max(0, self._pending_bytes.get(subject, 0) - nbytes)
        self._pending_bytes[subject] = held
        self._bytes_gauge(subject).set(held)

    def pending_bytes(self, subject: str) -> int:
        return self._pending_bytes.get(subject, 0)
