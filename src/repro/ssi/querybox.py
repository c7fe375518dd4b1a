"""Queryboxes: how queries reach TDSs (§3.1, "Query and result delivery").

Queries are executed in **pull mode**: the querier posts to the SSI, TDSs
download at connection time.  The SSI maintains

* a **global querybox** for queries directed to the crowd, and
* **personal queryboxes** for queries directed to one individual.

TDSs remember which query ids they have already served so reconnecting
does not double-count contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.messages import QueryEnvelope


@dataclass
class GlobalQuerybox:
    """Crowd-directed queries, newest last."""

    #: the queries still collecting; closing one removes it, so listing
    #: them costs what is open, not what was ever posted
    _open: dict[str, QueryEnvelope] = field(default_factory=dict)
    _closed: set[str] = field(default_factory=set)

    def post(self, envelope: QueryEnvelope) -> None:
        self._open[envelope.query_id] = envelope

    def active(self) -> list[QueryEnvelope]:
        """Queries still collecting (not closed by the SIZE clause)."""
        return list(self._open.values())

    def close(self, query_id: str) -> None:
        """Stop advertising a query whose SIZE clause is satisfied."""
        self._open.pop(query_id, None)
        self._closed.add(query_id)

    def is_closed(self, query_id: str) -> bool:
        return query_id in self._closed


@dataclass
class PersonalQuerybox:
    """Per-TDS mailbox for identifying queries (e.g. a doctor querying the
    embedded healthcare folder of one patient)."""

    _boxes: dict[str, list[QueryEnvelope]] = field(default_factory=dict)

    def post(self, tds_id: str, envelope: QueryEnvelope) -> None:
        self._boxes.setdefault(tds_id, []).append(envelope)

    def fetch(self, tds_id: str) -> list[QueryEnvelope]:
        """Drain the mailbox of *tds_id*."""
        return self._boxes.pop(tds_id, [])

    def pending_count(self, tds_id: str) -> int:
        return len(self._boxes.get(tds_id, ()))
