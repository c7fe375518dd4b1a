"""Exactly-once application over an at-least-once transport.

Mutating requests carry a per-client ``(client_id, seq)`` key; the SSI
applies each key once and acks replays without re-running them.  The
window is the dispatcher's live dedup state, is journaled with every
keyed WAL record, travels in snapshots and is rebuilt by replay — all
through this one class, so the four can never disagree about what
"already applied" means.
"""

from __future__ import annotations


class IdempotencyWindow:
    """Per client: a contiguous watermark (every seq at or below it has
    been applied) plus an *ahead* set of applied seqs above it.

    Pipelined clients have several requests in flight, so seqs can
    *apply* out of order — the ahead set keeps a late-arriving lower seq
    from being mistaken for a replay, and drains into the watermark as
    the gaps fill."""

    def __init__(self) -> None:
        self.watermark: dict[str, int] = {}
        self.ahead: dict[str, set[int]] = {}

    def seen(self, client_id: str, seq: int) -> bool:
        return seq <= self.watermark.get(client_id, 0) or (
            seq in self.ahead.get(client_id, ())
        )

    def mark(self, client_id: str, seq: int) -> None:
        """Record *seq* as applied.  Call only once the side effect
        landed: a request rejected with e.g. ``ERR_ADMISSION`` keeps
        its seq unapplied so the client's retry (same bytes) is
        executed, not dropped."""
        ahead = self.ahead.setdefault(client_id, set())
        ahead.add(seq)
        watermark = self.watermark.get(client_id, 0)
        while watermark + 1 in ahead:
            watermark += 1
            ahead.discard(watermark)
        self.watermark[client_id] = watermark

    def snapshot(self) -> tuple[dict[str, int], dict[str, set[int]]]:
        """An independent copy of (watermarks, non-empty ahead sets)."""
        return dict(self.watermark), {
            client_id: set(seqs) for client_id, seqs in self.ahead.items() if seqs
        }

    def restore(
        self, watermark: dict[str, int], ahead: dict[str, set[int]]
    ) -> None:
        """Replace the window with a :meth:`snapshot` (copied)."""
        self.watermark = dict(watermark)
        self.ahead = {client_id: set(seqs) for client_id, seqs in ahead.items()}
