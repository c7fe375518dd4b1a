"""Execution traces: the bridge between protocol logic and timed simulation.

Protocol drivers record *what* happened (who moved how many bytes in which
phase/round); the simulator (:mod:`repro.simulation.replay`) replays the
trace against a connectivity schedule and a device/network model to
compute *when* — collection duration, aggregation makespan, per-TDS busy
time.  Keeping logic and timing separate means the protocol code is the
single source of truth and the simulator cannot diverge from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One unit of TDS work.

    ``round_index`` orders barrier-synchronized aggregation rounds; all
    collection events share round −1 (they are independent arrivals), and
    filtering events share the last round + 1.
    """

    phase: str  # "collection" | "aggregation" | "filtering"
    round_index: int
    tds_id: str
    bytes_down: int
    bytes_up: int

    def total_bytes(self) -> int:
        return self.bytes_down + self.bytes_up


@dataclass
class ExecutionTrace:
    """Ordered record of every TDS work item in one query execution."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(
        self,
        phase: str,
        round_index: int,
        tds_id: str,
        bytes_down: int,
        bytes_up: int,
    ) -> None:
        self.events.append(
            TraceEvent(phase, round_index, tds_id, bytes_down, bytes_up)
        )

    def phases(self) -> list[str]:
        seen: list[str] = []
        for event in self.events:
            if event.phase not in seen:
                seen.append(event.phase)
        return seen

    def rounds(self, phase: str) -> list[int]:
        return sorted({e.round_index for e in self.events if e.phase == phase})

    def events_in(self, phase: str, round_index: int | None = None) -> list[TraceEvent]:
        return [
            e
            for e in self.events
            if e.phase == phase
            and (round_index is None or e.round_index == round_index)
        ]

    def participants(self) -> set[str]:
        return {e.tds_id for e in self.events}

    def total_bytes(self) -> int:
        return sum(e.total_bytes() for e in self.events)


@dataclass
class ProtocolStats:
    """Concrete execution metrics (one query run), kept by the
    :class:`~repro.net.coordinator.QueryCoordinator` in every mode.

    * ``participants`` — distinct TDS ids that did any work (≈ PTDS);
    * ``aggregation_rounds`` — iterations of the aggregation phase;
    * ``bytes_processed`` — total payload bytes downloaded+uploaded by all
      TDSs across all phases (≈ LoadQ); charged by the in-process driver,
      which sees both directions of every transfer;
    * ``tuples_collected`` — Covering Result size, including dummies/fakes.
    """

    participants: set[str] = field(default_factory=set)
    aggregation_rounds: int = 0
    bytes_processed: int = 0
    tuples_collected: int = 0
    partitions_processed: int = 0
    reassigned_partitions: int = 0

    def charge(self, tds_id: str, num_bytes: int) -> None:
        self.participants.add(tds_id)
        self.bytes_processed += num_bytes
