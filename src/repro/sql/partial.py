"""Partial aggregations: the unit of work of the aggregation phase.

A :class:`PartialAggregation` is the paper's Ω (Fig. 3/4): a mapping from
group key to aggregate states.  TDSs build them from raw tuples, merge them
pairwise (``Ω = Ω ⊕ Ω'``), serialize them for encrypted transport through
the SSI, and finalize the last one into the query answer.

The RAM bound of §4.2 ("the partial aggregate structure must fit in RAM")
is enforced through :meth:`PartialAggregation.memory_slots`, checked by the
TDS against its :class:`~repro.tds.device.DeviceProfile` after every item
it folds — so the count is maintained as groups are added and merged, not
summed over the structure each time.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sql.aggregates import AggregateState, state_from_portable
from repro.sql.ast import SelectStatement
from repro.sql.executor import plan_of
from repro.sql.schema import Row

GroupKey = tuple[Any, ...]


def _slots_of(states: list[AggregateState]) -> int:
    """Scalar slots of one group: its key plus its states."""
    return 1 + sum(state.state_size() for state in states)


class PartialAggregation:
    """Aggregate states for a set of groups, mergeable and serializable."""

    def __init__(self, statement: SelectStatement) -> None:
        self._statement = statement
        self._plan = plan_of(statement)
        self._groups: dict[GroupKey, list[AggregateState]] = {}
        self._slots = 0
        #: some group holds a holistic state, whose size grows with
        #: every value it takes
        self._grows = False

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def add_row(self, row: Row) -> None:
        """Fold one raw source row (post-WHERE) into the aggregation."""
        plan = self._plan
        key = plan.group_key(row)
        states = self._groups.get(key)
        if states is None:
            states = self._adopt(key, plan.new_states())
        if self._grows:
            self._slots -= _slots_of(states)
            plan.update(states, row)
            self._slots += _slots_of(states)
        else:
            plan.update(states, row)

    def add_rows(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.add_row(row)

    def merge(self, other: "PartialAggregation") -> None:
        """Ω = Ω ⊕ Ω' — associative and commutative."""
        for key, other_states in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                self._adopt(key, other_states)
                continue
            self._slots -= _slots_of(mine)
            for state, other_state in zip(mine, other_states):
                state.merge(other_state)
            self._slots += _slots_of(mine)

    def _adopt(
        self, key: GroupKey, states: list[AggregateState]
    ) -> list[AggregateState]:
        """Take *states* as the group *key*."""
        replaced = self._groups.get(key)
        if replaced is not None:
            self._slots -= _slots_of(replaced)
        self._groups[key] = states
        self._slots += _slots_of(states)
        if not self._grows:
            self._grows = any(state.holistic for state in states)
        return states

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def statement(self) -> SelectStatement:
        return self._statement

    def group_count(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[GroupKey, list[AggregateState]]:
        """The underlying mapping (shared, not copied — to read; groups
        enter through the building methods, which keep the slot count)."""
        return self._groups

    def memory_slots(self) -> int:
        """Scalar slots held — the quantity bounded by TDS RAM (§4.2):
        one per group key plus every state's ``state_size()``."""
        return self._slots

    def is_empty(self) -> bool:
        return not self._groups

    # ------------------------------------------------------------------ #
    # portable encoding (encrypted transport through the SSI)
    # ------------------------------------------------------------------ #
    def to_portable(self) -> list[list[Any]]:
        """Codec-friendly structure: a list of [group_key_values, states]."""
        return [
            [list(key), [state.to_portable() for state in states]]
            for key, states in self._groups.items()
        ]

    @classmethod
    def from_portable(
        cls, statement: SelectStatement, portable: list[list[Any]]
    ) -> "PartialAggregation":
        aggregation = cls(statement)
        for key_values, state_dicts in portable:
            aggregation._adopt(
                tuple(key_values), [state_from_portable(d) for d in state_dicts]
            )
        return aggregation

    def split(self, parts: int) -> list["PartialAggregation"]:
        """Split by group into at most *parts* aggregations of similar size
        (used by the SSI-side partitioners when groups are visible)."""
        parts = max(1, min(parts, max(1, len(self._groups))))
        buckets: list[PartialAggregation] = [
            PartialAggregation(self._statement) for __ in range(parts)
        ]
        for index, (key, states) in enumerate(self._groups.items()):
            buckets[index % parts]._adopt(key, states)
        return [b for b in buckets if not b.is_empty()]
