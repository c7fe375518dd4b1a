"""Failure-injection helpers for protocol drivers.

Drivers accept a ``failure_injector(tds_id, partition) -> bool`` callable
(returning True = the worker "goes offline mid-partition", §3.2).  These
factories build the common shapes:

* :func:`random_failures` — every (worker, partition) fails independently
  with probability p;
* :func:`flaky_workers` — a fixed subset of TDSs always fails;
* :func:`failure_budget` — the first k attempts fail, then everything
  succeeds (deterministic tests);
* :func:`combined` — OR-composition of injectors.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.core.messages import FailureInjector, Partition
from repro.exceptions import ConfigurationError


def random_failures(probability: float, rng: random.Random) -> FailureInjector:
    """Independent per-attempt failures with the given probability."""
    if not 0.0 <= probability < 1.0:
        raise ConfigurationError("probability must be in [0, 1)")

    def inject(tds_id: str, partition: Partition) -> bool:
        return rng.random() < probability

    return inject


def flaky_workers(tds_ids: Iterable[str]) -> FailureInjector:
    """The listed workers always drop their partitions (they will be
    reassigned to others — if no healthy worker exists the driver aborts)."""
    flaky = frozenset(tds_ids)

    def inject(tds_id: str, partition: Partition) -> bool:
        return tds_id in flaky

    return inject


def failure_budget(count: int) -> FailureInjector:
    """Fail exactly the first *count* attempts, then behave."""
    if count < 0:
        raise ConfigurationError("count must be >= 0")
    remaining = {"budget": count}

    def inject(tds_id: str, partition: Partition) -> bool:
        if remaining["budget"] > 0:
            remaining["budget"] -= 1
            return True
        return False

    return inject


def combined(*injectors: FailureInjector) -> FailureInjector:
    """Fail when any component injector fails."""

    def inject(tds_id: str, partition: Partition) -> bool:
        return any(injector(tds_id, partition) for injector in injectors)

    return inject
