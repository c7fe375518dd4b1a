"""The per-byte oracle behind the cipher cache, for parity tests only.

``reference`` is not a selectable engine: ``use_engine`` refuses it.  The
tests that run the whole cipher stack over the oracle ask for this
fixture, which makes the name resolve for the length of one test."""

import pytest

from repro.crypto import cache
from repro.crypto.reference import ReferenceAES128


@pytest.fixture
def reference_engine(monkeypatch):
    resolve = cache._resolve_engine

    def with_oracle(choice: str):
        if choice == "reference":
            return "reference", ReferenceAES128
        return resolve(choice)

    monkeypatch.setattr(cache, "_resolve_engine", with_oracle)
