"""Commitment-chain determinism, historical heads and wire encoding."""

import pytest

from repro.exceptions import ProtocolError, StoreError
from repro.store.commitment import (
    DIGEST_BYTES,
    GENESIS_HEAD,
    WIRE_BYTES,
    Commitment,
    CommitmentChain,
    chain_step,
    record_digest,
)

RECORDS = [(i, f"body-{i}".encode()) for i in range(1, 9)]


def build_chain(records=RECORDS):
    chain = CommitmentChain()
    for seq, body in records:
        chain.append(seq, body)
    return chain


class TestChain:
    def test_deterministic(self):
        assert build_chain().head == build_chain().head
        assert build_chain().count == len(RECORDS)

    def test_genesis(self):
        chain = CommitmentChain()
        assert chain.head == GENESIS_HEAD
        assert chain.head_at(0) == GENESIS_HEAD
        assert chain.commitment() == Commitment(0, GENESIS_HEAD)

    def test_head_at_is_immutable_history(self):
        chain = CommitmentChain()
        seen = {}
        for seq, body in RECORDS:
            chain.append(seq, body)
            seen[chain.count] = chain.head
        for count, head in seen.items():
            assert chain.head_at(count) == head
        assert chain.head_at(chain.count + 1) is None  # client ahead of us
        assert chain.head_at(-1) is None

    def test_any_difference_changes_the_head(self):
        baseline = build_chain().head
        tampered_body = RECORDS[:3] + [(4, b"EVIL")] + RECORDS[4:]
        assert build_chain(tampered_body).head != baseline
        tampered_seq = RECORDS[:3] + [(99, RECORDS[3][1])] + RECORDS[4:]
        assert build_chain(tampered_seq).head != baseline
        dropped = RECORDS[:3] + RECORDS[4:]  # selective drop
        assert build_chain(dropped).head != baseline

    def test_restore_from_heads(self):
        chain = build_chain()
        restored = CommitmentChain(chain.heads())
        assert restored.head == chain.head
        assert restored.head_at(3) == chain.head_at(3)
        restored.append(9, b"more")
        assert restored.verify_extends(chain.commitment())

    def test_verify_extends(self):
        chain = build_chain()
        earlier = Commitment(3, chain.head_at(3))
        assert chain.verify_extends(earlier)
        assert not chain.verify_extends(Commitment(3, b"\x00" * DIGEST_BYTES))
        assert not chain.verify_extends(
            Commitment(chain.count + 1, chain.head)
        )

    def test_malformed_restored_head_rejected(self):
        with pytest.raises(StoreError, match="chain head"):
            CommitmentChain([b"short"])

    def test_chain_step_matches_append(self):
        chain = CommitmentChain()
        head = GENESIS_HEAD
        for seq, body in RECORDS:
            head = chain_step(head, record_digest(seq, body))
            assert chain.append(seq, body) == head

    def test_a_restored_chain_commits_to_its_records_only(self):
        """What ``verify-log`` checks the records a snapshot covers by."""
        chain = CommitmentChain(build_chain().heads())
        for seq, body in RECORDS:
            assert chain.commits_to(seq, body)
            assert not chain.commits_to(seq, body + b"\x00")
        assert not chain.commits_to(0, b"")
        assert not chain.commits_to(len(RECORDS) + 1, b"")


class TestWire:
    def test_roundtrip(self):
        commitment = build_chain().commitment()
        raw = commitment.to_wire()
        assert len(raw) == WIRE_BYTES
        assert Commitment.from_wire(raw) == commitment

    def test_bad_lengths_rejected(self):
        with pytest.raises(ProtocolError):
            Commitment.from_wire(b"\x00" * (WIRE_BYTES - 1))
        with pytest.raises(ProtocolError):
            Commitment(1, b"short").to_wire()
