"""The one idempotency window: dispatch, snapshots and WAL replay all
run this class, so its contract is checked once, here."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssi.idempotency import IdempotencyWindow

CLIENTS = st.sampled_from(["client-a", "client-b", "client-c"])
KEYS = st.tuples(CLIENTS, st.integers(min_value=1, max_value=40))


class TestIdempotencyWindow:
    @settings(max_examples=200, deadline=None)
    @given(applied=st.lists(KEYS, max_size=60), probes=st.lists(KEYS, max_size=60))
    def test_any_apply_order_then_any_replay_is_recognised(self, applied, probes):
        """Whatever order keys were applied in (pipelined requests
        complete out of order), exactly the applied keys are seen —
        live, after a snapshot/restore, and after re-marking the same
        keys the way WAL replay does."""
        live = IdempotencyWindow()
        for key in applied:
            live.mark(*key)

        restored = IdempotencyWindow()
        restored.restore(*live.snapshot())
        replayed = IdempotencyWindow()
        for key in reversed(applied):  # replay order need not match either
            replayed.mark(*key)
            replayed.mark(*key)

        done = set(applied)
        for window in (live, restored, replayed):
            for key in applied + probes:
                assert window.seen(*key) == (key in done)

    @settings(max_examples=100, deadline=None)
    @given(seqs=st.permutations(range(1, 13)))
    def test_a_filled_prefix_collapses_into_the_watermark(self, seqs):
        window = IdempotencyWindow()
        for seq in seqs:
            window.mark("c", seq)
        assert window.snapshot() == ({"c": 12}, {})

    def test_a_gap_keeps_later_seqs_ahead_and_the_gap_unseen(self):
        window = IdempotencyWindow()
        for seq in (1, 2, 4, 5):
            window.mark("c", seq)
        assert window.snapshot() == ({"c": 2}, {"c": {4, 5}})
        assert not window.seen("c", 3)  # a late request, not a replay
        window.mark("c", 3)
        assert window.snapshot() == ({"c": 5}, {})

    def test_snapshot_is_independent_of_the_live_window(self):
        window = IdempotencyWindow()
        window.mark("c", 2)
        watermark, ahead = window.snapshot()
        window.mark("c", 1)
        window.mark("c", 7)
        assert (watermark, ahead) == ({"c": 0}, {"c": {2}})
        other = IdempotencyWindow()
        other.restore(watermark, ahead)
        ahead["c"].add(9)
        assert not other.seen("c", 9)
