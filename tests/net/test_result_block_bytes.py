"""Partials and result rows travel as one block, in the bytes they had
as lists of per-item objects.

The reference writers below are frozen copies of the per-item list
writer and the rows writer of the build before partials and rows became
blocks, with a local stand-in for the per-item partial type they
dispatched on and the struct layer written out.  For any block — no
items or many, tagged or not, empty payloads included — the block
writers must give the same bytes, the readers must read those bytes back
into the same block, and an item of the kind a reader does not expect
must be refused.  The golden files pin these bytes for a handful of
inputs; this pins them for all of them.
"""

import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Credential, EncryptedTupleBlock, QueryEnvelope, QueryResult
from repro.exceptions import ProtocolError
from repro.net import frames, ops
from repro.net.frames import Reader, Writer
from repro.ssi.storage import QueryStorage
from repro.store import snapshot

# --------------------------------------------------------------------- #
# the reference: the parent build's writers, frozen
# --------------------------------------------------------------------- #
_ITEM_TUPLE = 0
_ITEM_PARTIAL = 1


@dataclass(frozen=True)
class _Tuple:
    payload: bytes
    group_tag: bytes | None = None


@dataclass(frozen=True)
class _Partial:
    payload: bytes
    group_tag: bytes | None = None


def _u32(value):
    return struct.pack(">I", value)


def _blob(value):
    return _u32(len(value)) + value


def _opt_blob(value):
    return b"\x00" if value is None else b"\x01" + _blob(value)


def reference_write_items(items):
    out = _u32(len(items))
    for item in items:
        out += struct.pack(">B", _ITEM_PARTIAL if isinstance(item, _Partial) else _ITEM_TUPLE)
        out += _blob(item.payload)
        out += _opt_blob(item.group_tag)
    return out


def reference_write_rows(rows):
    out = _u32(len(rows))
    for row in rows:
        out += _blob(row)
    return out


# --------------------------------------------------------------------- #
# generated blocks
# --------------------------------------------------------------------- #
ITEMS = st.lists(
    st.tuples(st.binary(max_size=48), st.none() | st.binary(max_size=12)),
    max_size=12,
)
KINDS = {frames.ITEM_TUPLE: _Tuple, frames.ITEM_PARTIAL: _Partial}


def block_of(items):
    return EncryptedTupleBlock.joined([p for p, _ in items], [t for _, t in items])


def written(write, *args):
    w = Writer()
    write(w, *args)
    return w.getvalue()


@settings(max_examples=200, deadline=None)
@given(items=ITEMS, kind=st.sampled_from(sorted(KINDS)))
def test_the_per_item_writer_gives_the_parents_bytes_and_reads_back(items, kind):
    block = block_of(items)
    data = written(frames.write_item_block, block, kind)
    assert data == reference_write_items([KINDS[kind](p, t) for p, t in items])
    reader = Reader(data)
    assert frames.read_item_block(reader, kind) == block
    reader.expect_end()


@settings(max_examples=200, deadline=None)
@given(items=ITEMS, kind=st.sampled_from(sorted(KINDS)))
def test_an_item_of_the_other_kind_is_refused(items, kind):
    other = frames.ITEM_PARTIAL if kind == frames.ITEM_TUPLE else frames.ITEM_TUPLE
    data = written(frames.write_item_block, block_of(items), kind)
    if not items:
        assert len(frames.read_item_block(Reader(data), other)) == 0
        return
    with pytest.raises(ProtocolError, match="expected"):
        frames.read_item_block(Reader(data), other)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.binary(max_size=48), max_size=12))
def test_the_rows_writer_gives_the_parents_bytes_and_reads_back(rows):
    block = block_of([(row, None) for row in rows])
    data = written(frames.write_rows, block)
    assert data == reference_write_rows(rows)
    reader = Reader(data)
    assert frames.read_rows(reader) == block
    reader.expect_end()


@settings(max_examples=100, deadline=None)
@given(items=ITEMS, rows=st.lists(st.binary(max_size=48), max_size=12))
def test_the_request_and_record_fields_keep_their_bytes(items, rows):
    """What rides on them: the ``submit_partition_result`` request's
    tagged result, WAL records 4 and 7 (a journaled row's record payload
    is its request fields) and the ``await_result`` answer."""
    partials = [_Partial(p, t) for p, t in items]
    row_block = block_of([(row, None) for row in rows])
    assert written(
        ops.PARTITION_RESULT.write, (frames.RESULT_PARTIALS, block_of(items))
    ) == struct.pack(">B", frames.RESULT_PARTIALS) + reference_write_items(partials)
    assert written(
        ops.PARTITION_RESULT.write, (frames.RESULT_ROWS, row_block)
    ) == struct.pack(">B", frames.RESULT_ROWS) + reference_write_rows(rows)
    query_id = _blob(b"q-1")
    assert written(
        ops.SUBMIT_PARTIALS.write_request, ["q-1", block_of(items)]
    ) == query_id + reference_write_items(partials)
    assert written(
        ops.STORE_RESULT_ROWS.write_request, ["q-1", row_block]
    ) == query_id + reference_write_rows(rows)
    assert written(
        frames.write_result, QueryResult("q-1", row_block)
    ) == query_id + reference_write_rows(rows)


@settings(max_examples=100, deadline=None)
@given(items=ITEMS, rows=st.lists(st.binary(max_size=48), max_size=12), data=st.data())
def test_the_snapshot_lanes_keep_their_bytes_however_the_blocks_fall(items, rows, data):
    """A query's partials and rows are held as one block per partition
    result; its snapshot still writes each as one per-item list, last."""
    cut = data.draw(st.integers(0, len(items)))
    envelope = QueryEnvelope("q-1", b"ct", Credential("a", frozenset(), b"s"))
    query = QueryStorage(
        envelope,
        partials=[b for b in (block_of(items[:cut]), block_of(items[cut:])) if b],
        result_rows=[block_of([(row, None)]) for row in rows],
    )
    data_bytes = written(snapshot._write_query, query)
    assert data_bytes.endswith(
        reference_write_items([_Partial(p, t) for p, t in items])
        + reference_write_rows(rows)
    )
    decoded = snapshot._read_query(Reader(data_bytes))
    assert EncryptedTupleBlock.concat(decoded.partials) == block_of(items)
    assert EncryptedTupleBlock.concat(decoded.result_rows) == block_of(
        [(row, None) for row in rows]
    )
