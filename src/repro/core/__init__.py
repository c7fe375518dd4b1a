"""Core shared infrastructure: codec, message envelopes, wire frames, traces."""

from repro.core.codec import CodecError, decode, encode
from repro.core.messages import (
    Credential,
    EncryptedTuple,
    Partition,
    QueryEnvelope,
    QueryResult,
    TupleContent,
    fresh_query_id,
)
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.core.wire import (
    SIZE_QUANTUM,
    TUPLE_FRAME_QUANTUM,
    decode_frame,
    encode_partial_frame,
    encode_tuple_frame,
)

__all__ = [
    "CodecError",
    "Credential",
    "EncryptedTuple",
    "ExecutionTrace",
    "Partition",
    "QueryEnvelope",
    "QueryResult",
    "SIZE_QUANTUM",
    "TUPLE_FRAME_QUANTUM",
    "TraceEvent",
    "TupleContent",
    "decode",
    "decode_frame",
    "encode",
    "encode_partial_frame",
    "encode_tuple_frame",
    "fresh_query_id",
]
