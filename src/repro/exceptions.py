"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems (crypto, SQL engine, protocol execution, access control).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidKeyError(CryptoError):
    """A key has the wrong length or is otherwise unusable."""


class DecryptionError(CryptoError):
    """A ciphertext failed authentication or could not be decrypted."""


class SQLError(ReproError):
    """Base class for SQL engine errors."""


class SQLSyntaxError(SQLError):
    """The query text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class PlanningError(SQLError):
    """The query is well-formed but cannot be planned (unknown table,
    unknown column, unsupported construct...)."""


class EvaluationError(SQLError):
    """A runtime error occurred while evaluating an expression."""


class SchemaError(SQLError):
    """A table or row violates its declared schema."""


class ProtocolError(ReproError):
    """Base class for distributed-protocol failures."""


class DuplicateQueryError(ProtocolError):
    """A query id was posted twice (each posting must be fresh)."""


class UnknownQueryError(ProtocolError):
    """An operation referenced a query id the SSI has never seen."""


class ResultNotReadyError(ProtocolError):
    """The result of a query was fetched before it was published."""


class AdmissionError(ProtocolError):
    """The SSI refused to admit work because a per-querier quota (active
    queries or in-flight submission bytes) is exhausted — a *policy*
    rejection: the querier holds too much of the SSI already.
    ``retry_after`` is the server's backoff hint in seconds (carried on
    the ``ERR_ADMISSION`` wire error)."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class TransportError(ReproError):
    """A network-transport failure (connection refused/dropped, framing
    violation on the byte stream). Retryable at the client layer."""


class FrameTooLargeError(ProtocolError):
    """A peer declared a frame above the negotiated size limit (answered
    with ``ERR_TOO_LARGE`` on the wire, unlike other framing violations
    which are ``ERR_MALFORMED``)."""


class UnsupportedVersionError(ProtocolError):
    """A peer's frame carried a protocol version this build does not
    speak (answered with ``ERR_UNSUPPORTED_VERSION`` on the wire).  Never
    retried: the same bytes would be refused again."""


class AccessDeniedError(ProtocolError):
    """The querier's credential does not satisfy the access-control policy."""


class QueryAbortedError(ProtocolError):
    """The query could not run to completion (e.g. no TDS ever connected)."""


class ResourceExhaustedError(ProtocolError):
    """A TDS exceeded a device resource bound (typically RAM for the
    partial-aggregate structure, see §4.2 of the paper)."""


class ConfigurationError(ReproError):
    """Invalid parameters were supplied to a model or simulator."""


class StoreError(ReproError):
    """Base class for durable-store (WAL/snapshot) failures."""


class CorruptLogError(StoreError):
    """The write-ahead log or a snapshot failed its integrity checks
    (CRC mismatch, sequence gap, bad framing) beyond what torn-tail
    recovery may repair.  Raised instead of ever mis-parsing bytes."""


class RollbackDetectedError(ProtocolError):
    """The SSI presented a commitment chain that is not a descendant of
    the state this client already observed — the store was rolled back,
    selectively pruned, or forked (the paper's untrusted-SSI threat
    model, §2.1).  Never retried: this is an integrity alarm."""
