"""The Trusted Data Server: the paper's unique element of trust.

A :class:`TrustedDataServer` wraps one individual's local database inside
tamper-resistant hardware.  Everything that leaves this class is encrypted
(or an opaque keyed hash); everything that enters is decrypted and
verified inside.  The honest-but-curious SSI only ever interacts with the
``collect_block`` / ``seal_frames`` / ``*_partition`` outputs, never with
the plaintext.

The class exposes the *primitives* of Fig. 2; protocol drivers in
:mod:`repro.protocols` compose them into the collection / aggregation /
filtering phases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.core.codec import encode, encode_packed
from repro.core.messages import (
    RESULT_PARTIALS,
    RESULT_ROWS,
    WORK_FILTER,
    WORK_FINALIZE,
    WORK_FOLD,
    WORK_FOLD_PER_GROUP,
    EncryptedTupleBlock,
    Partition,
    QueryEnvelope,
    TupleContent,
    offsets_ascend,
)
from repro.core.wire import (
    decode_frames,
    encode_partial_frame,
    encode_tuple_frames,
)
from repro.crypto.det import DeterministicCipher
from repro.crypto.hashing import BucketHasher
from repro.crypto.keys import KeyBundle
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import (
    AccessDeniedError,
    ProtocolError,
    ResourceExhaustedError,
)
from repro.net.frames import PROTOCOLS, QueryMeta
from repro.sql.ast import SelectStatement
from repro.sql.executor import finalize_groups, local_matching_rows, plan_of
from repro.sql.parser import parse
from repro.sql.partial import PartialAggregation
from repro.sql.schema import Database, Row
from repro.tds.access_control import AccessPolicy, Authority
from repro.tds.device import SECURE_TOKEN, DeviceProfile
from repro.tds.histogram import EquiDepthHistogram
from repro.tds.noise import ComplementaryNoise, NoiseStrategy, RandomNoise

#: bytes per scalar slot assumed by the RAM bound check (§4.2)
SLOT_BYTES = 16


@dataclass(frozen=True, slots=True)
class TupleFrameBlock:
    """A packed buffer of yet-to-be-encrypted frames plus their routing
    tags: what :meth:`TrustedDataServer.collect_frames` builds (tuple
    frames), what a fold builds (partial frames), and what
    :meth:`TrustedDataServer.seal_frames` encrypts.

    Same shape as :class:`~repro.core.messages.EncryptedTupleBlock`
    (``count + 1`` offsets spanning ``frames``), but the payload bytes
    are cleartext, so the class lives in ``repro.tds``: privacy-lint's
    PL001 keeps ssi-role code from importing it, and an instance never
    leaves the TDS process.
    """

    frames: bytes
    offsets: tuple[int, ...]
    tags: tuple[bytes | None, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.tags) + 1:
            raise ValueError(
                f"offsets table of {len(self.offsets)} entries does not "
                f"match {len(self.tags)} tags"
            )
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.frames):
            raise ValueError("offsets table does not span the frame buffer")
        if not offsets_ascend(self.offsets):
            raise ValueError("offsets table is not monotonically increasing")

    def __len__(self) -> int:
        return len(self.tags)

    @classmethod
    def from_frames(
        cls, frames: Sequence[bytes], tags: Sequence[bytes | None] | None = None
    ) -> "TupleFrameBlock":
        offsets = tuple(accumulate(map(len, frames), initial=0))
        tags = (None,) * len(frames) if tags is None else tuple(tags)
        return cls(b"".join(frames), offsets, tags)


class TrustedDataServer:
    """One secure personal data server.

    Parameters
    ----------
    tds_id:
        Stable identifier (used by the simulator and for failure injection;
        never revealed in payloads).
    database:
        The local relational data (conforming to the application schema).
    keys:
        Key bundle holding k1 and k2 (burn-time provisioning).
    policy / authority:
        Access-control rule set and the credential-verification authority.
    device:
        Hardware profile; bounds the partial-aggregate structure RAM.
    rng:
        Seedable randomness for reproducible simulations (nonces, noise).
    """

    def __init__(
        self,
        tds_id: str,
        database: Database,
        keys: KeyBundle,
        policy: AccessPolicy,
        authority: Authority,
        device: DeviceProfile = SECURE_TOKEN,
        rng: random.Random | None = None,
    ) -> None:
        if not keys.holds_k1() or not keys.holds_k2():
            raise ProtocolError("a TDS must hold both k1 and k2")
        self.tds_id = tds_id
        self.database = database
        self.device = device
        self._keys = keys
        self._policy = policy
        self._authority = authority
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------ #
    # cipher access (rebuilt on use so key rotation is picked up; the
    # process-wide cipher cache makes each rebuild a dictionary lookup
    # rather than a subkey derivation + key-schedule expansion)
    # ------------------------------------------------------------------ #
    def _k1_cipher(self) -> NonDeterministicCipher:
        return NonDeterministicCipher(self._keys.k1.current.material, self._rng)

    def _k2_cipher(self) -> NonDeterministicCipher:
        return NonDeterministicCipher(self._keys.k2.current.material, self._rng)

    def _k2_det_cipher(self) -> DeterministicCipher:
        return DeterministicCipher(self._keys.k2.current.material)

    def _bucket_hasher(self) -> BucketHasher:
        return BucketHasher(self._keys.k2.current.material)

    # ------------------------------------------------------------------ #
    # query opening (steps 2-3 of Fig. 2)
    # ------------------------------------------------------------------ #
    def decrypt_query(self, envelope: QueryEnvelope) -> SelectStatement:
        """Decrypt and parse the query — all a TDS needs to *serve a
        partition* of it: k1 authenticates the envelope, and the data in
        the partition was contributed under each owner's own policy."""
        plaintext = self._k1_cipher().decrypt(envelope.encrypted_query)
        return parse(plaintext.decode("utf-8"))

    def open_query(self, envelope: QueryEnvelope) -> SelectStatement:
        """Decrypt, parse and authorize the query — the gate on what this
        TDS *contributes* from its own database.

        Raises :class:`AccessDeniedError` when the credential fails
        verification or the policy denies the statement."""
        statement = self.decrypt_query(envelope)
        if not self._authority.verify(envelope.credential):
            raise AccessDeniedError(
                f"credential of {envelope.credential.subject!r} failed verification"
            )
        self._policy.authorize(envelope.credential, statement)
        return statement

    # ------------------------------------------------------------------ #
    # collection phase (step 4 / 4')
    # ------------------------------------------------------------------ #
    def collect_frames(
        self,
        envelope: QueryEnvelope,
        meta: QueryMeta | str,
        *,
        histogram: EquiDepthHistogram | None = None,
        statement: SelectStatement | None = None,
    ) -> TupleFrameBlock:
        """Build the *plaintext* tuple frames (plus routing tags) for one
        contribution, without encrypting yet.  The returned block must
        never leave the TDS: hand it to :meth:`seal_frames` to get the
        SSI-bound :class:`EncryptedTupleBlock`.

        *meta* names the protocol row (a bare name: its defaults) and
        *histogram* is the discovered distribution: ED_Hist's buckets
        (§4.4) and, as its value set, the noise protocols' domain (§4.3).
        The device derives its encoding from those two alone, drawing
        Rnf_Noise's fakes from its own rng.  Tags are already in their
        final over-the-wire form (``None``, ``Det_Enc(group)`` or
        ``h(bucket)``) because the nDet pass does not touch them.

        *statement*: what this TDS's own :meth:`open_query` returned for
        *envelope*, when the caller already ran it and keeps the result
        (the fleet's device loop does, for the query's first fold);
        without it the query is opened here."""
        if isinstance(meta, str):
            meta = QueryMeta(meta)
        protocol = meta.protocol
        if protocol not in PROTOCOLS:
            raise ProtocolError(f"unknown collection protocol {protocol!r}")
        if protocol in ("rnf_noise", "c_noise", "ed_hist") and histogram is None:
            raise ProtocolError(
                f"{protocol} collection needs the discovered distribution"
            )
        try:
            statement = statement or self.open_query(envelope)
            statement.check_protocol(protocol)
            rows = local_matching_rows(self.database, statement)
        except AccessDeniedError:
            rows = []
        if not rows:
            # the fully encrypted dataflows hide an empty answer behind a
            # dummy; the tagged ones contribute nothing
            dummy = TupleContent(TupleContent.KIND_DUMMY)
            dummies = [dummy] if protocol in ("basic", "s_agg") else []
            return TupleFrameBlock(*encode_tuple_frames(dummies), (None,) * len(dummies))
        plan = plan_of(statement)
        shape = plan.project if protocol == "basic" else plan.reduce
        contents = [TupleContent(TupleContent.KIND_DATA, shape(row)) for row in rows]
        if protocol in ("basic", "s_agg"):
            return TupleFrameBlock(*encode_tuple_frames(contents), (None,) * len(contents))
        assert histogram is not None
        keys = [plan.group_key(row) for row in rows]
        if protocol == "ed_hist":
            hasher = self._bucket_hasher()
            tag_of: dict[int, bytes] = {}  # one keyed hash per distinct bucket
            hash_tags: list[bytes | None] = []
            for key in keys:
                bucket_id = histogram.bucket_of(key if len(key) > 1 else key[0])
                tag = tag_of.get(bucket_id)
                if tag is None:
                    tag = tag_of[bucket_id] = hasher.hash_bucket(bucket_id)
                hash_tags.append(tag)
            return TupleFrameBlock(*encode_tuple_frames(contents), tuple(hash_tags))
        domain = [v if isinstance(v, tuple) else (v,) for v in histogram.values()]
        noise: NoiseStrategy = (
            RandomNoise(domain, int(meta.param("nf")), self._rng)
            if protocol == "rnf_noise"
            else ComplementaryNoise(domain)
        )
        noisy: list[TupleContent] = []
        tag_plaintexts: list[bytes] = []
        for content, key in zip(contents, keys):
            noisy.append(content)
            tag_plaintexts.append(encode(list(key)))
            for fake_value, fake_content in noise.fake_tuples(key):
                noisy.append(fake_content)
                tag_plaintexts.append(encode(list(fake_value)))
        tags = self._k2_det_cipher().encrypt_many(tag_plaintexts)
        return TupleFrameBlock(*encode_tuple_frames(noisy), tuple(tags))

    def seal_frames(self, frames: TupleFrameBlock) -> EncryptedTupleBlock:
        """nDet-encrypt a frame block under k2 in one packed pass — the
        moment the data crosses the trust boundary."""
        payloads, offsets = self._k2_cipher().encrypt_block(
            frames.frames, frames.offsets
        )
        return EncryptedTupleBlock(
            payloads=payloads, offsets=offsets, tags=frames.tags
        )

    def collect_block(
        self,
        envelope: QueryEnvelope,
        meta: QueryMeta | str,
        *,
        histogram: EquiDepthHistogram | None = None,
        statement: SelectStatement | None = None,
    ) -> EncryptedTupleBlock:
        """One contribution (step 4) as a single columnar block: build
        the frames, then encrypt them in one packed pass.  Basic projects
        the matching rows and S_Agg reduces them, untagged, with one
        dummy for an empty answer (§3.2); the noise protocols tag each
        tuple with Det_Enc of its group and add fakes over the
        distribution's domain (§4.3); ED_Hist tags it with the keyed hash
        of its bucket (§4.4)."""
        return self.seal_frames(
            self.collect_frames(
                envelope, meta, histogram=histogram, statement=statement
            )
        )

    # ------------------------------------------------------------------ #
    # serving a handed-out partition (steps 6-12)
    # ------------------------------------------------------------------ #
    def serve_partition(
        self, kind: int, statement: SelectStatement, partition: Partition
    ) -> tuple[int, EncryptedTupleBlock]:
        """Do the work a unit of *kind* asks for on *partition* and return
        ``(result kind, block)`` — encrypted partials or k1 result rows,
        as the result kind says.  The one entry the fleet's device loop
        and the in-process driver reach TDS work through; the primitives
        are looked up on ``self`` per call, so a subclass (or a wrapper
        installed on the class) that changes one is honoured."""
        if kind == WORK_FOLD:
            return RESULT_PARTIALS, self.aggregate_partition(statement, partition)
        if kind == WORK_FOLD_PER_GROUP:
            return RESULT_PARTIALS, self.aggregate_partition_per_group(
                statement, partition
            )
        if kind == WORK_FINALIZE:
            return RESULT_ROWS, self.finalize_partition(statement, partition)
        if kind == WORK_FILTER:
            return RESULT_ROWS, self.filter_partition(partition)
        raise ProtocolError(f"unknown work kind {kind}")

    # ------------------------------------------------------------------ #
    # aggregation phase (steps 6-8)
    # ------------------------------------------------------------------ #
    def _decrypt_partition(self, partition: Partition) -> tuple[bytes, tuple[int, ...]]:
        """The packed plaintexts of a partition's block, opened as one batch."""
        block = partition.block
        return self._k2_cipher().decrypt_block(block.payloads, block.offsets)

    def aggregate_partition(
        self, statement: SelectStatement, partition: Partition
    ) -> EncryptedTupleBlock:
        """S_Agg step: fold a partition (raw tuples and/or partials) into a
        single partial aggregation, returned fully nDet-encrypted as an
        untagged block of one item."""
        partial = self._fold_partition(statement, partition)
        return self.seal_frames(
            TupleFrameBlock.from_frames([encode_partial_frame(partial.to_portable())])
        )

    def aggregate_partition_per_group(
        self, statement: SelectStatement, partition: Partition
    ) -> EncryptedTupleBlock:
        """Noise-based / ED_Hist step: fold a partition and emit one
        encrypted partial *per group*, tagged ``Det_Enc(group)`` so the SSI
        can route same-group partials together for the next step."""
        partial = self._fold_partition(statement, partition)
        frames: list[bytes] = []
        tag_plaintexts: list[bytes] = []
        for single in partial.split(partial.group_count()):
            (key,) = single.groups()
            frames.append(encode_partial_frame(single.to_portable()))
            tag_plaintexts.append(encode(list(key)))
        tags = self._k2_det_cipher().encrypt_many(tag_plaintexts)
        return self.seal_frames(TupleFrameBlock.from_frames(frames, tags))

    def _fold_partition(
        self, statement: SelectStatement, partition: Partition
    ) -> PartialAggregation:
        """Decrypt every item, drop dummies/fakes, build the Ω structure.

        Enforces the §4.2 RAM bound: the partial aggregate must fit in the
        device's RAM, otherwise :class:`ResourceExhaustedError`."""
        partial = PartialAggregation(statement)
        max_slots = self.device.ram_bytes // SLOT_BYTES
        for kind, body in decode_frames(*self._decrypt_partition(partition)):
            if kind == "tuple":
                if body.is_real():
                    partial.add_row(body.row)
            else:
                partial.merge(PartialAggregation.from_portable(statement, body))
            if partial.memory_slots() > max_slots:
                raise ResourceExhaustedError(
                    f"partial aggregate needs more than {self.device.ram_bytes} "
                    f"bytes of RAM on device {self.device.name!r} "
                    f"({partial.group_count()} groups)"
                )
        return partial

    # ------------------------------------------------------------------ #
    # filtering phase (steps 9-12)
    # ------------------------------------------------------------------ #
    def filter_partition(self, partition: Partition) -> EncryptedTupleBlock:
        """Basic protocol filtering: drop dummies, re-encrypt true rows
        under k1 for the querier."""
        rows: list[Row] = []
        for kind, body in decode_frames(*self._decrypt_partition(partition)):
            if kind != "tuple":
                raise ProtocolError("filtering phase expects tuple frames")
            if body.is_real():
                rows.append(body.row)
        return self._seal_rows(rows)

    def finalize_partition(
        self, statement: SelectStatement, partition: Partition
    ) -> EncryptedTupleBlock:
        """Aggregation filtering: merge final partials, evaluate HAVING and
        the SELECT projection, re-encrypt result rows under k1."""
        partial = PartialAggregation(statement)
        for kind, body in decode_frames(*self._decrypt_partition(partition)):
            if kind != "partial":
                raise ProtocolError("finalization expects partial frames")
            partial.merge(PartialAggregation.from_portable(statement, body))
        return self._seal_rows(finalize_groups(statement, partial.groups()))

    def _seal_rows(self, rows: list[Row]) -> EncryptedTupleBlock:
        """Result rows under k1 in one packed pass, as an untagged block
        the querier decrypts (step 12)."""
        payloads, offsets = self._k1_cipher().encrypt_block(*encode_packed(rows))
        return EncryptedTupleBlock(
            payloads=payloads, offsets=offsets, tags=(None,) * len(rows)
        )


def reduced_row(statement: SelectStatement, row: Row) -> Row:
    """Project a bound row down to the columns the aggregation actually
    needs (grouping attributes + aggregate arguments), cutting tuple size
    st — the quantity the cost model charges for."""
    return plan_of(statement).reduce(row)
