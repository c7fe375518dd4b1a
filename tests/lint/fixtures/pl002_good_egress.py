"""Known-good PL002 fixture: ciphertext-only egress, sanitizers respected."""

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock


def encrypted_tuple(cipher, frame: bytes) -> EncryptedTuple:
    return EncryptedTuple(payload=cipher.encrypt(frame))


def tagged_tuples(ndet, det, frames: list, tag_plaintexts: list) -> list:
    payloads = ndet.encrypt_many(frames)
    tags = det.encrypt_many(tag_plaintexts)  # sanitized: inside encrypt_many
    return [
        EncryptedTuple(payload=payload, group_tag=tag)
        for payload, tag in zip(payloads, tags)
    ]


def submit_ciphertext(ssi, query_id: str, partials: list) -> None:
    ssi.submit_partials(query_id, partials)


async def sealed_block(client, cipher, query_id: str, frames) -> None:
    payloads, offsets = cipher.encrypt_block(frames.frames, frames.offsets)
    block = EncryptedTupleBlock(payloads=payloads, offsets=offsets, tags=frames.tags)
    await client.submit_tuples_batch(query_id, block)


def bucket_tagged(cipher, hasher, frame: bytes, bucket_id: int) -> EncryptedTuple:
    return EncryptedTuple(
        payload=cipher.encrypt(frame), group_tag=hasher.hash_bucket(bucket_id)
    )


async def sealed_result(client, cipher, q: str, p: int, t: str, rows) -> None:
    payloads, offsets = cipher.encrypt_block(rows.frames, rows.offsets)
    block = EncryptedTupleBlock(payloads=payloads, offsets=offsets, tags=rows.tags)
    await client.submit_partition_result(q, p, t, (2, block))
