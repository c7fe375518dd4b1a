"""Known-bad PL002 fixture: plaintext on the block path every contribution takes."""

from repro.core.messages import EncryptedTupleBlock


def leak_into_the_facade(ssi, query_id: str, decrypted_block) -> None:
    ssi.submit_tuple_block(query_id, decrypted_block)  # line 7: facade sink


async def leak_onto_the_wire(client, query_id: str, plain_block) -> None:
    await client.submit_tuples_batch(query_id, plain_block)  # line 11: wire proxy


async def leak_into_the_batcher(batcher, query_id: str, frames) -> None:
    await batcher.submit_block(query_id, frames.decoded)  # line 15: batcher


def leak_into_a_block(frames) -> EncryptedTupleBlock:
    return EncryptedTupleBlock(
        payloads=frames.plaintext,  # line 20: constructor
        offsets=frames.offsets,
        tags=frames.tags,
    )


async def leak_a_partition_result(client, q: str, p: int, t: str, frames) -> None:
    await client.submit_partition_result(q, p, t, (2, frames.decoded))  # line 27: results back
