"""Cryptographic substrate: AES-128, nDet_Enc, Det_Enc, bucket hashing, keys.

See §3.1 of the paper ("Dataflow obfuscation") for why two encryption
schemes coexist: non-deterministic encryption defeats frequency-based
attacks, deterministic encryption lets the untrusted SSI group equal values
without decrypting them.
"""

from repro.crypto.aes import AES128, BLOCK_SIZE, KEY_SIZE
from repro.crypto.broadcast import (
    BroadcastKeyDistributor,
    DeviceKeyStore,
    KeyBroadcast,
    receive_broadcast,
)
from repro.crypto.det import DeterministicCipher
from repro.crypto.hashing import BucketHasher
from repro.crypto.keys import (
    KeyBundle,
    KeyProvisioner,
    KeyRing,
    KeyVersion,
    derive_subkey,
    random_key,
)
from repro.crypto.ndet import NonDeterministicCipher

__all__ = [
    "AES128",
    "BLOCK_SIZE",
    "KEY_SIZE",
    "BroadcastKeyDistributor",
    "BucketHasher",
    "DeviceKeyStore",
    "KeyBroadcast",
    "DeterministicCipher",
    "NonDeterministicCipher",
    "KeyBundle",
    "KeyProvisioner",
    "KeyRing",
    "KeyVersion",
    "derive_subkey",
    "random_key",
    "receive_broadcast",
]
