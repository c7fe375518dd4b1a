"""Security audit: §3/§5's dataflow invariants checked on live runs.

After (or during) a query execution, :func:`audit_query` inspects the
SSI's observation log and verifies everything the protocol *promised* the
honest-but-curious server would (not) see:

* ``uniform-sizes``   — collection payloads form a single size class
  (otherwise dummy/fake tuples are distinguishable by length);
* ``no-tags``         — S_Agg and the basic protocol must expose zero
  grouping tags;
* ``tag-budget``      — tagged protocols must expose at most the declared
  number of distinct tags (|domain| or M buckets);
* ``flat-tags``       — C_Noise (exactly) and ED_Hist (nearly) must show
  a flat tag distribution;
* ``nonempty-payloads`` — every observed payload has a positive size.
  The observer keeps sizes and tags, never payload bytes, so a repeated
  nDet ciphertext (nonce reuse) is not something this audit can see.

Each check yields a :class:`Finding`; an empty report means the run
leaked nothing beyond its protocol's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ConfigurationError
from repro.ssi.observer import Observer


@dataclass(frozen=True)
class Finding:
    """One violated invariant."""

    check: str
    detail: str


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit."""

    query_id: str
    protocol: str
    findings: tuple[Finding, ...]

    def ok(self) -> bool:
        return not self.findings


#: per-protocol contract: (expects_tags, flat_requirement)
#: flat_requirement: None = no constraint, float = max allowed
#: max_count/min_count ratio among tag frequencies
_CONTRACTS = {
    "basic": (False, None),
    "s_agg": (False, None),
    "rnf_noise": (True, None),
    "c_noise": (True, 1.0),
    "ed_hist": (True, 2.0),
}


def _check_sizes(observer: Observer, query_id: str) -> Iterator[Finding]:
    sizes = observer.payload_size_frequencies(query_id, "collection")
    if len(sizes) > 1:
        yield Finding(
            "uniform-sizes",
            f"collection payloads fall into {len(sizes)} size classes "
            f"{sorted(sizes)}; dummies/fakes are distinguishable by length",
        )


def _check_tags(
    observer: Observer,
    query_id: str,
    expects_tags: bool,
    max_distinct_tags: int | None,
    flat_requirement: float | None,
) -> Iterator[Finding]:
    frequencies = observer.tag_frequencies(query_id, "collection")
    if not expects_tags:
        if frequencies:
            yield Finding(
                "no-tags",
                f"{len(frequencies)} grouping tags observed on a protocol "
                f"that promises a tag-free dataflow",
            )
        return
    if max_distinct_tags is not None and len(frequencies) > max_distinct_tags:
        yield Finding(
            "tag-budget",
            f"{len(frequencies)} distinct tags observed, contract allows "
            f"at most {max_distinct_tags}",
        )
    if flat_requirement is not None and frequencies:
        counts = sorted(frequencies.values())
        ratio = counts[-1] / counts[0]
        if ratio > flat_requirement + 1e-9:
            yield Finding(
                "flat-tags",
                f"tag frequency ratio {ratio:.2f} exceeds the allowed "
                f"{flat_requirement:.2f}; the distribution leaks skew",
            )


def _check_nonempty(observer: Observer, query_id: str) -> Iterator[Finding]:
    for obs in observer.observations:
        if obs.query_id == query_id and obs.payload_size <= 0:
            yield Finding(
                "nonempty-payloads", f"zero-length payload observed ({obs.phase})"
            )
            return


def audit_query(
    observer: Observer,
    query_id: str,
    protocol: str,
    max_distinct_tags: int | None = None,
) -> AuditReport:
    """Audit one executed query against its protocol's dataflow contract.

    *protocol* is the driver's ``name`` attribute; *max_distinct_tags*
    bounds the tag alphabet for tagged protocols (|domain| for the noise
    protocols, the bucket count M for ED_Hist)."""
    contract = _CONTRACTS.get(protocol)
    if contract is None:
        raise ConfigurationError(f"no audit contract for protocol {protocol!r}")
    expects_tags, flat_requirement = contract
    findings: list[Finding] = []
    findings.extend(_check_sizes(observer, query_id))
    findings.extend(
        _check_tags(
            observer, query_id, expects_tags, max_distinct_tags, flat_requirement
        )
    )
    findings.extend(_check_nonempty(observer, query_id))
    return AuditReport(query_id, protocol, tuple(findings))
