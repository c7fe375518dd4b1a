"""Discovery protocols: grouping-domain cardinality and distribution.

§4.3: "if the domain cardinality is not readily available, a cardinality
discovering algorithm must be launched beforehand"; §4.4: "the
distribution of AG attributes must be discovered and distributed to all
TDSs.  This process needs to be done only once and refreshed from time to
time ... The discovery process is similar to computing a Count function
Group By AG and can therefore be performed using one of the protocols
introduced above."

We implement it exactly that way: a ``SELECT AG, COUNT(*) GROUP BY AG``
run through **S_Agg** (the protocol needing no prior knowledge — the
bootstrap of the whole scheme).  The discovered table is then used to
build an :class:`~repro.tds.histogram.EquiDepthHistogram`: ED_Hist's
buckets, and through its ``values()`` the noise protocols' domain.
Discovery runs once; its caller holds the histogram and passes it to
every query it drives.
"""

from __future__ import annotations

import random
from typing import Any

from repro.protocols.deployment import Deployment
from repro.protocols.base import ProtocolDriver
from repro.tds.histogram import EquiDepthHistogram


def discover_distribution(
    deployment: Deployment,
    table: str,
    column: str,
    worker_fraction: float = 1.0,
    subject: str = "discovery",
    roles: tuple[str, ...] = ("public",),
) -> dict[Any, int]:
    """Learn the frequency table of *column* with an S_Agg count query.

    In production the result would be re-encrypted under k2 and cached by
    every TDS; here it is returned to the caller, which plays the role of
    the provider distributing the refreshed histogram.  *roles* must carry
    at least aggregate-only access to *table* under the deployment's
    policy."""
    querier = deployment.make_querier(subject=subject, roles=roles)
    sql = f"SELECT {column}, COUNT(*) AS n FROM {table} GROUP BY {column}"
    envelope = querier.make_envelope(sql)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.connected_tds(worker_fraction),
        rng=random.Random(deployment.rng.getrandbits(64)),
        meta="s_agg",
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
    return {row[column]: row["n"] for row in rows}


def build_histogram(
    deployment: Deployment,
    table: str,
    column: str,
    num_buckets: int,
    worker_fraction: float = 1.0,
    roles: tuple[str, ...] = ("public",),
) -> EquiDepthHistogram:
    """Discovery + equi-depth decomposition in one call (the ED_Hist
    pre-protocol)."""
    distribution = discover_distribution(
        deployment, table, column, worker_fraction, roles=roles
    )
    return EquiDepthHistogram.from_distribution(distribution, num_buckets)
