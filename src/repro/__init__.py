"""repro — reproduction of "Privacy-Preserving Query Execution using a
Decentralized Architecture and Tamper Resistant Hardware" (EDBT 2014).

Quick start
-----------

>>> from repro import Deployment, ProtocolDriver, smart_meter_factory
>>> import random
>>> dep = Deployment.build(
...     20, smart_meter_factory(num_districts=4),
...     tables=["Power", "Consumer"], seed=1)
>>> querier = dep.make_querier()
>>> env = querier.make_envelope(
...     "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district")
>>> dep.ssi.post_query(env)
>>> driver = ProtocolDriver(
...     dep.ssi, dep.tds_list, dep.tds_list, random.Random(0), "s_agg")
>>> driver.execute(env)
>>> rows = querier.decrypt_result(dep.ssi.fetch_result(env.query_id))
>>> sum(r["n"] for r in rows)
20

Subpackages
-----------

=====================  ==================================================
``repro.crypto``       AES-128, nDet_Enc / Det_Enc, bucket hashing, keys
``repro.sql``          SQL dialect engine (SELECT..SIZE, partial aggs)
``repro.tds``          Trusted Data Server: device, AC, noise, histograms
``repro.ssi``          untrusted Supporting Server Infrastructure
``repro.protocols``    the querying protocols (basic, S_Agg, noise, hist)
``repro.exposure``     information-exposure analysis and attacks (§5)
``repro.costmodel``    calibrated analytic cost model (§6)
``repro.simulation``   timed trace replay with connectivity schedules
``repro.workloads``    smart-meter / healthcare synthetic data
=====================  ==================================================
"""

from repro.exceptions import (
    AccessDeniedError,
    ConfigurationError,
    CryptoError,
    DecryptionError,
    EvaluationError,
    InvalidKeyError,
    PlanningError,
    ProtocolError,
    QueryAbortedError,
    ReproError,
    ResourceExhaustedError,
    SchemaError,
    SQLError,
    SQLSyntaxError,
)
from repro.protocols import (
    Deployment,
    ProtocolDriver,
    Querier,
    build_histogram,
    discover_distribution,
)
from repro.simulation import run_simulated
from repro.sql import Database, execute, parse, schema
from repro.workloads import pcehr_factory, smart_meter_factory

__version__ = "1.0.0"

__all__ = [
    "AccessDeniedError",
    "ConfigurationError",
    "CryptoError",
    "Database",
    "DecryptionError",
    "Deployment",
    "EvaluationError",
    "InvalidKeyError",
    "PlanningError",
    "ProtocolDriver",
    "ProtocolError",
    "Querier",
    "QueryAbortedError",
    "ReproError",
    "ResourceExhaustedError",
    "SQLError",
    "SQLSyntaxError",
    "SchemaError",
    "build_histogram",
    "discover_distribution",
    "execute",
    "parse",
    "pcehr_factory",
    "run_simulated",
    "schema",
    "smart_meter_factory",
]
