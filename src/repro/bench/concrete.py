"""Concrete protocol executions for shape validation.

The Fig. 10 numbers come from the calibrated analytic model (as in the
paper); this module cross-checks the model's *shape* claims on real
protocol executions over a small simulated population: measured covering
result sizes, participant counts and replayed timings must order the
protocols the same way the model does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.frames import QueryMeta
from repro.protocols import Deployment
from repro.simulation import run_simulated
from repro.tds.histogram import EquiDepthHistogram
from repro.workloads import smart_meter_factory


@dataclass(frozen=True)
class ConcreteResult:
    """Measured counters for one protocol run."""

    protocol: str
    tuples_collected: int
    participants: int
    bytes_processed: int
    aggregation_rounds: int
    t_q_seconds: float
    t_local_mean: float


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


def build_deployment(num_tds: int = 24, num_districts: int = 4, seed: int = 7) -> Deployment:
    return Deployment.build(
        num_tds,
        smart_meter_factory(num_districts=num_districts),
        tables=["Power", "Consumer"],
        seed=seed,
    )


def run_all_protocols(
    num_tds: int = 24, num_districts: int = 4, nf_small: int = 2, nf_large: int = 20
) -> dict[str, ConcreteResult]:
    """Execute every Group-By protocol on identical fresh deployments and
    return the measured counters."""
    results: dict[str, ConcreteResult] = {}

    def histogram(deployment: Deployment) -> EquiDepthHistogram:
        freq = {
            row["district"]: row["n"]
            for row in deployment.reference_answer(GROUP_SQL)
        }
        return EquiDepthHistogram.from_distribution(freq, max(1, len(freq) // 2))

    configs = [
        ("S_Agg", QueryMeta("s_agg")),
        (f"R{nf_small}_Noise", QueryMeta("rnf_noise", {"nf": nf_small})),
        (f"R{nf_large}_Noise", QueryMeta("rnf_noise", {"nf": nf_large})),
        ("C_Noise", QueryMeta("c_noise")),
        ("ED_Hist", QueryMeta("ed_hist")),
    ]
    for name, meta in configs:
        deployment = build_deployment(num_tds, num_districts)
        run = run_simulated(
            deployment, meta, GROUP_SQL, seed=3, histogram=histogram(deployment)
        )
        results[name] = ConcreteResult(
            protocol=name,
            tuples_collected=run.stats.tuples_collected,
            participants=len(run.stats.participants),
            bytes_processed=run.stats.bytes_processed,
            aggregation_rounds=run.stats.aggregation_rounds,
            t_q_seconds=run.report.t_q,
            t_local_mean=run.report.t_local_mean(),
        )
    return results
