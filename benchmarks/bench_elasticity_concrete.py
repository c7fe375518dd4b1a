"""Fig. 10e/i/j validated on concrete executions: simulated aggregation
makespan vs the fraction of TDSs available as workers."""

from repro.bench import build_deployment, publish, render_table
from repro.simulation import run_simulated
from repro.tds.histogram import EquiDepthHistogram

GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
FRACTIONS = (0.1, 0.5, 1.0)


def sweep_availability():
    rows = []
    for fraction in FRACTIONS:
        deployment = build_deployment(num_tds=32, num_districts=4, seed=11)
        sagg = run_simulated(
            deployment, "s_agg", GROUP_SQL,
            worker_fraction=fraction, seed=4,
        )
        deployment2 = build_deployment(num_tds=32, num_districts=4, seed=11)
        frequencies = {
            row["district"]: row["n"]
            for row in deployment2.reference_answer(GROUP_SQL)
        }
        hist = EquiDepthHistogram.from_distribution(frequencies, 2)
        ed = run_simulated(
            deployment2, "ed_hist", GROUP_SQL,
            worker_fraction=fraction, seed=4, histogram=hist,
        )
        rows.append(
            (
                f"{fraction:.0%}",
                sagg.report.t_q,
                len(sagg.stats.participants),
                ed.report.t_q,
                len(ed.stats.participants),
            )
        )
    return rows


def test_concrete_elasticity(benchmark):
    rows = benchmark.pedantic(sweep_availability, rounds=1, iterations=1)
    publish(
        "concrete_elasticity",
        render_table(
            "Concrete elasticity — simulated TQ vs worker availability "
            "(32 TDSs, COUNT GROUP BY district)",
            ["available", "S_Agg TQ (s)", "S_Agg PTDS", "ED_Hist TQ (s)", "ED_Hist PTDS"],
            rows,
        ),
    )

    by_fraction = {r[0]: r for r in rows}
    # more available workers never slow either protocol down...
    assert by_fraction["100%"][1] <= by_fraction["10%"][1] * 1.05
    assert by_fraction["100%"][3] <= by_fraction["10%"][3] * 1.05
    # ...and ED_Hist benefits at least as much as S_Agg does: S_Agg's
    # later rounds cannot use extra workers (its parallelism shrinks
    # every iteration — the paper's "lowest elasticity" verdict)
    sagg_gain = by_fraction["10%"][1] / by_fraction["100%"][1]
    ed_gain = by_fraction["10%"][3] / by_fraction["100%"][3]
    assert ed_gain >= sagg_gain * 0.8
