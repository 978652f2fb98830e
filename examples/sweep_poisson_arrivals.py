"""Scenario sweep walkthrough: bursty Poisson arrivals, programmatically.

The CLI equivalent is ``malleable-repro sweep scenarios/poisson_bursts.toml
--backend vectorized``; this script builds the same kind of sweep in code to show the
four moving parts — spec, grid expansion, runner, results store — and then
verifies the backend-independence claim by re-running the sweep on the
serial backend and comparing every metric.

Run with ``PYTHONPATH=src python examples/sweep_poisson_arrivals.py``.
"""

from __future__ import annotations

import tempfile

from repro.exec import ExecutionContext
from repro.scenarios import ResultsStore, ScenarioSpec, SweepRunner

# A scenario is data: a generator name, a parameter grid, an arrival
# process and a policy line-up.  The same dict shape loads from TOML.
spec = ScenarioSpec(
    name="poisson-bursts-example",
    description="gangs of 4 tasks released at Poisson burst times",
    generator="cluster_instances",
    params={"P": 64.0},
    grid={"n": (8, 16), "arrivals.rate": (0.5, 2.0)},
    count=6,
    policies=("WDEQ", "DEQ"),
    arrivals={"process": "bursty-poisson", "burst_size": 4, "spread": 0.05},
    metrics=("mean_ratio", "mean_makespan"),
)

# The grid expands deterministically: axes sorted by name, row-major.
for cell in spec.expand(base_seed=7):
    print(f"cell {cell.index}: {cell.label()} (seed {cell.seed})")

# Run vectorized: each cell is one simulate_batch call per policy.
with tempfile.TemporaryDirectory() as tmp:
    store = ResultsStore(tmp)
    with ExecutionContext(seed=7, backend="vectorized") as ctx:
        vectorized = SweepRunner(spec, ctx).run(store=store)
    print()
    print(vectorized.to_text())
    print(f"\npersisted {len(store.load())} records to {store.records_path}")

# The serial backend replays the identical workload through the scalar
# event engine — the summary metrics agree up to floating-point noise.
with ExecutionContext(seed=7) as ctx:
    serial = SweepRunner(spec, ctx).run()
worst = max(
    abs(a["metrics"][k] - b["metrics"][k])
    for a, b in zip(serial.records, vectorized.records)
    for k in a["metrics"]
)
print(f"\nserial vs vectorized: max metric disagreement {worst:.2e}")
