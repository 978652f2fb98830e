"""sweep-policies: every default online policy over a mixed-n cluster grid.

``SweepRunner`` on ``ExecutionContext(backend="vectorized", workers=2)``:
whole cells shard over the process pool (``repro.exec``), each cell is one
``simulate_batch`` call per policy (``batch.sim_kernels``), and the records
go through a ``ResultsStore`` (``scenarios.store``).  Every instance is
released at t=0, so the paper's guarantee is checkable on the output:
WDEQ <= 2 x a Lemma 1 lower bound for every instance (see :func:`check`).
"""

from __future__ import annotations

import os
import time
from typing import Any

import ledger

WORKERS = 2
#: Big and small n alternate: ``ExecutionContext.map`` hands the pool four
#: contiguous chunks of cells, and interleaving keeps those chunks of similar
#: cost, so the wall time does not depend on which worker drew which chunk.
GRID = {"n": [128, 32, 112, 48, 96, 64, 80], "P": [32.0, 64.0]}
COUNT = 32
#: Cells (index) and rows (instance position) re-simulated with the scalar
#: engine by the output check: n=32 at P=32 and n=128 at P=64.
CHECK_CELLS = (1, 7)
CHECK_ROWS = (0, 17, 31)
_SPANS_KEY = "_perfbench_spans"


def spec():
    from repro.scenarios import ScenarioSpec

    return ScenarioSpec(
        name="perfbench-sweep", generator="cluster_instances", grid=GRID, count=COUNT
    )


def _noop(value: int) -> int:
    return value


def setup(seed: int) -> Any:
    """Context with a live pool and warm workers (imports done)."""
    from repro.exec import ExecutionContext
    from repro.scenarios import ScenarioSpec, SweepRunner

    ctx = ExecutionContext(seed=seed, backend="vectorized", workers=WORKERS)
    ctx.map(_noop, range(WORKERS))
    warm = ScenarioSpec(
        name="perfbench-warmup", generator="cluster_instances", grid={"n": [8, 9]}, count=2
    )
    SweepRunner(warm, ctx).run()
    return ctx


def _one_rep(ctx: Any, store_dir: str) -> tuple[float, list[dict[str, Any]]]:
    from repro.scenarios import SweepRunner
    from repro.scenarios.store import ResultsStore

    start = time.perf_counter()
    result = SweepRunner(spec(), ctx).run(store=ResultsStore(store_dir))
    return time.perf_counter() - start, result.records


def measure(ctx: Any, seconds: float, work_dir: str) -> dict[str, Any]:
    store_dir = os.path.join(work_dir, "store")
    instances = len(GRID["n"]) * len(GRID["P"]) * COUNT
    walls: list[float] = []
    records: list[dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < 3:
        wall, records = _one_rep(ctx, store_dir)
        walls.append(wall)
    return {
        "unit_walls": walls,
        "unit_items": instances,
        # Every instance of a sweep is delivered when SweepRunner.run returns.
        "item_latencies": [w for w in walls for _ in range(instances)],
        "records": records,
    }


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #


def install_kernel_probes(probes: ledger.Probes) -> None:
    """Probes on the cell pipeline's layers (run inside pool workers too)."""
    import repro.batch.kernels as kernels
    import repro.batch.sim_kernels as sim_kernels
    import repro.scenarios.families as families
    from repro.core.batch import InstanceBatch

    probes.wrap(families, "build_cell_workload", "workloads.generate")
    probes.wrap(InstanceBatch, "from_instances", "core.batch.pack")
    probes.wrap(kernels, "combined_lower_bound_batch", "batch.kernels.lower_bound")
    probes.wrap(sim_kernels, "simulate_batch", "batch.sim_kernels", after=ledger.sim_kernel_counts(probes.tracer))


_worker_tracer: ledger.Tracer | None = None


def traced_run_cell(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Pool-side stand-in for ``run_cell``: one ``exec.cell`` span per cell.

    The spans and counts recorded in the worker ride back on the cell's
    first record and are detached again, before the store sees them, by
    the probe on ``ResultsStore.write_records``.
    """
    global _worker_tracer
    from repro.scenarios import runner

    original = runner.__dict__.get("_perfbench_original_run_cell", runner.run_cell)
    if _worker_tracer is None:
        _worker_tracer = ledger.Tracer("worker")
        install_kernel_probes(ledger.Probes(_worker_tracer))
    tracer = _worker_tracer
    tracer.spans, tracer.counts = [], {}
    with tracer.span("exec.cell"):
        records = original(payload)
    if records:
        records[0][_SPANS_KEY] = {"spans": tracer.spans, "counts": tracer.counts}
    return records


def traced(ctx: Any, work_dir: str, tracer: ledger.Tracer) -> float:
    """A traced rep of the sweep between two untraced ones; returns the untraced time."""
    from repro.exec import ExecutionContext
    from repro.scenarios import SweepRunner, runner
    from repro.scenarios.store import ResultsStore

    store_dir = os.path.join(work_dir, "store")
    untraced, _ = _one_rep(ctx, store_dir)

    worker_spans: list[dict[str, Any]] = []
    record_count = 0
    original_write = ResultsStore.write_records

    def write_records(self, records):
        nonlocal record_count
        records = list(records)
        for record in records:
            extra = record.pop(_SPANS_KEY, None)
            if extra is not None:
                worker_spans.extend(extra["spans"])
                for name, value in extra["counts"].items():
                    tracer.add(name, value)
        record_count += len(records)
        with tracer.span("scenarios.store.write"):
            return original_write(self, records)

    probes = ledger.Probes(tracer)
    runner._perfbench_original_run_cell = runner.run_cell
    try:
        runner.run_cell = traced_run_cell
        ResultsStore.write_records = write_records
        probes.wrap(ResultsStore, "write_summary", "scenarios.store.write")
        probes.wrap(ExecutionContext, "map_cells", "exec.map")
        # The runner's own work outside the pool and the store (payloads,
        # flattening records) is left unattributed under the root span.
        with tracer.span(ledger.ROOT_SPAN):
            SweepRunner(spec(), ctx).run(store=ResultsStore(store_dir))
    finally:
        probes.restore()
        ResultsStore.write_records = original_write
        runner.run_cell = runner._perfbench_original_run_cell
        del runner._perfbench_original_run_cell
    map_span = next(s for s in tracer.spans if s["name"] == "exec.map")
    tracer.adopt(worker_spans, parent=map_span["id"])
    tracer.add("scenarios.runner.records", record_count)
    untraced_after, _ = _one_rep(ctx, store_dir)
    return (untraced + untraced_after) / 2


def layer_metrics(tracer: ledger.Tracer) -> dict[str, float]:
    spans = tracer.spans
    counts = tracer.counts
    map_span = next(s for s in spans if s["name"] == "exec.map")
    map_wall = map_span["end"] - map_span["start"]
    cells = [s for s in spans if s["name"] == "exec.cell"]
    busy_by_pid: dict[int, float] = {}
    for cell in cells:
        busy_by_pid[cell["pid"]] = busy_by_pid.get(cell["pid"], 0.0) + cell["end"] - cell["start"]
    busy = sum(busy_by_pid.values())
    mean_busy = busy / WORKERS
    sim_busy = sum(ledger.durations(spans, "batch.sim_kernels"))
    return {
        "workloads.generate_s": sum(ledger.durations(spans, "workloads.generate")),
        "core.batch.pack_s": sum(ledger.durations(spans, "core.batch.pack")),
        "exec.wall_s": map_wall,
        "exec.worker_busy_s": busy,
        "exec.queue_wait_s": sum(c["start"] - map_span["start"] for c in cells),
        "exec.idle_frac": 1.0 - busy / (WORKERS * map_wall),
        "exec.imbalance": max(busy_by_pid.values()) / mean_busy,
        "exec.tasks": float(len(cells)),
        "batch.kernels.lower_bound_s": sum(ledger.durations(spans, "batch.kernels.lower_bound")),
        "batch.sim_kernels.busy_s": sim_busy,
        "batch.sim_kernels.calls": counts.get("batch.sim_kernels.calls", 0.0),
        "batch.sim_kernels.rows": counts.get("batch.sim_kernels.rows", 0.0),
        "batch.sim_kernels.events": counts.get("batch.sim_kernels.events", 0.0),
        "batch.sim_kernels.events_per_s": counts.get("batch.sim_kernels.events", 0.0) / sim_busy,
        "scenarios.store.write_s": sum(ledger.durations(spans, "scenarios.store.write")),
        "scenarios.runner.records": counts.get("scenarios.runner.records", 0.0),
    }


# --------------------------------------------------------------------- #
# Output checks (outside timing, in the benchmark's parent process)
# --------------------------------------------------------------------- #


def wdeq_split_bound(instance: Any) -> float:
    """Lemma 1's mixed bound at the split WDEQ itself induces.

    Theorem 4's proof splits each task's volume into the part WDEQ
    processed below the task's cap and the part it processed at the cap,
    and shows WDEQ <= 2 x the mixed bound of that split.  The combined
    bound (a maximum over a few *uniform* splits) can be lower than this
    one, so WDEQ / combined bound may exceed 2 without contradicting the
    theorem; this is the bound the theorem's guarantee is stated against.
    """
    import numpy as np

    from repro.algorithms.wdeq import wdeq_schedule
    from repro.core.bounds import mixed_lower_bound

    schedule = wdeq_schedule(instance)
    lengths = np.diff(np.concatenate([[0.0], np.asarray(schedule.completion_times)]))
    rates = np.asarray(schedule.rates)
    capped = np.isclose(rates, instance.deltas[:, None], rtol=1e-9)
    at_cap = (rates * capped * lengths[None, :]).sum(axis=1)
    return mixed_lower_bound(instance, np.clip(1.0 - at_cap / instance.volumes, 0.0, 1.0))


def _cell_workload(cell: Any) -> tuple[Any, Any, Any]:
    from repro.core.batch import InstanceBatch
    from repro.scenarios.families import build_cell_workload
    from repro.scenarios.grid import split_cell_params

    gen_kwargs, count, arrival, weight = split_cell_params(spec(), cell)
    instances, releases = build_cell_workload(
        spec().generator, gen_kwargs, count, arrival, weight, cell.seed
    )
    return instances, releases, InstanceBatch.from_instances(instances)


def check(seed: int, records: list[dict[str, Any]]) -> tuple[list[str], dict[str, Any]]:
    """WDEQ within Theorem 4's factor 2; sampled rows match scalar simulate.

    Returns the failures and what the check saw: the largest WDEQ /
    combined-bound ratio and the rows that needed the split bound.
    """
    import numpy as np

    import repro
    from repro.batch.kernels import combined_lower_bound_batch
    from repro.batch.sim_kernels import WdeqBatchPolicy, default_batch_policies
    from repro.exec import ExecutionContext
    from repro.scenarios import SweepRunner
    from repro.simulation.nonclairvoyant import default_policies

    failures: list[str] = []
    seen = {"wdeq_max_ratio_combined": 0.0, "rows_above_2x_combined": 0, "wdeq_max_ratio_split": 0.0}
    cells = SweepRunner(spec(), ExecutionContext(seed=seed)).cells()
    expected_records = len(cells) * 4
    if len(records) != expected_records:
        failures.append(f"sweep: {len(records)} records, expected {expected_records}")
    for record in records:
        if record["label"] != "WDEQ":
            continue
        ratio = record["metrics"]["max_ratio"]
        seen["wdeq_max_ratio_combined"] = max(seen["wdeq_max_ratio_combined"], ratio)
        if ratio <= 2.0:
            continue
        instances, _, batch = _cell_workload(cells[record["cell"]])
        objectives = repro.simulate_batch(batch, WdeqBatchPolicy()).weighted_completion_times()
        ratios = objectives / combined_lower_bound_batch(batch)
        if not np.isclose(ratios.max(), ratio, rtol=1e-9):
            failures.append(f"sweep: cell {record['cell']} WDEQ max_ratio {ratio} not reproduced")
        for row in np.nonzero(ratios > 2.0)[0]:
            split_ratio = objectives[row] / wdeq_split_bound(instances[row])
            seen["rows_above_2x_combined"] += 1
            seen["wdeq_max_ratio_split"] = max(seen["wdeq_max_ratio_split"], split_ratio)
            if split_ratio > 2.0 + 1e-9:
                failures.append(
                    f"sweep: cell {record['cell']} row {row}: WDEQ is {split_ratio:.4f} x its split bound (> 2)"
                )
    by_cell = {(r["cell"], r["label"]): r["metrics"] for r in records}
    for index in CHECK_CELLS:
        instances, releases, batch = _cell_workload(cells[index])
        bounds = combined_lower_bound_batch(batch)
        for policy in default_batch_policies(batch):
            result = repro.simulate_batch(batch, policy, release_times=releases)
            objectives = result.weighted_completion_times()
            got = by_cell.get((index, policy.name))
            if got is None or not np.isclose(got["mean_objective"], objectives.mean(), rtol=1e-9):
                failures.append(f"sweep: cell {index} {policy.name} mean_objective differs from simulate_batch")
            for row in CHECK_ROWS:
                scalar = next(p for p in default_policies(instances[row]) if p.name == policy.name)
                reference = repro.simulate(instances[row], scalar).weighted_completion_time()
                if not np.isclose(objectives[row], reference, rtol=1e-7):
                    failures.append(
                        f"sweep: cell {index} row {row} {policy.name}: batch {objectives[row]!r} "
                        f"!= scalar {reference!r}"
                    )
        if not (bounds > 0).all():
            failures.append(f"sweep: cell {index} has a non-positive lower bound")
    return failures, seen
