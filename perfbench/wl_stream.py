"""trace-stream: ``replay_stream`` of a ~600k-row CSV trace, WDEQ only.

The trace is written by ``tools/gen_trace.py`` from the seed, once per run,
before the workload process starts (outside timing and set-up).  Instances
are small and ragged (2..10 tasks, n ~ 6) and carry release times — the
opposite shape to sweep-policies' large dense t=0 batches, so a kernel
change that helps one shape and hurts the other shows.  Parsing in
``scenarios.stream`` is the largest share.
"""

from __future__ import annotations

import importlib.util
import os
import time
from typing import Any

import ledger

ROWS = 600_000
TASKS = (2, 10)
P = 8.0
RELEASE_RATE = 1.0
CHUNK = 4096
POLICIES = ("WDEQ",)
#: Instances of the trace prefix re-checked against load_trace + simulate_batch.
PREFIX_INSTANCES = CHUNK


class _Deadline(Exception):
    """Raised from ``on_chunk`` to end a replay when measurement time is up."""


def write_trace(root: str, path: str, seed: int) -> tuple[int, int]:
    """Write the seeded trace with ``tools/gen_trace.py``; ``(instances, rows)``."""
    spec = importlib.util.spec_from_file_location(
        "gen_trace", os.path.join(root, "tools", "gen_trace.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(path, "csv", ROWS, None, TASKS, P, RELEASE_RATE, seed)


def setup(seed: int) -> Any:
    import repro.batch.kernels  # noqa: F401
    import repro.batch.sim_kernels  # noqa: F401
    import repro.scenarios.stream  # noqa: F401

    return None


def _pass(trace: str, deadline: float | None) -> dict[str, Any]:
    """One replay; ``deadline`` ends it early (at a chunk boundary)."""
    from repro.scenarios.stream import replay_stream

    chunks: list[tuple[float, int, int]] = []  # (done at, instances, rows)
    first: dict[str, dict[str, float]] = {}
    start = time.perf_counter()

    def on_chunk(chunk: Any, metrics: dict[str, dict[str, float]]) -> None:
        at = time.perf_counter() - start
        chunks.append((at, chunk.batch.batch_size, int(chunk.batch.counts.sum())))
        if not first:
            first.update(metrics)
        if deadline is not None and time.perf_counter() >= deadline:
            raise _Deadline

    per_policy: dict[str, Any] = {}
    total = 0
    try:
        per_policy, total = replay_stream(trace, P, chunk_size=CHUNK, policies=POLICIES, on_chunk=on_chunk)
    except _Deadline:
        pass
    return {
        "wall": time.perf_counter() - start,
        "chunks": chunks,
        "per_policy": per_policy,
        "total": total,
        "first_chunk": first,
    }


def measure(_: Any, seconds: float, work_dir: str, trace: str) -> dict[str, Any]:
    deadline = time.perf_counter() + seconds
    passes = [_pass(trace, None)]
    while time.perf_counter() < deadline:
        passes.append(_pass(trace, deadline))
    full = passes[0]
    rows = sum(r for p in passes for _, _, r in p["chunks"])
    wall = sum(p["chunks"][-1][0] for p in passes if p["chunks"])
    # An instance's latency is the time its chunk took from the end of the
    # previous chunk (read, simulate, fold); every chunk of every pass counts.
    latencies, weights = [], []
    for replay in passes:
        previous = 0.0
        for at, instances, _ in replay["chunks"]:
            latencies.append(at - previous)
            weights.append(instances)
            previous = at
    return {
        "rows_per_s": rows / wall,
        "rows_measured": rows,
        "wall_measured": wall,
        "passes": len(passes),
        "item_latencies": latencies,
        "item_weights": weights,
        "counters": {"scenarios.stream.rows": sum(r for _, _, r in full["chunks"])},
        "instances": full["total"],
        "per_policy": full["per_policy"],
        "first_chunk": full["first_chunk"],
    }


def traced(_: Any, work_dir: str, tracer: ledger.Tracer, trace: str) -> float:
    """A traced replay between two untraced ones; returns the untraced time."""
    import repro.batch.kernels as kernels
    import repro.batch.sim_kernels as sim_kernels
    import repro.scenarios.stream as stream
    from repro.scenarios.stream import replay_stream

    untraced = _pass(trace, None)["wall"]
    original_stream = stream.stream_trace

    def timed_stream(*args, **kwargs):
        chunks = original_stream(*args, **kwargs)
        while True:
            with tracer.span("scenarios.stream.parse"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            tracer.add("scenarios.stream.chunks")
            tracer.add("scenarios.stream.rows", int(chunk.batch.counts.sum()))
            yield chunk

    with ledger.Probes(tracer) as probes:
        stream.stream_trace = timed_stream
        try:
            probes.wrap(sim_kernels, "simulate_batch", "batch.sim_kernels", after=ledger.sim_kernel_counts(tracer))
            probes.wrap(kernels, "combined_lower_bound_batch", "batch.kernels.lower_bound")
            with tracer.span(ledger.ROOT_SPAN):
                # replay_stream's self time, outside parsing and the
                # kernels, is folding the chunk metrics.
                with tracer.span("scenarios.stream.replay"):
                    replay_stream(trace, P, chunk_size=CHUNK, policies=POLICIES)
        finally:
            stream.stream_trace = original_stream
    untraced_after = _pass(trace, None)["wall"]
    return (untraced + untraced_after) / 2


def layer_metrics(tracer: ledger.Tracer) -> dict[str, float]:
    spans, counts = tracer.spans, tracer.counts
    own = ledger.self_times(spans)
    parse = sum(ledger.durations(spans, "scenarios.stream.parse"))
    sim_busy = sum(ledger.durations(spans, "batch.sim_kernels"))
    events = counts.get("batch.sim_kernels.events", 0.0)
    rows = counts.get("scenarios.stream.rows", 0.0)
    return {
        "scenarios.stream.parse_s": parse,
        "scenarios.stream.fold_s": own.get("scenarios.stream.replay", 0.0),
        "scenarios.stream.chunks": counts.get("scenarios.stream.chunks", 0.0),
        "scenarios.stream.rows": rows,
        "scenarios.stream.parse_rows_per_s": rows / parse if parse else 0.0,
        "batch.kernels.lower_bound_s": sum(ledger.durations(spans, "batch.kernels.lower_bound")),
        "batch.sim_kernels.busy_s": sim_busy,
        "batch.sim_kernels.calls": counts.get("batch.sim_kernels.calls", 0.0),
        "batch.sim_kernels.rows": counts.get("batch.sim_kernels.rows", 0.0),
        "batch.sim_kernels.events": events,
        "batch.sim_kernels.events_per_s": events / sim_busy if sim_busy else 0.0,
    }


def check(trace: str, written: tuple[int, int], out: dict[str, Any]) -> list[str]:
    """Counts match the generator; the first chunk matches load_trace + simulate_batch."""
    import numpy as np

    import repro
    from repro.batch.kernels import combined_lower_bound_batch
    from repro.batch.sim_kernels import WdeqBatchPolicy
    from repro.core.batch import InstanceBatch
    from repro.scenarios.families import load_trace

    failures: list[str] = []
    instances, rows = written
    if out["instances"] != instances:
        failures.append(f"stream: replayed {out['instances']} instances, generator wrote {instances}")
    if out["counters"]["scenarios.stream.rows"] != rows:
        failures.append(
            f"stream: replayed {out['counters']['scenarios.stream.rows']} rows, generator wrote {rows}"
        )
    prefix, releases = load_trace(trace, P, max_instances=PREFIX_INSTANCES)
    batch = InstanceBatch.from_instances(prefix)
    result = repro.simulate_batch(batch, WdeqBatchPolicy(), release_times=releases)
    bounds = combined_lower_bound_batch(batch)
    objectives = result.weighted_completion_times()
    ratios = np.where(bounds > 0, objectives / np.where(bounds > 0, bounds, 1.0), 1.0)
    expected = {
        "mean_ratio": float(ratios.mean()),
        "max_ratio": float(ratios.max()),
        "mean_objective": float(objectives.mean()),
        "mean_makespan": float(result.makespans().mean()),
    }
    got = out["first_chunk"].get("WDEQ", {})
    for name, value in expected.items():
        if not np.isclose(got.get(name, np.nan), value, rtol=1e-9):
            failures.append(f"stream: first chunk {name} {got.get(name)} != load_trace path {value}")
    return failures
