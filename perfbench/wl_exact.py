"""exact-opt: ``repro.optimal(batch, method="branch-and-bound")`` on two sub-batches.

Single process, no simulation kernel: ``lp.exact`` and the LP solvers do the
work.  The two sub-batches are fixed by family and size:

* ``cluster_instances`` at n=10 — prefix LPs of up to 8 tasks run in the
  lockstep simplex, longer ones in per-LP HiGHS, so both paths run;
* ``uniform_instances`` at n=7 — lockstep only.  Pruning is much weaker on
  this family; never use it at n >= 9 (one n=9 batch ran for minutes).

The search effort of branch-and-bound is heavy-tailed over random
instances (one n=10 cluster instance in fifty costs more than the other
forty-nine together), so seeds drawing fresh instances would measure which
instances were drawn, not the code.  The instance *shapes* therefore come
from one fixed base draw, and the seed relabels and rescales them: a
seeded permutation of each instance's tasks and seeded factors on its
volumes and weights.  Values and orderings change with the seed; the
search effort stays within a few percent.
"""

from __future__ import annotations

import time
from typing import Any

import ledger

#: (family, n, count) of the two sub-batches.
SUB_BATCHES = (("cluster_instances", 10, 8), ("uniform_instances", 7, 8))
#: Seed of the base draw the per-seed transform starts from.
BASE_SEED = 2


def make_batches(seed: int) -> list[Any]:
    import numpy as np

    from repro.core.batch import InstanceBatch
    from repro.core.instance import Instance, Task
    from repro.workloads import generators

    base_rng = np.random.default_rng(BASE_SEED)
    rng = np.random.default_rng(seed)
    batches = []
    for family, n, count in SUB_BATCHES:
        kwargs = {"P": 1.0} if family == "uniform_instances" else {}
        base = list(getattr(generators, family)(n, count, rng=base_rng, **kwargs))
        instances = []
        for inst in base:
            perm = rng.permutation(inst.n)
            volume_scale, weight_scale = rng.uniform(0.5, 2.0, size=2)
            tasks = [inst.tasks[int(i)] for i in perm]
            instances.append(
                Instance(
                    P=inst.P,
                    tasks=[
                        Task(volume=t.volume * volume_scale, weight=t.weight * weight_scale, delta=t.delta)
                        for t in tasks
                    ],
                )
            )
        batches.append(InstanceBatch.from_instances(instances))
    return batches


def setup(seed: int) -> Any:
    import repro
    import repro.lp.exact  # noqa: F401

    return make_batches(seed)


def _one_rep(batches: list[Any]) -> tuple[float, list[float], list[Any]]:
    import repro

    start = time.perf_counter()
    results, done = [], []
    for batch in batches:
        results.append(repro.optimal(batch, method="branch-and-bound"))
        done.append(time.perf_counter() - start)
    return time.perf_counter() - start, done, results


def _stats(results: list[Any]) -> dict[str, int]:
    return {
        "lp.exact.lps_solved": sum(r.stats.lps_solved for r in results),
        "lp.exact.nodes_expanded": sum(r.stats.nodes_expanded for r in results),
    }


def measure(batches: list[Any], seconds: float, work_dir: str) -> dict[str, Any]:
    import repro.lp.exact as exact

    # Count calls into the two LP paths (no spans): an integer increment per
    # call, negligible next to an LP solve, so the untraced run can still
    # say which LP paths actually ran.
    paths = ledger.Tracer("lp-paths")
    walls, latencies, stats = [], [], []
    results: list[Any] = []
    with ledger.Probes(paths) as probes:
        probes.wrap(exact, "solve_linear_program_batch", "lockstep", timed=False)
        probes.wrap(exact, "_solve_one_generic", "highs", timed=False)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(walls) < 2:
            wall, done, results = _one_rep(batches)
            walls.append(wall)
            for batch, at in zip(batches, done):
                latencies.extend([at] * batch.batch_size)
            stats.append(_stats(results))
    return {
        "unit_walls": walls,
        "unit_items": sum(b.batch_size for b in batches),
        "item_latencies": latencies,
        "counters": stats[0],
        "counters_repeat": all(s == stats[0] for s in stats),
        "lp_paths": {k: int(paths.counts.get(k, 0)) // len(walls) for k in ("lockstep", "highs")},
        "objectives": [r.objectives.tolist() for r in results],
        "orders": [r.orders.tolist() for r in results],
    }


def _timed_optimal(batch: Any) -> float:
    import repro

    start = time.perf_counter()
    repro.optimal(batch, method="branch-and-bound")
    return time.perf_counter() - start


def traced(batches: list[Any], work_dir: str, tracer: ledger.Tracer) -> float:
    """Each sub-batch solved untraced, traced, untraced; returns the untraced total.

    Interleaving per sub-batch keeps the traced and untraced solves of one
    sub-batch seconds apart, so host speed drift falls on both alike.
    """
    import repro
    import repro.lp.exact as exact

    def lockstep_after(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.add("lp.simplex.problems", int(result.iterations.shape[0]))
        tracer.add("lp.simplex.pivots", int(result.iterations.sum()))

    def highs_after(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.add("lp.highs.calls")

    untraced = 0.0
    for batch in batches:
        before = _timed_optimal(batch)
        with ledger.Probes(tracer) as probes:
            probes.wrap(exact, "solve_linear_program_batch", "lp.simplex", after=lockstep_after)
            probes.wrap(exact, "_solve_one_generic", "lp.highs", after=highs_after)
            with tracer.span(ledger.ROOT_SPAN), tracer.span("lp.exact"):
                result = repro.optimal(batch, method="branch-and-bound")
        untraced += (before + _timed_optimal(batch)) / 2
        stats = result.stats
        tracer.add("lp.exact.lps_solved", stats.lps_solved)
        tracer.add("lp.exact.nodes_expanded", stats.nodes_expanded)
        tracer.add("lp.exact.pruned", stats.pruned + stats.pruned_dominated)
        tracer.add("lp.exact.floors_certified", stats.floors_certified)
        tracer.counts["lp.exact.frontier_peak"] = max(
            tracer.counts.get("lp.exact.frontier_peak", 0), stats.frontier_peak
        )
    return untraced


def layer_metrics(tracer: ledger.Tracer) -> dict[str, float]:
    spans, counts = tracer.spans, tracer.counts
    pruned = counts.get("lp.exact.pruned", 0.0)
    expanded = counts.get("lp.exact.nodes_expanded", 0.0)
    return {
        "lp.exact.busy_s": sum(ledger.durations(spans, "lp.exact")),
        "lp.exact.lps_solved": counts.get("lp.exact.lps_solved", 0.0),
        "lp.exact.nodes_expanded": expanded,
        "lp.exact.pruned": pruned,
        # Share of generated search nodes cut without being expanded.
        "lp.exact.prune_ratio": pruned / (pruned + expanded) if pruned + expanded else 0.0,
        "lp.exact.frontier_peak": counts.get("lp.exact.frontier_peak", 0.0),
        "lp.exact.floors_certified": counts.get("lp.exact.floors_certified", 0.0),
        "lp.simplex.busy_s": sum(ledger.durations(spans, "lp.simplex")),
        "lp.simplex.problems": counts.get("lp.simplex.problems", 0.0),
        "lp.simplex.pivots": counts.get("lp.simplex.pivots", 0.0),
        "lp.highs.busy_s": sum(ledger.durations(spans, "lp.highs")),
        "lp.highs.calls": counts.get("lp.highs.calls", 0.0),
    }


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #


def check(seed: int, objectives: list[list[float]], orders: list[list[list[int]]]) -> list[str]:
    """lower bound <= OPT <= every greedy and WDEQ value; HiGHS re-solve == OPT."""
    import numpy as np
    from scipy.optimize import linprog

    import repro
    from repro.algorithms.greedy import greedy_completion_times
    from repro.algorithms.ordering import ORDERING_HEURISTICS, order_by
    from repro.batch.kernels import combined_lower_bound_batch
    from repro.batch.sim_kernels import WdeqBatchPolicy
    from repro.lp.batch import build_ordered_lp_batch

    failures: list[str] = []
    for (family, n, _), batch, opt, order in zip(SUB_BATCHES, make_batches(seed), objectives, orders):
        opt = np.asarray(opt)
        tol = 1e-7 * np.maximum(1.0, np.abs(opt))
        bounds = combined_lower_bound_batch(batch)
        wdeq = repro.simulate_batch(batch, WdeqBatchPolicy()).weighted_completion_times()
        if np.any(bounds > opt + tol):
            failures.append(f"exact {family}: lower bound above OPT")
        if np.any(opt > wdeq + tol):
            failures.append(f"exact {family}: OPT above WDEQ")
        for row, inst in enumerate(batch.to_instances()):
            for name in ORDERING_HEURISTICS:
                weights = np.array([t.weight for t in inst.tasks])
                value = float(weights @ greedy_completion_times(inst, order_by(inst, name)))
                if opt[row] > value + tol[row]:
                    failures.append(f"exact {family} row {row}: OPT {opt[row]} above greedy {name} {value}")
        lp = build_ordered_lp_batch(batch, np.asarray(order))
        for row in range(batch.batch_size):
            res = linprog(
                c=lp.c[row], A_ub=lp.A_ub[row], b_ub=lp.b_ub[row], A_eq=lp.A_eq[row],
                b_eq=lp.b_eq[row], bounds=[(0, None)] * lp.c.shape[-1], method="highs",
            )
            if not res.success or abs(res.fun - opt[row]) > 1e-6 * max(1.0, abs(opt[row])):
                failures.append(f"exact {family} row {row}: HiGHS re-solve {res.fun} != OPT {opt[row]}")
    return failures
