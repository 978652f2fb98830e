#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end-to-end metrics, a per-layer ledger.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-policies --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is a separate run that records spans around calls into each
layer and prints the per-layer metrics.  Every run checks the program's
outputs (outside timing) and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable report and the full run record (labels, sample counts,
intervals).  Any failed check makes the exit code non-zero.

Workloads: ``sweep-policies``, ``exact-opt``, ``trace-stream`` and
``service-durable``; see ``BENCHMARK.json`` and the ``wl_*.py`` modules.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-policies", "exact-opt", "trace-stream", "service-durable")
#: Wall-clock limit on one workload process.
CHILD_TIMEOUT_S = 170.0
STATE_DIR = os.path.join(ROOT, ".perfbench")

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Run results copied into the record when the workload produced them.
RECORD_KEYS = (
    "samples", "detail", "throughput_interval", "untraced_s", "traced_s", "layer_sum_s",
    "unattributed_s", "unattributed_frac", "layer_sum_gap", "layer_sum_margin", "spans",
)
#: What one item of ``throughput_per_s`` and the latency metrics is, per workload.
ITEMS = {
    "sweep-policies": "instance (instances_per_s)",
    "exact-opt": "instance (instances_per_s)",
    "trace-stream": "trace row (rows_per_s); latency per instance, the time of its 4096-instance chunk",
    "service-durable": "request in the saturated window (saturated_rps); latency at the nominal rate",
}


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def layer_sum_failures(result: dict[str, Any]) -> list[str]:
    """The traced layers' self times must add up to the untraced total."""
    import ledger

    failures = []
    if result["layer_sum_gap"] > result["layer_sum_margin"]:
        failures.append(
            f"traced layer sum {result['layer_sum_s']:.3f}s is {result['layer_sum_gap']:.1%} away from the "
            f"untraced total {result['untraced_s']:.3f}s (margin {result['layer_sum_margin']:.0%})"
        )
    if result["unattributed_frac"] > ledger.UNATTRIBUTED_MAX:
        failures.append(
            f"{result['unattributed_s']:.3f}s ({result['unattributed_frac']:.1%}) of the traced total is in "
            f"no layer span (at most {ledger.UNATTRIBUTED_MAX:.0%})"
        )
    return failures


def spawn_child(args: argparse.Namespace, work_dir: str, setup_only: bool, trace_file: str | None) -> tuple[float, str]:
    """Start one workload process; returns (set-up seconds, path of its output)."""
    out = os.path.join(work_dir, f"child-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir, "--out", out,
    ]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise RuntimeError(f"{args.workload} process failed during set-up")
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"{args.workload} process exited with code {code}")
    return setup_s, out


def run_batch(args: argparse.Namespace, work_dir: str) -> dict[str, Any]:
    import ledger
    import wl_exact
    import wl_stream
    import wl_sweep

    trace_file = None
    written = None
    if args.workload == "trace-stream":
        trace_file = os.path.join(work_dir, "trace.csv")
        written = wl_stream.write_trace(ROOT, trace_file, args.seed)
    before = (ledger.SETUP_SPAWNS - 1) // 2
    setup = [spawn_child(args, work_dir, True, trace_file)[0] for _ in range(before)]
    setup_s, out_path = spawn_child(args, work_dir, False, trace_file)
    setup.append(setup_s)
    setup += [spawn_child(args, work_dir, True, trace_file)[0] for _ in range(ledger.SETUP_SPAWNS - 1 - before)]
    with open(out_path, encoding="utf-8") as handle:
        out = json.load(handle)
    peak = ledger.peak_rss_mb_children()
    result: dict[str, Any] = {"setup": setup, "peak_rss_mb": peak}

    if args.trace:
        result.update(out)
        result["failures"] = layer_sum_failures(out)
        result["attempted"] = 1
        return result

    if args.workload == "sweep-policies":
        failures, result["detail"] = wl_sweep.check(args.seed, out["records"])
        result["counters"] = {}
    elif args.workload == "exact-opt":
        failures = wl_exact.check(args.seed, out["objectives"], out["orders"])
        if not out["counters_repeat"]:
            failures.append("exact: lps_solved/nodes_expanded differ between repetitions of one seed")
        result["counters"] = out["counters"]
        result["lp_paths"] = out["lp_paths"]
    else:
        failures = wl_stream.check(trace_file, written, out)
        result["counters"] = out["counters"]
    if args.workload == "trace-stream":
        throughput = out["rows_per_s"]
        latencies_ms = [t * 1e3 for t in out["item_latencies"]]
        weights = out["item_weights"]
        result["samples"] = {"throughput": f"{out['rows_measured']} rows over {out['passes']} passes",
                             "latency": f"{sum(weights)} instances in {len(weights)} chunks"}
        attempted = out["rows_measured"]
    else:
        rates = [out["unit_items"] / w for w in out["unit_walls"]]
        throughput = statistics.median(rates)
        latencies_ms = [t * 1e3 for t in out["item_latencies"]]
        weights = [1.0] * len(latencies_ms)
        result["throughput_interval"] = ledger.timing(rates)
        result["samples"] = {"throughput": f"{len(rates)} repetitions of {out['unit_items']} instances",
                             "latency": f"{len(latencies_ms)} instances"}
        attempted = out["unit_items"] * len(rates)
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": throughput,
        "peak_rss_mb": peak,
    }
    throughput_name = "rows_per_s" if args.workload == "trace-stream" else "instances_per_s"
    result["report"] = {
        "setup_s": (result["metrics"]["setup_s"], "s"),
        throughput_name: (throughput, "1/s"),
        "latency_p50_ms": (ledger.weighted_percentile(latencies_ms, weights, 50), "ms"),
        "latency_p99_ms": (ledger.weighted_percentile(latencies_ms, weights, 99), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    result["failures"] = failures
    result["attempted"] = attempted
    return result


def run_service(args: argparse.Namespace, work_dir: str) -> dict[str, Any]:
    import ledger
    import wl_service

    out = wl_service.run(ROOT, args.seed, args.seconds, work_dir)
    metrics, detail = wl_service.end_to_end(out)
    # A run whose generator fell behind is reported invalid by the check.
    failures = wl_service.check(out, detail)
    final_state = out["state_before"]
    result: dict[str, Any] = {
        "setup": out["setup"],
        "peak_rss_mb": out["peak_rss_mb"],
        "detail": detail,
        "counters": {
            "service.state.sim_events": out["metrics"]["gauges"]["sim_events"],
            "service.final_query_state": json.dumps(final_state, sort_keys=True),
        },
        "attempted": len(out["replies"]),
        "failed_requests": sum(1 for r in out["replies"] if r.get("type") == "error"),
        "samples": {
            "latency": f"{detail['nominal_requests']} requests at {wl_service.NOMINAL_RPS:g} rps",
            "throughput": f"{detail['saturated_requests']} requests, window {wl_service.WINDOW}",
            "setup": f"{len(out['setup'])} server spawns",
        },
    }
    if args.trace:
        tracer = ledger.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        traced = wl_service.traced_layers(out, work_dir, tracer)
        layers = wl_service.server_layers(out, detail)
        layers.update(traced["layers"])
        tracer.dump(os.path.join(STATE_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        summary = ledger.layer_sum(tracer.spans, traced["untraced_s"])
        failures += layer_sum_failures(summary)
        server_events = result["counters"]["service.state.sim_events"]
        if any(e != server_events for e in traced["inproc_sim_events"]):
            failures.append(
                f"service: in-process replay made {traced['inproc_sim_events']} events, server {server_events}"
            )
        result.update(summary, layers=layers)
    result["metrics"] = metrics
    result["report"] = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "latency_p50_ms": (detail["latency_p50_ms"], "ms"),
        "latency_p99_ms": (detail["latency_p99_ms"], "ms"),
        "submit_p99_ms": (detail["submit_p99_ms"], "ms"),
        "query_p99_ms": (detail["query_p99_ms"], "ms"),
        "saturated_rps": (detail["saturated_rps"], "1/s"),
        "recovery_s": (detail["recovery_s"], "s"),
    }
    result["failures"] = failures
    return result


def check_counters(workload: str, seed: int, seconds: float, counters: dict[str, Any]) -> list[str]:
    """Counts listed as exact must repeat on every run of one seed in this checkout."""
    path = os.path.join(STATE_DIR, "counters.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except FileNotFoundError:
        known = {}
    key = f"{workload}|seed={seed}|seconds={seconds:g}|code={_source_digest()}"
    seen = known.setdefault(key, {})
    failures = [
        f"counter {name} = {value} differs from {seen[name]} on an earlier run of seed {seed}"
        for name, value in counters.items()
        if name in seen and seen[name] != value
    ]
    for name, value in counters.items():
        seen.setdefault(name, value)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return failures


def _source_digest() -> str:
    """Digest of the measured program and the benchmark: changed code starts a fresh ledger.

    Covers every Python file under ``src/``, ``tools/gen_trace.py`` and the
    benchmark's own sources, so only runs of identical code are compared.
    """
    paths = [os.path.join(ROOT, "tools", "gen_trace.py")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for folder, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths += [os.path.join(folder, f) for f in files if f.endswith(".py")]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:12]


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail_setup(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if not os.path.isfile(os.path.join(ROOT, "tools", "gen_trace.py")):
        return _fail_setup("tools/gen_trace.py is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import ledger

    os.makedirs(STATE_DIR, exist_ok=True)
    work_dir = os.path.join(STATE_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.workload == "service-durable":
            result = run_service(args, work_dir)
        else:
            result = run_batch(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = result["failures"]
    failures += check_counters(args.workload, args.seed, args.seconds, result.get("counters", {}))
    labels = ledger.environment_labels()
    if args.workload == "exact-opt" and "lp_paths" in result:
        labels["lp_paths"] = result["lp_paths"]
    if args.workload == "service-durable":
        import wl_service

        labels.update({"fsync": wl_service.FSYNC, "snapshot_every": wl_service.SNAPSHOT_EVERY,
                       "virtual_gap": wl_service.GAP, "P": wl_service.P})
    attempted = int(result["attempted"]) + 1  # + the output check itself
    failed = int(result.get("failed_requests", 0)) + (1 if failures else 0)

    if args.trace:
        layers = result["layers"]
        layers["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
        layers["trace.layer_sum_gap"] = result["layer_sum_gap"]
        layers["trace.unattributed_s"] = result["unattributed_s"]
        # A layer the workload does not run reports 0.
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer_units().items()
        }
        report = {}
    else:
        metrics = {name: {"value": float(value), "unit": UNITS[name]} for name, value in result["metrics"].items()}
        report = result["report"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "labels": labels,
        "items": ITEMS[args.workload],
        "failed_frac": failed / attempted,
        "failures": failures,
        "setup_samples": result["setup"],
        "counters": result.get("counters", {}),
        **{k: result[k] for k in RECORD_KEYS if k in result},
    }
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:>14.6g} {entry['unit']}")
    report["failed_frac"] = (record["failed_frac"], "1")
    print("-- the same run under the workload's own metric names:")
    for name, (value, unit) in report.items():
        print(f"{name:42s} {value:>14.6g} {unit}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failures and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
