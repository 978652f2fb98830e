"""The workload process of a batch workload (sweep-policies, exact-opt, trace-stream).

Started by ``run.py``: sets the workload up, prints ``READY`` (the parent
times set-up from spawn to that line), then either exits (``--setup-only``)
or measures and writes its outputs as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
import wl_exact  # noqa: E402
import wl_stream  # noqa: E402
import wl_sweep  # noqa: E402

MODULES = {"sweep-policies": wl_sweep, "exact-opt": wl_exact, "trace-stream": wl_stream}
#: Counts that must come out identical on every run of one seed (the
#: service's are ``service.state.sim_events`` and its final QueryState).
COUNTED = ("batch.sim_kernels.events", "lp.exact.lps_solved", "lp.exact.nodes_expanded", "scenarios.stream.rows")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    module = MODULES[args.workload]
    extra = {"trace": args.trace_file} if args.workload == "trace-stream" else {}
    state = module.setup(args.seed)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        if args.trace:
            tracer = ledger.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
            untraced_s = module.traced(state, args.work_dir, tracer, **extra)
            tracer.dump(os.path.join(os.path.dirname(args.work_dir), f"spans-{args.workload}-seed{args.seed}.json"))
            output = {
                "layers": module.layer_metrics(tracer),
                "counters": {k: v for k, v in tracer.counts.items() if k in COUNTED},
                # Pool workers' spans overlap in time: only this process's
                # spans take part in the layer sum.
                **ledger.layer_sum(tracer.spans, untraced_s, pid=os.getpid()),
            }
        else:
            output = module.measure(state, args.seconds, args.work_dir, **extra)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(output, handle)
    finally:
        close = getattr(state, "close", None)
        if close is not None:
            close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
