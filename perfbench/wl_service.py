"""service-durable: a journaled ``malleable-repro serve`` under an open-loop stream.

The server runs as its own process (``serve -P 64 --policy wdeq
--virtual-time --journal-dir D --fsync interval --snapshot-every 250``).
This process is the single load generator: one pipelined connection
carries every stamped request, and short-lived connections carry
``/metrics`` and health.  The mix is 70% submit (the journaled write path),
25% query (the read path) and 5% cancel.  Phases:

1. open loop at a fixed nominal rate, each request timed from when it was
   due (not from when it was sent), so a stall is charged to every request
   it delays;
2. a closed window at saturation (``WINDOW`` requests in flight);
3. SIGKILL, then a restart on the same journal.

Each request's ``now`` is its index times a fixed virtual gap chosen for a
simulated load of about 0.9 P, so the server's work per request is the same
at any offered rate.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any

import numpy as np

import ledger

P = 64.0
POLICY = "wdeq"
FSYNC = "interval"
#: Journal records per snapshot.  Each snapshot write (serialise the whole
#: state, fsync, rename) stalls the server for tens of milliseconds, and the
#: requests queued behind it form the latency tail.  At the server default
#: of 1000 only one or two snapshots land in the open-loop phase and hold
#: under 1% of its requests, so the p99 would flip between "inside a stall"
#: and "outside"; every 250 records puts it well inside, over ~7 stalls.
SNAPSHOT_EVERY = 250
#: Open-loop rate: under a quarter of saturation when the machine runs fast
#: (~900 rps) and under half when the shared host slows it by 1.5-2x, so the
#: server stays far from saturation and latency tracks machine speed
#: linearly instead of blowing up with queueing.
NOMINAL_RPS = 200.0
#: Share of ``--seconds`` spent in the open-loop phase.
NOMINAL_SHARE = 0.7
#: Requests of the closed saturation window (fixed, so every count repeats).
SATURATED_REQUESTS = 4500
#: The open-loop and saturated phases alternate this many times, so each
#: metric samples the whole run and not one stretch of a host whose speed
#: drifts by tens of percent over seconds.
CYCLES = 3
WINDOW = 32
#: Requests per block of the traced run's alternating in-process replays.
TRACE_BLOCK = 100
#: A request sent this late (seconds) counts as late (``loadgen.late_frac``).
LATE_S = 0.002
#: Latency is timed from each request's due time, so the generator's own
#: delays are in it.  A run whose p99 send lag exceeds this share of the p99
#: latency measured the generator, not the server: it is invalid, not slow.
LAG_SHARE_LIMIT = 0.25
#: Mean task volume 1.0; load = 0.7 submits/request x 1.0 / GAP = 0.9 P.
GAP = 0.7 * 1.0 / (0.9 * P)
SAMPLE_TASKS = 64
#: Only the last CANCEL_WINDOW submitted tasks are cancel targets, so most
#: cancels hit a running task.
CANCEL_WINDOW = 40


# --------------------------------------------------------------------- #
# Request stream
# --------------------------------------------------------------------- #


def make_requests(seed: int, count: int) -> tuple[list[bytes], list[dict[str, Any]]]:
    """``count`` NDJSON request lines and what each one is, from ``seed``.

    The server assigns ``t0, t1, ...`` to submits in arrival order, so the
    k-th submit's id is known here.  Each cancel is preceded by a query of
    the same task at the same ``now``: its ``remaining`` is the work the
    cancel takes away, which the history check needs.
    """
    from repro.api import CancelTask, QueryShare, SubmitTask
    from repro.service.protocol import encode_line

    rng = np.random.default_rng(seed)
    lines: list[bytes] = []
    meta: list[dict[str, Any]] = []
    submitted = 0
    while len(lines) < count:
        now = (len(lines) + 1) * GAP
        u = rng.random()
        if submitted < CANCEL_WINDOW or u < 0.70 or len(lines) + 2 > count:
            volume = float(rng.uniform(0.5, 1.5))
            weight = float(rng.uniform(0.5, 2.0))
            delta = float(rng.integers(1, 17))
            lines.append(encode_line(SubmitTask(volume=volume, weight=weight, delta=delta, now=now)))
            meta.append({"kind": "submit", "task": f"t{submitted}", "volume": volume,
                         "weight": weight, "delta": delta, "now": now})
            submitted += 1
        elif u < 0.90:
            task = f"t{int(rng.integers(0, submitted))}"
            lines.append(encode_line(QueryShare(task_id=task, now=now)))
            meta.append({"kind": "query", "task": task, "now": now})
        else:
            task = f"t{int(rng.integers(submitted - CANCEL_WINDOW, submitted))}"
            lines.append(encode_line(QueryShare(task_id=task, now=now)))
            meta.append({"kind": "query", "task": task, "now": now, "pre_cancel": True})
            lines.append(encode_line(CancelTask(task_id=task, now=now)))
            meta.append({"kind": "cancel", "task": task, "now": now})
    return lines, meta


# --------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------- #


class Server:
    """One ``serve`` child process; ``setup_s`` is spawn to first reply."""

    def __init__(self, root: str, journal_dir: str, log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0",
             "-P", str(P), "--policy", POLICY, "--virtual-time", "--journal-dir", journal_dir,
             "--fsync", FSYNC, "--snapshot-every", str(SNAPSHOT_EVERY)],
            stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=root,
        )
        self.port = 0
        while True:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"server exited before listening (log: {log_path})")
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        self.health = self.request_once({"type": "health"})
        self.setup_s = time.perf_counter() - start

    def request_once(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request on a short-lived connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            return json.loads(sock.makefile("rb").readline())

    def metrics(self) -> dict[str, Any]:
        """``GET /metrics`` over HTTP on a short-lived connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        return json.loads(data.split(b"\r\n\r\n", 1)[1])["metrics"]

    def stop(self, sig: int = signal.SIGTERM) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# --------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------- #


class Connection:
    """The one pipelined connection every stamped request travels on.

    Sending and receiving share one thread and one ``select`` loop, so the
    generator never waits on its own interpreter lock between a due time
    and the send.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # select(2) takes microsecond timeouts; epoll rounds up to whole ms,
        # which would make every send up to a millisecond late.
        self.selector = selectors.SelectSelector()
        self.selector.register(self.sock, selectors.EVENT_READ)
        self.pending = b""

    def close(self) -> None:
        self.selector.close()
        self.sock.close()

    def _receive(self, timeout: float | None) -> list[bytes]:
        """Reply lines that arrive within ``timeout`` seconds (None: wait)."""
        if not self.selector.select(timeout):
            return []
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        *lines, self.pending = (self.pending + data).split(b"\n")
        return lines

    def open_loop(self, lines: list[bytes], rate: float) -> dict[str, Any]:
        """Send ``lines[i]`` at ``t0 + i / rate`` whatever the replies do."""
        n = len(lines)
        due = np.empty(n)
        sent = np.empty(n)
        done = np.empty(n)
        replies: list[bytes] = []
        t0 = time.perf_counter() + 0.05
        next_send = 0
        while len(replies) < n:
            now = time.perf_counter()
            while next_send < n and t0 + next_send / rate <= now:
                due[next_send] = t0 + next_send / rate
                sent[next_send] = now
                self.sock.sendall(lines[next_send])
                next_send += 1
                now = time.perf_counter()
            wait = t0 + next_send / rate - now if next_send < n else None
            for line in self._receive(wait):
                done[len(replies)] = time.perf_counter()
                replies.append(line)
        return {"due": due, "sent": sent, "done": done, "replies": replies}

    def closed_window(self, lines: list[bytes], window: int) -> dict[str, Any]:
        """Keep ``window`` requests in flight; returns wall time and replies."""
        n = len(lines)
        replies: list[bytes] = []
        start = time.perf_counter()
        self.sock.sendall(b"".join(lines[:window]))
        next_send = min(window, n)
        while len(replies) < n:
            arrived = self._receive(None)
            replies.extend(arrived)
            refill = lines[next_send:next_send + len(arrived)]
            if refill:
                self.sock.sendall(b"".join(refill))
                next_send += len(refill)
        return {"wall": time.perf_counter() - start, "replies": replies}

    def ask(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        while True:
            arrived = self._receive(None)
            if arrived:
                return json.loads(arrived[0])


# --------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------- #


def _journal(work_dir: str, name: str) -> str:
    path = os.path.join(work_dir, name)
    os.makedirs(path, exist_ok=True)
    return path


def _handler_busy(metrics: dict[str, Any]) -> tuple[float, float]:
    """(requests handled, seconds inside the handler) from a /metrics snapshot."""
    handled = busy = 0.0
    for name, hist in metrics["histograms"].items():
        if name.startswith("latency."):
            handled += hist["count"]
            busy += hist["count"] * hist["mean"]
    return handled, busy


def run(root: str, seed: int, seconds: float, work_dir: str) -> dict[str, Any]:
    nominal_each = int(NOMINAL_RPS * seconds * NOMINAL_SHARE) // CYCLES
    saturated_each = SATURATED_REQUESTS // CYCLES
    lines, meta = make_requests(seed, CYCLES * (nominal_each + saturated_each))
    log = os.path.join(work_dir, "server.log")

    def setup_only(first: int, count: int) -> list[float]:
        times = []
        for i in range(first, first + count):
            spare = Server(root, _journal(work_dir, f"setup{i}"), log)
            times.append(spare.setup_s)
            spare.stop()
        return times

    spawns_before = (ledger.SETUP_SPAWNS - 1) // 2
    setup = setup_only(0, spawns_before)
    server = Server(root, _journal(work_dir, "journal"), log)
    restarted = None
    nominal_index: list[int] = []
    timing = {"due": [], "sent": [], "done": []}
    raw_replies: list[bytes] = []
    saturated_wall = handled = busy = 0.0
    try:
        setup.append(server.setup_s)
        conn = Connection(server.port)
        for cycle in range(CYCLES):
            lo = cycle * (nominal_each + saturated_each)
            mid, hi = lo + nominal_each, lo + nominal_each + saturated_each
            nominal = conn.open_loop(lines[lo:mid], NOMINAL_RPS)
            nominal_index.extend(range(lo, mid))
            for key in timing:
                timing[key].append(nominal[key])
            raw_replies.extend(nominal["replies"])
            before = _handler_busy(server.metrics())
            saturated = conn.closed_window(lines[mid:hi], WINDOW)
            after_window = _handler_busy(server.metrics())
            saturated_wall += saturated["wall"]
            handled += after_window[0] - before[0]
            busy += after_window[1] - before[1]
            raw_replies.extend(saturated["replies"])
        last_now = meta[-1]["now"]
        state_before = conn.ask({"type": "query_state", "now": last_now})
        metrics_before_kill = server.metrics()
        conn.close()

        server.stop(signal.SIGKILL)
        start = time.perf_counter()
        restarted = Server(root, _journal(work_dir, "journal"), log)
        recovery_s = time.perf_counter() - start
        after = Connection(restarted.port)
        # Read-only requests advance the virtual clock without being
        # journaled, so the recovered clock sits at the last journaled
        # mutation; the state is compared at the last stamped time.
        clock_after = after.ask({"type": "query_state"})["now"]
        state_after = after.ask({"type": "query_state", "now": last_now})
        sample_rng = np.random.default_rng(seed + 1)
        first_tasks = [m["task"] for m in meta[:nominal_each] if m["kind"] == "submit"]
        sample = sorted(
            set(sample_rng.choice(first_tasks, size=min(SAMPLE_TASKS, len(first_tasks)), replace=False)),
            key=lambda t: int(t[1:]),
        )
        finished = {}
        for task in sample:
            reply = after.ask({"type": "query_share", "task_id": task})
            if reply.get("status") == "completed":
                finished[task] = reply["completion_time"]
        after.close()
    finally:
        server.stop(signal.SIGKILL)
        if restarted is not None:
            restarted.stop()
    setup += setup_only(spawns_before, ledger.SETUP_SPAWNS - 1 - spawns_before)

    return {
        "lines": lines,
        "meta": meta,
        "nominal_index": nominal_index,
        "nominal": {key: np.concatenate(parts) for key, parts in timing.items()},
        "saturated_requests": CYCLES * saturated_each,
        "saturated_wall": saturated_wall,
        "saturated_handler_mean_s": busy / handled,
        "replies": [json.loads(r) for r in raw_replies],
        "setup": setup,
        "recovery_s": recovery_s,
        "health_after": restarted.health,
        "state_before": state_before,
        "state_after": state_after,
        "recovered_clock_lag": last_now - clock_after,
        "metrics": metrics_before_kill,
        "finished": finished,
        "peak_rss_mb": ledger.peak_rss_mb_children(),
    }


def end_to_end(out: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    """Metrics of the run, and the supporting detail for the run record."""
    nominal = out["nominal"]
    latency = (nominal["done"] - nominal["due"]) * 1e3
    lag = (nominal["sent"] - nominal["due"]) * 1e3
    kinds = np.array([out["meta"][i]["kind"] for i in out["nominal_index"]])
    submit = latency[kinds == "submit"]
    query = latency[kinds == "query"]
    saturated_rps = out["saturated_requests"] / out["saturated_wall"]
    metrics = {
        "setup_s": float(np.median(out["setup"])),
        "throughput_per_s": saturated_rps,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    detail = {
        "nominal_rps": NOMINAL_RPS,
        "nominal_requests": int(latency.size),
        "saturated_requests": out["saturated_requests"],
        "cycles": CYCLES,
        "saturated_rps": saturated_rps,
        "latency_ms": ledger.timing(list(latency)),
        "latency_p50_ms": ledger.percentile(latency, 50),
        "latency_p99_ms": ledger.percentile(latency, 99),
        "submit_p99_ms": ledger.percentile(submit, 99),
        "submit_samples": int(submit.size),
        "query_p99_ms": ledger.percentile(query, 99),
        "query_samples": int(query.size),
        "recovery_s": out["recovery_s"],
        "recovered_clock_lag": out["recovered_clock_lag"],
        "setup_samples": out["setup"],
        "loadgen.lag_p99_ms": ledger.percentile(lag, 99),
        "loadgen.late_frac": float(np.mean(lag > LATE_S * 1e3)),
    }
    return metrics, detail


def _hist(metrics: dict[str, Any], name: str) -> dict[str, float]:
    return metrics["histograms"].get(name, {"count": 0.0, "mean": 0.0, "max": 0.0, "p99": 0.0})


def check(out: dict[str, Any], detail: dict[str, Any]) -> list[str]:
    """Zero errors; state survives SIGKILL; sampled completions match a replay."""
    import repro
    from repro.batch.sim_kernels import WdeqBatchPolicy
    from repro.core.batch import InstanceBatch

    failures: list[str] = []
    errors = [r for r in out["replies"] if r.get("type") == "error"]
    if errors:
        failures.append(f"service: {len(errors)} error replies, first {errors[0]}")
    protocol_errors = out["metrics"]["counters"].get("protocol_errors_total", 0.0)
    if protocol_errors:
        failures.append(f"service: server counted {protocol_errors} protocol errors")
    if out["state_before"] != out["state_after"]:
        failures.append(f"service: state before kill {out['state_before']} != after restart {out['state_after']}")
    if detail["loadgen.lag_p99_ms"] > LAG_SHARE_LIMIT * detail["latency_p99_ms"]:
        failures.append(
            f"service: invalid run, not a slow one: the generator's own p99 send lag "
            f"{detail['loadgen.lag_p99_ms']:.2f} ms is more than {LAG_SHARE_LIMIT:.0%} of the measured "
            f"p99 latency {detail['latency_p99_ms']:.2f} ms"
        )
    # The acknowledged history, as the replies describe it.
    tasks: dict[str, dict[str, Any]] = {}
    remaining_at: dict[str, float] = {}
    for m, reply in zip(out["meta"], out["replies"]):
        if m["kind"] == "submit" and reply.get("type") == "submit_reply":
            if reply["task_id"] != m["task"]:
                failures.append(f"service: submit got id {reply['task_id']}, expected {m['task']}")
            tasks[m["task"]] = dict(m)
        elif m.get("pre_cancel") and reply.get("type") == "share_reply" and reply["status"] == "running":
            remaining_at[m["task"]] = reply["remaining"]
        elif m["kind"] == "cancel" and reply.get("cancelled"):
            task = tasks[m["task"]]
            task["volume"] = task["volume"] - remaining_at[m["task"]]
    finished = out["finished"]
    if not finished:
        failures.append("service: no sampled task finished")
        return failures
    horizon = max(finished.values())
    history = [t for t in tasks.values() if t["now"] <= horizon]
    batch = InstanceBatch.from_arrays(
        P=np.array([P]),
        volumes=np.array([[t["volume"] for t in history]]),
        weights=np.array([[t["weight"] for t in history]]),
        deltas=np.minimum(np.array([[t["delta"] for t in history]]), P),
    )
    releases = np.array([[t["now"] for t in history]])
    result = repro.simulate_batch(batch, WdeqBatchPolicy(), release_times=releases)
    index = {t["task"]: i for i, t in enumerate(history)}
    for task, served in finished.items():
        replayed = float(result.completion_times[0, index[task]])
        if not np.isclose(served, replayed, rtol=1e-6, atol=1e-9):
            failures.append(f"service: {task} completed at {served}, from-scratch replay says {replayed}")
    detail["history_checked_tasks"] = len(finished)
    return failures


def server_layers(out: dict[str, Any], detail: dict[str, Any]) -> dict[str, float]:
    """Per-layer numbers the server itself reports over /metrics and health."""
    metrics = out["metrics"]
    append = _hist(metrics, "journal.append")
    fsync = _hist(metrics, "journal.fsync")
    snapshot = _hist(metrics, "journal.snapshot")
    submits = [r["live_tasks"] for r in out["replies"] if r.get("type") == "submit_reply"]
    return {
        "service.state.sim_events": metrics["gauges"]["sim_events"],
        "service.state.live_tasks": float(np.mean(submits)),
        "service.journal.append_mean_ms": append["mean"] * 1e3,
        "service.journal.fsync_count": fsync["count"],
        "service.journal.fsync_mean_ms": fsync["mean"] * 1e3,
        "service.journal.snapshot_count": snapshot["count"],
        "service.journal.snapshot_max_ms": snapshot["max"] * 1e3,
        "service.journal.recovery_s": out["health_after"]["recovery_seconds"],
        "service.journal.recovered_events": float(out["health_after"]["recovered_events"]),
        # Share of saturated wall time the server spent outside the handler.
        "service.io_frac": 1.0 - detail["saturated_rps"] * out["saturated_handler_mean_s"],
        "service.latency_p50_ms": detail["latency_p50_ms"],
        "service.latency_p99_ms": detail["latency_p99_ms"],
        "service.submit_p99_ms": detail["submit_p99_ms"],
        "service.query_p99_ms": detail["query_p99_ms"],
        "service.recovery_s": detail["recovery_s"],
        "loadgen.lag_p99_ms": detail["loadgen.lag_p99_ms"],
        "loadgen.late_frac": detail["loadgen.late_frac"],
    }


# --------------------------------------------------------------------- #
# Traced: the same stream through SchedulerService.handle, in process
# --------------------------------------------------------------------- #


def _inproc_service(journal_dir: str) -> Any:
    from repro.service import SchedulerService, ServiceConfig

    return SchedulerService(ServiceConfig(
        P=P, policy=POLICY, virtual_time=True, journal_dir=journal_dir,
        fsync=FSYNC, snapshot_every=SNAPSHOT_EVERY,
    ))


def _replay(service: Any, lines: list[bytes], kinds: list[str], tracer: ledger.Tracer | None) -> float:
    from repro.service.protocol import decode_line, encode_line

    start = time.perf_counter()
    if tracer is None:
        for line in lines:
            encode_line(service.handle(decode_line(line), client="perfbench"))
    else:
        root = tracer.open(ledger.ROOT_SPAN)
        for line, kind in zip(lines, kinds):
            record = tracer.open("service.protocol.decode")
            request = decode_line(line)
            tracer.close(record)
            record = tracer.open(f"service.handler.{kind}")
            reply = service.handle(request, client="perfbench")
            tracer.close(record)
            record = tracer.open("service.protocol.encode")
            encode_line(reply)
            tracer.close(record)
        tracer.close(root)
    return time.perf_counter() - start


def traced_layers(out: dict[str, Any], work_dir: str, tracer: ledger.Tracer) -> dict[str, Any]:
    """Replay the run's stream into two in-process services, one of them traced.

    The two take the stream in alternating blocks of ``TRACE_BLOCK``
    requests, so the traced and the untraced replay see the same host
    speed within a fraction of a second; the probes are installed only
    around the traced service's blocks.
    """
    from repro.service.journal import ServiceDurability
    from repro.service.state import LiveSystemState

    lines = out["lines"]
    kinds = [m["kind"] for m in out["meta"]]
    plain = _inproc_service(_journal(work_dir, "inproc-plain"))
    service = _inproc_service(_journal(work_dir, "inproc-traced"))
    untraced = 0.0

    def traced_block(block: slice) -> None:
        with ledger.Probes(tracer) as probes:
            probes.wrap(LiveSystemState, "advance_to", "service.state.advance")
            probes.wrap(ServiceDurability, "record_submit", "service.journal.append")
            probes.wrap(ServiceDurability, "record_cancel", "service.journal.append")
            probes.wrap(ServiceDurability, "write_snapshot", "service.journal.snapshot")
            _replay(service, lines[block], kinds[block], tracer)

    try:
        for index, lo in enumerate(range(0, len(lines), TRACE_BLOCK)):
            block = slice(lo, lo + TRACE_BLOCK)
            if index % 2:
                traced_block(block)
            untraced += _replay(plain, lines[block], kinds[block], None)
            if not index % 2:
                traced_block(block)
    finally:
        plain.close()
        service.close()
    spans = tracer.spans

    def ms(name: str) -> list[float]:
        return [d * 1e3 for d in ledger.durations(spans, name)]

    submit, query, cancel = ms("service.handler.submit"), ms("service.handler.query"), ms("service.handler.cancel")
    layers = {
        "service.handler.submit_mean_ms": float(np.mean(submit)),
        "service.handler.query_mean_ms": float(np.mean(query)),
        "service.handler.cancel_mean_ms": float(np.mean(cancel)),
        "service.handler.submit_p99_ms": ledger.percentile(submit, 99),
        "service.handler.query_p99_ms": ledger.percentile(query, 99),
        "service.inproc_rps": len(lines) / untraced,
        "service.state.advance_mean_ms": float(np.mean(ms("service.state.advance"))),
        "service.protocol.encode_us": float(np.mean(ms("service.protocol.encode"))) * 1e3,
        "service.protocol.decode_us": float(np.mean(ms("service.protocol.decode"))) * 1e3,
    }
    return {
        "layers": layers,
        "untraced_s": untraced,
        "inproc_sim_events": [plain.state.total_events, service.state.total_events],
    }
