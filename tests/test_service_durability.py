"""Durability tests: journal-backed restart, typed transport failures, chaos.

Three layers:

* **In-process restart** — drive :meth:`SchedulerService.handle` against a
  journal directory, tear the service down (cleanly or by abandoning the
  durability layer mid-flight), build a fresh service on the same directory
  and demand a *bit-exact* state snapshot: recovery is snapshot + journal
  replay through the same incremental engine, so nothing may drift.
* **Client failure modes** — every way a connection can die (refused,
  reset while sending, EOF before a full reply) must surface as
  :class:`ServiceUnavailable` with the right ``phase`` / ``retry_safe``,
  and keyed mutations must ride the retry loop to exactly-once delivery.
* **Chaos** (``-m chaos``) — a real ``serve`` subprocess SIGKILLed under
  client traffic and restarted on the same port from the same journal;
  the recovered trajectory must match a local reference replay of the
  acknowledged operations.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import (
    CancelTask,
    ErrorReply,
    HealthRequest,
    MetricsRequest,
    QueryState,
    SubmitTask,
)
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceUnavailable,
)
from repro.service import server as server_module
from repro.service.state import LiveSystemState
from tests.chaos import ServerProcess, free_port


def run(coro):
    """Drive one async test body to completion on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


def _durable(journal_dir, **overrides) -> SchedulerService:
    defaults = dict(
        port=0,
        P=4.0,
        virtual_time=True,
        journal_dir=str(journal_dir),
        fsync="off",
    )
    defaults.update(overrides)
    return SchedulerService(ServiceConfig(**defaults))


def _submit(service: SchedulerService, i: int, now: float, key: "str | None" = None):
    reply = service.handle(
        SubmitTask(
            volume=1.0 + 0.25 * i,
            weight=1.0 + (i % 3),
            delta=0.5 + 0.5 * (i % 4),
            now=now,
            idempotency_key=key,
        )
    )
    assert type(reply).__name__ != "ErrorReply", reply
    return reply


# --------------------------------------------------------------------- #
# In-process restart: recovery must reproduce the live state exactly
# --------------------------------------------------------------------- #


class TestDurableRestart:
    def test_clean_shutdown_then_restart_is_bit_exact(self, tmp_path):
        first = _durable(tmp_path)
        for i in range(12):
            _submit(first, i, now=0.2 * i)
        first.handle(CancelTask(task_id="t3", now=2.5))
        before = first.state.to_snapshot()
        first.close()  # writes a final snapshot: restart replays nothing

        second = _durable(tmp_path)
        assert second.state.to_snapshot() == before
        assert second.recovered_events == 0  # snapshot covered everything
        health = second.handle(HealthRequest())
        assert health.durable and health.recovery_seconds >= 0.0
        second.close()

    def test_crash_replays_the_journal_suffix(self, tmp_path):
        first = _durable(tmp_path, snapshot_every=5)
        for i in range(13):
            _submit(first, i, now=0.2 * i)
        first.handle(CancelTask(task_id="t7", now=2.8))
        before = first.state.to_snapshot()
        # Crash: abandon the service without the final close() snapshot.
        first.durability.close()

        second = _durable(tmp_path, snapshot_every=5)
        assert second.state.to_snapshot() == before
        # 14 journaled records, snapshots every 5: the suffix is non-empty
        # but shorter than a full replay.
        assert 0 < second.recovered_events < 14
        second.close()

    def test_keyed_retry_across_restart_applies_exactly_once(self, tmp_path):
        first = _durable(tmp_path)
        original = _submit(first, 0, now=0.0, key="retry-1")
        first.durability.close()  # crash before the reply reached the client

        second = _durable(tmp_path)
        retried = _submit(second, 0, now=0.0, key="retry-1")
        assert retried.deduplicated
        assert retried.task_id == original.task_id
        assert second.state.submitted == 1
        # An unkeyed duplicate of the same payload is a *new* task.
        fresh = _submit(second, 0, now=0.0)
        assert fresh.task_id != original.task_id and second.state.submitted == 2
        second.close()

    def test_torn_tail_is_truncated_and_the_acked_prefix_survives(self, tmp_path):
        first = _durable(tmp_path)
        for i in range(6):
            _submit(first, i, now=0.3 * i)
        before = first.state.to_snapshot()
        first.durability.close()

        # SIGKILL mid-append: the tail record is half a frame.  Nothing
        # past the last full line was ever acknowledged.
        tail = sorted(tmp_path.glob("journal-*.wal"))[-1]
        with open(tail, "ab") as handle:
            handle.write(b'deadbeef {"seq": 7, "type": "subm')

        second = _durable(tmp_path)
        assert second.state.to_snapshot() == before
        assert second.durability.last_recovery.truncated_bytes > 0
        # The journal stays appendable after truncation.
        _submit(second, 6, now=2.0)
        assert second.state.submitted == 7
        second.close()

    def test_keyed_retry_when_the_request_itself_triggered_the_snapshot(self, tmp_path):
        """The record that trips the snapshot cadence must have its key in it.

        With ``snapshot_every=1`` the very submit being journaled causes the
        snapshot; recovery then replays *nothing* past it, so the snapshot's
        embedded idempotency table is the only place the key can live.
        """
        first = _durable(tmp_path, snapshot_every=1)
        original = _submit(first, 0, now=0.0, key="boundary")
        assert first.durability.snapshots_written == 1
        first.durability.close()  # crash after the ack

        second = _durable(tmp_path, snapshot_every=1)
        assert second.recovered_events == 0  # the snapshot covered everything
        retried = _submit(second, 0, now=0.0, key="boundary")
        assert retried.deduplicated
        assert retried.task_id == original.task_id
        assert second.state.submitted == 1
        second.close()

    def test_cancel_key_survives_a_snapshot_it_triggered(self, tmp_path):
        first = _durable(tmp_path, snapshot_every=2)
        _submit(first, 0, now=0.0)  # seq 1
        cancel = first.handle(
            CancelTask(task_id="t0", now=0.1, idempotency_key="c-boundary")
        )  # seq 2: triggers the snapshot
        assert cancel.cancelled
        first.durability.close()

        second = _durable(tmp_path, snapshot_every=2)
        retried = second.handle(
            CancelTask(task_id="t0", now=0.1, idempotency_key="c-boundary")
        )
        assert retried.cancelled and retried.status == "cancelled"
        assert second.state.cancelled == 1
        second.close()

    def test_journal_append_failure_is_fail_stop_for_mutations(
        self, tmp_path, monkeypatch
    ):
        service = _durable(tmp_path)
        _submit(service, 0, now=0.0)

        def broken_append(record):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(service.durability.journal, "append", broken_append)
        doomed = service.handle(
            SubmitTask(volume=1.0, now=0.1, idempotency_key="doomed")
        )
        assert isinstance(doomed, ErrorReply) and doomed.code == "journal_failed"
        assert service.journal_failed
        # The unbacked ack was never stored: a retry is refused, never
        # answered from the idempotency table, and applies nothing.
        retry = service.handle(
            SubmitTask(volume=1.0, now=0.1, idempotency_key="doomed")
        )
        assert isinstance(retry, ErrorReply) and retry.code == "journal_failed"
        assert service.handle(
            CancelTask(task_id="t0", now=0.2, idempotency_key="c1")
        ).code == "journal_failed"
        # Reads keep working while the server drains.
        assert service.handle(HealthRequest()).live_tasks >= 0
        gauges = service.handle(MetricsRequest()).metrics["gauges"]
        assert gauges["journal_failed"] == 1.0
        service.durability.close()

        # Restart recovers exactly the journaled (= acknowledged) prefix:
        # the ghost task that failed to journal is gone.
        second = _durable(tmp_path)
        assert second.state.submitted == 1
        assert second.handle(QueryState(now=0.2)).submitted == 1
        second.close()

    def test_idempotency_keys_are_scoped_per_client(self, tmp_path):
        service = _durable(tmp_path)
        a = service.handle(
            SubmitTask(volume=1.0, now=0.0, client="alice", idempotency_key="k1")
        )
        b = service.handle(
            SubmitTask(volume=2.0, now=0.1, client="bob", idempotency_key="k1")
        )
        # Two clients reusing a key are two tasks, not one stored reply.
        assert a.task_id != b.task_id
        assert service.state.submitted == 2
        again = service.handle(
            SubmitTask(volume=1.0, now=0.2, client="alice", idempotency_key="k1")
        )
        assert again.deduplicated and again.task_id == a.task_id
        service.durability.close()

        # The *scoped* key is what gets journaled, so the namespace
        # survives recovery too.
        second = _durable(tmp_path)
        retried = second.handle(
            SubmitTask(volume=2.0, now=0.3, client="bob", idempotency_key="k1")
        )
        assert retried.deduplicated and retried.task_id == b.task_id
        assert second.state.submitted == 2
        second.close()

    def test_snapshot_config_mismatch_is_refused(self, tmp_path):
        first = _durable(tmp_path, snapshot_every=1)
        _submit(first, 0, now=0.0)
        first.close()
        with pytest.raises(ValueError, match="refusing to replay"):
            _durable(tmp_path, P=16.0)

    def test_refused_recovery_closes_the_journal(self, tmp_path, monkeypatch):
        first = _durable(tmp_path, snapshot_every=1)
        _submit(first, 0, now=0.0)
        first.close()
        opened = []

        class RecordingDurability(server_module.ServiceDurability):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(server_module, "ServiceDurability", RecordingDurability)
        with pytest.raises(ValueError, match="refusing to replay"):
            _durable(tmp_path, P=16.0)
        (durability,) = opened
        # The service never came to be, so nothing else could close the
        # journal's open segment.
        assert durability.journal._handle is None

    def test_durability_metrics_are_exposed(self, tmp_path):
        service = _durable(tmp_path, snapshot_every=2)
        for i in range(5):
            _submit(service, i, now=0.1 * i, key=f"m-{i}")
        _submit(service, 0, now=0.4, key="m-0")  # deduplicated

        payload = service.handle(MetricsRequest()).metrics
        assert payload["counters"]["journal_records_total"] == 5.0
        assert payload["counters"]["idempotent_hits_total"] == 1.0
        gauges = payload["gauges"]
        assert gauges["journal_bytes"] > 0
        assert gauges["journal_segments"] >= 1
        assert gauges["journal_last_seq"] == 5.0
        assert gauges["snapshots_written"] >= 2
        assert gauges["idempotency_entries"] == 5.0
        assert gauges["recovered_events"] == 0.0
        service.close()

        second = _durable(tmp_path, snapshot_every=2)
        gauges = second.handle(MetricsRequest()).metrics["gauges"]
        assert gauges["recovery_seconds"] >= 0.0
        second.close()


# --------------------------------------------------------------------- #
# Client failure modes: typed ServiceUnavailable per transport phase
# --------------------------------------------------------------------- #


class _running_service:
    """Async context manager: a started service on an ephemeral port."""

    def __init__(self, **overrides):
        self.service = SchedulerService(ServiceConfig(port=0, **overrides))

    async def __aenter__(self) -> SchedulerService:
        await self.service.start()
        return self.service

    async def __aexit__(self, *exc_info: object) -> None:
        await self.service.shutdown()


class _BrokenWriter:
    """A writer whose drain() dies with a reset, as a dropped peer would."""

    def __init__(self, writer):
        self._writer = writer

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        raise ConnectionResetError("peer dropped mid-send")

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()


class TestClientFailureModes:
    def test_connection_refused_is_connect_phase_and_retry_safe(self):
        async def body():
            client = ServiceClient("127.0.0.1", free_port())
            with pytest.raises(ServiceUnavailable) as excinfo:
                await client.request(HealthRequest())
            assert excinfo.value.phase == "connect"
            assert excinfo.value.retry_safe
            assert client.stats["unavailable"] == 1

        run(body())

    def test_eof_before_reply_is_reply_phase_and_not_retry_safe(self):
        async def body():
            async def eat_and_close(reader, writer):
                await reader.readline()
                writer.close()

            server = await asyncio.start_server(eat_and_close, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = ServiceClient("127.0.0.1", port)
                with pytest.raises(ServiceUnavailable) as excinfo:
                    await client.request(QueryState())
                assert excinfo.value.phase == "reply"
                assert not excinfo.value.retry_safe
            finally:
                server.close()
                await server.wait_closed()

        run(body())

    def test_unkeyed_mutation_is_not_blindly_retried_after_reply_loss(self):
        async def body():
            async def eat_and_close(reader, writer):
                await reader.readline()
                writer.close()

            server = await asyncio.start_server(eat_and_close, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = ServiceClient("127.0.0.1", port, retries=3)
                # An explicit None key defeats the automatic keying, leaving
                # a mutation whose reply-phase loss must NOT be retried.
                with pytest.raises(ServiceUnavailable):
                    await client.request(SubmitTask(volume=1.0))
                assert client.stats["retries"] == 0
                assert client.stats["unavailable"] == 1
            finally:
                server.close()
                await server.wait_closed()

        run(body())

    def test_send_failure_is_send_phase(self):
        async def body():
            async with _running_service(virtual_time=True) as service:
                host, port = service.address
                client = ServiceClient(host, port)
                await client.connect()
                client._writer = _BrokenWriter(client._writer)
                with pytest.raises(ServiceUnavailable) as excinfo:
                    await client.request(HealthRequest())
                assert excinfo.value.phase == "send"
                assert not excinfo.value.retry_safe
                await client.close()

        run(body())

    def test_read_only_request_is_retried_after_reply_loss(self):
        async def body():
            connections = {"count": 0}

            async def flaky(reader, writer):
                connections["count"] += 1
                await reader.readline()
                if connections["count"] == 1:
                    writer.close()  # EOF before the reply
                    return
                reply = {
                    "type": "state_reply",
                    "now": 1.0,
                    "live_tasks": 1,
                    "submitted": 1,
                    "completed": 0,
                    "cancelled": 0,
                    "rejected": 0,
                }
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(flaky, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = ServiceClient(
                    "127.0.0.1", port, retries=3, backoff=0.01, backoff_max=0.05
                )
                # Queries have no server-side effects, so a reply-phase loss
                # is retried even without an idempotency key.
                state = await client.state()
                assert state.submitted == 1
                assert client.stats["retries"] == 1
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        run(body())

    def test_keyed_mutation_retries_through_a_flaky_server(self):
        async def body():
            connections = {"count": 0}

            async def flaky(reader, writer):
                connections["count"] += 1
                line = await reader.readline()
                if connections["count"] == 1:
                    writer.close()  # EOF before the reply: not retry-safe
                    return
                request = json.loads(line)
                reply = {
                    "type": "submit_reply",
                    "task_id": "t0",
                    "now": 0.0,
                    "share": 1.0,
                    "live_tasks": 1,
                    "deduplicated": connections["count"] > 2,
                }
                assert request["idempotency_key"]  # auto-keyed by the client
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(flaky, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = ServiceClient(
                    "127.0.0.1", port, retries=4, backoff=0.01, backoff_max=0.05
                )
                reply = await client.submit(volume=1.0)
                assert reply.task_id == "t0"
                assert client.stats["retries"] == 1
                assert client.stats["unavailable"] == 1
                assert client.stats["deduplicated"] == 0
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        run(body())

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("h", 1, retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            ServiceClient("h", 1, backoff=0.0)
        with pytest.raises(ValueError, match="backoff"):
            ServiceClient("h", 1, backoff=1.0, backoff_max=0.5)


# --------------------------------------------------------------------- #
# Chaos: SIGKILL a real serve subprocess under traffic, restart, compare
# --------------------------------------------------------------------- #


def _reference_ops(count: int):
    """The deterministic keyed workload both the client and the oracle run."""
    ops = []
    for i in range(count):
        ops.append(
            (
                "submit",
                dict(
                    volume=0.5 + 0.3 * (i % 7),
                    weight=1.0 + (i % 3),
                    delta=0.5 + 0.5 * (i % 4),
                    task_id=f"job{i}",
                    now=round(0.1 * i, 3),
                ),
            )
        )
        if i >= 10 and i % 15 == 0:
            ops.append(("cancel", dict(task_id=f"job{i - 10}", now=round(0.1 * i + 0.05, 3))))
    return ops


@pytest.mark.chaos
class TestCrashRecoveryChaos:
    def test_sigkill_midstream_matches_reference_replay(self, tmp_path):
        """Kill + restart mid-run; keyed retries make the run exactly-once.

        With ``--virtual-time`` the final state is a pure function of the
        applied operations, so whatever instant the SIGKILL lands, the
        recovered trajectory must equal a local replay of all of them.
        """
        P = 4.0
        ops = _reference_ops(40)
        # Acks before the SIGKILL lands — deliberately NOT a multiple of the
        # snapshot cadence, so recovery must replay a non-empty suffix.
        kill_after = 16

        async def body(server: ServerProcess):
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retries=100,
                backoff=0.02,
                backoff_max=0.25,
                seed=7,
            )
            restart = None
            try:
                for index, (kind, kwargs) in enumerate(ops):
                    if kind == "submit":
                        reply = await client.submit(
                            **kwargs, idempotency_key=f"k{index}"
                        )
                        assert reply.task_id == kwargs["task_id"]
                    else:
                        await client.cancel(**kwargs, idempotency_key=f"k{index}")
                    if index + 1 == kill_after:
                        await asyncio.to_thread(server.kill)
                        # Restart concurrently: the next requests bridge the
                        # outage on the retry loop.
                        restart = asyncio.create_task(asyncio.to_thread(server.start))
                if restart is not None:
                    await restart

                reference = LiveSystemState(P=P)
                for kind, kwargs in ops:
                    getattr(reference, kind)(**kwargs)
                final_now = max(kwargs["now"] for _, kwargs in ops) + 5.0
                reference.advance_to(final_now)

                state = await client.state(now=final_now)
                assert state.submitted == reference.submitted
                assert state.cancelled == reference.cancelled
                assert state.completed == reference.completed
                for task_id, record in reference.records.items():
                    share = await client.share(task_id, now=final_now)
                    assert share.status == record.status, task_id
                    if record.completion_time is None:
                        assert share.completion_time is None
                    else:
                        assert share.completion_time == pytest.approx(
                            record.completion_time, abs=1e-9
                        )
                health = await client.health()
                assert health.durable and health.recovered_events > 0
                assert client.stats["retries"] > 0
            finally:
                await client.close()

        with ServerProcess(
            tmp_path, extra_args=("-P", str(P), "--snapshot-every", "7", "--fsync", "off")
        ) as server:
            run(body(server))

    def test_kill_with_request_in_flight_is_exactly_once(self, tmp_path):
        async def body(server: ServerProcess):
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retries=100,
                backoff=0.02,
                backoff_max=0.25,
                seed=11,
            )
            try:
                for i in range(5):
                    await client.submit(volume=1.0, task_id=f"pre{i}", now=0.1 * i)
                in_flight = asyncio.create_task(
                    client.submit(
                        volume=2.0, task_id="inflight", now=1.0,
                        idempotency_key="inflight-key",
                    )
                )
                await asyncio.sleep(0)  # let the request hit the wire
                await asyncio.to_thread(server.kill)
                await asyncio.to_thread(server.start)
                reply = await in_flight  # the retry loop resolves it
                assert reply.task_id == "inflight"

                # A second retry of the same key after the restart is served
                # from the recovered idempotency table, not re-applied.
                again = await client.submit(
                    volume=2.0, task_id="inflight", now=1.0,
                    idempotency_key="inflight-key",
                )
                assert again.deduplicated and again.task_id == "inflight"
                assert (await client.state(now=1.0)).submitted == 6
                with pytest.raises(ServiceError) as excinfo:
                    await client.submit(volume=2.0, task_id="inflight", now=1.0)
                assert excinfo.value.code == "duplicate_task"
            finally:
                await client.close()

        with ServerProcess(tmp_path, extra_args=("--fsync", "off")) as server:
            run(body(server))
