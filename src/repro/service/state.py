"""The live system behind the scheduling service.

:class:`LiveSystemState` runs one malleable-task system in virtual time and
exposes the online operations the service needs: submit a task *now*,
cancel one, ask for its current processor share, or project its
completion.  Every operation first advances the system **incrementally**,
from the current virtual time up to ``now``, instead of replaying the whole
history from ``t = 0``; at a thousand live tasks that is the difference
between one event step and thousands (see ``benchmarks/bench_service.py``).

The advance is a one-row event loop with the event rules of the batched
engine (:func:`repro.batch.sim_kernels.advance_simulation_state`): the same
completion tolerance and forced-completion rescue, a horizon pause counted
as one event, and the same :class:`~repro.core.exceptions.SimulationError`
checks for negative rates, over-subscription, stalls and the
``8 n_max + 16`` event bound.  What it adds is a **cached allocation**.
WDEQ (Algorithm 1 of the paper) reshares only when the active set changes
— a submission, a completion or a cancellation — so the shares are computed
once per change (with :func:`repro.algorithms.wdeq.wdeq_allocation` for
``wdeq`` and ``deq``, ``min(delta, w P / W)`` for ``fair-share``) and every
advance step, :meth:`~LiveSystemState.shares` and
:meth:`~LiveSystemState.share_of` reuse them until the next change.

Dynamic arrival is a release at the submit time.  If the system was idle
(the clock frozen at an earlier completion), the submission first spends
one idle-gap event moving the clock to ``now``, exactly as the batched
engine does before a pending release — no phantom work accrues over the
gap.  Because the built-in policies are memoryless, pausing at arbitrary
query times never changes the trajectory, and pauses at submit times align
with the oracle's release events, so a from-scratch
:func:`~repro.batch.sim_kernels.simulate_batch` over the full submission
history reproduces the live run event-for-event — the differential tests in
``tests/test_service.py`` pin exactly that.

The task axis is append-only (capacity doubles like a vector) until the
dead-slot count dominates, at which point :meth:`LiveSystemState.compact`
drops completed/cancelled columns; dropping inert columns cannot change
any future allocation, so compaction is invisible to the trajectory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.algorithms.wdeq import wdeq_allocation
from repro.batch.sim_kernels import (
    BatchPolicy,
    DeqBatchPolicy,
    FairShareNoCapBatchPolicy,
    WdeqBatchPolicy,
    simulate_batch,
)
from repro.core.batch import InstanceBatch
from repro.core.exceptions import SimulationError

__all__ = [
    "POLICY_NAMES",
    "make_policy",
    "TaskRecord",
    "UnknownTaskError",
    "DuplicateTaskError",
    "LiveSystemState",
]


def _fair_share(P: float, weights: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    if not weights.size:
        return weights
    total = weights.sum()
    if total <= 0:
        raise SimulationError("FairShareNoCapBatchPolicy requires positive weights")
    return np.minimum(deltas, weights * (P / total))


#: Wire name -> (batched policy, the same rule over the running tasks of one
#: row as ``(P, weights, deltas) -> rates``).
_POLICIES: "dict[str, tuple[type[BatchPolicy], Callable[..., np.ndarray]]]" = {
    "wdeq": (WdeqBatchPolicy, wdeq_allocation),
    "deq": (DeqBatchPolicy, lambda P, weights, deltas: wdeq_allocation(P, np.ones_like(weights), deltas)),
    "fair-share": (FairShareNoCapBatchPolicy, _fair_share),
}

#: Wire names of the policies the service can run.
POLICY_NAMES: "tuple[str, ...]" = tuple(_POLICIES)

#: Initial/minimum width of the task axis.
_MIN_CAPACITY = 64

#: Per-slot columns; the boolean ones start True (inert padding).
_FLOAT_COLUMNS = (
    "volumes",
    "weights",
    "deltas",
    "releases",
    "remaining",
    "work_done",
    "completion_times",
    "finish_tol",
)
_BOOL_COLUMNS = ("completed", "released")

#: Shape of auto-assigned task ids; explicit ids that match it advance the
#: auto counter so journal replays stay on the live run's id trajectory.
_AUTO_ID_PATTERN = re.compile(r"t(\d+)")


def make_policy(name: str) -> BatchPolicy:
    """Instantiate a batched policy from its wire name (see POLICY_NAMES)."""
    try:
        return _POLICIES[name][0]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
        ) from None


class UnknownTaskError(KeyError):
    """The referenced task id was never submitted (or pre-dates a restart)."""


class DuplicateTaskError(ValueError):
    """A submission reused a task id that already exists."""


@dataclass
class TaskRecord:
    """Bookkeeping for one submitted task.

    ``status`` walks ``running -> completed | cancelled``; ``slot`` is the
    task's current column in the per-slot arrays (rewritten by compaction,
    ``-1`` once the column was dropped).
    """

    task_id: str
    slot: int
    volume: float
    weight: float
    delta: float
    submit_time: float
    status: str = "running"
    completion_time: "float | None" = None


class LiveSystemState:
    """One malleable-task system evolving in virtual time.

    Parameters
    ----------
    P:
        Platform size (number of processors).
    policy:
        Wire name of the allocation policy (``wdeq``, ``deq``,
        ``fair-share``).
    atol:
        Completion-detection tolerance, as in the batched engine.
    """

    def __init__(self, P: float, policy: str = "wdeq", atol: float = 1e-10):
        if P <= 0:
            raise ValueError(f"P must be positive, got {P}")
        self.P = float(P)
        self.policy_name = policy
        self.policy = make_policy(policy)
        self._rule = _POLICIES[policy][1]
        self.atol = float(atol)
        self.records: "dict[str, TaskRecord]" = {}
        self._slot_task: "list[str]" = []  # task id per used slot, in order
        self._columns = self._blank_columns(_MIN_CAPACITY)
        self._t = 0.0
        self._num_events = 0
        # Slots of the running tasks, ascending, and the cached allocation
        # over them (None when the active set changed since it was computed).
        self._active = np.zeros(0, dtype=np.intp)
        self._rates: "np.ndarray | None" = None
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self._auto_id = 0

    # ----------------------------------------------------------------- #
    # Array plumbing
    # ----------------------------------------------------------------- #

    @staticmethod
    def _blank_columns(capacity: int) -> "dict[str, np.ndarray]":
        columns = {name: np.zeros(capacity) for name in _FLOAT_COLUMNS}
        columns.update({name: np.ones(capacity, dtype=bool) for name in _BOOL_COLUMNS})
        return columns

    @property
    def capacity(self) -> int:
        """Current width of the task axis."""
        return len(self._columns["volumes"])

    @property
    def used_slots(self) -> int:
        """Number of occupied columns (live or dead, pre-compaction)."""
        return len(self._slot_task)

    @property
    def live_count(self) -> int:
        """Number of tasks currently running (submitted, not finished)."""
        return len(self._active)

    @property
    def now(self) -> float:
        """The current virtual time of the system."""
        return self._t

    @property
    def total_events(self) -> int:
        """Engine events processed since the service started."""
        return self._num_events

    def _copy_columns(self, capacity: int, keep: "np.ndarray | None" = None) -> None:
        """Re-home the columns into fresh arrays of width ``capacity``.

        ``keep`` selects the columns to carry over (default: all used
        slots); dropped columns must already be inert (completed).
        """
        if keep is None:
            keep = np.arange(self.used_slots)
        n = len(keep)
        new = self._blank_columns(capacity)
        for name, column in self._columns.items():
            new[name][:n] = column[keep]
        self._columns = new
        kept_ids = [self._slot_task[int(s)] for s in keep]
        self._slot_task = kept_ids
        for slot, task_id in enumerate(kept_ids):
            self.records[task_id].slot = slot
        self._active = np.flatnonzero(~new["completed"][:n])
        self._rates = None

    def compact(self) -> int:
        """Drop dead (completed/cancelled) columns; returns how many.

        Inert columns receive no processors and trigger no events, so the
        trajectory is unchanged; the dropped tasks' records keep their
        completion times with ``slot = -1``.
        """
        used = self.used_slots
        dead = self._columns["completed"][:used]
        keep = np.flatnonzero(~dead)
        dropped = used - len(keep)
        if dropped == 0:
            return 0
        for slot in np.flatnonzero(dead):
            self.records[self._slot_task[int(slot)]].slot = -1
        self._copy_columns(max(_MIN_CAPACITY, 2 * len(keep)), keep)
        return dropped

    def _next_slot(self) -> int:
        used = self.used_slots
        dead = used - self.live_count
        if dead > _MIN_CAPACITY and dead > 2 * self.live_count:
            self.compact()
            used = self.used_slots
        if used == self.capacity:
            self._copy_columns(2 * self.capacity)
        return used

    # ----------------------------------------------------------------- #
    # The one-row engine
    # ----------------------------------------------------------------- #

    def _allocation(self) -> np.ndarray:
        """Rates of the active tasks, recomputed only after the set changed."""
        if self._rates is None:
            act = self._active
            deltas = self._columns["deltas"][act]
            raw = self._rule(self.P, self._columns["weights"][act], deltas)
            if np.any(raw < -self.atol):
                raise SimulationError(
                    f"policy {self.policy.name!r} returned a negative rate"
                )
            rates = np.clip(raw, 0.0, deltas)
            total = float(rates.sum())
            if total > self.P * (1 + 1e-9) + self.atol:
                raise SimulationError(
                    f"policy {self.policy.name!r} over-subscribed the platform: "
                    f"{total} > P={self.P}"
                )
            self._rates = rates
        return self._rates

    def _run(self, horizon: float) -> None:
        """Process events until the clock reaches ``horizon`` or work runs out.

        One iteration is one event of the batched engine's loop on a single
        row with no pending release: move to the next completion or to the
        horizon, whichever is first.
        """
        atol = self.atol
        columns = self._columns
        remaining_col = columns["remaining"]
        max_events = 8 * self.capacity + 16
        steps = 0
        while self._active.size and self._t < horizon:
            steps += 1
            if steps > max_events:
                raise SimulationError(
                    f"live simulation exceeded {max_events} events in one advance; "
                    "the policy is likely stalling"
                )
            act = self._active
            rates = self._allocation()
            remaining = remaining_col[act]
            with np.errstate(divide="ignore", invalid="ignore"):
                finish_in = np.where(rates > atol, remaining / np.maximum(rates, atol), np.inf)
            dt_completion = float(finish_in.min())
            dt_horizon = horizon - self._t
            dt = min(dt_completion, dt_horizon)
            if not math.isfinite(dt):
                raise SimulationError(
                    f"policy {self.policy.name!r} stalled: no active task receives processors"
                )
            dt = max(dt, 0.0)

            self._num_events += 1
            self._t += dt
            progressed = rates * dt
            columns["work_done"][act] += progressed
            remaining = np.maximum(remaining - progressed, 0.0)
            finished = remaining <= columns["finish_tol"][act]
            if dt_completion <= dt_horizon and not finished.any():
                # Numerical corner case (as in the batched engine): the
                # completion was due but no task crossed the tolerance, so
                # the task closest to completion is forced out.
                winner = int(finish_in.argmin())
                finished[winner] = True
                remaining[winner] = 0.0
            remaining_col[act] = remaining
            if finished.any():
                self._retire(finished, "completed")

    def _retire(self, finished: np.ndarray, status: str) -> None:
        """Take the active tasks flagged in ``finished`` out at the current time."""
        slots = self._active[finished]
        columns = self._columns
        columns["completed"][slots] = True
        columns["completion_times"][slots] = self._t
        for slot in slots.tolist():
            record = self.records[self._slot_task[slot]]
            record.status = status
            record.completion_time = self._t
        if status == "completed":
            self.completed += len(slots)
        else:
            self.cancelled += len(slots)
        self._active = self._active[~finished]
        self._rates = None

    def _position(self, slot: int) -> int:
        """Index of a running task's slot in the active set."""
        return int(np.searchsorted(self._active, slot))

    # ----------------------------------------------------------------- #
    # Time
    # ----------------------------------------------------------------- #

    def advance_to(self, now: float) -> float:
        """Advance the simulation up to ``now`` (clamped monotonic).

        Returns the effective time: ``max(now, current clock)``.  The clock
        itself may stay behind ``now`` when the system is idle — the next
        submission pulls it forward, which is what prevents phantom work.
        """
        now = max(float(now), self._t)
        self._run(now)
        return now

    # ----------------------------------------------------------------- #
    # Operations
    # ----------------------------------------------------------------- #

    def submit(
        self,
        volume: float,
        weight: float = 1.0,
        delta: float = 1.0,
        now: float = 0.0,
        task_id: "str | None" = None,
    ) -> TaskRecord:
        """Add a task at virtual time ``now`` and return its record.

        ``delta`` is clamped to the platform size.  Raises ``ValueError``
        on non-positive parameters and :class:`DuplicateTaskError` on a
        reused id.
        """
        volume, weight, delta = float(volume), float(weight), float(delta)
        if volume <= 0:
            raise ValueError(f"volume must be positive, got {volume}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        delta = min(delta, self.P)
        if task_id is None:
            # Skip over ids already taken — auto ids must never collide with
            # explicitly-submitted "tN" ids.
            while f"t{self._auto_id}" in self.records:
                self._auto_id += 1
            task_id = f"t{self._auto_id}"
            self._auto_id += 1
        else:
            # Explicit canonical ids advance the counter exactly as the
            # auto-assigned path would have.  This keeps a journal replay
            # (which re-submits with the originally assigned ids) on the
            # same id trajectory as the live run it reconstructs.
            match = _AUTO_ID_PATTERN.fullmatch(task_id)
            if match is not None:
                self._auto_id = max(self._auto_id, int(match.group(1)) + 1)
        if task_id in self.records:
            raise DuplicateTaskError(f"task id {task_id!r} already exists")

        now = self.advance_to(now)
        if now > self._t + self.atol:
            # The system went idle before ``now`` (the clock froze at the
            # last completion): the engine spends one event on the idle gap
            # before the release fires, and no work accrues over it.
            self._num_events += 1
            self._t += now - self._t
        # The release fires inline: a due release joins the active set in
        # the same step that reaches its time, as in the batched engine.
        slot = self._next_slot()
        columns = self._columns  # _next_slot may have re-homed the arrays
        for name, value in (
            ("volumes", volume),
            ("weights", weight),
            ("deltas", delta),
            ("releases", now),
            ("remaining", volume),
            ("work_done", 0.0),
            ("completion_times", 0.0),
            ("finish_tol", self.atol * max(1.0, volume)),
            ("completed", False),
            ("released", True),
        ):
            columns[name][slot] = value
        self._active = np.append(self._active, slot)
        self._rates = None

        record = TaskRecord(
            task_id=task_id,
            slot=slot,
            volume=volume,
            weight=weight,
            delta=delta,
            submit_time=now,
        )
        self.records[task_id] = record
        self._slot_task.append(task_id)
        self.submitted += 1
        return record

    def cancel(self, task_id: str, now: float = 0.0) -> bool:
        """Cancel a task at ``now``; False when it already finished."""
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        self.advance_to(now)
        if record.status != "running":
            return False
        self._columns["remaining"][record.slot] = 0.0
        self._retire(self._active == record.slot, "cancelled")
        return True

    def shares(self) -> np.ndarray:
        """Current per-slot processor shares, shape ``(capacity,)``."""
        shares = np.zeros(self.capacity)
        shares[self._active] = self._allocation()
        return shares

    def share_of(self, task_id: str, now: "float | None" = None) -> float:
        """The processor share ``task_id`` receives at ``now``."""
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        if now is not None:
            self.advance_to(now)
        if record.status != "running":
            return 0.0
        return float(self._allocation()[self._position(record.slot)])

    def remaining_of(self, task_id: str) -> float:
        """Work left on ``task_id`` (0.0 once finished)."""
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        if record.status != "running":
            return 0.0
        return float(self._columns["remaining"][record.slot])

    def project_completion(self, task_id: str) -> "float | None":
        """What-if: when would ``task_id`` finish if no more tasks arrive?

        Runs the work left on every running task to completion in the
        batched engine under the current policy (the policies are
        memoryless, so starting that run at ``now`` loses nothing); the
        live system is untouched.  Returns the task's actual completion
        time when it already finished.
        """
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        if record.status != "running":
            return record.completion_time
        columns, act = self._columns, self._active
        left = InstanceBatch.from_arrays(
            P=np.array([self.P]),
            volumes=columns["remaining"][act][None, :],
            weights=columns["weights"][act][None, :],
            deltas=columns["deltas"][act][None, :],
        )
        result = simulate_batch(left, self.policy, atol=self.atol)
        return self._t + float(result.completion_times[0, self._position(record.slot)])

    def snapshot(self) -> "dict[str, float | int]":
        """Aggregate counters for :class:`repro.api.StateReply`."""
        return {
            "now": self.now,
            "live_tasks": self.live_count,
            "submitted": self.submitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
        }

    # ----------------------------------------------------------------- #
    # Durability (repro.service.journal)
    # ----------------------------------------------------------------- #

    #: State-array fields serialised per used column, in a fixed order.
    _SNAPSHOT_ARRAYS = (
        "releases",
        "remaining",
        "work_done",
        "completed",
        "released",
        "completion_times",
        "finish_tol",
    )

    def to_snapshot(self) -> "dict[str, Any]":
        """The full live system as one JSON-representable mapping.

        Everything needed to resume is captured — task records, counters,
        the per-slot arrays of every *used* column, the virtual clock and
        the event count.  Floats survive the JSON round trip bit-exactly
        (``repr`` round-trips IEEE doubles), so a restored system is not
        merely tolerance-close but identical; the differential tests in
        ``tests/test_journal.py`` pin that.  The cached allocation is not
        persisted: it is a function of the active set.
        """
        used = self.used_slots
        columns = self._columns
        return {
            "P": self.P,
            "policy": self.policy_name,
            "atol": self.atol,
            "t": self.now,
            "num_events": self.total_events,
            "auto_id": self._auto_id,
            "submitted": self.submitted,
            "completed_count": self.completed,
            "cancelled_count": self.cancelled,
            "slot_task": list(self._slot_task),
            "live_slots": (~columns["completed"][:used]).astype(int).tolist(),
            "batch": {
                name: columns[name][:used].tolist() for name in ("volumes", "weights", "deltas")
            },
            "arrays": {
                name: columns[name][:used].astype(float).tolist()
                for name in self._SNAPSHOT_ARRAYS
            },
            # A field copy: records hold only scalars, so the deep copy of
            # dataclasses.asdict buys nothing and costs most of a snapshot.
            "records": [dict(vars(record)) for record in self.records.values()],
        }

    @classmethod
    def from_snapshot(cls, payload: "dict[str, Any]") -> "LiveSystemState":
        """Rebuild a live system from :meth:`to_snapshot` output.

        The restored system continues exactly where the snapshot was taken:
        same virtual clock, same event count, same per-column state —
        advancing it produces the same trajectory the original would have.
        """
        live = cls(
            P=float(payload["P"]),
            policy=str(payload["policy"]),
            atol=float(payload["atol"]),
        )
        slot_task = [str(task_id) for task_id in payload["slot_task"]]
        used = len(slot_task)
        capacity = _MIN_CAPACITY
        while capacity < used:
            capacity *= 2
        columns = cls._blank_columns(capacity)
        for name in ("volumes", "weights", "deltas"):
            columns[name][:used] = payload["batch"][name]
        for name in cls._SNAPSHOT_ARRAYS:
            values = np.asarray(payload["arrays"][name], dtype=float)
            columns[name][:used] = values.astype(columns[name].dtype)
        if not columns["released"][:used].all():
            raise ValueError("snapshot holds an unreleased task")
        live._columns = columns
        live._t = float(payload["t"])
        live._num_events = int(payload["num_events"])
        live._slot_task = slot_task
        live._active = np.flatnonzero(~columns["completed"][:used])
        live.records = {}
        for fields in payload["records"]:
            record = TaskRecord(**fields)
            live.records[record.task_id] = record
        live._auto_id = int(payload["auto_id"])
        live.submitted = int(payload["submitted"])
        live.completed = int(payload["completed_count"])
        live.cancelled = int(payload["cancelled_count"])
        return live
