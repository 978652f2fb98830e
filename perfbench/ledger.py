"""Spans, layer self time, percentiles and run labels for the benchmark.

Everything here lives in the benchmark, not in ``src``: a span is recorded
around a call *into* a layer's public function by wrapping that function
from the outside (:class:`Probes`), so the program under test is unchanged
and an untraced run executes exactly the code a user runs.
"""

from __future__ import annotations

import contextlib
import functools
import os
import platform
import statistics
import time
from typing import Any, Callable, Iterator

import numpy as np

#: Largest accepted gap between the traced layer self-time sum and the
#: untraced total, as a share of the untraced total.  The untraced total is
#: the mean of one pass before and one after the traced pass; on a shared
#: two-vCPU machine the speed of plain CPU work drifts by up to ~25% between
#: seconds-long windows, and single passes drift with it.
LAYER_SUM_MARGIN = 0.3
#: Largest accepted share of the traced total that no layer span covers.
UNATTRIBUTED_MAX = 0.05
#: Name of the span a traced run opens around its calls into the program.
ROOT_SPAN = "bench"
#: Workload processes (or servers) spawned per run; set-up time is their
#: median.  All but the measured one are set-up-only spawns, half made before
#: the measurement and half after it, so set-up samples the run's whole
#: span and not one moment of a host whose speed drifts over seconds.
SETUP_SPAWNS = 9


class Tracer:
    """In-memory span recorder: name, start, end, parent and a shared run id.

    Spans are kept in a list and written out once, when the run ends
    (:meth:`dump`).  ``counts`` holds the counters recorded at the same
    boundaries as the spans, so ratios are taken where the work happens.
    Recording a span costs two ``perf_counter`` calls and one small dict.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._pid = os.getpid()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def open(self, name: str) -> dict[str, Any]:
        stack = self._stack
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": stack[-1] if stack else None,
            "pid": self._pid,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        stack.append(record["id"])
        return record

    def close(self, record: dict[str, Any]) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def adopt(self, spans: list[dict[str, Any]], parent: int | None) -> None:
        """Append spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            copy = dict(span)
            copy["id"] = span["id"] + offset
            copy["parent"] = parent if span["parent"] is None else span["parent"] + offset
            copy["run"] = self.run_id
            self.spans.append(copy)

    def dump(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans, "counts": self.counts}, handle)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict[str, Any]], pid: int | None = None) -> dict[str, float]:
    """Per-name self time: a span's duration minus what its children cover.

    Only spans of process ``pid`` (all when ``None``) take part, so spans of
    pool workers, which overlap in time, never eat into the parent's self
    time.  On one process the self times of a root span and its
    descendants sum to the root's duration.
    """
    chosen = [s for s in spans if pid is None or s["pid"] == pid]
    children: dict[int, list[tuple[float, float]]] = {}
    for span in chosen:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in chosen:
        own = span["end"] - span["start"] - _covered(children.get(span["id"], []))
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def durations(spans: list[dict[str, Any]], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


class Probes:
    """Wrap module or class attributes with span-recording shims; undo on exit.

    ``wrap(owner, "attr", "layer.name", after=fn)`` replaces
    ``owner.attr`` by a function that opens a span named ``layer.name``
    around the original call and then calls ``after(result, args, kwargs)``
    to record counts.  With ``timed=False`` the shim records no span and
    only adds one to the tracer's count ``layer.name`` per call, cheap
    enough for an untraced run.  Callers that look the attribute up at call
    time (module globals, class attributes, function-local imports) see
    the wrapper; :meth:`restore` puts every original back.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[Any, tuple, dict], None] | None = None,
        timed: bool = True,
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self.tracer

        @functools.wraps(func)
        def shim(*args, **kwargs):
            if not timed:
                tracer.add(name)
                return func(*args, **kwargs)
            record = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(record)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, classmethod(shim) if is_classmethod else shim)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def sim_kernel_counts(tracer: Tracer) -> Callable[[Any, tuple, dict], None]:
    """``after`` hook for ``simulate_batch``: calls, rows and events."""

    def after(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.add("batch.sim_kernels.calls")
        tracer.add("batch.sim_kernels.rows", int(result.num_events.shape[0]))
        tracer.add("batch.sim_kernels.events", int(result.num_events.sum()))

    return after


def layer_sum(spans: list[dict[str, Any]], untraced_s: float, pid: int | None = None) -> dict[str, Any]:
    """Compare the layers' self times with the untraced total.

    The traced total is the summed duration of the :data:`ROOT_SPAN` spans
    (one per stretch of traced work).  Their self time is the benchmark's
    own glue and tracing bookkeeping, not a layer's: it is left out of the
    layer sum and reported as ``unattributed_s``.  Time a layer probe
    misses lands there too, so a missing or mis-nested probe shows both as
    a gap to the untraced total and as unattributed time.
    """
    chosen = [s for s in spans if pid is None or s["pid"] == pid]
    own = self_times(chosen)
    unattributed = own.pop(ROOT_SPAN, 0.0)
    total = sum(own.values())
    traced_s = sum(durations(chosen, ROOT_SPAN))
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layer_sum_s": total,
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / traced_s,
        "layer_sum_gap": abs(total - untraced_s) / untraced_s,
        "layer_sum_margin": LAYER_SUM_MARGIN,
        "spans": len(chosen),
    }


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def percentile(values: Any, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def weighted_percentile(values: Any, weights: Any, q: float) -> float:
    """Percentile of ``values`` where each value counts ``weights`` times."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    rank = q / 100.0 * cum[-1]
    return float(values[order][min(int(np.searchsorted(cum, rank)), len(values) - 1)])


def bayes_bootstrap_median(values: Any, draws: int = 1000, seed: int = 0) -> tuple[float, float]:
    """95% interval of the median by the Bayesian bootstrap (Rubin 1981).

    Each draw weights the observations with Dirichlet(1, ..., 1) weights
    and takes the weighted median; the interval is the 2.5th and 97.5th
    percentile of those medians.  NumPy only; draws are made in blocks so
    memory stays small for thousands of observations.
    """
    x = np.sort(np.asarray(values, dtype=float))
    if x.size < 2:
        return float(x[0]), float(x[0])
    rng = np.random.default_rng(seed)
    medians = []
    for _ in range(0, draws, 100):
        cum = np.cumsum(rng.dirichlet(np.ones(x.size), size=100), axis=1)
        medians.append(x[np.minimum((cum < 0.5).sum(axis=1), x.size - 1)])
    lo, hi = np.percentile(np.concatenate(medians), [2.5, 97.5])
    return float(lo), float(hi)


def timing(values: list[float], unit_scale: float = 1.0) -> dict[str, Any]:
    """Median, 95% Bayesian-bootstrap interval and sample count of a timing."""
    lo, hi = bayes_bootstrap_median(values)
    return {
        "median": statistics.median(values) * unit_scale,
        "ci95": [lo * unit_scale, hi * unit_scale],
        "samples": len(values),
    }


# --------------------------------------------------------------------- #
# Labels: what actually ran
# --------------------------------------------------------------------- #


def environment_labels() -> dict[str, Any]:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_available = True
    except ImportError:
        numba_available = False
    from repro.batch.compiled import resolve_kernel

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_available": numba_available,
        "kernel": resolve_kernel("auto"),
    }


def peak_rss_mb_children() -> float:
    """Largest ``ru_maxrss`` among this process's reaped descendants, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
