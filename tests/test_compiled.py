"""The compiled kernel tier: selection, fallback, and differential conformance.

The compiled event loop (:mod:`repro.batch.compiled.sim_loop`) and pivot
driver (:mod:`repro.batch.compiled.lp_pivot`) are written as plain scalar
Python that numba jits when installed; without numba the *same function
objects* run under the interpreter.  These tests therefore pin the compiled
tier's logic against the NumPy kernels on every machine — the numba-present
CI leg additionally runs the whole differential suites with real JIT code
(``tests/test_sim_batch.py`` / ``tests/test_lp_batch.py`` parametrize over
the available kernels).

Forcing dispatch without numba: monkeypatching ``compiled.NUMBA_AVAILABLE``
to True makes ``resolve_kernel('compiled')`` keep the compiled selection,
and the lazy jit getters catch the failing ``import numba`` and fall back
to the un-jitted loop bodies — the exact code numba would compile.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.batch.compiled as compiled
from repro.batch.compiled import (
    DEFAULT_ATOLS,
    KERNELS,
    PRECISIONS,
    numba_available,
    reset_fallback_warning,
    resolve_kernel,
)
from repro.batch.cache import ResultCache
from repro.batch.sim_kernels import (
    DeqBatchPolicy,
    FairShareNoCapBatchPolicy,
    PriorityBatchPolicy,
    WdeqBatchPolicy,
    default_batch_policies,
    simulate_batch,
)
from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError, SimulationError, SolverError
from repro.core.instance import Instance, Task
from repro.exec import ExecutionContext
from repro.lp.simplex import solve_linear_program_batch
from repro.workloads.generators import cluster_instances, uniform_instances


@pytest.fixture
def force_compiled(monkeypatch):
    """Make 'compiled' resolve as available (fallback-free dispatch)."""
    monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", True)
    yield
    reset_fallback_warning()


def _sim_batch(B: int = 12, n: int = 6, seed: int = 3) -> InstanceBatch:
    insts = list(cluster_instances(n, B, rng=np.random.default_rng(seed)))
    return InstanceBatch.from_instances(insts)


# --------------------------------------------------------------------- #
# Kernel selection and fallback
# --------------------------------------------------------------------- #


class TestKernelResolution:
    def test_constants(self):
        assert KERNELS == ("auto", "numpy", "compiled")
        assert PRECISIONS == ("float64", "float32")
        assert set(DEFAULT_ATOLS) == set(PRECISIONS)

    def test_numpy_is_always_numpy(self):
        assert resolve_kernel("numpy") == "numpy"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("fortran")

    def test_auto_resolves_per_availability(self, monkeypatch):
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        assert resolve_kernel("auto") == "numpy"
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", True)
        assert resolve_kernel("auto") == "compiled"

    def test_compiled_without_numba_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            assert resolve_kernel("compiled") == "numpy"
        # Warn-once: the second resolution is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("compiled") == "numpy"
        # ...until the one-shot latch is reset (test hook).
        reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="malleable-repro\\[compiled\\]"):
            resolve_kernel("compiled")

    def test_auto_never_warns(self, monkeypatch):
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        reset_fallback_warning()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("auto") == "numpy"


class TestExecutionContextKernel:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.kernel == "auto"
        assert ctx.precision == "float64"
        assert ctx.resolved_kernel() in ("numpy", "compiled")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            ExecutionContext(kernel="cuda")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="unknown precision"):
            ExecutionContext(precision="float16")

    def test_from_options_passes_through(self):
        ctx = ExecutionContext.from_options(kernel="numpy", precision="float32")
        assert ctx.kernel == "numpy"
        assert ctx.precision == "float32"

    def test_resolved_kernel_tracks_availability(self, monkeypatch):
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", True)
        assert ExecutionContext(kernel="auto").resolved_kernel() == "compiled"
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        assert ExecutionContext(kernel="auto").resolved_kernel() == "numpy"

    def test_cached_keys_include_kernel_and_precision(self, monkeypatch):
        # Regression test mirroring the PR-4 lp_backend cache fix: results
        # computed by one numeric tier must never be served to another from
        # a shared cache.
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", True)
        cache = ResultCache()
        values = iter(["numpy-f64", "compiled-f64", "numpy-f32", "unused"])

        def compute():
            return next(values)

        numpy_ctx = ExecutionContext(cache=cache, kernel="numpy")
        compiled_ctx = ExecutionContext(cache=cache, kernel="compiled")
        f32_ctx = ExecutionContext(cache=cache, kernel="numpy", precision="float32")
        assert numpy_ctx.cached("sweep", {"n": 1}, compute) == "numpy-f64"
        assert compiled_ctx.cached("sweep", {"n": 1}, compute) == "compiled-f64"
        assert f32_ctx.cached("sweep", {"n": 1}, compute) == "numpy-f32"
        # Each tier keeps hitting its own entry.
        assert numpy_ctx.cached("sweep", {"n": 1}, compute) == "numpy-f64"
        assert compiled_ctx.cached("sweep", {"n": 1}, compute) == "compiled-f64"
        assert f32_ctx.cached("sweep", {"n": 1}, compute) == "numpy-f32"
        # 'auto' keys on the *resolved* tier: with numba "available" it
        # shares the compiled entry, without it the numpy one.
        assert ExecutionContext(cache=cache).cached("sweep", {"n": 1}, compute) == "compiled-f64"
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        assert ExecutionContext(cache=cache).cached("sweep", {"n": 1}, compute) == "numpy-f64"
        # Caller-supplied params cannot shadow the context's tier.
        assert (
            numpy_ctx.cached("sweep", {"n": 1, "kernel": "compiled"}, compute) == "numpy-f64"
        )


# --------------------------------------------------------------------- #
# Compiled event loop vs the NumPy engine
# --------------------------------------------------------------------- #


class TestCompiledSimulation:
    def test_all_policies_match_numpy_exactly(self, force_compiled):
        batch = _sim_batch()
        for policy in default_batch_policies(batch):
            ref = simulate_batch(batch, policy, kernel="numpy")
            got = simulate_batch(batch, policy, kernel="compiled")
            np.testing.assert_allclose(
                got.completion_times, ref.completion_times, rtol=1e-12, atol=0
            )
            np.testing.assert_array_equal(got.num_events, ref.num_events)

    def test_release_times_match_numpy(self, force_compiled):
        batch = _sim_batch(B=8, n=4, seed=7)
        rng = np.random.default_rng(1)
        releases = rng.choice([0.0, 0.5, 2.0], size=(batch.batch_size, batch.n_max))
        ref = simulate_batch(batch, DeqBatchPolicy(), release_times=releases, kernel="numpy")
        got = simulate_batch(batch, DeqBatchPolicy(), release_times=releases, kernel="compiled")
        np.testing.assert_allclose(got.completion_times, ref.completion_times, rtol=1e-12)
        np.testing.assert_array_equal(got.num_events, ref.num_events)

    def test_pause_resume_matches_one_shot(self, force_compiled):
        from repro.batch.sim_kernels import advance_simulation_state, init_simulation_state

        batch = _sim_batch(B=6, n=5, seed=9)
        one_shot = simulate_batch(batch, WdeqBatchPolicy(), kernel="compiled")
        state = init_simulation_state(batch)
        for until in (1.0, 2.5, None):
            advance_simulation_state(state, WdeqBatchPolicy(), until=until, kernel="compiled")
        np.testing.assert_allclose(
            state.completion_times, one_shot.completion_times, rtol=1e-12
        )

    def test_traces_fall_back_to_numpy_and_match(self, force_compiled):
        # Trace recording stays on the NumPy path; results must not change.
        batch = _sim_batch(B=4, n=3, seed=5)
        ref = simulate_batch(batch, WdeqBatchPolicy(), record_trace=True, kernel="numpy")
        got = simulate_batch(batch, WdeqBatchPolicy(), record_trace=True, kernel="compiled")
        np.testing.assert_allclose(got.completion_times, ref.completion_times, rtol=1e-12)
        for trace_ref, trace_got in zip(ref.traces, got.traces):
            assert trace_got.completion_order() == trace_ref.completion_order()
            assert trace_got.num_reshares == trace_ref.num_reshares

    def test_custom_policy_declines_dispatch(self, force_compiled):
        from repro.batch.compiled.sim_loop import policy_dispatch

        class MyWdeq(WdeqBatchPolicy):
            pass

        assert policy_dispatch(MyWdeq()) is None
        assert policy_dispatch(WdeqBatchPolicy()) is not None
        # The subclass still simulates correctly through the NumPy fallback.
        batch = _sim_batch(B=3, n=3)
        ref = simulate_batch(batch, WdeqBatchPolicy(), kernel="numpy")
        got = simulate_batch(batch, MyWdeq(), kernel="compiled")
        np.testing.assert_allclose(got.completion_times, ref.completion_times, rtol=1e-12)

    def test_priority_policy_matches_numpy(self, force_compiled):
        batch = _sim_batch(B=6, n=4, seed=13)
        rng = np.random.default_rng(2)
        priorities = rng.integers(0, 3, size=(batch.batch_size, batch.n_max)).astype(float)
        ref = simulate_batch(batch, PriorityBatchPolicy(priorities=priorities), kernel="numpy")
        got = simulate_batch(
            batch, PriorityBatchPolicy(priorities=priorities), kernel="compiled"
        )
        np.testing.assert_allclose(got.completion_times, ref.completion_times, rtol=1e-12)
        np.testing.assert_array_equal(got.num_events, ref.num_events)

    def test_error_messages_match_numpy_engine(self, force_compiled):
        zero_weight = InstanceBatch.from_instances(
            [Instance(P=1.0, tasks=[Task(volume=1.0, weight=0.0, delta=0.5)])]
        )
        with pytest.raises(InvalidInstanceError, match="strictly positive weights"):
            simulate_batch(zero_weight, WdeqBatchPolicy(), kernel="compiled")
        with pytest.raises(SimulationError, match="positive weights"):
            simulate_batch(zero_weight, FairShareNoCapBatchPolicy(), kernel="compiled")


# --------------------------------------------------------------------- #
# Compiled pivot driver vs the NumPy simplex
# --------------------------------------------------------------------- #


class TestCompiledSimplex:
    def _random_lps(self, B: int, seed: int):
        rng = np.random.default_rng(seed)
        nvar, m_ub, m_eq = 4, 3, 1
        return (
            rng.normal(size=(B, nvar)),
            rng.normal(size=(B, m_ub, nvar)),
            rng.uniform(-1.0, 2.0, size=(B, m_ub)),
            rng.normal(size=(B, m_eq, nvar)),
            rng.uniform(-1.0, 1.0, size=(B, m_eq)),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_numpy_kernel_on_random_lps(self, force_compiled, seed):
        c, A_ub, b_ub, A_eq, b_eq = self._random_lps(B=10, seed=seed)
        ref = solve_linear_program_batch(c, A_ub, b_ub, A_eq, b_eq, kernel="numpy")
        got = solve_linear_program_batch(c, A_ub, b_ub, A_eq, b_eq, kernel="compiled")
        assert list(got.statuses) == list(ref.statuses)
        optimal = ref.statuses == "optimal"
        np.testing.assert_allclose(
            got.objectives[optimal], ref.objectives[optimal], rtol=1e-8, atol=1e-9
        )
        np.testing.assert_allclose(got.x[optimal], ref.x[optimal], rtol=1e-8, atol=1e-9)

    def test_ordered_relaxation_matches_numpy(self, force_compiled):
        insts = list(uniform_instances(5, 16, rng=np.random.default_rng(21)))
        batch = InstanceBatch.from_instances(insts)
        from repro.lp.batch import solve_ordered_relaxation_batch

        ref = solve_ordered_relaxation_batch(batch, backend="batch", kernel="numpy")
        got = solve_ordered_relaxation_batch(batch, backend="batch", kernel="compiled")
        np.testing.assert_allclose(got.objectives, ref.objectives, rtol=1e-9)

    def test_pivot_limit_raises(self, force_compiled):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(2, 4))
        A_ub = rng.normal(size=(2, 3, 4))
        b_ub = rng.uniform(0.5, 1.0, size=(2, 3))
        with pytest.raises(SolverError, match="pivots"):
            solve_linear_program_batch(c, A_ub, b_ub, max_iterations=1, kernel="compiled")


# --------------------------------------------------------------------- #
# float32 throughput mode
# --------------------------------------------------------------------- #


class TestFloat32Mode:
    def test_instance_batch_astype(self):
        batch = _sim_batch(B=3, n=3)
        cast = batch.astype(np.float32)
        assert cast.volumes.dtype == np.float32
        assert cast.weights.dtype == np.float32
        assert cast.deltas.dtype == np.float32
        assert cast.mask is batch.mask  # booleans are shared, not copied
        assert batch.astype(batch.volumes.dtype) is batch  # no-op short-circuits

    @pytest.mark.parametrize("kernel", ["numpy"] + (["compiled"] if numba_available() else []))
    def test_simulation_conforms_at_widened_tolerance(self, kernel):
        batch = _sim_batch(B=10, n=5, seed=17)
        ref = simulate_batch(batch, WdeqBatchPolicy(), kernel=kernel)
        got = simulate_batch(batch, WdeqBatchPolicy(), kernel=kernel, precision="float32")
        assert got.completion_times.dtype == np.float32
        np.testing.assert_allclose(
            got.completion_times, ref.completion_times, rtol=1e-4, atol=1e-4
        )

    def test_lp_conforms_at_widened_tolerance(self):
        insts = list(uniform_instances(5, 16, rng=np.random.default_rng(23)))
        batch = InstanceBatch.from_instances(insts)
        from repro.lp.batch import solve_ordered_relaxation_batch

        ref = solve_ordered_relaxation_batch(batch, backend="batch")
        got = solve_ordered_relaxation_batch(batch, backend="batch", precision="float32")
        np.testing.assert_allclose(got.objectives, ref.objectives, rtol=1e-3, atol=1e-3)

    def test_unknown_precision_rejected(self):
        batch = _sim_batch(B=2, n=2)
        with pytest.raises(ValueError, match="unknown precision"):
            simulate_batch(batch, WdeqBatchPolicy(), precision="float16")
        with pytest.raises(SolverError, match="precision"):
            solve_linear_program_batch(
                np.zeros((1, 2)), A_ub=np.ones((1, 1, 2)), b_ub=np.ones((1, 1)),
                precision="float16",
            )


# --------------------------------------------------------------------- #
# JIT plumbing
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestWithRealNumba:
    def test_loops_actually_jit(self):
        # With numba installed the lazy getters must hand back Dispatcher
        # objects wrapping the plain loop bodies, not the plain functions.
        # (The getters cache: this only holds when nothing resolved them
        # while availability was monkeypatched off, so reset first.)
        from repro.batch.compiled import lp_pivot, sim_loop

        sim_loop._jit_advance_rows = None
        lp_pivot._jit_pivot_all = None
        advance = sim_loop._get_advance_rows()
        pivot = lp_pivot._get_pivot_all()
        assert getattr(advance, "py_func", None) is sim_loop._advance_rows
        assert getattr(pivot, "py_func", None) is lp_pivot._pivot_all
