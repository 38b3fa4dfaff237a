"""Property-based A/B equivalence of the batched execution backend.

A batch group fuses sweep points that differ only in ``global_shape``
into one vector-clock simulation.  Batching is pure scheduling — never
a cost-model change — so for any group the demuxed per-point results
and Chrome traces must be byte-identical to the per-point path, the
sweep scheduler must produce identical rows with ``batch`` on and off,
and any group batching cannot soundly fuse (a fault profile's RNG
substreams are per-point) must fall back rather than diverge.  A
batched run records no metrics, even under an ambient registry:
metered sweeps run per point.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.figures import _stencil_point
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.perf.sweep import SweepRunner
from repro.sim.stacked import BatchDivergence
from repro.stencil import StencilConfig, run_variant
from repro.stencil.batch import run_batched_stencil

batch_groups = st.tuples(
    st.lists(st.integers(min_value=6, max_value=16), min_size=2, max_size=4,
             unique=True),                                  # per-member rows
    st.integers(min_value=7, max_value=12),                 # cols
    st.integers(min_value=2, max_value=4),                  # gpus
    st.integers(min_value=1, max_value=4),                  # iterations
    st.sampled_from(["cpufree", "baseline_nvshmem", "baseline_copy",
                     "cpufree_coresident"]),
)


def _group_configs(case, fault_profile=None):
    rows_list, cols, gpus, iterations, variant = case
    configs = [
        StencilConfig(global_shape=(rows * gpus, cols), num_gpus=gpus,
                      iterations=iterations, with_data=False,
                      fault_profile=fault_profile)
        for rows in rows_list
    ]
    return variant, configs


def _observed(res):
    return (res.total_time_us, res.comm_time_us, res.sync_time_us,
            res.api_time_us, res.overlap_ratio,
            json.dumps(res.tracer.to_chrome_trace(), sort_keys=True))


class TestBatchedStencilEquivalence:
    @given(batch_groups)
    @settings(max_examples=15, deadline=None)
    def test_demuxed_results_metrics_traces_identical(self, case):
        variant, configs = _group_configs(case)
        want = [_observed(run_variant(variant, config)) for config in configs]
        registry = MetricsRegistry()
        with use_metrics(registry):
            results = run_batched_stencil(variant, configs)
        assert [_observed(r) for r in results] == want
        # the fused run records nothing, even into an ambient registry
        assert registry.to_dict() == MetricsRegistry().to_dict()

    @given(batch_groups)
    @settings(max_examples=10, deadline=None)
    def test_sweep_runner_rows_identical_and_groups_fused(self, case):
        variant, configs = _group_configs(case)
        tasks = [(variant, config) for config in configs]
        on = SweepRunner(jobs=1, batch=True)
        off = SweepRunner(jobs=1, batch=False)
        rows_on = on.map(_stencil_point, tasks)
        rows_off = off.map(_stencil_point, tasks)
        assert rows_on == rows_off
        assert on.batch_fallbacks == 0
        assert on.batch_points == len(tasks)
        assert off.batch_points == 0

    @given(batch_groups)
    @settings(max_examples=5, deadline=None)
    def test_fault_profile_forces_per_point_fallback(self, case):
        variant, configs = _group_configs(case, fault_profile="transient")
        # the batched path must refuse: fault RNG substreams are
        # per-point and cannot be carried on a shared vector clock
        try:
            run_batched_stencil(variant, configs)
        except BatchDivergence:
            pass
        else:
            raise AssertionError("faulted group batched instead of diverging")
        # ... and the scheduler never even forms a group for faulted
        # points (the group key screens them out), so batch-on runs
        # them per-point with results identical to batch-off
        tasks = [(variant, config) for config in configs]
        on = SweepRunner(jobs=1, batch=True)
        rows_on = on.map(_stencil_point, tasks)
        rows_off = SweepRunner(jobs=1, batch=False).map(_stencil_point, tasks)
        assert rows_on == rows_off
        assert on.batch_points == 0
        assert on.batch_groups == 0
