"""Warm-start template store: reuse without cross-point leakage."""

import copy

import pytest

from repro.perf import warm


@pytest.fixture(autouse=True)
def fresh_store():
    warm.clear()
    yield
    warm.clear()


class TestWarmStore:
    def test_build_runs_once_per_key(self):
        calls = []
        for _ in range(3):
            warm.warm("k", lambda: calls.append(1) or {"a": 1})
        assert calls == [1]
        assert warm.stats() == (2, 1, 1)

    def test_distinct_keys_build_separately(self):
        warm.warm(("f", "baseline"), dict)
        warm.warm(("f", "cpufree"), dict)
        assert warm.stats() == (0, 2, 2)

    def test_copy_hands_out_fresh_instances(self):
        first = warm.warm("k", lambda: {"plan": None}, copy=copy.deepcopy)
        first["plan"] = "attached by point 1"
        second = warm.warm("k", lambda: {"plan": None}, copy=copy.deepcopy)
        assert second == {"plan": None}
        assert second is not first

    def test_no_copy_returns_the_template(self):
        template = warm.warm("k", dict)
        assert warm.warm("k", dict) is template

    def test_clear_resets_everything(self):
        warm.warm("k", dict)
        warm.clear()
        assert warm.stats() == (0, 0, 0)


class TestDaceWarmStart:
    def test_repeated_points_share_one_template_but_not_plans(self):
        """Two sweep points of the same pipeline build the SDFG once;
        each point still attaches executor plans to its own copy, so
        per-point metrics (plan_cache hit/miss) are identical whether
        the template was warm or cold."""
        from repro.bench.figures import _dace_point
        from repro.obs.metrics import MetricsRegistry, use_metrics
        from repro.sdfg.distributed import SlabDecomposition1D

        def point_metrics():
            registry = MetricsRegistry()
            with use_metrics(registry):
                row = _dace_point("1d", "cpufree", SlabDecomposition1D(2000, 2), 3)
            return row, registry.to_dict()

        cold_row, cold_metrics = point_metrics()
        assert warm.stats()[1] >= 1
        warm_row, warm_metrics = point_metrics()
        assert warm.stats()[0] >= 1
        assert warm_row == cold_row
        assert warm_metrics == cold_metrics
