"""Causal what-if replay: exactness at scale 1, sane bottleneck calls."""

import math

import pytest

from repro.obs import whatif
from repro.obs.whatif import (
    DEFAULT_SCENARIOS,
    Scenario,
    replay_makespan,
    whatif_report,
    whatif_table,
)
from repro.sim.trace import Span


def _span(lane, name, category, start, end, meta=None):
    return Span(lane=lane, name=name, category=category, start=start,
                end=end, meta=meta)


def _run(variant, shape=(1026, 2050), gpus=4, iterations=4):
    from repro.stencil import StencilConfig, run_variant

    config = StencilConfig(global_shape=shape, num_gpus=gpus,
                           iterations=iterations, with_data=False)
    return run_variant(variant, config)


def _makespan(spans):
    return max(s.end for s in spans) - min(s.start for s in spans)


class TestScenario:
    def test_scale_routing(self):
        scenario = Scenario("s", compute=0.5, comm=0.7, host=0.9,
                            links={"wire.pe0->*": 0.1})
        assert scenario.scale_for(
            _span("gpu0.c", "k", "compute", 0, 1)) == 0.5
        assert scenario.scale_for(_span("gpu0.c", "pack", "comm", 0, 1)) == 0.7
        assert scenario.scale_for(_span("host0", "launch", "api", 0, 1)) == 0.9
        assert scenario.scale_for(_span("gpu0.c", "api", "api", 0, 1)) == 0.9
        assert scenario.scale_for(_span("wire.pe1->pe0", "put", "comm",
                                        0, 1)) == 0.7
        assert scenario.scale_for(_span("wire.pe0->pe1", "put", "comm",
                                        0, 1)) == 0.1
        # waiting is derived by the replay, never scaled directly
        assert scenario.scale_for(_span("gpu0.c", "wait", "sync", 0, 1)) == 1.0

    @pytest.mark.parametrize("factors", [
        {"compute": -1.0},
        {"compute": float("nan")},
        {"comm": 0.0},
        {"host": math.inf},
        {"links": {"wire.pe0->*": -0.5}},
        {"links": {"wire.pe1->pe0": float("nan")}},
    ])
    def test_rejects_factors_that_are_not_finite_and_positive(self, factors):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            Scenario("bad", **factors)


class TestSyntheticDag:
    def test_empty(self):
        assert replay_makespan([], Scenario("s", compute=0.5)) == 0.0

    def test_single_compute_span_scales(self):
        spans = [_span("gpu0.c", "k", "compute", 0.0, 10.0)]
        assert replay_makespan(spans, Scenario("s", compute=0.5)) == \
            pytest.approx(5.0)

    def test_flow_wait_shrinks_with_its_producer(self):
        spans = [
            _span("gpu0.c", "k", "compute", 0.0, 10.0, meta={"flow_s": 1}),
            _span("gpu1.c", "wait", "sync", 0.0, 10.0, meta={"flow_f": 1}),
            _span("gpu1.c", "k", "compute", 10.0, 12.0),
        ]
        new = replay_makespan(spans, Scenario("s", compute=0.5))
        # producer halves to 5; wait collapses onto it; consumer compute
        # halves to 1 -> makespan 6
        assert new == pytest.approx(6.0)

    def test_barrier_releases_at_last_new_arrival(self):
        # two ranks arrive at 4 and 8; barrier costs 2, releases both at 10
        spans = [
            _span("host0", "work", "api", 0.0, 4.0),
            _span("host1", "work", "api", 0.0, 8.0),
            _span("host0", "host_barrier", "sync", 4.0, 10.0),
            _span("host1", "host_barrier", "sync", 8.0, 10.0),
        ]
        # host 2x faster: arrivals 2 and 4, cost 1 -> release at 5
        assert replay_makespan(spans, Scenario("s", host=0.5)) == \
            pytest.approx(5.0)

    def test_launch_anchored_kernel_follows_faster_host(self):
        spans = [
            _span("host0", "launch:k", "api", 0.0, 4.0),
            _span("gpu0.c", "k", "compute", 4.0, 10.0),
        ]
        # launch halves to [0,2); kernel starts at 2, keeps its 6us body
        assert replay_makespan(spans, Scenario("s", host=0.5)) == \
            pytest.approx(8.0)

    def test_unrelated_lane_slack_is_preserved(self):
        spans = [
            _span("gpu0.c", "a", "compute", 0.0, 2.0),
            _span("gpu0.c", "b", "compute", 5.0, 7.0),  # 3us of slack
        ]
        new = replay_makespan(spans, Scenario("s", compute=0.5))
        # a: [0,1); b starts at 1 + original 3us gap, runs 1 -> ends 5
        assert new == pytest.approx(5.0)


class TestReplayPlan:
    """The DAG is built once per report and replayed in one pass."""

    def test_tolerance_cycle_falls_back_to_the_bounded_sweep(self):
        # the wait ends 5e-13 after the put it waits on, inside the lane
        # tolerance: the put's issuer (j) follows the wait on its lane,
        # and the wait follows the put through the flow link
        spans = [
            _span("gpu0.s", "j", "compute", 5.0, 10.0),
            _span("wire.pe0->pe1", "put", "comm", 5.0, 5.0, {"flow_s": 1}),
            _span("gpu0.s", "wait", "sync", 4.0, 5.0 + 5e-13, {"flow_f": 1}),
        ]
        plan = whatif._plan(spans)
        assert not plan.acyclic
        assert plan.nodes == list(range(2 * len(spans)))
        assert replay_makespan(spans, Scenario("identity")) == 6.0
        assert replay_makespan(spans, Scenario("s", compute=0.5)) == \
            pytest.approx(3.5)

    def test_acyclic_plan_is_topological(self):
        spans = list(_run("baseline_overlap", shape=(130, 258), gpus=2,
                          iterations=3).tracer.spans)
        plan = whatif._plan(spans)
        assert plan.acyclic
        position = {node: k for k, node in enumerate(plan.nodes)}
        assert sorted(position) == list(range(2 * len(spans)))
        for node in plan.nodes:
            assert all(position[src] < position[node]
                       for src in plan.inputs(node))

    @pytest.mark.parametrize("shape,gpus", [((66, 130), 2), ((258, 514), 4)])
    def test_every_variant_builds_once_and_replays_in_one_pass(
            self, monkeypatch, shape, gpus):
        from repro.stencil.base import VARIANTS

        builds, passes = [], []
        build_dag, sweep = whatif.build_dag, whatif._sweep

        def counting_build(spans):
            builds.append(len(spans))
            return build_dag(spans)

        def counting_sweep(*args):
            passes.append(sweep(*args))
            return passes[-1]

        monkeypatch.setattr(whatif, "build_dag", counting_build)
        monkeypatch.setattr(whatif, "_sweep", counting_sweep)
        for variant in VARIANTS:
            spans = _run(variant, shape=shape, gpus=gpus,
                         iterations=3).tracer.spans
            builds.clear()
            passes.clear()
            whatif_report(spans)
            assert builds == [len(spans)], variant
            assert passes == [1] * (1 + len(DEFAULT_SCENARIOS)), variant


class TestExactnessAtScaleOne:
    """The original schedule must be the replay's fixed point."""

    @pytest.mark.parametrize("variant,shape,gpus", [
        ("cpufree", (2050, 2050), 4),
        ("cpufree", (130, 258), 4),
        ("baseline_overlap", (1026, 2050), 4),
        ("baseline_copy", (1026, 2050), 4),
        ("cpufree_perks", (1026, 2050), 2),
        ("baseline_nvshmem", (1026, 2050), 2),
    ])
    def test_identity_replay_reproduces_makespan(self, variant, shape, gpus):
        spans = list(_run(variant, shape=shape, gpus=gpus).tracer.spans)
        original = _makespan(spans)
        replayed = replay_makespan(spans, Scenario("identity"))
        assert replayed == pytest.approx(original, abs=1e-6)


class TestBottleneckVerdicts:
    """Predicted savings point at each variant's actual bottleneck."""

    def test_large_cpufree_is_compute_bound(self):
        spans = list(_run("cpufree", shape=(2050, 2050)).tracer.spans)
        payload = whatif_report(spans)
        assert payload["scenarios"][0]["name"] == "compute x2"
        assert payload["scenarios"][0]["saved_frac"] > 0.1

    def test_small_cpufree_is_comm_bound(self):
        spans = list(_run("cpufree", shape=(130, 258)).tracer.spans)
        payload = whatif_report(spans)
        assert payload["scenarios"][0]["name"] == "comm x2"
        assert payload["scenarios"][0]["saved_frac"] > 0.05

    @pytest.mark.parametrize("variant", ["baseline_copy", "baseline_overlap"])
    def test_cpu_controlled_baselines_are_host_bound(self, variant):
        spans = list(_run(variant).tracer.spans)
        payload = whatif_report(spans)
        assert payload["scenarios"][0]["name"] == "host x2"
        assert payload["scenarios"][0]["saved_frac"] > 0.2

    def test_savings_never_negative_for_speedups(self):
        spans = list(_run("cpufree", shape=(514, 1026)).tracer.spans)
        payload = whatif_report(spans)
        for entry in payload["scenarios"]:
            assert entry["saved_us"] >= -1e-6


class TestReport:
    def test_report_is_deterministic(self):
        spans = list(_run("cpufree", shape=(130, 258), gpus=2).tracer.spans)
        from repro.obs.stablejson import dumps_stable

        assert dumps_stable(whatif_report(spans)) == \
            dumps_stable(whatif_report(spans))

    def test_entries_sorted_by_savings(self):
        spans = list(_run("cpufree", shape=(2050, 2050)).tracer.spans)
        saved = [e["saved_us"] for e in whatif_report(spans)["scenarios"]]
        assert saved == sorted(saved, reverse=True)

    def test_custom_scenarios_and_meta(self):
        spans = [_span("gpu0.c", "k", "compute", 0.0, 10.0)]
        payload = whatif_report(spans, [Scenario("only", compute=0.25)],
                                meta={"variant": "unit"})
        assert [e["name"] for e in payload["scenarios"]] == ["only"]
        assert payload["run"] == {"variant": "unit"}
        assert payload["scenarios"][0]["makespan_us"] == pytest.approx(2.5)

    def test_table_mentions_every_scenario(self):
        spans = [_span("gpu0.c", "k", "compute", 0.0, 10.0)]
        text = whatif_table(whatif_report(spans, DEFAULT_SCENARIOS))
        assert "baseline makespan:" in text
        for scenario in DEFAULT_SCENARIOS:
            assert scenario.name in text
