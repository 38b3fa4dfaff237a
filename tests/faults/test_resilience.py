"""End-to-end resilience: every stencil variant under every recoverable
profile converges bit-exactly; unrecoverable hangs become diagnostics."""

import numpy as np
import pytest

import repro.stencil.variants  # noqa: F401 - populate the registry
from repro.faults import SignalWaitTimeout, get_injector
from repro.sim import WatchdogError
from repro.stencil import StencilConfig, jacobi_reference, variant_names
from repro.stencil.base import VARIANTS, default_initial

SHAPE = (34, 66)
ITERATIONS = 6

NVSHMEM_VARIANTS = [n for n in variant_names() if VARIANTS[n].uses_nvshmem]


def _config(profile, **kw):
    kw.setdefault("global_shape", SHAPE)
    kw.setdefault("num_gpus", 2)
    kw.setdefault("iterations", ITERATIONS)
    return StencilConfig(fault_profile=profile, **kw)


def _reference(config):
    return jacobi_reference(default_initial(config.global_shape, config.seed),
                            config.iterations)


class TestConvergenceUnderFaults:
    @pytest.mark.parametrize("variant", variant_names())
    @pytest.mark.parametrize("profile", ["transient", "transient@7", "degraded",
                                         "link_down"])
    def test_variant_converges(self, variant, profile):
        config = _config(profile)
        instance = VARIANTS[variant](config)
        result = instance.run()
        np.testing.assert_array_equal(result.result, _reference(config))

    @pytest.mark.parametrize("variant", ["cpufree", "baseline_nvshmem"])
    def test_transient_retries_visible_in_metrics(self, variant):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            config = _config("transient")
            instance = VARIANTS[variant](config)
            instance.run()
        dump = registry.to_dict()
        names = {series["name"] for series in dump["counters"]}
        assert "faults.injected" in names
        assert instance.faults.events, "transient profile injected nothing"
        if instance.faults.total_retries:
            assert "nvshmem.retry.count" in names

    def test_transient_numerics_match_fault_free(self):
        """Faults may cost time, never numerics: the faulted result is
        bit-identical to the fault-free run, but slower."""
        clean = VARIANTS["cpufree"](_config(None)).run()
        faulted = VARIANTS["cpufree"](_config("transient")).run()
        np.testing.assert_array_equal(faulted.result, clean.result)
        assert faulted.total_time_us > clean.total_time_us


class TestDegradedPath:
    def test_p2p_link_down_takes_staged_path(self):
        config = _config("link_down")
        instance = VARIANTS["baseline_p2p"](config)
        result = instance.run()
        np.testing.assert_array_equal(result.result, _reference(config))
        names = {s.name for s in result.tracer.spans}
        assert any(n.endswith("_staged") for n in names), sorted(names)
        assert any(e.kind == "staged_copy" for e in instance.faults.events)

    def test_cpufree_link_down_stages_puts(self):
        config = _config("link_down")
        instance = VARIANTS["cpufree"](config)
        result = instance.run()
        np.testing.assert_array_equal(result.result, _reference(config))
        assert instance.faults.total_degraded_puts > 0

    def test_link_down_slower_than_clean(self):
        clean = VARIANTS["baseline_p2p"](_config(None)).run()
        degraded = VARIANTS["baseline_p2p"](_config("link_down")).run()
        assert degraded.total_time_us > clean.total_time_us


class TestLostSignalDiagnostic:
    @pytest.mark.parametrize("variant", NVSHMEM_VARIANTS)
    def test_hang_becomes_watchdog_diagnostic(self, variant):
        instance = VARIANTS[variant](_config("lost_signal"))
        with pytest.raises(WatchdogError) as err:
            instance.run()
        message = str(err.value)
        # the diagnostic names a stuck process, the signal it waits on,
        # and the last delivery attempt for that signal
        assert "waiting on" in message
        assert "halo_flags" in message
        assert "last delivery attempt" in message
        assert "lost" in message

    def test_non_nvshmem_variant_unaffected(self):
        config = _config("lost_signal")
        result = VARIANTS["baseline_p2p"](config).run()
        np.testing.assert_array_equal(result.result, _reference(config))


class TestWaitTimeout:
    def test_signal_wait_timeout_raises_with_context(self):
        """An explicit wait timeout (no watchdog) gives up with a
        SignalWaitTimeout naming the flag and the lost delivery."""
        from repro.faults import DeliveryFault, FaultPlan
        from repro.hw import HGX_A100_8GPU
        from repro.nvshmem import NVSHMEMRuntime, WaitCond
        from repro.runtime import MultiGPUContext
        from repro.sim import Tracer

        plan = FaultPlan(
            deliveries=(DeliveryFault(src=0, dst=1, drop_prob=1.0, silent=True),),
            wait_timeout_us=10.0,
            retry_limit=2,
        )
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer(),
                              faults=plan.injector())
        nv = NVSHMEMRuntime(ctx)
        signals = nv.malloc_signals("sig", 1)
        captured = {}

        def sender(dev):
            yield from dev.putmem_signal_nbi(
                None, None, 0.0, signals, 0, 1, dest_pe=1, nbytes=8)

        def waiter(dev):
            try:
                yield from dev.signal_wait_until(signals, 0, WaitCond.GE, 1)
            except SignalWaitTimeout as exc:
                captured["message"] = str(exc)

        ctx.sim.spawn(sender(nv.device(0)))
        ctx.sim.spawn(waiter(nv.device(1)))
        ctx.run()
        assert "sig[pe1][0]" in captured["message"]
        assert "lost" in captured["message"]


class TestSDFGFastpathWatchdog:
    """The watchdog contract holds through the SDFG executor too."""

    def test_lost_signal_diagnostic(self):
        from repro.hw import HGX_A100_8GPU
        from repro.runtime import MultiGPUContext
        from repro.sdfg.codegen import SDFGExecutor
        from repro.sdfg.distributed import SlabDecomposition1D
        from repro.sdfg.programs import (
            CONJUGATES_1D,
            build_jacobi_1d_sdfg,
            cpufree_pipeline,
        )
        from repro.sim import Tracer

        rng = np.random.default_rng(12)
        u0 = rng.random(14)
        args = SlabDecomposition1D(12, 2).rank_args(u0, 4)
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer(),
                              faults=get_injector("lost_signal"))
        with pytest.raises(WatchdogError) as err:
            SDFGExecutor(sdfg, ctx).run(args)
        message = str(err.value)
        assert "sdfg_flags" in message
        assert "last delivery attempt" in message
