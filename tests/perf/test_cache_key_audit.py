"""Cache-key safety audit.

A stale sweep-cache replay silently corrupts BENCH tables, so every
knob that changes a sweep point's *behavior* must perturb its cache
key.  The key is ``sha256(identity | source digest)`` where identity
is ``worker qualname | repr(args) | variant`` — so the audit reduces
to: (a) each behavioral knob is captured into the worker's explicit
argument tuple in the main process (never smuggled through module
state), and (b) anything baked into sources (e.g. a profile's watchdog
budget) flips the source digest when edited.
"""

import pytest

from repro.bench.figures import _dace_point, _stencil_point
from repro.faults.profiles import PROFILES, get_plan, use_fault_profile
from repro.nvshmem.device import Scope
from repro.perf import ResultCache, SweepRunner, use_runner
from repro.perf.cache import point_identity, source_digest
from repro.sdfg.distributed import GridDecomposition2D, SlabDecomposition1D
from repro.stencil import StencilConfig


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _dace_key(cache, fault_profile=None, *, decomp=SlabDecomposition1D(8000, 8),
              options=(), comm_scope=Scope.THREAD):
    return cache.key(_dace_point, ("1d", "cpufree", decomp, 3, options, comm_scope,
                                   fault_profile))


class TestKeyPerturbation:
    def test_fault_profile_perturbs_key(self, cache):
        keys = {_dace_key(cache, fault_profile=spec)
                for spec in (None, "transient", "transient@7", "degraded")}
        assert len(keys) == 4

    def test_fault_profile_perturbs_stencil_key(self, cache):
        """StencilConfig resolves the ambient profile at construction,
        so it rides inside the worker's pickled config repr."""
        def key_for(spec):
            with use_fault_profile(spec):
                config = StencilConfig(global_shape=(8, 8), num_gpus=2,
                                       iterations=2, with_data=False)
            assert f"fault_profile={spec!r}" in repr(config)
            return cache.key(_stencil_point, ("cpufree", config))

        assert key_for(None) != key_for("transient@3")

    def test_watchdog_settings_ride_on_the_profile(self, cache):
        """Watchdog budgets are properties of the named fault plan: the
        profile spec (in the key) selects them, and editing a budget in
        profiles.py flips the source digest (every key).  Pin both
        halves of that argument."""
        budgets = {name: get_plan(name).watchdog_budget_us for name in PROFILES}
        assert len(set(budgets.values())) > 1, \
            "profiles no longer differ in watchdog budget; the audit " \
            "below would be vacuous"
        lost, transient = get_plan("lost_signal"), get_plan("transient")
        assert lost.watchdog_budget_us != transient.watchdog_budget_us
        assert _dace_key(cache, fault_profile="lost_signal") \
            != _dace_key(cache, fault_profile="transient")

    def test_source_digest_perturbs_key(self, cache, monkeypatch):
        before = _dace_key(cache)
        monkeypatch.setattr("repro.perf.cache.source_digest",
                            lambda: "deadbeef" * 8)
        assert _dace_key(cache) != before

    def test_decomposition_options_and_scope_perturb_key(self, cache):
        """The decomposition is a frozen dataclass: its repr carries
        every field, so two decompositions of one rank count differ."""
        keys = {
            _dace_key(cache),
            _dace_key(cache, decomp=SlabDecomposition1D(16000, 8)),
            _dace_key(cache, decomp=GridDecomposition2D(64, 128, 8)),
            _dace_key(cache, options=(("relax_barriers", False),)),
            _dace_key(cache, comm_scope=Scope.BLOCK),
        }
        assert len(keys) == 5

    def test_metrics_variant_perturbs_key(self, cache):
        args = ("1d", "cpufree", SlabDecomposition1D(2000, 2), 3)
        plain = cache.key(_dace_point, args)
        metered = cache.key(_dace_point, args, variant="+metrics")
        assert plain != metered

    def test_source_digest_is_stable_within_process(self):
        assert source_digest() == source_digest()
        assert len(source_digest()) == 64


class TestAmbientCapture:
    """The sweeps must capture the ambient fault profile into task
    tuples in the main process — worker processes never see the ambient
    state."""

    def _captured_tasks(self, figure):
        captured = {}

        class Capture(SweepRunner):
            def map(self, fn, argtuples):
                captured["fn"], captured["tasks"] = fn, list(argtuples)
                raise _Stop

        class _Stop(Exception):
            pass

        with use_runner(Capture()):
            try:
                figure()
            except _Stop:
                pass
        return captured["fn"], captured["tasks"]

    def test_fig63a_captures_profile(self):
        from repro.bench.figures import fig63a_dace_1d

        with use_fault_profile("transient@5"):
            fn, tasks = self._captured_tasks(fig63a_dace_1d)
        assert all(t[-1] == "transient@5" for t in tasks)
        identities = {point_identity(fn, t) for t in tasks}
        assert len(identities) == len(tasks)

    def test_fig63b_captures_profile(self):
        from repro.bench.figures import fig63b_dace_2d

        with use_fault_profile("degraded@2"):
            _, tasks = self._captured_tasks(fig63b_dace_2d)
        assert all(t[-1] == "degraded@2" for t in tasks)
