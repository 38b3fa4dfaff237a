"""Multi-domain (hierarchical-topology) stencil runs: correctness,
rail accounting, and flat-node behavior pinning."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.stencil import StencilConfig, jacobi_reference, run_variant
from repro.stencil.base import default_initial


def _config(gpus, iterations=4, **kw):
    return StencilConfig(global_shape=(gpus * 4 + 2, 34), num_gpus=gpus,
                         iterations=iterations, **kw)


@pytest.mark.parametrize("variant", ["cpufree", "baseline_nvshmem"])
def test_16_pe_two_domain_run_matches_reference(variant):
    config = _config(16)
    res = run_variant(variant, config)
    expected = jacobi_reference(
        default_initial(config.global_shape, config.seed), config.iterations)
    np.testing.assert_array_equal(res.result, expected)


def test_two_domain_run_is_hierarchical():
    config = _config(16)
    assert config.node.is_hierarchical
    assert config.node.num_domains == 2


def test_boundary_halos_cross_rails_interior_stays_on_nvlink():
    registry = MetricsRegistry()
    with use_metrics(registry):
        run_variant("cpufree", _config(16, with_data=False))
    rails = registry.find("hw.rail.bytes")
    assert rails, "no rail traffic recorded for a two-domain run"
    routes = {(labels["src_node"], labels["dst_node"]) for labels, _ in rails}
    # slab decomposition: only the 7<->8 halo pair crosses the rail
    assert routes == {("0", "1"), ("1", "0")}


def test_proxy_ops_accounted_per_source_pe():
    registry = MetricsRegistry()
    with use_metrics(registry):
        run_variant("cpufree", _config(16, with_data=False))
    proxy = registry.find("nvshmem.proxy.ops")
    pes = {labels["pe"] for labels, _ in proxy}
    # exactly the PEs on either side of the domain boundary proxy puts
    assert pes == {"7", "8"}


def test_flat_8_pe_run_unaffected_by_the_hierarchy_machinery():
    """An 8-PE single-domain run must not build rails and must not
    charge proxy time."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        res = run_variant("cpufree", _config(8, with_data=False))
    assert not _config(8).node.is_hierarchical
    assert registry.find("hw.rail.bytes") == []
    assert registry.find("nvshmem.proxy.ops") == []
    assert res.total_time_us > 0.0


def test_weak_scaling_total_grows_mildly_across_domains():
    """Weak scaling 8 -> 32 PEs adds rail crossings but must not blow
    up: the per-iteration time stays within a small factor."""
    t8 = run_variant("cpufree", _config(8, with_data=False)).per_iteration_us
    t32 = run_variant("cpufree", _config(32, with_data=False)).per_iteration_us
    assert t32 < 10.0 * t8
