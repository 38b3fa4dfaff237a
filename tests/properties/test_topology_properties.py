"""Property suite for the hierarchical topology.

Topology sanity: for any hierarchical node shape and payload,
intra-domain transfers are never slower than inter-domain ones, and a
host-staged reroute never beats the direct rail path (it adds the PCIe
bounce on top of the same rail crossing).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import HGX_A100_8GPU, build_topology

domain_sizes = st.sampled_from((2, 4, 8))
domain_counts = st.integers(min_value=2, max_value=6)
payloads = st.integers(min_value=1, max_value=4 << 20)


def _node(domain, domains):
    from dataclasses import replace

    return replace(HGX_A100_8GPU, num_gpus=domain,
                   nvswitch_domain_gpus=domain).scaled_to(domain * domains)


class TestTopologySanity:
    @given(domain_sizes, domain_counts, payloads)
    @settings(max_examples=60, deadline=None)
    def test_intra_domain_never_slower_than_inter(self, domain, domains, nbytes):
        topo = build_topology(_node(domain, domains))
        intra = topo.transfer_us(0, domain - 1, nbytes) if domain > 1 else 0.0
        inter = topo.transfer_us(0, domain, nbytes)
        assert intra <= inter

    @given(domain_sizes, domain_counts, payloads)
    @settings(max_examples=60, deadline=None)
    def test_staged_reroute_never_beats_the_direct_rail(self, domain, domains,
                                                        nbytes):
        topo = build_topology(_node(domain, domains))
        direct = topo.rail_transfer_us(0, domain, nbytes, occupy=False)
        staged = topo.staged_route_us(0, domain, nbytes)
        assert staged >= direct

    @given(domain_sizes, domain_counts, payloads)
    @settings(max_examples=60, deadline=None)
    def test_staged_reroute_bounded_by_bounce_plus_rail(self, domain, domains,
                                                        nbytes):
        """Staging = PCIe up + rail + PCIe down, nothing more: it stays
        under 2x the direct rail path plus the full host bounce."""
        topo = build_topology(_node(domain, domains))
        rail = topo.rail_transfer_us(0, domain, nbytes, occupy=False)
        host = (topo.link(0, -1).transfer_us(nbytes)
                + topo.link(-1, domain).transfer_us(nbytes))
        staged = topo.staged_route_us(0, domain, nbytes)
        assert staged <= 2.0 * rail + host

    @given(domain_sizes, domain_counts)
    @settings(max_examples=30, deadline=None)
    def test_domains_partition_the_devices(self, domain, domains):
        topo = build_topology(_node(domain, domains))
        seen = {}
        for dev in range(topo.num_gpus):
            seen.setdefault(topo.domain_of(dev), []).append(dev)
        assert sorted(seen) == list(range(domains))
        assert all(len(members) == domain for members in seen.values())
