"""Property: the one-pass topological what-if replay is exact.

For traced runs of every CPU-controlled and CPU-free variant and random
scenarios, evaluating each DAG node once in topological order must give
the same makespan, bit for bit, as the bounded Gauss–Seidel sweep in
completion order that it replaced.
"""

import dataclasses
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import whatif
from repro.obs.whatif import Scenario

VARIANTS = ("cpufree", "cpufree_perks", "baseline_nvshmem",
            "baseline_overlap", "baseline_copy", "baseline_p2p")
SHAPES = (((66, 130), 2), ((130, 258), 4), ((258, 514), 8))

factors = st.floats(min_value=0.25, max_value=4.0)


@lru_cache(maxsize=None)
def _plans(variant, shape, gpus):
    from repro.stencil import StencilConfig, run_variant

    config = StencilConfig(global_shape=shape, num_gpus=gpus, iterations=4,
                           with_data=False)
    plan = whatif._plan(list(run_variant(variant, config).tracer.spans))
    sweep = dataclasses.replace(plan, nodes=list(range(len(plan.kind))),
                                acyclic=False)
    return plan, sweep


@st.composite
def scenarios(draw):
    links = {}
    if draw(st.booleans()):
        links[draw(st.sampled_from(["wire.pe0->*", "wire.*->pe1",
                                    "wire.pe1->pe0"]))] = draw(factors)
    return Scenario("random", compute=draw(factors), comm=draw(factors),
                    host=draw(factors), links=links)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VARIANTS), st.sampled_from(SHAPES), scenarios())
def test_topological_pass_equals_bounded_sweep(variant, shape_gpus, scenario):
    plan, sweep = _plans(variant, *shape_gpus)
    assert plan.acyclic
    one_pass, passes = whatif._replay(plan, scenario, 25)
    swept, sweeps = whatif._replay(sweep, scenario, 25)
    assert passes == 1
    assert sweeps < 25  # the sweep converged, so it is the reference
    assert one_pass == swept
