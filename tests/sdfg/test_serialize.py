"""Round-trip tests for SDFG JSON serialization."""

import copy
import json
import pickle

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg import validate
from repro.sdfg.codegen import SDFGExecutor, generate_cuda
from repro.sdfg.distributed import SlabDecomposition1D
from repro.sdfg.programs import (
    CONJUGATES_1D,
    CONJUGATES_2D,
    baseline_pipeline,
    build_jacobi_1d_sdfg,
    build_jacobi_2d_sdfg,
    cpufree_pipeline,
)
from repro.sdfg.serialize import SerializationError, sdfg_from_json, sdfg_to_json
from repro.sim import Tracer


def roundtrip(sdfg):
    return sdfg_from_json(sdfg_to_json(sdfg))


class TestRoundTrip:
    @pytest.mark.parametrize("build,pipeline,conj", [
        (build_jacobi_1d_sdfg, None, None),
        (build_jacobi_1d_sdfg, baseline_pipeline, None),
        (build_jacobi_1d_sdfg, cpufree_pipeline, CONJUGATES_1D),
        (build_jacobi_2d_sdfg, cpufree_pipeline, CONJUGATES_2D),
    ])
    def test_structure_preserved(self, build, pipeline, conj):
        sdfg = build()
        if pipeline is not None:
            sdfg = pipeline(sdfg) if conj is None else pipeline(sdfg, conj)
        restored = roundtrip(sdfg)
        validate(restored)
        assert restored.name == sdfg.name
        assert set(restored.arrays) == set(sdfg.arrays)
        assert restored.params == sdfg.params
        assert len(list(restored.walk_states())) == len(list(sdfg.walk_states()))
        for a, b in zip(sdfg.walk_states(), restored.walk_states()):
            assert a.name == b.name
            assert a.schedule == b.schedule
            assert len(a.nodes) == len(b.nodes)
            assert len(a.edges) == len(b.edges)

    def test_generated_code_identical_after_roundtrip(self):
        sdfg = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D)
        assert generate_cuda(roundtrip(sdfg)) == generate_cuda(sdfg)

    def test_restored_sdfg_executes_bit_exactly(self):
        rng = np.random.default_rng(21)
        n_global, ranks, tsteps = 24, 3, 5
        u0 = rng.random(n_global + 2)
        decomp = SlabDecomposition1D(n_global, ranks)

        results = []
        original = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        for sdfg in (original, roundtrip(original)):
            ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
            report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, tsteps))
            results.append(decomp.gather(report.arrays, u0))
        np.testing.assert_array_equal(results[0], results[1])

    def test_transformation_attributes_survive(self):
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D,
                                specialize_comm=True)
        restored = roundtrip(sdfg)
        loop = restored.loop_regions()[0]
        assert loop.comm_specialized
        for a, b in zip(sdfg.loop_regions()[0].walk_states(), loop.walk_states()):
            assert getattr(a, "sync_after", None) == getattr(b, "sync_after", None)
            assert getattr(a, "tb_group", None) == getattr(b, "tb_group", None)

    def test_storage_classes_survive(self):
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        restored = roundtrip(sdfg)
        for name in sdfg.arrays:
            assert restored.arrays[name].storage == sdfg.arrays[name].storage
            assert restored.arrays[name].transient == sdfg.arrays[name].transient

    def test_output_is_stable(self):
        """Serializing twice gives identical text (diffable artifacts)."""
        sdfg = baseline_pipeline(build_jacobi_1d_sdfg())
        assert sdfg_to_json(sdfg) == sdfg_to_json(sdfg)

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda sdfg: pickle.loads(pickle.dumps(sdfg))],
        ids=["deepcopy", "pickle"])
    def test_copies_serialize_like_the_original(self, clone):
        """Whole-axis memlet ranges keep their end-of-axis sentinel
        through a copy (warm-started sweep points run deep copies)."""
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        assert sdfg_to_json(clone(sdfg)) == sdfg_to_json(sdfg)

    def test_double_roundtrip_fixed_point(self):
        sdfg = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D)
        once = sdfg_to_json(roundtrip(sdfg))
        twice = sdfg_to_json(roundtrip(roundtrip(sdfg)))
        assert once == twice


class TestErrors:
    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError, match="not valid JSON"):
            sdfg_from_json("{nope")

    def test_unknown_format_rejected(self):
        with pytest.raises(SerializationError, match="unknown format"):
            sdfg_from_json(json.dumps({"format": "dace-v9"}))

    def test_unknown_node_kind_rejected(self):
        doc = json.loads(sdfg_to_json(baseline_pipeline(build_jacobi_1d_sdfg())))
        # corrupt the first state's first node
        def first_state(elements):
            for el in elements:
                if el["kind"] == "state":
                    return el
                if el["kind"] == "loop":
                    found = first_state(el["elements"])
                    if found:
                        return found
            return None

        state = first_state(doc["body"])
        state["nodes"][0] = {"kind": "quantum_teleport"}
        with pytest.raises(SerializationError, match="unknown node kind"):
            sdfg_from_json(json.dumps(doc))

    def test_unsupported_dtype_rejected(self):
        doc = json.loads(sdfg_to_json(build_jacobi_1d_sdfg()))
        doc["arrays"][0]["dtype"] = "complex128"
        with pytest.raises(SerializationError, match="dtype"):
            sdfg_from_json(json.dumps(doc))
