"""Tests for StencilConfig validation and default initial conditions."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.stencil import StencilConfig
from repro.stencil.base import default_initial


class TestConfig:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            StencilConfig(global_shape=(10, 10), num_gpus=1, iterations=0)

    def test_node_scales_up_to_gpu_count(self):
        config = StencilConfig(global_shape=(66, 10), num_gpus=16,
                               iterations=1, node=HGX_A100_8GPU)
        assert config.node.num_gpus == 16

    def test_node_not_shrunk_for_small_counts(self):
        config = StencilConfig(global_shape=(10, 10), num_gpus=2, iterations=1)
        assert config.node.num_gpus >= 2

    def test_frozen(self):
        config = StencilConfig(global_shape=(10, 10), num_gpus=1, iterations=1)
        with pytest.raises(Exception):
            config.iterations = 5  # type: ignore[misc]


class TestDefaultInitial:
    def test_2d_edges(self):
        u = default_initial((8, 8))
        assert np.all(u[0, 1:-1] == 1.0)
        assert np.all(u[-1, 1:-1] == 0.5)
        assert np.all(u[1:-1, 0] == 0.25)
        assert np.all(u[1:-1, -1] == 0.75)

    def test_3d_faces(self):
        u = default_initial((6, 6, 6))
        assert np.all(u[0, 1:-1, 1:-1] == 1.0)
        assert np.all(u[-1, 1:-1, 1:-1] == 0.5)
        assert np.all(u[1:-1, 0, 1:-1] == 0.25)
        assert np.all(u[1:-1, 1:-1, 0] == 0.1)

    def test_interior_random_and_bounded(self):
        u = default_initial((10, 10))
        interior = u[1:-1, 1:-1]
        assert interior.std() > 0.0
        assert 0.0 <= interior.min() and interior.max() <= 1.0

    def test_seed_determinism(self):
        assert np.array_equal(default_initial((8, 8), 5), default_initial((8, 8), 5))
        assert not np.array_equal(default_initial((8, 8), 5), default_initial((8, 8), 6))


class TestLazyInitial:
    """The default field is built on first read, so a timing-only run
    and a run handed its own field never build it."""

    @staticmethod
    def _variant(**kw):
        import repro.stencil.variants  # noqa: F401 - populate the registry
        from repro.stencil.base import VARIANTS

        return VARIANTS["cpufree"](StencilConfig(
            global_shape=(18, 10), num_gpus=2, iterations=3, **kw))

    def test_timing_only_run_builds_no_field(self, monkeypatch):
        monkeypatch.setattr("repro.stencil.base.default_initial", None)
        variant = self._variant(with_data=False)
        assert variant.run().result is None
        assert variant.initial is None

    def test_assigned_field_is_used_and_default_never_built(self, monkeypatch):
        from repro.stencil import jacobi_reference

        field = default_initial((18, 10), seed=7)
        monkeypatch.setattr("repro.stencil.base.default_initial", None)
        variant = self._variant()
        variant.initial = field
        np.testing.assert_array_equal(variant.run().result,
                                      jacobi_reference(field, 3))
