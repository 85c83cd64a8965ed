import contextlib

import numpy as np
import pytest

from pcid import engine, specs


class FakeStream:
    """Feeds preset draws to the scalar process steps."""

    def __init__(self, uniforms=(), normals=()):
        self._uniforms = list(uniforms)
        self._normals = list(normals)

    def random(self):
        return self._uniforms.pop(0)

    def standard_normal(self):
        return self._normals.pop(0)


class FakeStreams:
    def __init__(self, coords, weights=None):
        self._coords = list(coords)
        self.weights = weights

    def coord(self, i):
        return self._coords[i]


@pytest.fixture
def uniform_polya_spec():
    return specs.PolyaSpec(n_coords=2, w0=(1.0, 1.0),
                           base=(specs.UniformBase(), specs.UniformBase()))


@pytest.fixture
def rru_two_point_spec():
    return specs.ReinforcedSpec(
        n_coords=2, w0=(1.0, 1.0), base=(specs.UniformBase(), specs.UniformBase()),
        coupling=specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5)))


@pytest.fixture
def degenerate_spec():
    base = specs.DiscreteBase(values=(0.7,), probs=(1.0,))
    return specs.PolyaSpec(n_coords=1, w0=(1.0,), base=(base,))


def two_sample_halves(values: np.ndarray):
    half = len(values) // 2
    return values[:half], values[half:2 * half]


@contextlib.contextmanager
def fixed_chunks(size):
    """Within the block, the engine plans chunks of `size` paths (the last
    one shorter) in place of its budgeted plan."""
    planned = engine._chunk_bounds
    engine._chunk_bounds = lambda spec, n_paths, horizon, record, n_workers: [
        (lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    try:
        yield
    finally:
        engine._chunk_bounds = planned
