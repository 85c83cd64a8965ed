import tracemalloc

import numpy as np
import pytest

from conftest import fixed_chunks
from pcid import engine, processes, specs
from pcid.engine import _StreamFiller, derive_stream, run_ensemble


def test_same_address_same_draws():
    a = derive_stream(42, 0, 0).generator().random(100)
    b = derive_stream(42, 0, 0).generator().random(100)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = derive_stream(42, 0, 0).generator().random(100)
    b = derive_stream(42, 1, 0).generator().random(100)
    assert not np.array_equal(a, b)


def test_distinct_substreams_differ():
    a = derive_stream(42, 7, 0).generator().random(100)
    b = derive_stream(42, 7, 1).generator().random(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("addr_a,addr_b", [
    ((42, 0, 0), (42, 1, 0)),
    ((42, 0, 0), (42, 0, 1)),
    ((42, 5, 2), (42, 6, 2)),
    ((7, 0, 0), (7, 123456, 3)),
])
def test_streams_uncorrelated(addr_a, addr_b):
    n = 100_000
    a = derive_stream(*addr_a).generator().random(n)
    b = derive_stream(*addr_b).generator().random(n)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(n)


@pytest.mark.parametrize("bad", [(-1, 0, 0), (2 ** 64, 0, 0), (0, -1, 0),
                                 (0, 2 ** 48, 0), (0, 0, -1), (0, 0, 2 ** 16)])
def test_address_validation(bad):
    with pytest.raises(ValueError):
        derive_stream(*bad)


def _draw_32_then_64(gen):
    return gen.integers(0, 2 ** 32, size=3, dtype=np.uint32), gen.random(9)


def test_rekey_filler_matches_derive_stream(monkeypatch):
    filler = _StreamFiller(97)
    addresses = [(0, 0), (11, 1), (4096, 2)] + [(2 ** 40 + 3, sub) for sub in range(4)]
    # what the previous stream leaves behind: nothing, the rest of a Philox
    # block (buffer_pos), or the other half of a 64-bit word (has_uint32)
    for leave in (lambda gen: None, lambda gen: gen.random(3),
                  lambda gen: gen.integers(0, 2 ** 32, dtype=np.uint32)):
        for path, sub in addresses:
            leave(filler.rekey(path + 1, sub))
            got = _draw_32_then_64(filler.rekey(path, sub))
            want = _draw_32_then_64(derive_stream(97, path, sub).generator())
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (path, sub)

    # row fills, vectorized Philox up to the switch and re-keyed past it:
    # partial Philox blocks, the extreme master seeds, a path past 2^32, the
    # weight substream 0 and the last coordinate's K, and passes of two
    # blocks, so that a fill spans several passes and a remainder
    k = 3
    switch = engine.PHILOX_VECTOR_MAX_ROW
    for pass_blocks in (engine.PHILOX_PASS_BLOCKS, 2):
        monkeypatch.setattr(engine, "PHILOX_PASS_BLOCKS", pass_blocks)
        for seed in (0, 2 ** 64 - 1):
            filler = _StreamFiller(seed)
            for n in (1, 3, 4, 5, switch - 1, switch, switch + 1):
                for sub in (0, k):
                    out = np.empty((5, n))
                    filler.uniforms(2 ** 40, sub, out)
                    for p in range(5):
                        want = derive_stream(seed, 2 ** 40 + p, sub).generator().random(n)
                        assert np.array_equal(out[p], want), (seed, n, sub, p)
    # the chunk draws of every kind, in its kernel's argument order:
    # (substream, or None for one per coordinate, the Generator method, one
    # stream's draws). The horizons put the uniform rows of coordinates (H)
    # and of i.i.d. weights (H * K) on both sides of the switch.
    seed, path_lo, n_paths = 2 ** 64 - 1, 2 ** 40, 3
    gamma = specs.GammaWeight(2.5, 1.0, 0.1)
    bases = (specs.UniformBase(),) * k
    for horizon in (5, switch // k + 1, switch, switch + 1):
        coords = ("coord_u", None, "random", horizon)
        cases = [
            (specs.ReinforcedSpec(k, (1.0,) * k, bases, specs.CommonWeight(gamma)),
             [coords, ("weight_u", 0, "random", horizon)]),
            (specs.ReinforcedSpec(k, (1.0,) * k, bases, specs.IidWeights(gamma)),
             [coords, ("weight_u", 0, "random", (horizon, k))]),
            (specs.spec_from_dict({"kind": "polya"}), [coords, ("weight_u", 0, None, None)]),
            (specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 1.0), sigma2_1=(1.0, 2.0)),
             [("exp_draws", 0, "standard_exponential", horizon + 1),
              ("z", None, "standard_normal", horizon)]),
            (specs.StateSpaceCidSpec(), [("z", 1, "standard_normal", (horizon, 2))]),
            (specs.Ar1DriftSpec(), [("z", 1, "standard_normal", horizon)]),
        ]
        for spec, inputs in cases:
            draws = engine._chunk_draws(spec, horizon, seed, path_lo, n_paths)
            assert list(draws) == [name for name, *_ in inputs], spec.kind
            for name, sub, law, size in inputs:
                if law is None:
                    assert draws[name] is None
                    continue
                for p in range(n_paths):
                    for i in range(spec.n_coords) if sub is None else [None]:
                        stream = derive_stream(seed, path_lo + p, 1 + i if sub is None else sub)
                        want = getattr(stream.generator(), law)(size)
                        got = draws[name][p] if sub is not None else draws[name][p, ..., i]
                        assert np.array_equal(got, want), (spec.kind, horizon, name, p, i)


def test_chunk_draws_refuse_substreams_beyond_the_address():
    # substream 2^16 + 1 of path 0 is substream 1 of path 1 in the Philox
    # key; a spec built without validation must not draw from it
    want = np.empty((1, 8))
    engine._philox_uniforms(5, 1, 1, want)
    got = np.empty((1, 8))
    engine._philox_uniforms(5, 0, engine.MAX_SUBSTREAMS + 1, got)
    assert np.array_equal(got, want)
    spec = specs.BrokenFeedbackWeightSpec(n_coords=engine.MAX_SUBSTREAMS)
    with pytest.raises(ValueError, match="substream 65536"):
        engine._chunk_draws(spec, 3, 5, 0, 2)


@pytest.mark.parametrize("n_paths,n", [(1, 1), (7, 5), (3000, 24), (5000, 96)])
def test_philox_pass_bytes_are_the_filler_buffers(n_paths, n):
    # the chunk plan charges `_philox_pass_bytes` for the filler's scratch:
    # the traced peak besides the output is that buffer, a row of keys and
    # numpy's casting buffer (8192 elements) for the uint64 -> float product
    out = np.empty((n_paths, n))
    tracemalloc.start()
    try:
        engine._philox_uniforms(3, 0, 1, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charged = engine._philox_pass_bytes(n_paths, n)
    assert charged <= peak <= charged + 8 * (n_paths + n + 8192) + 4096, (peak, charged)
    # and a worker filling rows of n is charged for it: a kind whose kernel
    # steps, and whose weights draw no uniforms, is charged for nothing else
    spec = specs.spec_from_dict({"kind": "uniform_coupled"})
    assert engine._worker_bytes(spec, n, n_paths) == charged


def test_thread_count_does_not_change_ensemble(uniform_polya_spec, monkeypatch):
    spec = specs.UniformCoupledSpec()
    base = run_ensemble(spec, 64, 20, 42, threads=1)
    for threads in (2, 8):
        with fixed_chunks(9):
            other = run_ensemble(spec, 64, 20, 42, threads=threads)
        for key in base.arrays:
            assert np.array_equal(base.arrays[key], other.arrays[key]), key
    # the automatic chunk plan, with a budget of seven paths: one chunk of
    # seven or fewer paths per worker, several rounds of chunks per run
    gamma = specs.GammaWeight(2.5, 1.0, 0.1)
    for spec in (spec, uniform_polya_spec,
                 specs.ReinforcedSpec(2, (1.5, 0.7), (specs.NormalBase(0.5, 2.0),) * 2,
                                      specs.IidWeights(gamma)),
                 specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 1.0), sigma2_1=(1.0, 2.0)),
                 specs.GaussianLastTickSpec(t0=0.25),
                 specs.StateSpaceCidSpec(),
                 specs.Ar1DriftSpec()):
        with fixed_chunks(40):
            base = run_ensemble(spec, 40, 20, 42, threads=1)
        per = engine._series_bytes_per_path(spec, 20, engine.default_record(spec))
        for threads in (1, 2, 3):
            monkeypatch.setattr(engine, "CHUNK_BUDGET_BYTES",
                                7 * per + threads * engine._worker_bytes(spec, 20, 7))
            assert len(engine._chunk_bounds(spec, 40, 20, engine.default_record(spec),
                                            threads)) >= 2 * threads
            other = run_ensemble(spec, 40, 20, 42, threads=threads)
            for key in base.arrays:
                assert np.array_equal(base.arrays[key], other.arrays[key]), (spec, key, threads)


def test_chunking_does_not_change_ensemble(rru_two_point_spec, uniform_polya_spec,
                                           monkeypatch):
    with fixed_chunks(50):
        base = run_ensemble(rru_two_point_spec, 50, 30, 5)
    for chunk in (1, 7, 49):
        with fixed_chunks(chunk):
            other = run_ensemble(rru_two_point_spec, 50, 30, 5)
        for key in base.arrays:
            assert np.array_equal(base.arrays[key], other.arrays[key]), (key, chunk)
    # the genealogy kernel works in row blocks, here of 10 paths: chunks on
    # both sides of one, and a chunk of several blocks and a remainder. Its
    # horizons lie on both sides of the flat-search switch; the uniform
    # filler runs in passes of three Philox blocks
    monkeypatch.setattr(engine, "PHILOX_PASS_BLOCKS", 3)
    monkeypatch.setattr(processes, "GAUSSIAN_TILE_PATHS", 4)
    gamma = specs.GammaWeight(2.5, 1.0, 0.1)
    normal = specs.NormalBase(0.5, 2.0)
    for spec in (uniform_polya_spec,
                 specs.ReinforcedSpec(2, (1.0, 2.0), (specs.UniformBase(),) * 2,
                                      specs.CommonWeight(gamma)),
                 specs.ReinforcedSpec(2, (1.5, 0.7), (normal, normal),
                                      specs.IidWeights(gamma)),
                 # the Gaussian kernel reads its draws and lambdas through
                 # views of per-path rows, copied into tiles in blocks of
                 # four paths; the longest horizon spans two tiles and a step
                 specs.GaussianLastTickSpec(),
                 specs.GaussianLastTickSpec(n_coords=3, mu1=(0.0, 1.0, -1.0),
                                            sigma2_1=(1.0, 2.0, 0.5), t0=0.25)):
        for horizon in (3, 30, processes.GENEALOGY_FLAT_SEARCH_BELOW + 8,
                        2 * processes.GAUSSIAN_TILE_STEPS + 1):
            monkeypatch.setattr(processes, "GENEALOGY_BLOCK_STEPS", 10 * (horizon + 1))
            with fixed_chunks(1):
                base = run_ensemble(spec, 54, horizon, 5)
            for chunk in (7, 9, 11, 54):
                with fixed_chunks(chunk):
                    other = run_ensemble(spec, 54, horizon, 5)
                for key in base.arrays:
                    assert np.array_equal(base.arrays[key], other.arrays[key]), (
                        spec, key, chunk, horizon)


_PREFIX_SERIES = ("observations", "predictive_mean", "predictive_var")
_IID_GAMMA = specs.ReinforcedSpec(2, (1.0, 2.0), (specs.UniformBase(),) * 2,
                                  specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1)))
# (spec, the large ensemble's size, the prefixes checked against it). The
# prefixes cross the flat-search switch at H = 32, the vectorized Philox
# rows up to 96 uniforms and the Gaussian kernel's 64-step tiles, across
# which it carries the arrival total
_PREFIX_CASES = ([(kind, specs.spec_from_dict({"kind": kind}), (60, 100),
                   [(60, 3), (25, 100), (30, 33), (7, 64), (60, 65), (60, 99)])
                  for kind in specs.list_spec_kinds()]
                 + [("iid_gamma", _IID_GAMMA, (60, 120), [(30, 33), (7, 97), (60, 96)])])


@pytest.mark.parametrize("spec,size,prefixes", [case[1:] for case in _PREFIX_CASES],
                         ids=[case[0] for case in _PREFIX_CASES])
def test_ensemble_prefix_is_the_smaller_ensemble(spec, size, prefixes):
    # a path's draws are a pure function of its address, and each step uses
    # only those before it: a (p, h) ensemble is rows [:p, :h] of a larger
    # one with the same seed, bit for bit, whatever the chunk plan
    record = frozenset(_PREFIX_SERIES)
    big = run_ensemble(spec, *size, 19, record=record, threads=2)
    for n_paths, horizon in prefixes:
        small = run_ensemble(spec, n_paths, horizon, 19, record=record, threads=1)
        for name in _PREFIX_SERIES:
            got = small.arrays[name]
            want = big.arrays[name][:n_paths, :got.shape[1]]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                name, n_paths, horizon)
