import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from conftest import fixed_chunks
from pcid import engine, processes, runner, specs, statistics, verifiers
from pcid.engine import (
    MissingSeriesError,
    recompute_predictive_series,
    run_ensemble,
)
from pcid.specs import SpecValidationError


def test_run_rejects_empty_ensemble(uniform_polya_spec):
    with pytest.raises(SpecValidationError) as err:
        run_ensemble(uniform_polya_spec, 0, 5, 1)
    assert err.value.field == "n_paths"
    with pytest.raises(SpecValidationError) as err:
        run_ensemble(uniform_polya_spec, 5, 0, 1)
    assert err.value.field == "horizon"


@pytest.mark.parametrize("n_paths,horizon,field", [
    (101.5, 3, "n_paths"), (True, 3, "n_paths"), ("101", 3, "n_paths"),
    (101, 3.5, "horizon"), (101, True, "horizon")])
def test_run_rejects_non_integral_counts_before_planning(monkeypatch, n_paths, horizon,
                                                          field):
    # a fractional n_paths once sent the chunk plan's search into a loop
    # that never ended; with the planner replaced, a missed check fails
    # here instead of hanging
    def no_plan(*args):
        raise AssertionError("planned chunks for a non-integral count")

    monkeypatch.setattr(engine, "_chunk_bounds", no_plan)
    spec = specs.UniformCoupledSpec()
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run_ensemble(spec, n_paths, horizon, 1, threads=1)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        engine.map_path_chunks(spec, n_paths, horizon, 1, lambda e: {}, threads=1)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        engine._validate_run_args(spec, n_paths, horizon, 1)


def test_reducer_needs_one_row_per_path(uniform_polya_spec):
    # a per-chunk scalar would depend on the chunk plan, and so on threads
    with pytest.raises(ValueError, match="one row per path"):
        engine.map_path_chunks(uniform_polya_spec, 5, 3, 1,
                               lambda e: {"mean": e.observations.mean()})
    with fixed_chunks(2):
        got = engine.map_path_chunks(uniform_polya_spec, 5, 3, 1,
                                     lambda e: {"x": e.observations[:, 0, 0]})
    assert np.array_equal(got["x"], run_ensemble(uniform_polya_spec, 5, 3, 1).observations[:, 0, 0])


def _in_worker(parent_pid):
    # True in a forked chunk worker, False in the calling process
    return os.getpid() != parent_pid


_WORKER_ERRORS = [processes.ProcessError("draw outside (0, 1)"),
                  statistics.StatisticsError("need two paths"),
                  MissingSeriesError("weights"),
                  SpecValidationError("w0[0]", "must be > 0")]


@pytest.mark.parametrize("error", _WORKER_ERRORS, ids=lambda e: type(e).__name__)
def test_reducer_error_in_forked_worker_reaches_caller(uniform_polya_spec, error):
    parent = os.getpid()

    def reducer(ens):
        if _in_worker(parent):
            raise error
        return {"x": ens.observations[:, 0, 0]}

    with fixed_chunks(2), pytest.raises(type(error)) as got:
        engine.map_path_chunks(uniform_polya_spec, 8, 3, 1, reducer, threads=2)
    assert str(got.value) == str(error)
    assert getattr(got.value, "field", None) == getattr(error, "field", None)
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_and_leaves_no_process(uniform_polya_spec):
    parent = os.getpid()
    whole = run_ensemble(uniform_polya_spec, 8, 3, 1, threads=1).observations[:, 0, 0]

    def dies_on_second_chunk(ens):
        # chunk 1 (paths 2-3) is the first of worker 1
        if _in_worker(parent) and ens.observations[0, 0, 0] == whole[2]:
            os._exit(3)
        return {"x": ens.observations[:, 0, 0]}

    def one_value_per_chunk(ens):
        return {"mean": ens.observations.mean()}

    with fixed_chunks(2):
        with pytest.raises(RuntimeError, match="worker 1 .*exited with code 3"):
            engine.map_path_chunks(uniform_polya_spec, 8, 3, 1, dies_on_second_chunk,
                                   threads=2)
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="one row per path"):
            engine.map_path_chunks(uniform_polya_spec, 8, 3, 1, one_value_per_chunk,
                                   threads=2)
        assert multiprocessing.active_children() == []
        got = engine.map_path_chunks(uniform_polya_spec, 8, 3, 1,
                                     lambda e: {"x": e.observations[:, 0, 0]}, threads=2)
        assert multiprocessing.active_children() == []
    assert np.array_equal(got["x"], whole)


def test_default_threads_are_the_usable_cores(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert engine._resolve_threads(None) == 3
    assert engine._resolve_threads(2) == 2
    monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    assert engine._resolve_threads(None) == 64


def _kind_specs():
    return [specs.spec_from_dict({"kind": kind}) for kind in specs.list_spec_kinds()]


@pytest.mark.parametrize("spec", _kind_specs(), ids=specs.list_spec_kinds())
@pytest.mark.parametrize("horizon", [1, 2, 5, 100])
def test_path_bytes_estimate_covers_a_chunk(spec, horizon):
    # the chunk plan's budget holds only if the estimate covers the draws
    # and every array a chunk returns, for every record: the default, none
    # and each series alone
    n_paths = 3
    singles = [frozenset({name}) for name in sorted(engine.default_record(spec))]
    for record in [engine.default_record(spec), frozenset()] + singles:
        draws = engine._chunk_draws(spec, horizon, 1, 0, n_paths)
        out = engine._run_chunk(spec, horizon, 1, 0, n_paths, record)
        held = sum(a.nbytes for a in list(draws.values()) + list(out.values())
                   if a is not None)
        assert engine._series_bytes_per_path(spec, horizon, record) * n_paths >= held, record


def _assert_chunk_peak_within_estimate(spec, horizon, n_paths=512):
    # the traced peak, temporaries included, must be within the per-path
    # estimate and the worker's fixed buffers, or chunks in flight overrun
    # the budget
    for record in (engine.default_record(spec), frozenset()):
        tracemalloc.start()
        try:
            engine._run_chunk(spec, horizon, 1, 0, n_paths, record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowed = (engine._series_bytes_per_path(spec, horizon, record) * n_paths
                   + engine._worker_bytes(spec, horizon, n_paths))
        assert peak <= allowed, (record, peak, allowed)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("horizon", [5, 1000])
def test_gaussian_chunk_peak_within_estimate(k, horizon):
    # the kernel's own gaps and arrivals must be in the estimate
    spec = specs.GaussianLastTickSpec(n_coords=k, mu1=(0.0,) * k, sigma2_1=(1.0,) * k)
    _assert_chunk_peak_within_estimate(spec, horizon)


@pytest.mark.parametrize("k", [1, 2])
def test_gaussian_chunk_holds_only_tiles_besides_draws_and_series(k):
    # whatever it records, the kernel keeps no (P, H+1) array but its draws
    # and recorded series: besides those it holds the tile buffers (normals,
    # lambdas and arrivals of one tile) and O(P) values: mu, sigma^2, the
    # step's draws and their terminal copies, gamma_hat and a few step
    # buffers
    n_paths, horizon = 512, 1000
    spec = specs.GaussianLastTickSpec(n_coords=k, mu1=(0.0,) * k, sigma2_1=(1.0,) * k)
    draws = 8 * n_paths * ((horizon + 1) + k * horizon)
    tile = processes.GAUSSIAN_TILE_STEPS
    allowed = 8 * n_paths * ((k + 1) * tile + (tile + 1) + 5 * k + 4)
    for record in (frozenset(), frozenset({"arrivals"}), frozenset({"lambdas"}),
                   frozenset({"arrivals", "lambdas"}), engine.default_record(spec)):
        tracemalloc.start()
        try:
            engine._run_chunk(spec, horizon, 1, 0, n_paths, record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        series = sum(8 * np.prod(processes.series_shape(name, n_paths, horizon, k))
                     for name in record)
        assert peak - draws - series <= allowed, (record, peak - draws - series, allowed)


_PEAK_CASES = ([(kind, horizon, "default") for horizon in (5, 1000)
                for kind in ("polya", "reinforced", "uniform_coupled",
                             "broken_feedback_weight", "state_space_cid", "ar1_drift")]
               + [(kind, 5, "small") for kind in ("polya", "reinforced", "uniform_coupled")]
               + [(kind, 1000, "small") for kind in ("polya", "reinforced")])


@pytest.mark.parametrize("kind,horizon,blocks", _PEAK_CASES)
def test_chunk_peak_within_estimate(monkeypatch, kind, horizon, blocks):
    # "small" shrinks the genealogy row blocks to 64 paths and the filler's
    # passes to 64 Philox blocks, so that the chunk spans several of each
    # and the fixed term is small: the per-path estimate must then cover
    # the rest. For `reinforced` it takes i.i.d. weights over three
    # coordinates, whose block buffers grow with K.
    spec = specs.spec_from_dict({"kind": kind})
    n_paths = 256
    if blocks == "small":
        monkeypatch.setattr(processes, "GENEALOGY_BLOCK_STEPS", 64 * (horizon + 1))
        monkeypatch.setattr(engine, "PHILOX_PASS_BLOCKS", 64)
        if kind == "reinforced":
            spec = specs.ReinforcedSpec(3, (1.0, 2.0, 0.5), (specs.UniformBase(),) * 3,
                                        specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1)))
    _assert_chunk_peak_within_estimate(spec, horizon, n_paths)


_CLT_SPECS = {
    "state_space_cid": specs.StateSpaceCidSpec(),
    "gaussian_last_tick_2": specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0),
                                                       sigma2_1=(1.0, 1.0)),
    # the README's common-weight CLT example
    "clt_long": specs.ReinforcedSpec(2, (25.0, 25.0), (specs.UniformBase(),) * 2,
                                     specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5))),
}


@pytest.mark.parametrize("spec", _CLT_SPECS.values(), ids=_CLT_SPECS.keys())
def test_clt_reducer_peak_within_estimate(spec):
    # a chunk's outputs stay alive while the CLT reducer runs on them, so
    # the kernel and then the reducer must both fit the chunk's budget
    n_paths, horizon = 250, 2000
    record = verifiers.CLT_RECORD
    # a one-path chunk first: the first chunk a process draws imports
    # numpy.random (~740 KB traced), which no chunk holds
    engine._run_chunk(spec, horizon, 1, 0, 1, record)
    tracemalloc.start()
    try:
        arrays = engine._run_chunk(spec, horizon, 1, 0, n_paths, record)
        statistics.clt_path_summaries(
            engine.Ensemble(spec, n_paths, horizon, 1, record, arrays))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowed = (engine._series_bytes_per_path(spec, horizon, record) * n_paths
               + engine._worker_bytes(spec, horizon, n_paths))
    assert peak <= allowed, (peak, allowed)


@pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
def test_chunk_bounds_balanced_within_budget(monkeypatch, rru_two_point_spec, n_workers):
    # budgets from under one path to far over the workers' block buffers
    spec, horizon, record = rru_two_point_spec, 30, frozenset({"observations"})
    per = engine._series_bytes_per_path(spec, horizon, record)

    def chunk_bytes(p):
        return p * per + engine._worker_bytes(spec, horizon, p)

    for budget in (per // 2, n_workers * chunk_bytes(1), n_workers * chunk_bytes(2) + per // 2,
                   n_workers * chunk_bytes(7), engine.CHUNK_BUDGET_BYTES, 10 ** 12):
        monkeypatch.setattr(engine, "CHUNK_BUDGET_BYTES", budget)
        for n_paths in (1, 2, 3, 7, 40, 1001):
            bounds = engine._chunk_bounds(spec, n_paths, horizon, record, n_workers)
            assert bounds[0][0] == 0 and bounds[-1][1] == n_paths
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            sizes = [hi - lo for lo, hi in bounds]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            assert len(bounds) % n_workers == 0 or len(bounds) == n_paths
            if max(sizes) > 1:
                assert n_workers * chunk_bytes(max(sizes)) <= budget


@pytest.mark.parametrize("kind", ["polya", "reinforced", "iid_k10"])
def test_chunk_bounds_many_workers_keep_many_paths(kind):
    # the block buffers are charged only for the rows a chunk fills, so
    # eight workers at the real budget still get chunks of many paths, also
    # under i.i.d. weights over ten coordinates
    if kind == "iid_k10":
        spec = specs.ReinforcedSpec(10, (1.0,) * 10, (specs.UniformBase(),) * 10,
                                    specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1)))
    else:
        spec = specs.spec_from_dict({"kind": kind})
    for horizon in (3, 20, 1000):
        bounds = engine._chunk_bounds(spec, 10 ** 5, horizon, engine.default_record(spec), 8)
        assert min(hi - lo for lo, hi in bounds) > 10, horizon


def test_bundled_gaussian_chunk_plan():
    # the kind table's estimate sets how many chunks the bundled Gaussian
    # config runs in (its check records nothing): an edit to the estimate
    # that moves this plan changes the run's memory and time, so it must
    # move the plan knowingly
    config = runner.load_config("gaussian_last_tick_limit")
    for threads, n_chunks in ((1, 7), (2, 14)):
        bounds = engine._chunk_bounds(config.spec, config.n_paths, config.horizon,
                                      frozenset(), threads)
        assert len(bounds) == n_chunks, threads


def test_clt_long_chunk_plan():
    # the genealogy kernel works a chunk one row block at a time, so its
    # chunks stop at GENEALOGY_CHUNK_STEPS path-steps, far under the
    # budget: 16 chunks of 125 paths at any thread count up to 16
    spec, record = _CLT_SPECS["clt_long"], verifiers.CLT_RECORD
    for threads in (1, 2):
        bounds = engine._chunk_bounds(spec, 2000, 2000, record, threads)
        assert [hi - lo for lo, hi in bounds] == [125] * 16, threads


@pytest.mark.parametrize("kind", ["polya", "reinforced", "iid_k3"])
def test_genealogy_chunks_within_cap(kind):
    if kind == "iid_k3":
        spec = specs.ReinforcedSpec(3, (1.0,) * 3, (specs.UniformBase(),) * 3,
                                    specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1)))
    else:
        spec = specs.spec_from_dict({"kind": kind})
    for horizon in (3, 24, 1000, 10 ** 4, 10 ** 6):
        cap = processes.genealogy_chunk_paths(spec, horizon)
        assert cap == max(1, processes.GENEALOGY_CHUNK_STEPS // (horizon + 1))
        for threads in (1, 2, 8):
            bounds = engine._chunk_bounds(spec, 10 ** 5, horizon,
                                          engine.default_record(spec), threads)
            assert max(hi - lo for lo, hi in bounds) <= cap, (horizon, threads)


@pytest.mark.parametrize("kind", ["uniform_coupled", "broken_feedback_weight"])
def test_stepping_couplings_keep_budget_plan(kind):
    # their kernel makes one numpy call per step over all of a chunk's
    # paths, so they keep the budget-sized chunks (the plans before the
    # genealogy cap)
    spec = specs.spec_from_dict({"kind": kind})
    assert processes.genealogy_chunk_paths(spec, 2000) is None
    plans = {(2000, 2000, 1): (3, 667), (2000, 2000, 2): (6, 334),
             (10 ** 5, 50, 1): (4, 25000), (10 ** 5, 50, 2): (8, 12500),
             (10 ** 6, 24, 1): (21, 47620), (10 ** 6, 24, 2): (42, 23810)}
    for (n_paths, horizon, threads), (n_chunks, largest) in plans.items():
        bounds = engine._chunk_bounds(spec, n_paths, horizon,
                                      engine.default_record(spec), threads)
        assert (len(bounds), max(hi - lo for lo, hi in bounds)) == (n_chunks, largest)


def test_clt_summaries_do_not_depend_on_the_plan():
    # at 600 x 1000 the cap plans four chunks of 150 paths at two threads,
    # against 250, 250 and 100 below
    spec = _CLT_SPECS["clt_long"]
    record = verifiers.CLT_RECORD
    assert len(engine._chunk_bounds(spec, 600, 1000, record, 2)) == 4
    planned = engine.map_path_chunks(spec, 600, 1000, 3, statistics.clt_path_summaries,
                                     record=record, threads=2)
    with fixed_chunks(250):
        fixed = engine.map_path_chunks(spec, 600, 1000, 3, statistics.clt_path_summaries,
                                       record=record, threads=1)
    assert planned.keys() == fixed.keys() == {"S", "S_tilde", "QV_S", "QV_S_tilde", "QV_01"}
    for key in planned:
        assert np.array_equal(planned[key], fixed[key]), key


def test_run_rejects_unrecordable_series(uniform_polya_spec):
    for record in ({"theta"}, {"observations", "total_weight"}, {"nothing"}):
        with pytest.raises(SpecValidationError) as err:
            run_ensemble(uniform_polya_spec, 5, 5, 1, record=frozenset(record))
        assert err.value.field == "record"
    with pytest.raises(SpecValidationError, match="record"):
        engine.map_path_chunks(specs.Ar1DriftSpec(), 5, 5, 1, lambda e: {},
                               record=frozenset({"weights"}))


def test_run_rejects_invalid_spec():
    bad = specs.PolyaSpec(n_coords=1, w0=(-1.0,), base=(specs.UniformBase(),))
    with pytest.raises(SpecValidationError) as err:
        run_ensemble(bad, 5, 5, 1)
    assert err.value.field == "w0[0]"


def test_single_polya_draw_in_support():
    spec = specs.PolyaSpec(n_coords=2, w0=(1.0, 1.0),
                           base=(specs.UniformBase(0.0, 1.0), specs.UniformBase(2.0, 3.0)))
    ens = run_ensemble(spec, 1, 1, 12345)
    x = ens.observations[0, 0]
    assert 0.0 <= x[0] < 1.0
    assert 2.0 <= x[1] < 3.0


def test_array_shapes(rru_two_point_spec):
    p, h, k = 17, 9, 2
    ens = run_ensemble(rru_two_point_spec, p, h, 3)
    assert ens.observations.shape == (p, h, k)
    assert ens.predictive_mean.shape == (p, h + 1, k)
    assert ens.predictive_var.shape == (p, h + 1, k)
    assert ens.weights.shape == (p, h, k)
    assert ens.terminal_mean.shape == ens.terminal_var.shape == (p, k)
    gspec = specs.GaussianLastTickSpec(n_coords=3, mu1=(0.0,) * 3, sigma2_1=(1.0,) * 3)
    gens = run_ensemble(gspec, p, h, 3)
    assert gens.arrivals.shape == (p, h + 1)
    assert gens.lambdas.shape == (p, h)
    assert gens.gamma_hat.shape == (p,)
    sens = run_ensemble(specs.StateSpaceCidSpec(), p, h, 3)
    assert sens.theta.shape == (p, h)
    assert sens.observations.shape == (p, h, 1)


_TERMINAL_SPECS = {
    "polya": specs.PolyaSpec(2, (1.0, 2.0), (specs.UniformBase(),) * 2),
    "reinforced_common": specs.ReinforcedSpec(
        2, (1.0, 2.0), (specs.UniformBase(), specs.NormalBase(0.5, 2.0)),
        specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5))),
    "reinforced_iid": specs.ReinforcedSpec(
        2, (1.5, 0.7), (specs.NormalBase(0.5, 2.0),) * 2,
        specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1))),
    "uniform_coupled": specs.UniformCoupledSpec(),
    "broken_feedback_weight": specs.BrokenFeedbackWeightSpec(),
    "gaussian_last_tick": specs.GaussianLastTickSpec(),
    "state_space_cid": specs.StateSpaceCidSpec(),
    "ar1_drift": specs.Ar1DriftSpec(),
}


@pytest.mark.parametrize("horizon", [5, 40])
@pytest.mark.parametrize("kind", _TERMINAL_SPECS)
def test_every_kernel_returns_its_terminal_predictive(kind, horizon):
    # the last entries of the predictive series, bit for bit, returned
    # whatever is recorded, at any thread count and chunking; horizons on
    # both sides of the genealogy kernel's choice of atom search
    spec = _TERMINAL_SPECS[kind]
    full = run_ensemble(spec, 9, horizon, 11, threads=1)
    mean, var = full.terminal_mean, full.terminal_var
    assert mean.shape == var.shape == (9, spec.n_coords)
    assert np.array_equal(mean, full.predictive_mean[:, -1])
    assert np.array_equal(var, full.predictive_var[:, -1])
    extra = ({"gamma_hat"} if kind == "gaussian_last_tick"
             else {"total_weight"} if specs.reinforced_view(spec) is not None else set())
    assert set(full.arrays) == full.record | {"terminal_mean", "terminal_var"} | extra
    runs = [run_ensemble(spec, 9, horizon, 11, record=record, threads=threads)
            for record in (frozenset(), verifiers.CLT_RECORD) for threads in (1, 2)]
    with fixed_chunks(2):
        runs += [run_ensemble(spec, 9, horizon, 11, record=frozenset(), threads=threads)
                 for threads in (1, 2)]
    for ens in runs:
        assert np.array_equal(ens.terminal_mean, mean)
        assert np.array_equal(ens.terminal_var, var)


def test_missing_series_raises(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 3, 3, 1, record=frozenset({"observations"}))
    with pytest.raises(MissingSeriesError):
        _ = ens.predictive_mean


def test_common_weight_shared_across_coordinates(rru_two_point_spec):
    ens = run_ensemble(rru_two_point_spec, 10, 20, 8)
    assert np.array_equal(ens.weights[:, :, 0], ens.weights[:, :, 1])


def test_path_independence_first_draws(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 20_000, 1, 77)
    x1 = ens.observations[:, 0, 0]
    even, odd = x1[0::2], x1[1::2]
    rho = np.corrcoef(even, odd)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(len(even))


@pytest.mark.parametrize("spec_name", ["polya", "rru", "uniform_coupled", "broken"])
def test_no_look_ahead_recompute(spec_name, uniform_polya_spec, rru_two_point_spec):
    spec = {
        "polya": uniform_polya_spec,
        "rru": rru_two_point_spec,
        "uniform_coupled": specs.UniformCoupledSpec(),
        "broken": specs.BrokenFeedbackWeightSpec(),
    }[spec_name]
    ens = run_ensemble(spec, 40, 60, 21)
    mean, var = recompute_predictive_series(ens)
    assert np.array_equal(mean, ens.predictive_mean)
    assert np.array_equal(var, ens.predictive_var)


def test_uniform_coupled_step2_covariance():
    # covariance of the second observations approximates 1/144
    ens = run_ensemble(specs.UniformCoupledSpec(), 10_000, 2, 2718,
                       record=frozenset({"observations"}))
    x = ens.observations[:, 1, :]
    prod = (x[:, 0] - x[:, 0].mean()) * (x[:, 1] - x[:, 1].mean())
    cov = prod.mean()
    se = prod.std() / np.sqrt(len(prod))
    assert abs(cov - 1.0 / 144.0) < 3.0 * se


def test_gaussian_fixed_t0_overrides_first_gap():
    spec = specs.GaussianLastTickSpec(t0=0.25)
    ens = run_ensemble(spec, 6, 4, 9)
    assert np.allclose(ens.arrivals[:, 0], 0.25)
    assert np.all(np.diff(ens.arrivals, axis=1) > 0)
