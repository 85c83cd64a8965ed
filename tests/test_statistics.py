import functools

import numpy as np
import pytest
from conftest import fixed_chunks

from pcid import engine, processes, specs, statistics
from pcid.engine import MissingSeriesError, default_record, run_ensemble
from pcid.statistics import (
    StatisticsError,
    empirical_predictive_distance,
    slln_running_average,
)


def errors_and_increments(ens):
    """Forecast errors U_n = X_n - mu_{n-1} and prediction increments
    dE_n = mu_n - mu_{n-1} of every path and step, shape (P, H, K)."""
    mu = ens.predictive_mean
    return ens.observations - mu[:, :-1], mu[:, 1:] - mu[:, :-1]


def test_degenerate_process_series(degenerate_spec):
    # X identically 0.7; derived series vanish up to ulp-scale rounding of
    # the predictive-mean ratio (0.7 * (1 + k)) / (1 + k)
    ens = run_ensemble(degenerate_spec, 8, 12, 3)
    assert np.all(ens.observations == 0.7)
    u, de = errors_and_increments(ens)
    assert np.max(np.abs(u)) < 1e-14
    assert np.max(np.abs(de)) < 1e-14
    summ = statistics.clt_path_summaries(ens)
    assert np.max(np.abs(summ["S"])) < 1e-12 and np.max(np.abs(summ["S_tilde"])) < 1e-12
    d = empirical_predictive_distance(ens)
    assert np.all(d["marginal"] == 0.0)


def test_polya_first_forecast_error_is_centered_draw(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 50, 5, 4)
    u, _ = errors_and_increments(ens)
    assert np.array_equal(u[:, 0, :], ens.observations[:, 0, :] - 0.5)


def test_clt_summaries_require_predictive_means(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 5, 5, 4, record=frozenset({"observations"}))
    with pytest.raises(MissingSeriesError):
        statistics.clt_path_summaries(ens)


def test_errors_and_increments_are_centered(uniform_polya_spec):
    # per-step ensemble means of U and dE vanish (martingale differences)
    ens = run_ensemble(uniform_polya_spec, 4000, 50, 5)
    for series in errors_and_increments(ens):
        mean = series.mean(axis=0)
        se = series.std(axis=0) / np.sqrt(series.shape[0])
        assert np.all(np.abs(mean) <= 4 * np.maximum(se, 1e-12))


def test_polya_prediction_increment_formula(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 30, 40, 6)
    u, de = errors_and_increments(ens)
    n = np.arange(1, 41, dtype=float)[None, :, None]
    expected = u / (1.0 + n)     # (X_n - mu_n) / (w0 + n) with w0 = 1
    assert np.max(np.abs(de - expected)) < 1e-12


def test_common_weight_prediction_increment_formula(rru_two_point_spec):
    ens = run_ensemble(rru_two_point_spec, 30, 40, 7)
    u, de = errors_and_increments(ens)
    w = ens.weights
    tot = 1.0 + np.cumsum(w, axis=1)
    expected = u * w / tot
    assert np.max(np.abs(de - expected)) < 1e-12


def test_first_step_sums_and_cumulative_identity(rru_two_point_spec):
    # at n = 1 the reducer's S is the first forecast error and S~ the first
    # draw less its updated predictive mean (a one-step run is the first
    # step of a longer one with the same seed)
    first = run_ensemble(rru_two_point_spec, 25, 1, 9)
    summ = statistics.clt_path_summaries(first)
    u, _ = errors_and_increments(first)
    assert np.array_equal(summ["S"], u[:, 0, :])
    assert np.array_equal(summ["S_tilde"],
                          first.observations[:, 0, :] - first.predictive_mean[:, 1, :])
    # cumulative forecast errors match n * Xbar - sum of predictive means
    ens = run_ensemble(rru_two_point_spec, 25, 60, 9)
    u, _ = errors_and_increments(ens)
    mu = ens.predictive_mean[:, :-1, :]
    lhs = np.cumsum(u, axis=1)
    rhs = np.cumsum(ens.observations, axis=1) - np.cumsum(mu, axis=1)
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) < 1e-9


def test_clt_summaries_reject_corrupt_series(rru_two_point_spec):
    # the telescoping identity holds algebraically for any predictive-mean
    # array, so the consistency check guards numerical corruption (non-finite
    # values), not data tampering
    ens = run_ensemble(rru_two_point_spec, 5, 20, 10)
    ens.arrays["observations"] = ens.observations.copy()
    ens.arrays["observations"][2, 7, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(StatisticsError, match="telescoping"):
            statistics.clt_path_summaries(ens)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("path", [0, 8])
def test_clt_summaries_reject_corrupt_value_in_any_block(monkeypatch, rru_two_point_spec,
                                                         bad, path):
    # blocks of two paths over nine: the corrupt value sits in the first
    # block or in the last (one-path) one, and the clean blocks before or
    # after it must not drop it from the running maximum of the error
    ens = run_ensemble(rru_two_point_spec, 9, 20, 10)
    monkeypatch.setattr(processes, "GENEALOGY_BLOCK_STEPS", 2 * 21 * 2)
    ens.arrays["observations"] = ens.observations.copy()
    ens.arrays["observations"][path, 7, 0] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(StatisticsError, match="telescoping"):
            statistics.clt_path_summaries(ens)


_TWO_POINT = specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5))


_IID = specs.IidWeights(specs.UniformWeight(0.5, 1.5))


@pytest.mark.parametrize("k,coupling,n_paths", [
    pytest.param(1, _TWO_POINT, 10, id="1"),
    pytest.param(2, _TWO_POINT, 10, id="2"),
    pytest.param(3, _TWO_POINT, 10, id="3"),
    pytest.param(3, _IID, 10, id="3-iid"),
    pytest.param(1, _TWO_POINT, 1, id="1-one_path"),
    pytest.param(2, _TWO_POINT, 1, id="2-one_path"),
    pytest.param(3, _IID, 1, id="3-iid-one_path"),
])
def test_clt_path_summaries_do_not_depend_on_blocks(monkeypatch, k, coupling, n_paths):
    # blocks of one path, of three (not dividing the ten paths) and of all
    # of them give the whole-chunk sums of .sum(axis=1) and .mean(axis=1),
    # for the sums and for their quadratic variations, bit for bit: K = 1
    # sums each row pairwise, K >= 2 sequentially, and a block keeps that
    # order
    spec = specs.ReinforcedSpec(k, (1.0,) * k, (specs.UniformBase(),) * k, coupling)
    h = 300
    ens = run_ensemble(spec, n_paths, h, 19)
    x, mu = ens.observations, ens.predictive_mean
    u = x - mu[:, :-1]
    xi = u - (mu[:, 1:] - mu[:, :-1]) * np.arange(1, h + 1, dtype=float)[None, :, None]
    want = {"S": u.sum(axis=1) / np.sqrt(h),
            "S_tilde": (x.mean(axis=1) - mu[:, -1]) * np.sqrt(h),
            "QV_S": (u * u).sum(axis=1) / h, "QV_S_tilde": (xi * xi).sum(axis=1) / h}
    if k >= 2:
        want["QV_01"] = (xi[:, :, 0] * xi[:, :, 1]).sum(axis=1) / h
    for rows in (1, 3, 10):
        monkeypatch.setattr(processes, "GENEALOGY_BLOCK_STEPS", rows * (h + 1) * k)
        summ = statistics.clt_path_summaries(ens)
        assert summ.keys() == want.keys()
        for key, value in want.items():
            assert np.array_equal(summ[key], value), (rows, key)


def test_iid_sequence_scaled_sum_variance():
    # for an i.i.d. Gaussian sequence Var(S_n) equals the noise variance
    spec = specs.Ar1DriftSpec(phi=0.0, drift=0.0, noise_var=1.7,
                              init_mean=0.0, init_var=1.7)
    ens = run_ensemble(spec, 5000, 200, 11)
    s = statistics.clt_path_summaries(ens)["S"]
    var = s[:, 0].var()
    se = var * np.sqrt(2.0 / len(s))
    assert abs(var - 1.7) < 4 * se


def test_slln_constant_paths(degenerate_spec):
    ens = run_ensemble(degenerate_spec, 4, 10, 12)
    avg = slln_running_average(ens, "product_of_coords")
    assert np.allclose(avg, 0.7)
    logs = slln_running_average(ens, "log_sum_of_coords")
    assert np.allclose(logs, np.log(0.7))


def test_slln_polya_running_mean_tracks_terminal_predictive():
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    ens = run_ensemble(spec, 50, 4000, 13)
    avg = slln_running_average(ens, "product_of_coords")   # identity for K = 1
    terminal = ens.predictive_mean[:, -1, 0]
    assert np.max(np.abs(avg[:, -1] - terminal)) < 0.02


def test_slln_product_of_independent_polya_pair(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 50, 4000, 14)
    avg = slln_running_average(ens, "product_of_coords")
    terminal = ens.predictive_mean[:, -1, 0] * ens.predictive_mean[:, -1, 1]
    assert np.max(np.abs(avg[:, -1] - terminal)) < 0.03


def test_slln_log_sum_requires_positive_sums():
    ens = run_ensemble(specs.StateSpaceCidSpec(), 50, 10, 15)
    with pytest.raises(StatisticsError, match="positive"):
        slln_running_average(ens, "log_sum_of_coords")


def test_slln_unknown_functional(degenerate_spec):
    ens = run_ensemble(degenerate_spec, 2, 2, 1)
    with pytest.raises(StatisticsError, match="unknown functional"):
        slln_running_average(ens, "nope")


def test_distance_requires_n_within_horizon(uniform_polya_spec):
    ens = run_ensemble(uniform_polya_spec, 3, 10, 16)
    # n = -2 once took the first 8 observations and divided their counts by -2
    for n in (11, 0, -2):
        with pytest.raises(StatisticsError, match=f"n={n} must lie in"):
            empirical_predictive_distance(ens, n=n)


def test_distances_shrink_with_horizon(uniform_polya_spec):
    small = run_ensemble(uniform_polya_spec, 30, 100, 17)
    large = run_ensemble(uniform_polya_spec, 30, 3000, 17)
    d_small = empirical_predictive_distance(small)["marginal"].mean()
    d_large = empirical_predictive_distance(large)["marginal"].mean()
    assert d_large < d_small
    joint = empirical_predictive_distance(large)["joint"]
    assert joint.shape == (30,)
    assert np.all(joint < 0.2)


def _distances_path_by_path(ens, n, n_grid=512):
    """The distances one path and coordinate at a time, each mixture's CDF
    from its own kept atoms, as a reference."""
    rspec = specs.reinforced_view(ens.spec)
    x, k = ens.observations[:, :n], ens.n_coords
    marginal, joint = np.empty((ens.n_paths, k)), np.empty(ens.n_paths)
    for p in range(ens.n_paths):
        cdfs = []
        for i in range(k):
            keep = ens.weights[p, :, i] > 0
            values, w = ens.observations[p, keep, i], ens.weights[p, keep, i]
            order = np.argsort(values, kind="stable")
            cum = np.concatenate(([0.0], np.cumsum(w[order])))
            cdfs.append(lambda t, i=i, v=values[order], c=cum: (
                rspec.w0[i] * rspec.base[i].cdf(t) + c[np.searchsorted(v, t, side="right")])
                / ens.arrays["total_weight"][p, i])
            srt = np.sort(x[p, :, i])
            lo = min(srt[0], rspec.base[i].support()[0])
            hi = max(srt[-1], rspec.base[i].support()[1])
            pts = np.sort(np.concatenate([np.linspace(lo, hi, n_grid), values]))
            emp = np.searchsorted(srt, pts, side="right") / n
            marginal[p, i] = np.max(np.abs(emp - cdfs[i](pts)))
        if k == 2:
            edges = [np.nextafter(np.quantile(x[p, :, i], np.arange(0.1, 0.95, 0.1)), np.inf)
                     for i in range(2)]
            incr = [np.diff(np.concatenate([[0.0], cdfs[i](edges[i]), [1.0]]))
                    for i in range(2)]
            bins = [np.concatenate([[-np.inf], e, [np.inf]]) for e in edges]
            counts, _, _ = np.histogram2d(x[p, :, 0], x[p, :, 1], bins=bins)
            joint[p] = np.max(np.abs(counts / n - np.outer(incr[0], incr[1])))
    return {"marginal": marginal, "joint": joint} if k == 2 else {"marginal": marginal}


_DISCRETE = specs.DiscreteBase((0.0, 1.0, 2.5), (0.2, 0.5, 0.3))


@pytest.mark.parametrize("spec,horizon,n", [
    pytest.param(specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2), 300, 300,
                 id="polya"),
    pytest.param(specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2), 300, 40,
                 id="polya_n40"),
    pytest.param(specs.UniformCoupledSpec(), 200, 200, id="uniform_coupled"),
    pytest.param(specs.ReinforcedSpec(2, (1.5, 0.7), (specs.NormalBase(0.5, 2.0),) * 2,
                                      specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1))),
                 100, 60, id="iid_gamma_normal_base"),
    # ties: every observation is one of three values, and at n = 1 every
    # decile is that one observation
    pytest.param(specs.ReinforcedSpec(2, (1.0, 2.0), (_DISCRETE,) * 2, _IID), 40, 1,
                 id="discrete_n1"),
    pytest.param(specs.ReinforcedSpec(2, (1.0, 2.0), (_DISCRETE,) * 2, _IID), 40, 40,
                 id="discrete"),
    pytest.param(specs.ReinforcedSpec(3, (1.0, 2.0, 0.5), (_DISCRETE,) * 3, _TWO_POINT), 40,
                 1, id="discrete_k3_n1"),
    pytest.param(specs.BrokenFeedbackWeightSpec(), 200, 200, id="broken_feedback_weight"),
])
def test_distances_match_path_by_path_reference(spec, horizon, n):
    ens = run_ensemble(spec, 12, horizon, 29, record=frozenset({"observations", "weights"}))
    got, want = empirical_predictive_distance(ens, n=n), _distances_path_by_path(ens, n)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes()


def test_distances_leave_out_zero_weight_atoms():
    # a uniform-coupled batch records W = 0 where the scalar step appends
    # nothing: such an atom adds no grid point and no mass
    ens = run_ensemble(specs.UniformCoupledSpec(), 12, 100, 31,
                       record=frozenset({"observations", "weights"}))
    arrays = dict(ens.arrays, weights=ens.weights.copy())
    arrays["weights"][:, ::7] = 0.0
    arrays["weights"][3, :, 0] = 0.0      # a path and coordinate with no atom
    zeroed = engine.Ensemble(ens.spec, 12, 100, 31, ens.record, arrays)
    for n in (1, 100):
        got, want = empirical_predictive_distance(zeroed, n=n), _distances_path_by_path(zeroed, n)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [1, 37, 200])
def test_distances_as_chunk_reducer_match_whole_ensemble(uniform_polya_spec, threads, n):
    # a pure map from an Ensemble to per-path rows: chunked runs, in this
    # process or in forked workers, give the whole ensemble's rows
    record = frozenset({"observations", "weights"})
    whole = empirical_predictive_distance(
        run_ensemble(uniform_polya_spec, 30, 200, 23, record=record), n=n)
    with fixed_chunks(7):
        chunked = engine.map_path_chunks(uniform_polya_spec, 30, 200, 23,
                                         functools.partial(empirical_predictive_distance, n=n),
                                         record=record, threads=threads)
    assert sorted(chunked) == ["joint", "marginal"]
    for key in chunked:
        assert chunked[key].tobytes() == whole[key].tobytes()


def test_clt_path_summaries_match_full_series(rru_two_point_spec):
    ens = run_ensemble(rru_two_point_spec, 40, 1200, 18)
    summ = statistics.clt_path_summaries(ens)
    # whole-series reference: S_n = sum_{k<=n} U_k / sqrt(n) and
    # S~_n = sqrt(n) (Xbar_n - mu_n) at every n
    x, mu = ens.observations, ens.predictive_mean
    n = np.arange(1, ens.horizon + 1, dtype=float)[None, :, None]
    s = np.cumsum(x - mu[:, :-1], axis=1) / np.sqrt(n)
    s_tilde = (np.cumsum(x, axis=1) / n - mu[:, 1:]) * np.sqrt(n)
    assert np.allclose(summ["S"], s[:, -1, :], rtol=1e-12, atol=1e-12)
    assert np.allclose(summ["S_tilde"], s_tilde[:, -1, :], rtol=1e-12, atol=1e-12)
    # quadratic variations of the forecast errors U_k and of the residuals
    # xi_k = U_k - k dE_k, whose sum is sqrt(H) S~
    u, de = errors_and_increments(ens)
    xi = u - n * de
    h = ens.horizon
    assert np.allclose(xi.sum(axis=1) / np.sqrt(h), s_tilde[:, -1, :], rtol=1e-9, atol=1e-12)
    assert np.allclose(summ["QV_S"], np.mean(u ** 2, axis=1), rtol=1e-12, atol=0)
    assert np.allclose(summ["QV_S_tilde"], np.mean(xi ** 2, axis=1), rtol=1e-12, atol=0)
    assert np.allclose(summ["QV_01"], np.mean(xi[:, :, 0] * xi[:, :, 1], axis=1),
                       rtol=1e-12, atol=1e-15)


def test_chunk_reducers_return_only_what_verdicts_read(rru_two_point_spec):
    ens = run_ensemble(rru_two_point_spec, 6, 20, 3)
    summ = statistics.clt_path_summaries(ens)
    assert set(summ) == {"S", "S_tilde", "QV_S", "QV_S_tilde", "QV_01"}
    ar1 = run_ensemble(specs.Ar1DriftSpec(), 6, 20, 3)
    assert set(statistics.clt_path_summaries(ar1)) == {"S", "S_tilde", "QV_S", "QV_S_tilde"}
    gauss = run_ensemble(specs.GaussianLastTickSpec(), 6, 20, 3)
    assert set(statistics.gaussian_path_summaries(gauss)) == {"gamma_hat", "terminal_mean"}
    state = specs.StateSpaceCidSpec()
    assert set(run_ensemble(state, 6, 20, 3).arrays) == default_record(state) | {
        "terminal_mean", "terminal_var"}


@pytest.mark.parametrize("spec", [specs.GaussianLastTickSpec(), specs.Ar1DriftSpec()],
                         ids=["gaussian_last_tick", "ar1_drift"])
def test_distance_refuses_non_reinforced_kinds(spec):
    # up front, not as a missing 'weights' series
    ens = run_ensemble(spec, 3, 10, 5)
    with pytest.raises(StatisticsError, match="applies to reinforced kinds"):
        empirical_predictive_distance(ens)
