import inspect
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats
from scipy.spatial.distance import cdist

from pcid import engine, kolmogorov, runner, specs, verifiers
from pcid.engine import run_ensemble
from pcid.verifiers import (
    check_clt_forecast_errors,
    check_clt_sample_mean,
    check_gaussian_limit,
    check_pcid,
    check_stopping_time,
    energy_permutation_test,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_energy_test_level_and_power():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(400, 3))
    b = rng.normal(size=(400, 3))
    _, p_null = energy_permutation_test(a, b, np.random.default_rng(1))
    assert p_null > 0.05
    c = rng.normal(loc=0.4, size=(400, 3))
    _, p_alt = energy_permutation_test(a, c, np.random.default_rng(1))
    assert p_alt == pytest.approx(1.0 / 200.0)


def _dense_energy_test(a, b, rng, n_permutations):
    """The energy permutation test from its definition: the full distance
    matrix, and each labelling's statistic from the means of its blocks."""
    n, m = len(a), len(b)
    big = np.vstack([a, b])
    dist = cdist(big, big)
    labellings = [np.arange(n + m) < n]
    for _ in range(n_permutations):
        in_a = np.zeros(n + m, dtype=bool)
        in_a[rng.permutation(n + m)[:n]] = True
        labellings.append(in_a)
    stats = np.array([n * m / (n + m) * (2.0 * dist[x][:, ~x].mean() - dist[x][:, x].mean()
                                         - dist[~x][:, ~x].mean()) for x in labellings])
    return stats[0], (1 + np.sum(stats[1:] >= stats[0])) / (1 + n_permutations)


@pytest.mark.parametrize("n,m,d", [(23, 38, 1), (40, 40, 3), (31, 17, 2)])
def test_energy_test_matches_dense_definition(monkeypatch, n, m, d):
    # row blocks of 7 rows, whose count does not divide N, of the two-row
    # minimum, and one block for the whole matrix
    rng = np.random.default_rng(n + m + d)
    a = rng.normal(size=(n, d))
    b = rng.normal(loc=0.3, scale=1.2, size=(m, d))
    want = _dense_energy_test(a, b, np.random.default_rng(9), 99)
    for block_bytes in (7 * 8 * (n + m), 1, 1 << 30):
        monkeypatch.setattr(verifiers, "ENERGY_BLOCK_BYTES", block_bytes)
        stat, p = energy_permutation_test(a, b, np.random.default_rng(9), 99)
        assert stat == pytest.approx(want[0], rel=1e-12)
        assert p == want[1]


def test_energy_test_memory_grows_with_block_not_n_squared(monkeypatch):
    # the traced peak is the N x (B+1) labels and their products with the
    # distances, plus a few row blocks; the N x N matrix would be 69 MiB.
    # With blocks of two pooled rows the tile must be no larger than a block.
    rng = np.random.default_rng(2)
    n_perm = 199
    for n, block in ((1500, 1 << 20), (3000, 1 << 20), (1500, 2 * 8 * 2 * 1500)):
        monkeypatch.setattr(verifiers, "ENERGY_BLOCK_BYTES", block)
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            energy_permutation_test(a, b, np.random.default_rng(1), n_perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        label_bytes = 8 * 2 * n * (n_perm + 1)
        assert peak <= 2 * label_bytes + 3 * block + 64 * 2 * n, n
        assert peak < 8 * (2 * n) ** 2 / 4, n


def test_energy_test_holds_one_label_matrix(monkeypatch):
    # besides the N x (B+1) labels: the distance block, the two
    # (rows + 1, B + 1) buffers that fold each block's products into the
    # column sums, the tile, and vectors of N (the transposed sample, the
    # row sums, a permutation); no second N x (B+1) array
    rng = np.random.default_rng(3)
    n_perm = 199
    for n, m, d, block in ((1500, 1500, 3, 1 << 20), (3000, 3001, 3, 1 << 20),
                           (1500, 1501, 4, 1), (2000, 1999, 9, 8 << 20)):
        monkeypatch.setattr(verifiers, "ENERGY_BLOCK_BYTES", block)
        a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        tracemalloc.start()
        try:
            energy_permutation_test(a, b, np.random.default_rng(1), n_perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = n + m
        n_blocks = max(1, min(total // 2, -(-total // max(2, block // (8 * total)))))
        block_bytes = 8 * total * -(-total // n_blocks)
        tile_bytes = 8 * total * min(verifiers.ENERGY_TILE_ROWS, total // n_blocks)
        label_bytes = 8 * total * (n_perm + 1)
        assert peak <= label_bytes + 3 * block_bytes + tile_bytes + 8 * (d + 4) * total, (
            n, m, d, block, peak)


@pytest.mark.parametrize("n,m,d", [(57, 40, 1), (64, 65, 4), (41, 60, 9), (1501, 1500, 4)])
def test_energy_test_does_not_depend_on_its_blocks(monkeypatch, n, m, d):
    # the column sums run over all N rows in row order, whatever the
    # blocks, and each row's product with the labels is the same GEMM row.
    # (OpenBLAS gives a GEMM whose three sizes multiply to at most ~10^6
    # and whose inner size exceeds ~300 to a small-matrix kernel of its
    # own rounding: two-row blocks at 300 < N < 2600 do not match larger
    # ones, in the one-matrix form of this test too. Blocks of
    # ENERGY_BLOCK_BYTES = 8 MiB never reach that kernel.)
    rng = np.random.default_rng(n * m + d)
    a = rng.normal(size=(n, d))
    b = rng.normal(loc=0.2, size=(m, d))
    got = []
    for block_bytes in (1, 7 * 8 * (n + m), 8 << 20, 1 << 30):
        monkeypatch.setattr(verifiers, "ENERGY_BLOCK_BYTES", block_bytes)
        got.append(energy_permutation_test(a, b, np.random.default_rng(6), 199))
    for other in got[1:]:
        assert _same_bits(other, got[0])


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x, float), np.asarray(y, float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _kernel_distances(points, block_rows, tile_rows):
    """All pooled distances from the energy test's kernel, block by block."""
    out = np.empty((len(points), len(points)))
    points_t = np.ascontiguousarray(points.T)
    tile = np.empty((tile_rows, len(points)))
    for start in range(0, len(points), block_rows):
        verifiers._euclidean_rows(points_t, start, out[start:start + block_rows], tile)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 13])
def test_distance_kernel_is_bit_for_bit_cdist(d):
    # magnitudes run from subnormals to 1e200, whose squares overflow to inf
    rng = np.random.default_rng(40 + d)
    n_points = 37
    scale = 10.0 ** rng.uniform(-320, 200, size=(n_points, d))
    points = rng.normal(size=(n_points, d)) * scale
    points[5] = points[11]            # a duplicate: zero distances
    points[20] = points[20] * 1e-300  # subnormal features
    want = cdist(points, points)
    assert np.isinf(want).any() and (want[5, 11] == 0.0)
    for block_rows, tile_rows in ((2, 2), (7, 3), (16, 5), (n_points, 32)):
        got = _kernel_distances(points, block_rows, tile_rows)
        assert _same_bits(got, want), (block_rows, tile_rows)


def test_distance_kernel_is_bit_for_bit_cdist_on_ordinary_samples():
    # features of like magnitude, where the order of the sum shows: from
    # d = 8 on numpy's pairwise sum over the features would round otherwise
    rng = np.random.default_rng(5)
    for d in (0, 1, 2, 4, 8, 13):
        points = rng.normal(loc=3.0, scale=[10.0 ** (k % 5 - 2) for k in range(d)],
                            size=(101, d))
        assert _same_bits(_kernel_distances(points, 10, 4), cdist(points, points)), d


def _cdist_energy_test(a, b, rng, n_permutations, block_bytes):
    """The energy test's block loop with scipy's cdist for the distances."""
    n, m = len(a), len(b)
    big = np.vstack([a, b])
    total_n = n + m
    labels = np.zeros((total_n, n_permutations + 1))
    labels[:n, 0] = 1.0
    for c in range(1, n_permutations + 1):
        labels[rng.permutation(total_n)[:n], c] = 1.0
    cross = np.empty((total_n, n_permutations + 1))
    row_sums = np.empty(total_n)
    block_rows = max(2, block_bytes // (8 * total_n))
    n_blocks = max(1, min(total_n // 2, -(-total_n // block_rows)))
    for j in range(n_blocks):
        blk = slice(total_n * j // n_blocks, total_n * (j + 1) // n_blocks)
        dist = cdist(big[blk], big)
        np.matmul(dist, labels, out=cross[blk])
        dist.sum(axis=1, out=row_sums[blk])
    s_aa = np.einsum("nc,nc->c", labels, cross)
    s_ab = cross.sum(axis=0) - s_aa
    s_bb = float(row_sums.sum()) - 2.0 * s_ab - s_aa
    stats_all = n * m / total_n * (2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m))
    observed = float(stats_all[0])
    return observed, float((1 + np.sum(stats_all[1:] >= observed)) / (1 + n_permutations))


@pytest.mark.parametrize("n,m,d", [(57, 40, 2), (64, 64, 4), (41, 60, 9)])
def test_energy_test_is_bit_for_bit_the_cdist_block_loop(monkeypatch, n, m, d):
    # an odd N, two-row blocks, tiles that do not divide the blocks, one block
    rng = np.random.default_rng(n * m + d)
    a = rng.normal(size=(n, d))
    b = rng.normal(loc=0.2, size=(m, d))
    for block_bytes in (1, 7 * 8 * (n + m), 1 << 30):
        want = _cdist_energy_test(a, b, np.random.default_rng(4), 99, block_bytes)
        monkeypatch.setattr(verifiers, "ENERGY_BLOCK_BYTES", block_bytes)
        for tile_rows in (3, 32):
            monkeypatch.setattr(verifiers, "ENERGY_TILE_ROWS", tile_rows)
            got = energy_permutation_test(a, b, np.random.default_rng(4), 99)
            assert _same_bits(got, want), (block_bytes, tile_rows)


def test_energy_test_validates_shapes():
    with pytest.raises(ValueError):
        energy_permutation_test(np.zeros((5, 2)), np.zeros((5, 3)),
                                np.random.default_rng(0))


def test_energy_test_rejects_empty_sample():
    with pytest.raises(ValueError, match="empty"):
        energy_permutation_test(np.zeros((0, 2)), np.zeros((5, 2)),
                                np.random.default_rng(0))


def test_two_sample_checks_require_two_paths():
    # one path leaves one half of the ensemble empty
    spec = specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        check_pcid(spec, 1, None, 0)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        check_stopping_time(spec, 1, 10, 0, tau={"kind": "constant", "n": 5})


def test_pcid_requires_two_coordinates():
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    with pytest.raises(ValueError, match="2 coordinates"):
        check_pcid(spec, 100, None, 0)


def test_pcid_requires_room_for_two_future_steps():
    spec = specs.UniformCoupledSpec()
    with pytest.raises(ValueError, match="horizon"):
        check_pcid(spec, 100, 2, 0, n=1)


def test_pcid_positive_control_passes():
    v = check_pcid(specs.UniformCoupledSpec(), 3000, None, 11, n=1)
    assert v.passed
    assert v.name == "check_pcid"
    assert v.subchecks[0].statistic > 0.01


def test_pcid_iid_passes():
    spec = specs.PolyaSpec(2, (1e9, 1e9), (specs.UniformBase(), specs.UniformBase()))
    v = check_pcid(spec, 2000, None, 3, n=1)
    assert v.passed


def test_pcid_negative_control_fails():
    broken = specs.BrokenFeedbackWeightSpec(n_coords=2, w0=1.0, shift=0.1)
    v = check_pcid(broken, 4000, None, 11, n=1)
    assert not v.passed


def test_pcid_verdict_reproducible():
    spec = specs.UniformCoupledSpec()
    a = check_pcid(spec, 1000, None, 5, n=1)
    b = check_pcid(spec, 1000, None, 5, n=1)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("n_paths,max_group", [(401, 5000), (1000, 150)])
def test_pcid_simulates_only_the_paths_it_compares(monkeypatch, n_paths, max_group):
    # the compared paths are the prefix of the configured ensemble, so the
    # verdict is the one the whole ensemble gives, field for field
    spec = specs.UniformCoupledSpec()
    real_map = verifiers.map_path_chunks
    asked = []

    def spy(spec, n, *args, **kwargs):
        asked.append(n)
        return real_map(spec, n, *args, **kwargs)

    def whole(spec, n, *args, **kwargs):
        return real_map(spec, n_paths, *args, **kwargs)

    monkeypatch.setattr(verifiers, "map_path_chunks", spy)
    got = check_pcid(spec, n_paths, None, 13, n=1, max_group=max_group, n_permutations=49)
    half = min(n_paths // 2, max_group)
    assert asked == [2 * half]
    monkeypatch.setattr(verifiers, "map_path_chunks", whole)
    want = check_pcid(spec, n_paths, None, 13, n=1, max_group=max_group, n_permutations=49)
    assert got.to_dict() == want.to_dict()
    assert got.n_paths == n_paths and got.params["group_size"] == half


def test_stopping_time_constant_reduces_to_marginal_identity():
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    v = check_stopping_time(spec, 8000, 10, 7, tau={"kind": "constant", "n": 5})
    assert v.passed


def test_stopping_time_first_exceed_positive_control():
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    v = check_stopping_time(spec, 8000, 24, 7,
                            tau={"kind": "first_exceed", "threshold": 0.8, "cap": 20})
    assert v.passed


def test_stopping_time_rejects_drifting_sequence():
    v = check_stopping_time(specs.Ar1DriftSpec(), 8000, 10, 7,
                            tau={"kind": "constant", "n": 6})
    assert not v.passed


_STOPPING_RULES = [{"kind": "constant", "n": 5},
                   {"kind": "first_exceed", "threshold": 0.7, "cap": 8}]


def _stopping_verdict_from_whole_observations(spec, n_paths, horizon, seed, tau, coord):
    """check_stopping_time's verdict from the whole ensemble's observations."""
    obs = run_ensemble(spec, n_paths, horizon, seed, record=frozenset({"observations"}),
                       threads=1).observations[:, :, coord]
    half = n_paths // 2
    block = obs[half:2 * half]
    if tau["kind"] == "constant":
        tau_idx = np.full(half, tau["n"])
    else:
        exceeded = block > tau["threshold"]
        tau_idx = np.where(exceeded.any(axis=1),
                           np.minimum(exceeded.argmax(axis=1) + 1, tau["cap"]), tau["cap"])
    ks_statistic, p = kolmogorov.ks_two_sample(obs[:half, 0], block[np.arange(half), tau_idx])
    return verifiers._verdict("check_stopping_time", {"ks_p": p}, 0.01, n_paths, horizon, seed,
                              {"tau": tau, "coord": coord, "ks_statistic": ks_statistic})


@pytest.mark.parametrize("tau", _STOPPING_RULES, ids=lambda t: t["kind"])
@pytest.mark.parametrize("threads", [1, 2])
def test_stopping_time_reduced_in_chunks_is_the_whole_ensemble_verdict(monkeypatch, tau,
                                                                       threads):
    # an odd n_paths leaves the last path out; at threads 2 the small
    # budget makes more chunks than workers, so forked workers reduce them
    spec = specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2)
    n_paths, horizon, seed = 301, 12, 17
    want = _stopping_verdict_from_whole_observations(spec, n_paths, horizon, seed, tau, 1)
    if threads > 1:
        monkeypatch.setattr(engine, "CHUNK_BUDGET_BYTES", 1 << 18)
        assert len(engine._chunk_bounds(spec, n_paths - 1, horizon,
                                        frozenset({"observations"}), threads)) > threads
    got = check_stopping_time(spec, n_paths, horizon, seed, tau=tau, coord=1, threads=threads)
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("tau", _STOPPING_RULES, ids=lambda t: t["kind"])
def test_stopping_time_reduces_each_path_to_two_values(monkeypatch, tau):
    real_map = verifiers.map_path_chunks
    reduced_rows = []

    def spy(spec, n_paths, horizon, seed, reducer, **kwargs):
        def checked(ens):
            out = reducer(ens)
            # the one reducer's arrays, keyed by its index (run_checks)
            assert sorted(out) == [(0, "first"), (0, "stopped")]
            assert all(np.shape(v) == (ens.n_paths,) for v in out.values())
            reduced_rows.append(ens.n_paths)
            return out
        return real_map(spec, n_paths, horizon, seed, checked, **kwargs)

    monkeypatch.setattr(verifiers, "map_path_chunks", spy)
    monkeypatch.setattr(engine, "CHUNK_BUDGET_BYTES", 1 << 18)
    spec = specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2)
    check_stopping_time(spec, 301, 12, 17, tau=tau, coord=1, threads=1)
    assert len(reduced_rows) > 1 and sum(reduced_rows) == 300


@pytest.mark.parametrize("n_paths", [2, 3, 4, 5])
def test_stopping_time_exact_at_tiny_sizes(n_paths):
    # the p-value is the exact null law of two halves of n_paths // 2
    # points, so a Polya positive control passes from 2 paths up
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    obs = run_ensemble(spec, n_paths, 10, 1, record=frozenset({"observations"}),
                       threads=1).observations[:, :, 0]
    half = n_paths // 2
    want = stats.ks_2samp(obs[:half, 0], obs[half:2 * half, 5], method="exact").pvalue
    v = check_stopping_time(spec, n_paths, 10, 1, tau={"kind": "constant", "n": 5})
    assert [s.name for s in v.subchecks] == ["ks_p"]
    assert v.subchecks[0].statistic == want
    assert v.passed


def test_stopping_time_bound_validation():
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    with pytest.raises(ValueError, match="exceeds horizon"):
        check_stopping_time(spec, 100, 10, 0, tau={"kind": "constant", "n": 10})
    with pytest.raises(ValueError, match="tau: unknown kind 'sometimes'"):
        check_stopping_time(spec, 100, 10, 0, tau={"kind": "sometimes"})


@pytest.mark.parametrize("tau,key", [
    ({"kind": "first_exceed", "threshold": float("inf"), "cap": 3}, "threshold must be finite"),
    ({"kind": "first_exceed", "threshold": -float("inf"), "cap": 3}, "threshold must be finite"),
    ({"kind": "constant", "n": 3, "cap": 5}, r"tau\.cap: undeclared key"),
    ({"kind": "constant", "n": -1}, "n must be an integer >= 0"),
])
def test_stopping_rule_rejected_before_simulating(monkeypatch, tau, key):
    # every observation exceeds -inf and none exceeds +inf: tau would be 1,
    # or the cap, whatever the sequence
    _forbid_simulation(monkeypatch)
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    with pytest.raises(ValueError, match=key):
        check_stopping_time(spec, 100, 10, 0, tau=tau)


def test_clt_forecast_errors_iid_normal():
    spec = specs.Ar1DriftSpec(phi=0.0, drift=0.0, noise_var=1.0,
                              init_mean=0.0, init_var=1.0)
    v = check_clt_forecast_errors(spec, 4000, 1000, 13)
    assert v.passed
    assert _layout(v) == (["variance_coord0"], [])
    assert v.subchecks[0].tolerance == 0.01


def test_clt_forecast_errors_runs_at_a_small_horizon():
    # S^2 against QV_S is exact at every horizon: no floor on it
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    v = check_clt_forecast_errors(spec, 300, 5, 0)
    assert _layout(v) == (["variance_coord0"], [])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clt_forecast_errors_passes_uniform_coupled(seed):
    # a positive control whose S / sqrt(sigma^2_H) is far from N(0, 1) at
    # this size (a KS fit rejects these seeds, p 1e-7 to 5e-4); the z-tests
    # are exact at every size
    v = check_clt_forecast_errors(specs.UniformCoupledSpec(), 500, 1000, seed)
    assert v.passed, [(s.name, s.statistic) for s in v.subchecks]


def _layout(v):
    """The sub-check names and the params of verdict `v`, after asserting
    that every sub-check is held at alpha over their number."""
    assert all(sub.tolerance == v.alpha / len(v.subchecks) for sub in v.subchecks)
    return [sub.name for sub in v.subchecks], sorted(v.params)


_SAMPLE_MEAN_PAIR = (["variance_coord0", "variance_coord1", "cross_covariance"], [])


def test_clt_sample_mean_degenerate_weight():
    # Polya: one coordinate, so one z-test at the whole level
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    v = check_clt_sample_mean(spec, 1500, 2000, 5)
    assert v.passed
    assert _layout(v) == (["variance_coord0"], [])
    assert v.subchecks[0].tolerance == 0.01


def test_clt_sample_mean_iid():
    spec = specs.Ar1DriftSpec(phi=0.0, drift=0.0, noise_var=2.0,
                              init_mean=0.0, init_var=2.0)
    v = check_clt_sample_mean(spec, 4000, 1000, 6)
    assert v.passed


def test_clt_sample_mean_every_kind_has_a_reference():
    # each S~ against its own quadratic variation: the kinds that once had
    # no closed-form reference run the same sub-checks
    gamma = specs.GammaWeight(2.5, 1.0, 0.1)
    for spec in (specs.StateSpaceCidSpec(),
                 specs.ReinforcedSpec(2, (1.0, 2.0), (specs.UniformBase(),) * 2,
                                      specs.IidWeights(gamma)),
                 specs.UniformCoupledSpec(beta=specs.BetaSchedule("geometric")),
                 specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0), sigma2_1=(1.0, 1.0))):
        v = check_clt_sample_mean(spec, 300, 200, 0)
        names = [f"variance_coord{i}" for i in range(spec.n_coords)]
        if spec.n_coords >= 2:
            names.append("cross_covariance")
        assert _layout(v) == (names, []), spec.kind
        assert v.subchecks[0].tolerance == 0.01 / len(names)


def test_clt_sample_mean_common_weight_layout(rru_two_point_spec):
    v = check_clt_sample_mean(rru_two_point_spec, 300, 200, 3)
    assert _layout(v) == _SAMPLE_MEAN_PAIR
    assert v.subchecks[0].tolerance == 0.01 / 3


def test_clt_sample_mean_uniform_coupled_layout():
    v = check_clt_sample_mean(specs.UniformCoupledSpec(), 300, 200, 3)
    assert _layout(v) == _SAMPLE_MEAN_PAIR
    assert v.subchecks[0].tolerance == 0.01 / 3


def test_clt_sample_mean_iid_layout():
    spec = specs.Ar1DriftSpec(phi=0.0, drift=0.0, noise_var=1.7,
                              init_mean=0.0, init_var=1.7)
    v = check_clt_sample_mean(spec, 4000, 50, 8)
    assert _layout(v) == (["variance_coord0"], [])
    assert v.subchecks[0].tolerance == 0.01


def test_qv_check_zero_spread():
    # no spread: the mean decides, p = 1 at 0 and 0 otherwise, never NaN
    zeros = np.zeros(50)
    assert verifiers._z_test_p(zeros, zeros) == 1.0
    assert verifiers._z_test_p(zeros + 1e-3, zeros) == 0.0
    v = verifiers._verdict("check", {"v": 0.0}, 0.01, 50, 10, 1, {})
    assert not v.passed and v.statistic == math.inf
    # a one-point base at a point the predictive mean keeps exactly: every
    # forecast error and residual is 0 on every path
    spec = specs.PolyaSpec(2, (1.0, 1.0), (specs.DiscreteBase(values=(0.5,), probs=(1.0,)),) * 2)
    v = check_clt_sample_mean(spec, 200, 100, 4)
    assert v.passed and [s.statistic for s in v.subchecks] == [1.0, 1.0, 1.0]


def test_qv_check_is_a_z_test_of_the_mean_difference():
    rng = np.random.default_rng(3)
    values, qv = rng.normal(0.1, 1.0, 400), rng.normal(0.0, 1.0, 400)
    diff = values - qv
    # the p-value is the normal tail area 2 Phi(-|z|), for z from 0 to about
    # 35, where it is near 1e-268
    for shift in np.linspace(0.0, 1.75, 36) * diff.std(ddof=1) - diff.mean():
        ref = qv - shift
        d = values - ref
        z = d.mean() / (d.std(ddof=1) / np.sqrt(400))
        p = verifiers._z_test_p(values, ref)
        assert p == pytest.approx(2.0 * special.ndtr(-abs(z)), rel=1e-12, abs=0.0)
        # a constant reference is the same test
        assert verifiers._z_test_p(d, 0.0) == pytest.approx(p, rel=1e-12, abs=0.0)
    assert 0.0 < p < 1e-260
    sub = verifiers._verdict("check", {"v": p}, 0.01, 400, 10, 1, {}).subchecks[0]
    assert sub.margin == 0.01 / p


@pytest.mark.parametrize("spec,passes", [
    pytest.param(specs.BrokenFeedbackWeightSpec(scale=0.0), True, id="broken-scale0"),
    pytest.param(specs.BrokenFeedbackWeightSpec(scale=4.0), False, id="broken-scale4"),
    pytest.param(specs.Ar1DriftSpec(phi=0.8, drift=0.3), False, id="ar1-drift"),
])
def test_clt_sample_mean_sees_the_negative_controls(spec, passes):
    # at scale 0 the feedback weight is the constant shift, a p-c.i.d.
    # urn; the bundled scale 4 and a drifting AR(1) break the S~ identity
    v = check_clt_sample_mean(spec, 1000, 1000, 1, threads=2)
    assert v.passed == passes, [(s.name, s.statistic) for s in v.subchecks]


@pytest.mark.parametrize("seed", [1, 18])
def test_clt_long_passes_where_the_variance_band_failed(seed):
    # the benchmark's positive control: a 5% band on var(S) failed these
    # seeds; S^2 against QV_S is exact at every horizon
    config = runner.load_config(os.path.join(ROOT, "perfbench", "configs", "clt_long.json"))
    v = check_clt_forecast_errors(config.spec, config.n_paths, config.horizon, seed, threads=2)
    assert v.passed, [(s.name, s.statistic, s.margin) for s in v.subchecks]
    assert _layout(v) == (["variance_coord0", "variance_coord1", "cross_covariance_01"], [])
    assert v.subchecks[0].tolerance == 0.01 / 3


def test_gaussian_limit_requires_gaussian_kind():
    with pytest.raises(ValueError, match="gaussian_last_tick"):
        check_gaussian_limit(specs.StateSpaceCidSpec(), 100, 2000, 0)


_GAUSSIAN_PAIR = specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0), sigma2_1=(1.0, 1.0))


def test_gaussian_limit_bundled_layout():
    # the bundled config: five z-tests at alpha / 5
    config = runner.load_config("gaussian_last_tick_limit")
    v = check_gaussian_limit(config.spec, 2000, 100, config.master_seed, threads=2)
    assert v.passed, [(s.name, s.statistic) for s in v.subchecks]
    assert _layout(v) == (["gamma_mean", "gamma_second_moment", "terminal_mu_variance_coord0",
                           "terminal_mu_variance_coord1", "mu_squared_cross"],
                          ["poisson_arrivals"])
    assert v.subchecks[0].tolerance == 0.01 / 5 and v.params["poisson_arrivals"]


@pytest.mark.parametrize("spec", [
    pytest.param(_GAUSSIAN_PAIR, id="poisson-k2"),
    pytest.param(specs.GaussianLastTickSpec(), id="poisson-k1"),
    pytest.param(specs.GaussianLastTickSpec(n_coords=2, mu1=(1.0, -2.0), sigma2_1=(0.5, 3.0),
                                            rate=2.5, t0=1.0), id="t0-k2"),
])
def test_gaussian_limit_is_exact_at_a_short_horizon(spec):
    # every reference is the exact moment at the horizon run, so 20 steps
    # are as good as 1000
    v = check_gaussian_limit(spec, 4000, 20, 5, threads=2)
    assert v.passed, [(s.name, s.statistic) for s in v.subchecks]


def test_gaussian_limit_sees_a_wrong_reference(monkeypatch):
    # the limit 1/3 in place of the exact mean at H = 20, (20 + 3) / 63
    monkeypatch.setattr(verifiers.oracles, "gamma_partial_product_closed",
                        lambda n: verifiers.oracles.gamma_mean_limit())
    v = check_gaussian_limit(_GAUSSIAN_PAIR, 4000, 20, 5, threads=2)
    assert not v.passed and v.subchecks[0].name == "gamma_mean"
    assert v.subchecks[0].statistic < 1e-12


def test_gaussian_limit_fixed_t0_skips_closed_forms():
    spec = specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0),
                                      sigma2_1=(1.0, 1.0), t0=1.0)
    v = check_gaussian_limit(spec, 4000, 1000, 3)
    assert v.passed, [(s.name, s.statistic) for s in v.subchecks]
    assert _layout(v) == (["terminal_mu_variance_coord0", "terminal_mu_variance_coord1",
                           "mu_squared_cross"], ["poisson_arrivals"])
    assert v.subchecks[0].tolerance == 0.01 / 3 and not v.params["poisson_arrivals"]


def test_verdict_margin_convention():
    v = check_stopping_time(specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),)),
                            4000, 10, 7, tau={"kind": "constant", "n": 5})
    assert v.passed == (v.statistic <= 1.0)
    d = v.to_dict()
    assert set(d) == {"name", "statistic", "alpha", "pass", "n_paths", "horizon", "seed",
                      "subchecks", "params"}


def test_verdict_fails_on_a_nan_margin():
    # a NaN p-value (a NaN statistic) fails its sub-check and the verdict
    for p_values in ({"s0": 0.3, "s1": float("nan")}, {"s0": float("nan"), "s1": 0.3}):
        v = verifiers._verdict("check", p_values, 0.01, 10, 10, 1, {})
        assert not v.passed and v.statistic == math.inf, p_values


def test_list_verifier_names():
    assert verifiers.list_verifier_names() == [
        "check_clt_forecast_errors", "check_clt_sample_mean",
        "check_gaussian_limit", "check_pcid", "check_stopping_time"]


def _forbid_simulation(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated an ensemble for a misconfigured check")

    monkeypatch.setattr(verifiers, "map_path_chunks", no_simulation)


# each check with arguments it would otherwise run on
_VALID_CALLS = {
    "check_pcid": (specs.UniformCoupledSpec(), 100, None, {}),
    "check_stopping_time": (specs.Ar1DriftSpec(), 100, 10, {"tau": {"kind": "constant",
                                                                    "n": 6}}),
    "check_clt_forecast_errors": (specs.Ar1DriftSpec(), 100, 1000, {}),
    "check_clt_sample_mean": (specs.Ar1DriftSpec(phi=0.0, drift=0.0), 100, 1000, {}),
    "check_gaussian_limit": (specs.GaussianLastTickSpec(), 100, 1000, {}),
}


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
@pytest.mark.parametrize("alpha", [True, float("nan"), 0, 1.0, -0.01, float("inf"), "0.01"])
def test_alpha_outside_unit_interval_rejected_before_simulating(monkeypatch, name, alpha):
    # alpha <= 0 makes every p-value margin alpha / p <= 0, so a check
    # would pass whatever the data
    _forbid_simulation(monkeypatch)
    spec, n_paths, horizon, params = _VALID_CALLS[name]
    with pytest.raises(ValueError, match="alpha"):
        verifiers.VERIFIERS[name](spec, n_paths, horizon, 0, alpha=alpha, **params)


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
@pytest.mark.parametrize("n_paths", [101.5, True, "101"])
def test_non_integral_n_paths_rejected_before_simulating(monkeypatch, name, n_paths):
    # check_pcid once simulated 2 * (101.5 // 2) = 100.0 paths; the engine
    # never returned for 101.5 itself
    _forbid_simulation(monkeypatch)
    spec, _, horizon, params = _VALID_CALLS[name]
    with pytest.raises(ValueError, match="n_paths must be an integer"):
        verifiers.VERIFIERS[name](spec, n_paths, horizon, 0, **params)


def test_verdict_dict_form_is_its_fields():
    v = verifiers._verdict("check", {"s": 0.5}, 0.25, 10, 20, 3, {"n": 1})
    assert v.to_dict() == {
        "name": "check", "statistic": 0.5, "alpha": 0.25, "pass": True, "n_paths": 10, "horizon": 20, "seed": 3,
        "params": {"n": 1},
        "subchecks": [{"name": "s", "statistic": 0.5, "tolerance": 0.25, "margin": 0.5,
                       "pass": True}]}


def test_every_config_argument_has_a_domain():
    # a check's keyword arguments, threads aside, are what a config's params
    # may set, so each needs a domain; the table names no argument that no
    # check takes
    taken = set()
    for name, check in verifiers.VERIFIERS.items():
        params = inspect.signature(check).parameters
        for arg, p in params.items():
            if p.kind is p.KEYWORD_ONLY and arg != "threads":
                assert arg in verifiers.ARG_DOMAINS, (name, arg)
        taken |= set(params)
    assert set(verifiers.ARG_DOMAINS) <= taken
    assert "tau" in verifiers.ARG_DOMAINS


@pytest.mark.parametrize("params,key", [
    ({"n": True}, "n must"), ({"n": 1.5}, "n must"), ({"n": "1"}, "n must"),
    ({"n": -1}, "n must"),
    ({"n_permutations": 1.5}, "n_permutations"), ({"n_permutations": 0}, "n_permutations"),
    ({"n_permutations": True}, "n_permutations"),
    ({"max_group": 0}, "max_group"), ({"max_group": 2.5}, "max_group"),
    ({"max_group": False}, "max_group"),
])
def test_pcid_arguments_rejected_before_simulating(monkeypatch, params, key):
    _forbid_simulation(monkeypatch)
    with pytest.raises(ValueError, match=key):
        check_pcid(specs.UniformCoupledSpec(), 100, 10, 0, **params)
