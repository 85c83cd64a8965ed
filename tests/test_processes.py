import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from conftest import FakeStream, FakeStreams, fixed_chunks
from pcid import processes, specs
from pcid.engine import Ensemble, PathStreams, run_ensemble
from pcid.processes import (
    GaussianCoordState,
    ProcessError,
    ReinforcedCoordState,
    StateSpaceCidState,
    gaussian_last_tick_step,
    reinforced_step,
    state_space_cid_step,
    uniform_coupled_step,
)


# ---------------------------------------------------------------------------
# Mixture predictive
# ---------------------------------------------------------------------------

def test_predictive_without_atoms_is_base():
    state = ReinforcedCoordState(1.5, specs.UniformBase())
    assert state.atom_values == []
    assert state.component_probabilities().tolist() == [1.0]
    pts = np.linspace(-0.5, 1.5, 9)
    assert np.allclose(state.cdf(pts), specs.UniformBase().cdf(pts))


def test_predictive_equal_weights():
    state = ReinforcedCoordState(1.0, specs.UniformBase())
    state.append_atom(0.4, 1.0)
    assert np.allclose(state.component_probabilities(), [0.5, 0.5])
    assert state.predictive_mean() == pytest.approx(0.5 * 0.5 + 0.5 * 0.4)


def test_polya_predictive_is_uniform_atom_average():
    state = ReinforcedCoordState(1.0, specs.UniformBase())
    xs = [0.3, 0.9, 0.1]
    for x in xs:
        state.append_atom(x, 1.0)
    n = len(xs)
    assert np.allclose(state.component_probabilities(), [1.0 / (1 + n)] * (1 + n))
    assert state.predictive_mean() == pytest.approx((0.5 + sum(xs)) / (1 + n))


def test_mixture_normalization_invariant():
    rng = np.random.default_rng(0)
    state = ReinforcedCoordState(0.7, specs.NormalBase(0.0, 1.0))
    for _ in range(200):
        state.append_atom(rng.normal(), rng.gamma(2.0))
        probs = state.component_probabilities()
        assert abs(probs.sum() - 1.0) < 1e-12
    assert abs(state.total_weight - state.recomputed_total()) <= 1e-12 * state.total_weight


def test_mixture_drops_zero_weight_atoms():
    # a uniform-coupled batch records W = 0 where the scalar step appends nothing
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    # the predictive series from the atoms' power sums, as the kernel forms them
    base = specs.UniformBase()
    arrays = {"observations": np.array([[[0.5], [0.25]]]),
              "weights": np.array([[[0.0], [2.0]]]),
              "total_weight": np.array([[3.0]])}
    tot = processes.total_weights(1.0, arrays["weights"])
    mean, var = processes.predictive_series(1.0, base.raw_moment(1), base.raw_moment(2),
                                            arrays["observations"], arrays["weights"], tot)
    arrays.update(predictive_mean=mean, predictive_var=var, terminal_mean=mean[:, -1])
    record = frozenset({"observations", "weights", "predictive_mean", "predictive_var"})
    ens = Ensemble(spec, 1, 2, 0, record, arrays)
    state = ReinforcedCoordState(1.0, specs.UniformBase())
    state.append_atom(0.25, 2.0)    # the scalar step's one atom
    assert np.allclose(state.component_probabilities(), [1.0 / 3.0, 2.0 / 3.0])
    _assert_terminal_mixtures_match(ens, 0, [state])
    # the zero-weight atom at 0.5 adds no mass there
    grid = np.array([0.0, 0.25, 0.4999, 0.5, 1.0])
    got = processes.mixture_cdf(1.0, specs.UniformBase(), arrays["observations"][:, :, 0],
                                arrays["weights"][:, :, 0], [3.0], grid[None])[0]
    assert np.array_equal(got, state.cdf(grid))
    assert np.allclose(got, [0.0, 0.75, 2.4999 / 3.0, 2.5 / 3.0, 1.0], rtol=0.0, atol=1e-15)


def test_martingale_identity_exact_on_atom_representation():
    """One reinforcement step preserves predictive masses in expectation,
    exactly (rational arithmetic over the categorical outcomes)."""
    state = ReinforcedCoordState(1.0, specs.UniformBase())
    for x, w in [(0.3, 1.25), (0.8, 0.5), (0.3, 2.0), (0.6, 1.0)]:
        state.append_atom(x, w)
    w_next = Fraction(7, 5)
    values = list(state.atom_values)
    weights = [Fraction(w) for w in state.atom_weights]
    w0 = Fraction(state.w0)
    total = w0 + sum(weights)
    for target in ({0.3}, {0.8}, {0.3, 0.6}):
        mass = sum(w for v, w in zip(values, weights) if v in target)
        q_n = mass / total
        # categorical expectation over the next draw (a base draw hits the
        # finite atom set with probability zero)
        expected = (w0 / total) * (mass / (total + w_next))
        for v, w in zip(values, weights):
            new_mass = mass + (w_next if v in target else 0)
            expected += (w / total) * (new_mass / (total + w_next))
        assert expected == q_n


def _assert_terminal_mixtures_match(ens, p, states):
    """Path p's own scalar states against the ensemble: the terminal mean,
    the last predictive variance, and `mixture_cdf` on the path's row over
    a grid that holds every atom, bit for bit."""
    rspec = specs.reinforced_view(ens.spec)
    for i, st in enumerate(states):
        assert st.predictive_mean() == ens.terminal_mean[p, i]
        assert st.predictive_var() == ens.predictive_var[p, -1, i]
        lo, hi = st.base.support()
        grid = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 41), st.atom_values])
        row = slice(p, p + 1)
        got = processes.mixture_cdf(rspec.w0[i], rspec.base[i], ens.observations[row, :, i],
                                    ens.weights[row, :, i],
                                    ens.arrays["total_weight"][row, i], grid[None])
        assert np.array_equal(got[0], st.cdf(grid))


# ---------------------------------------------------------------------------
# Scalar steps: exact examples
# ---------------------------------------------------------------------------

def test_common_degenerate_weight_reduces_to_polya(uniform_polya_spec):
    rule = specs.CommonWeight(specs.DegenerateWeight(1.0))
    states = processes.init_reinforced_states(uniform_polya_spec)
    streams = PathStreams(5, 0, 2)
    for n in range(1, 6):
        reinforced_step(states, rule, n, streams)
    assert all(w == 1.0 for st in states for w in st.atom_weights)
    # bitwise identical to the polya spec's engine output for the same path
    ens = run_ensemble(uniform_polya_spec, 1, 5, 5)
    got = np.array([st.atom_values for st in states]).T
    assert np.array_equal(got, ens.observations[0])
    _assert_terminal_mixtures_match(ens, 0, states)


def test_common_weight_is_shared():
    rule = specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5))
    spec = specs.ReinforcedSpec(3, (1.0,) * 3, (specs.UniformBase(),) * 3, rule)
    states = processes.init_reinforced_states(spec)
    streams = PathStreams(5, 0, 3)
    for n in range(1, 8):
        reinforced_step(states, rule, n, streams)
    w = np.array([st.atom_weights for st in states])
    assert np.all(w[0] == w[1]) and np.all(w[0] == w[2])
    assert set(np.unique(w)) <= {1.0, 3.0}


def test_cross_fraction_dispatches_to_uniform_coupled():
    spec = specs.UniformCoupledSpec()
    rspec = specs.reinforced_view(spec)
    s1 = processes.init_reinforced_states(spec)
    s2 = processes.init_reinforced_states(spec)
    x1 = reinforced_step(s1, rspec.coupling, 1, PathStreams(9, 0, 2))
    x2 = uniform_coupled_step(s2, 1.0, 1, PathStreams(9, 0, 2))
    assert np.array_equal(x1, x2)
    assert [st.atom_weights for st in s1] == [st.atom_weights for st in s2]


def test_uniform_coupled_zero_fraction_skips_atom():
    states = [ReinforcedCoordState(1.0, specs.UniformBase()) for _ in range(2)]
    streams = FakeStreams([FakeStream(uniforms=[0.3]), FakeStream(uniforms=[0.0])])
    x = uniform_coupled_step(states, 1.0, 1, streams)
    assert x.tolist() == [0.3, 0.0]
    assert states[0].atom_values == []           # A = beta * x_2 = 0: unchanged
    assert states[1].atom_values == [0.0]
    assert states[1].atom_weights[0] == pytest.approx(0.3 / 0.7)


def test_uniform_coupled_weight_inversion_formula():
    # appended weight equals total * A / (1 - A) for the current total
    states = [ReinforcedCoordState(1.0, specs.UniformBase()) for _ in range(2)]
    streams = FakeStreams([FakeStream(uniforms=[0.5]), FakeStream(uniforms=[0.25])])
    uniform_coupled_step(states, 1.0, 1, streams)
    a0, a1 = 0.25, 0.5   # A_i = beta * x_j
    assert states[0].atom_weights[0] == pytest.approx(a0 / (1 - a0))
    assert states[1].atom_weights[0] == pytest.approx(a1 / (1 - a1))
    # and the resulting predictive equals A delta_x + (1-A) * previous
    assert states[0].component_probabilities()[1] == pytest.approx(a0)


def test_uniform_coupled_degenerate_fraction_raises():
    states = [ReinforcedCoordState(1.0, specs.UniformBase()) for _ in range(2)]
    states[1].append_atom(1.0, 1e9)   # next draw of coordinate 2 is the atom at 1.0
    streams = FakeStreams([FakeStream(uniforms=[0.5]), FakeStream(uniforms=[0.999])])
    with pytest.raises(ProcessError, match="degenerate reinforcement"):
        uniform_coupled_step(states, 1.0, 2, streams)


def test_overflowing_weight_raises_in_both_layers():
    # beta = 1 grows the total weight until an atom weight overflows to inf:
    # on path 104 of seed 0 first, at step 116; the batch kernel refuses it
    # at that step, as the scalar step does
    spec = specs.UniformCoupledSpec(beta=specs.BetaSchedule("constant_one"))
    _scalar_reinforced_path(spec, 115, 0, 104)
    # the kernel's own error only: no numpy overflow warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ProcessError, match=r"non-negative and finite, got inf$"):
            _scalar_reinforced_path(spec, 116, 0, 104)
    run_ensemble(spec, 300, 115, 0, threads=1)
    with pytest.raises(ProcessError, match=r"non-negative and finite, got inf$"):
        run_ensemble(spec, 300, 116, 0, threads=1)


def test_uniform_coupled_expected_atom_share():
    # with beta_n = 2/(n+1) the expected share of the newest atom in the
    # next predictive is 1/(n+1)
    spec = specs.UniformCoupledSpec()
    n_probe = 6
    ens = run_ensemble(spec, 20_000, n_probe, 31)
    w = ens.weights[:, n_probe - 1, 0]
    tot = ens.arrays["total_weight"][:, 0]
    share = w / tot
    se = share.std() / np.sqrt(len(share))
    assert abs(share.mean() - 1.0 / (n_probe + 1)) < 4 * se
    for p in range(200):
        _, states, _, _ = _scalar_reinforced_path(spec, n_probe, 31, p)
        _assert_terminal_mixtures_match(ens, p, states)


def test_gaussian_step_exact_update():
    state = GaussianCoordState(mu=0.0, sigma2=1.0, T=1.0)
    streams = FakeStreams([FakeStream(normals=[2.0])])
    x = gaussian_last_tick_step([state], 1.0, streams)   # lambda = 1/2
    assert x[0] == 2.0
    assert state.mu == pytest.approx(1.0)
    assert state.sigma2 == pytest.approx(0.75)
    assert state.T == 2.0


def test_gaussian_step_small_fraction_bounds():
    state = GaussianCoordState(mu=0.4, sigma2=0.9, T=100.0)
    streams = FakeStreams([FakeStream(normals=[1.5])])
    t_n = 1e-3
    lam = t_n / (100.0 + t_n)
    x = gaussian_last_tick_step([state], t_n, streams)[0]
    assert abs(state.mu - 0.4) <= lam * (abs(0.4) + abs(x))
    assert state.sigma2 - 0.9 == pytest.approx(-lam ** 2 * 0.9, rel=1e-9)


def test_gaussian_step_rejects_nonpositive_gap():
    state = GaussianCoordState(0.0, 1.0, 1.0)
    with pytest.raises(ProcessError):
        gaussian_last_tick_step([state], 0.0, FakeStreams([FakeStream(normals=[0.0])]))


def test_first_interpolation_fraction_is_uniform():
    # lambda_1 = t_1 / T_2 has the Beta(1,1) = uniform law; compare against
    # a direct Beta-sampling oracle
    ens = run_ensemble(specs.GaussianLastTickSpec(), 100_000, 1, 6,
                       record=frozenset({"lambdas"}))
    lam1 = ens.lambdas[:, 0]
    oracle = np.random.default_rng(1234).beta(1.0, 1.0, size=100_000)
    assert abs(lam1.mean() - oracle.mean()) < 0.01
    assert abs(lam1.mean() - 0.5) < 0.01


@pytest.mark.parametrize("k", [3, 8])
def test_interpolation_fraction_beta_law(k):
    # lambda_k across paths follows Beta(1, k): KS distance below 0.01 at 1e5
    ens = run_ensemble(specs.GaussianLastTickSpec(), 100_000, k, 7,
                       record=frozenset({"lambdas"}))
    lam = ens.lambdas[:, k - 1]
    dist = sps.kstest(lam, sps.beta(1, k).cdf).statistic
    assert dist < 0.01


def test_state_space_marginal_moments():
    spec = specs.StateSpaceCidSpec(theta0=0.3, c=2.0, c_prime=1.0)
    ens = run_ensemble(spec, 100_000, 3, 8)
    for n in range(3):
        x = ens.observations[:, n, 0]
        se_mean = x.std() / np.sqrt(len(x))
        assert abs(x.mean() - 0.3) < 3 * se_mean
        var = x.var()
        se_var = var * np.sqrt(2.0 / len(x))
        assert abs(var - 2.0) < 4 * se_var


def test_state_space_flat_schedule_freezes_theta():
    spec = specs.StateSpaceCidSpec(c=1.0, c_prime=0.5, b_table=(0.3,))
    ens = run_ensemble(spec, 5, 10, 9)
    theta = ens.theta
    assert np.all(theta[:, 1:] == theta[:, :1])


def test_state_space_theta_variance_approaches_limit():
    spec = specs.StateSpaceCidSpec(theta0=0.0, c=1.0, c_prime=0.5)
    ens = run_ensemble(spec, 50_000, 25, 10)
    var = ens.theta[:, -1].var()
    se = var * np.sqrt(2.0 / len(ens.theta))
    assert abs(var - 0.5) < 4 * se


def test_state_space_scalar_step_matches_engine():
    spec = specs.StateSpaceCidSpec(theta0=0.1, c=1.5, c_prime=0.9)
    ens = run_ensemble(spec, 3, 12, 13)
    for p in range(3):
        rng = PathStreams(13, p, 1).coord(0)
        state = StateSpaceCidState(theta=spec.theta0)
        xs = []
        for n in range(1, 13):
            x, state = state_space_cid_step(state, n, spec, rng)
            xs.append(x)
        assert np.array_equal(np.asarray(xs), ens.observations[p, :, 0])


def test_sigma2_product_identity():
    spec = specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 1.0), sigma2_1=(1.0, 2.5))
    ens = run_ensemble(spec, 30, 200, 14)
    lam2 = ens.lambdas ** 2
    prod = np.cumprod(1.0 - lam2, axis=1)
    for i, s21 in enumerate(spec.sigma2_1):
        recomputed = s21 * prod
        recorded = ens.predictive_var[:, 1:, i]
        assert np.max(np.abs(recomputed - recorded)) < 1e-10
    assert np.allclose(ens.gamma_hat, prod[:, -1], rtol=1e-12)
    assert np.all(ens.predictive_var[:, 1:, :] <= ens.predictive_var[:, :1, :])
    assert np.all(ens.predictive_var > 0)


# ---------------------------------------------------------------------------
# Scalar layer == vectorized layer, bit for bit
# ---------------------------------------------------------------------------

def _scalar_reinforced_path(spec, horizon, master_seed, path):
    """Observations, final states and the (H+1, K) predictive mean and
    variance series, prior first, of one path run through the scalar step."""
    rspec = specs.reinforced_view(spec)
    states = processes.init_reinforced_states(spec)
    streams = PathStreams(master_seed, path, rspec.n_coords)
    xs = []
    moments = [[(st.predictive_mean(), st.predictive_var()) for st in states]]
    for n in range(1, horizon + 1):
        xs.append(reinforced_step(states, rspec.coupling, n, streams))
        moments.append([(st.predictive_mean(), st.predictive_var()) for st in states])
    moments = np.array(moments)
    return np.asarray(xs), states, moments[..., 0], moments[..., 1]


_TWO_POINT = specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5))


@pytest.mark.parametrize("coupling,w0,horizon", [
    pytest.param(specs.CommonWeight(specs.DegenerateWeight(1.0)), (1.0, 2.0), 40,
                 id="coupling0"),
    pytest.param(_TWO_POINT, (1.0, 2.0), 40, id="coupling1"),
    pytest.param(specs.CommonWeight(specs.GammaWeight(2.5, 1.0, 0.1)), (1.0, 2.0), 40,
                 id="coupling2"),
    pytest.param(specs.IidWeights(specs.UniformWeight(0.5, 1.5)), (1.0, 2.0), 40,
                 id="coupling3"),
    pytest.param(specs.CrossFraction(specs.BetaSchedule("harmonic")), (1.0, 1.0), 40,
                 id="coupling4"),
    pytest.param(specs.FeedbackWeight(scale=4.0, shift=0.1), (1.0, 1.0), 40, id="coupling5"),
    # w0 = 25: the prior of a fresh state must be the base moments; at
    # horizon 300 copy chains run many generations deep
    pytest.param(_TWO_POINT, (25.0, 25.0), 300, id="two_point_w0_25_h300"),
    pytest.param(_TWO_POINT, (25.0, 0.3), 1, id="two_point_h1"),
    pytest.param(_TWO_POINT, (25.0, 0.3), 2, id="two_point_h2"),
    # Polya weights below the flat-search switch
    pytest.param(specs.CommonWeight(specs.DegenerateWeight(1.0)), (1.0, 2.0), 12,
                 id="polya_h12"),
    # three coordinates under common weights: all share the cumulative
    # weights, the two with w0 = 2 the totals
    pytest.param(_TWO_POINT, (2.0, 2.0, 0.5), 40, id="two_point_shared_w0_k3"),
])
def test_scalar_matches_vectorized_reinforced(coupling, w0, horizon):
    spec = specs.ReinforcedSpec(len(w0), w0, (specs.UniformBase(),) * len(w0), coupling)
    if isinstance(coupling, specs.FeedbackWeight):
        spec = specs.BrokenFeedbackWeightSpec(2, w0[0], coupling.shift, coupling.scale)
    ens = run_ensemble(spec, 4, horizon, 123)
    for p in range(4):
        xs, states, mus, sig = _scalar_reinforced_path(spec, horizon, 123, p)
        assert np.array_equal(xs, ens.observations[p])
        ws = np.array([st.atom_weights for st in states]).T
        assert np.array_equal(ws, ens.weights[p])
        assert np.array_equal(mus, ens.predictive_mean[p])
        assert np.array_equal(sig, ens.predictive_var[p])
        _assert_terminal_mixtures_match(ens, p, states)


def test_scalar_matches_vectorized_normal_base():
    spec = specs.ReinforcedSpec(1, (1.5,), (specs.NormalBase(0.5, 2.0),),
                                specs.CommonWeight(specs.TwoPointWeight()))
    ens = run_ensemble(spec, 3, 30, 77)
    for p in range(3):
        xs, _, _, _ = _scalar_reinforced_path(spec, 30, 77, p)
        assert np.array_equal(xs, ens.observations[p])


def test_scalar_matches_vectorized_gaussian(monkeypatch):
    # every recorded series at every step, and the terminal summaries. The
    # kernel steps in tiles of five steps, copied in blocks of two paths:
    # horizons below one tile, of one tile and not a multiple of it, and
    # one chunk of three paths, a block and a remainder. Every record takes
    # the kernel's per-tile arrivals, whose running total crosses every tile
    # boundary, and the recorded arrivals and lambdas are copied from them
    monkeypatch.setattr(processes, "GAUSSIAN_TILE_STEPS", 5)
    monkeypatch.setattr(processes, "GAUSSIAN_TILE_PATHS", 2)
    records = (None, frozenset(), frozenset({"observations"}),
               frozenset({"predictive_mean", "predictive_var"}),
               frozenset({"arrivals"}), frozenset({"lambdas"}))
    for horizon, (k, t0, rate) in itertools.product(
            (1, 3, 4, 5, 6, 12, 25),
            [(1, None, 1.0), (1, 0.4, 2.5), (3, None, 0.6), (3, 0.4, 1.0)]):
        spec = specs.GaussianLastTickSpec(n_coords=k, mu1=tuple(0.5 * i for i in range(k)),
                                          sigma2_1=tuple(1.0 + i for i in range(k)),
                                          rate=rate, t0=t0)
        with fixed_chunks(3):
            ensembles = [run_ensemble(spec, 3, horizon, 31, record=record)
                         for record in records]
        for p in range(3):
            streams = PathStreams(31, p, k)
            gaps = streams.weights.standard_exponential(horizon + 1) / spec.rate
            if t0 is not None:
                gaps[0] = t0
            states = [GaussianCoordState(m, s, gaps[0])
                      for m, s in zip(spec.mu1, spec.sigma2_1)]
            xs, arrivals, lambdas = [], [states[0].T], []
            mus, s2s = [[st.mu for st in states]], [[st.sigma2 for st in states]]
            gamma = 1.0
            for n in range(1, horizon + 1):
                xs.append(gaussian_last_tick_step(states, gaps[n], streams))
                lam = gaps[n] / states[0].T     # the step's t_n / T_{n+1}
                gamma = gamma * (1.0 - lam * lam)
                arrivals.append(states[0].T)
                lambdas.append(lam)
                mus.append([st.mu for st in states])
                s2s.append([st.sigma2 for st in states])
            scalar = {"observations": xs, "predictive_mean": mus, "predictive_var": s2s,
                      "arrivals": arrivals, "lambdas": lambdas}
            for ens in ensembles:
                assert set(ens.arrays) == ens.record | {"gamma_hat", "terminal_mean"}
                for name in ens.record:
                    assert np.array_equal(np.array(scalar[name]), ens.arrays[name][p]), name
                assert ens.gamma_hat[p] == gamma
                assert np.array_equal(np.array(mus[-1]), ens.terminal_mean[p])


# ---------------------------------------------------------------------------
# Atom search: flattened bisection == per-row searchsorted
# ---------------------------------------------------------------------------

def test_flat_search_matches_searchsorted():
    # zero weights make ties in the cumulative weights; queries sit below
    # the first entry, on entries, between them and above the last. The
    # search covers the first n entries of each row, as the genealogy kernel
    # searches the first H - 1
    rng = np.random.default_rng(11)
    b, horizon = 40, 9
    w = rng.choice([0.0, 0.5, 1.0, 2.0], size=(b, horizon))
    w[0] = 0.0
    cumw = np.cumsum(w, axis=1)
    q = np.concatenate([cumw[:, :3], cumw[:, :2] + 0.25, cumw[:, -1:] + 1.0,
                        np.full((b, 1), -1.0), np.zeros((b, 1)), -cumw[:, -1:]],
                       axis=1)
    for n in (1, 4, horizon - 1):
        want = np.array([np.searchsorted(cumw[r, :n], q[r], side="right") for r in range(b)])
        got = processes._row_first_greater(cumw, n, q.ravel(),
                                           np.repeat(np.arange(b), q.shape[1]))
        assert np.array_equal(got.reshape(q.shape), want), n


def _unsorted_search_values(base, w0, u, w, tot):
    """Observations of a row block by one np.searchsorted per row over the
    queries in step order, each step then copying its source's value."""
    b, horizon = u.shape
    s = u * tot[:, :-1]
    cumw = np.cumsum(w, axis=1)
    x = np.empty((b, horizon))
    for r in range(b):
        base_vals = base.ppf(s[r] / w0)
        atom = np.searchsorted(cumw[r], s[r] - w0, side="right")
        for n in range(horizon):
            x[r, n] = base_vals[n] if n == 0 or s[r, n] < w0 else x[r, min(atom[n], n - 1)]
    return x


def _assert_search_switch(monkeypatch, w0, u, w):
    # the flat bisection below GENEALOGY_FLAT_SEARCH_BELOW and the sorted
    # per-row search at and above it give the reference observations
    horizon = u.shape[1]
    tot = processes.total_weights(w0, w)
    want = _unsorted_search_values(specs.UniformBase(), w0, u, w, tot)
    for below in (0, horizon + 1):
        monkeypatch.setattr(processes, "GENEALOGY_FLAT_SEARCH_BELOW", below)
        got = processes._genealogy_values(specs.UniformBase(), w0, u,
                                          np.cumsum(w, axis=1), tot)
        assert np.array_equal(got, want), below


def test_genealogy_values_search_switch(monkeypatch):
    # both sides of GENEALOGY_FLAT_SEARCH_BELOW give the same observations,
    # with zero weights and uniforms at 0 and just below 1
    rng = np.random.default_rng(5)
    b, horizon, w0 = 30, 12, 0.7
    w = rng.choice([0.0, 1.0, 3.0], size=(b, horizon))
    u = rng.random((b, horizon))
    u[:, ::4] = 0.0
    u[:, 1::5] = np.nextafter(1.0, 0.0)
    _assert_search_switch(monkeypatch, w0, u, w)

    # a long horizon, whose rows the sorted search takes: with w0 = 1 and
    # weights 0, 1 and 3 the totals and cumulative weights are integers, so
    # queries s - w0 land exactly on cumulative weights (ties with the
    # searched keys, and with each other where steps share a target), on
    # runs of equal cumulative weights (zero weights), and below 0
    b, horizon, w0 = 30, 48, 1.0
    w = rng.choice([0.0, 1.0, 3.0], size=(b, horizon))
    w[:, 3:6] = 0.0
    tot = processes.total_weights(w0, w)
    cumw = np.cumsum(w, axis=1)
    target = cumw[:, rng.integers(0, 8, size=horizon)]
    u = np.minimum((target + w0) / tot[:, :-1], np.nextafter(1.0, 0.0))
    u[:, 30:34] = (cumw[:, 4:5] + w0) / tot[:, 30:34]     # on the zero-weight run
    u[:, ::7] = rng.random((b, len(range(0, horizon, 7)))) * 0.5 / tot[:, :-1:7]
    q = u * tot[:, :-1] - w0
    on_key = np.array([np.isin(q[r, 8:], cumw[r, :7]) for r in range(b)])
    assert on_key.sum() > b * horizon // 2 and (q < 0).sum() > b
    assert all(len(np.unique(q[r])) < horizon // 2 for r in range(b))
    _assert_search_switch(monkeypatch, w0, u, w)


# ---------------------------------------------------------------------------
# Identical marginal distributions (the defining consequence)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_factory,n", [
    (lambda: specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(), specs.UniformBase())), 7),
    (lambda: specs.UniformCoupledSpec(), 7),
    (lambda: specs.ReinforcedSpec(2, (1.0, 1.0), (specs.UniformBase(), specs.UniformBase()),
                                  specs.CommonWeight(specs.TwoPointWeight())), 7),
    (lambda: specs.GaussianLastTickSpec(), 7),
    (lambda: specs.StateSpaceCidSpec(), 7),
])
def test_marginal_identity(spec_factory, n):
    spec = spec_factory()
    ens = run_ensemble(spec, 12_000, n, 2024, record=frozenset({"observations"}))
    x = ens.observations[:, :, 0]
    half = len(x) // 2
    p = sps.ks_2samp(x[:half, 0], x[half:, n - 1], method="asymp").pvalue
    assert p > 0.01
