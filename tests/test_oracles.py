import math

import numpy as np
import pytest

from pcid import oracles, processes, specs
from pcid.engine import run_ensemble
from pcid.oracles import (
    composite_simpson,
    corr_uniform_step2,
    gamma_mean_limit,
    gamma_partial_product,
    gamma_partial_product_closed,
    gamma_second_moment_partial,
    polya_limit_moments,
    rru_clt_variance,
    tilde_sigma_components,
    weight_moments,
)


def test_simpson_exact_for_cubics():
    assert composite_simpson(lambda x: x ** 3 - x + 2.0, 0.0, 2.0, 10) == pytest.approx(6.0)
    assert composite_simpson(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_corr_uniform_step2_constants():
    cov, corr = corr_uniform_step2()
    assert abs(cov - 1.0 / 144.0) < 1e-10
    assert abs(corr - 1.0 / 12.0) < 1e-10


def test_zero_coupling_covariance_vanishes():
    # with no cross reinforcement the step-2 values stay independent, and the
    # first-moment factor E[X - 1/2] of the covariance is zero
    first_moment = composite_simpson(lambda x: x - 0.5, 0.0, 1.0)
    assert abs(first_moment ** 2) < 1e-24


def test_gamma_product_matches_telescoped_form():
    for n in list(range(1, 50)) + [100, 500, 1000]:
        direct = gamma_partial_product(n)
        closed = gamma_partial_product_closed(n)
        assert abs(direct - closed) < 1e-12 * closed
    assert gamma_partial_product(1) == pytest.approx(2.0 / 3.0)
    assert gamma_partial_product_closed(1000) == pytest.approx(1003.0 / 3003.0)
    assert gamma_mean_limit() == pytest.approx(1.0 / 3.0)


def test_gamma_second_moment_matches_beta_quadrature():
    # E[(1 - lambda^2)^2] under the Beta(1, k) density k (1 - x)^(k - 1),
    # one factor per step, by quadrature
    factors = [composite_simpson(lambda x, k=k: (1.0 - x * x) ** 2 * k * (1.0 - x) ** (k - 1),
                                 0.0, 1.0) for k in range(1, 9)]
    for n in range(1, 9):
        assert gamma_second_moment_partial(n) == pytest.approx(math.prod(factors[:n]), rel=1e-12)
    # E[gamma^2] > E[gamma]^2: the factor keeps a spread as n grows
    assert gamma_second_moment_partial(5000) > gamma_partial_product(5000) ** 2 + 0.02


@pytest.mark.parametrize("dist,expected_inv2", [
    (specs.DegenerateWeight(2.0), 0.25),
    (specs.TwoPointWeight(1.0, 3.0, 0.5), 0.5 + 0.5 / 9.0),
    (specs.UniformWeight(0.5, 1.5), 1.0 / 0.75),
    (specs.GammaWeight(3.0, 2.0, 0.0), 1.0 / (4.0 * 2.0 * 1.0)),
])
def test_weight_moments_closed_forms(dist, expected_inv2):
    m = weight_moments(dist)
    assert m.inv_square_moment == pytest.approx(expected_inv2)
    assert m.variance == pytest.approx(m.second_moment - m.mean ** 2)
    assert m.variance >= 0


def test_weight_moments_match_quadrature():
    # validate each closed form against the fixed quadrature rule in u-space
    for dist in (specs.TwoPointWeight(1.0, 3.0, 0.5), specs.UniformWeight(0.5, 1.5),
                 specs.GammaWeight(3.0, 2.0, 0.0)):
        m = weight_moments(dist)
        if isinstance(dist, specs.TwoPointWeight):
            continue  # finite support: moments are exact sums by construction
        mean_q = composite_simpson(lambda u: dist.from_uniform(np.minimum(u, 1 - 1e-12)),
                                   0.0, 1.0)
        assert mean_q == pytest.approx(m.mean, rel=1e-3)


def test_shifted_gamma_inverse_square_moment_stable():
    dist = specs.GammaWeight(1.5, 1.0, 0.3)
    coarse = weight_moments(dist).inv_square_moment
    fine = oracles.composite_simpson(
        lambda u: 1.0 / np.maximum(dist.from_uniform(np.minimum(u, 1 - 1e-14)),
                                   dist.shift) ** 2, 0.0, 1.0, panels=100_000)
    # the inverse-CDF integrand has unbounded slope at u = 1, which limits
    # the Simpson rate; 1e-5 relative accuracy is ample for 10% tolerances
    assert coarse == pytest.approx(fine, rel=2e-5)
    assert coarse <= 1.0 / dist.shift ** 2


def test_unshifted_gamma_low_shape_rejected():
    with pytest.raises(specs.SpecValidationError):
        specs.GammaWeight(1.5, 1.0, 0.0).validate()


def test_rru_clt_variance_values():
    one = weight_moments(specs.DegenerateWeight(1.0))
    assert rru_clt_variance(one, 0.3) == 0.0
    two = weight_moments(specs.TwoPointWeight(1.0, 3.0, 0.5))
    s = 0.8
    assert rru_clt_variance(two, s) == pytest.approx(s / 4.0)
    assert rru_clt_variance(two, 0.0) == 0.0


def test_polya_limit_moments_values():
    base = specs.UniformBase()
    m = polya_limit_moments(1.0, base, (0.0, 0.5))
    assert m.mean == pytest.approx(0.5)
    assert m.variance == pytest.approx(1.0 / 8.0)
    assert not m.degenerate
    empty = polya_limit_moments(1.0, base, (2.0, 3.0))
    assert empty.mean == 0.0 and empty.variance == 0.0 and empty.degenerate
    wide = polya_limit_moments(1e9, base, (0.0, 0.5))
    assert wide.variance < 1e-9


def test_polya_limit_moments_against_urn_simulation():
    # brute force: terminal predictive mass of (0, 1/2] across simulated urns
    spec = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
    ens = run_ensemble(spec, 3000, 1500, 99)
    masses = processes.mixture_cdf(1.0, specs.UniformBase(), ens.observations[:, :, 0],
                                   ens.weights[:, :, 0], ens.arrays["total_weight"][:, 0],
                                   np.full((3000, 1), 0.5))[:, 0]
    ref = polya_limit_moments(1.0, specs.UniformBase(), (0.0, 0.5))
    assert abs(masses.mean() - ref.mean) < 4 * masses.std() / np.sqrt(len(masses))
    assert abs(masses.var() - ref.variance) < 0.01


def _pair_moments(base):
    """m_0..m_2 of a mixture with no atoms, for both coordinates."""
    return np.array([[1.0, base.raw_moment(1), base.raw_moment(2)]] * 2)


def test_tilde_sigma_for_uniform_measures():
    parts = tilde_sigma_components(_pair_moments(specs.UniformBase()))
    assert parts["offdiag"] == pytest.approx(1.0 / 36.0, abs=1e-12)
    # for uniform marginals the companion diagonal coincides with 4 var^2
    assert np.allclose(parts["diag_companion"], 1.0 / 36.0, rtol=0.0, atol=1e-12)


def test_tilde_sigma_degenerate_measure_vanishes():
    parts = tilde_sigma_components(_pair_moments(specs.DiscreteBase((0.5,), (1.0,))))
    assert np.allclose(parts["diag_companion"], 0.0, atol=1e-15)
    assert np.allclose(parts["offdiag"], 0.0, atol=1e-15)
