import math

import numpy as np
import pytest
from scipy import special, stats

from pcid.kolmogorov import ks_two_sample, kstwo_sf, ndtr


def _same(ours, theirs) -> bool:
    return ((math.isnan(ours) and math.isnan(theirs))
            or np.float64(ours).tobytes() == np.float64(theirs).tobytes())


def _around(d: float) -> list[float]:
    return [np.nextafter(d, 0.0), d, np.nextafter(d, 1.0)]


def _branch_points() -> list[tuple[float, float]]:
    """(n, d) in every branch of the survival function, on both sides of each
    threshold between branches."""
    points = [
        # the wrapper's edges and its arguments out of range
        (5, 0.1), (5, 0.5 / 5), (5, 1.0), (5, 1.5), (5, -0.2), (5, 0.0), (5, math.nan),
        (5, math.inf), (5, -math.inf), (0, 0.3), (-3, 0.3), (0.5, 0.7), (2.5, 0.3),
        (math.nan, 0.3), (7.0, 0.3),
        # n d <= 0.5 after d > 0.5/n has passed
        (3, np.nextafter(0.5 / 3, 1.0)),
        # Ruben-Gambino, n d <= 1: a product for n <= 140, Stirling above
        (1, 0.7), (10, 0.07), (10, 0.1), (140, 0.006), (141, 0.006), (1000, 0.0007),
        (1000, 0.001),
        # Ruben-Gambino, n d >= n - 1, and 2 * smirnov for d >= 0.5
        (2, 0.6), (5, 0.85), (10, 0.6), (10, 0.5), (10, np.nextafter(0.5, 0.0)),
        # n <= 140: Durbin/MTW (rescaled by 2^-128 at 0.0102), Pomeranz and 2 * smirnov
        (100, 0.0102), (50, 0.1), (50, 0.2), (50, 0.35), (140, 0.06), (140, 0.15), (140, 0.3),
        # points whose long-double rescaling shows in the bits: Durbin/MTW, Pomeranz
        (129, 0.0524), (131, 0.0652), (64, 0.1159), (65, 0.1338),
        # n > 140: 0, 2 * smirnov, Durbin/MTW and Pelz-Good
        (141, 0.06), (141, 0.15), (5000, 0.3), (2000, 0.05), (2000, 0.005), (2000, 0.01),
        (2000, 0.00051), (5000, 0.015), (100001, 5e-4), (300000, 0.002),
        # Pelz-Good below z = 0.0417, where its first term underflows
        (10 ** 9, 1.2e-6),
    ]
    for n, c in ((100, 0.754693), (100, 4.0), (2000, 2.2), (2000, 18.0), (2000, 370.0),
                 (141, 0.754693), (141, 4.0)):
        points += [(n, d) for d in _around(math.sqrt(c / n))]
    for n in (141, 2000, 5000):  # n d^1.5 = 1.4
        points += [(n, d) for d in _around((1.4 / n) ** (2 / 3))]
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 7, 19, 64, 139, 140, 141, 500, 2000, 4999):
        points += [(n, float(d)) for d in rng.uniform(0.0, 1.0, 4)]
        points += [(n, float(d)) for d in rng.uniform(0.0, 3.0 / math.sqrt(n), 8)]
    return points


@pytest.mark.filterwarnings("ignore:divide by zero")  # scipy's support at n = 0
def test_kstwo_sf_bits_equal_scipy():
    mismatches = [(n, d, kstwo_sf(d, n), float(stats.kstwo.sf(d, n)))
                  for n, d in _branch_points()
                  if not _same(kstwo_sf(d, n), float(stats.kstwo.sf(d, n)))]
    assert mismatches == []


def test_documented_edges():
    assert kstwo_sf(0.1, 5) == 1.0          # d <= 0.5/n
    assert kstwo_sf(1.0, 5) == 0.0
    assert math.isnan(kstwo_sf(math.nan, 5))
    for n in (0, 0.5, 2.5, -1, math.nan):
        assert math.isnan(kstwo_sf(0.7, n))
    assert kstwo_sf(0.7, 3.0) == kstwo_sf(0.7, 3)
    # two one-point samples: the effective size round(1 * 1 / 2) is 0
    d, p = ks_two_sample([0.2], [0.7])
    assert d == 1.0 and math.isnan(p)


def _ndtr_points() -> np.ndarray:
    """Random points over the whole range, the 61 doubles around each edge
    between cephes' branches (a = +-1: erf and 1 - erf; +-sqrt(2): 1 - erf
    and exp(-x^2) P/Q; +-8 sqrt(2): P/Q and R/S; |a| = sqrt(2 MAXLOG) ~ 37.68,
    past which erfc is 0), and the non-finite, zero and subnormal points."""
    rng = np.random.default_rng(5)
    sign = rng.choice([-1.0, 1.0], 20000)
    points = [rng.standard_normal(20000), rng.uniform(-40.0, 40.0, 20000),
              sign * np.exp(rng.uniform(-745.0, 6.0, 20000))]
    for edge in (1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * 709.782712893384), 37.7):
        for a in (edge, -edge):
            points.append(a + np.arange(-30, 31) * np.spacing(a))
    points.append(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1e300, -1e300]))
    return np.concatenate(points)


def test_ndtr_bits_equal_scipy():
    a = _ndtr_points()
    ours, ref = ndtr(a), special.ndtr(a)
    mismatches = a[ours.view(np.uint64) != ref.view(np.uint64)]
    assert mismatches.tolist() == []
    assert ndtr(0.3) == special.ndtr(0.3) and np.ndim(ndtr(0.3)) == 0
    assert ndtr(a.reshape(-1, 2)).shape == (len(a) // 2, 2)


def _samples() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    with_inf = rng.normal(size=60)
    with_inf[::7], with_inf[::11] = np.inf, -np.inf
    with_nan = rng.normal(size=20)
    with_nan[4] = np.nan
    return [rng.normal(size=50), rng.normal(0.3, 1.2, size=140), rng.normal(size=141),
            rng.normal(size=3000), rng.standard_t(2, size=400),
            rng.integers(-2, 3, size=90).astype(float),      # ties
            rng.integers(-2, 3, size=900).astype(float), with_inf, with_nan,
            np.array([0.4]), np.array([0.0, 0.0]), np.array([]),
            np.array([np.inf]), np.array([-np.inf, np.inf])]


@pytest.mark.filterwarnings("ignore")
def test_ks_two_sample_bits_equal_ks_2samp():
    samples = _samples()
    for a in samples:
        for b in samples[::2]:
            ours = ks_two_sample(a, b)
            ref = stats.ks_2samp(a, b, method="asymp")
            assert (_same(ours[0], float(ref.statistic))
                    and _same(ours[1], float(ref.pvalue))), (a, b)
