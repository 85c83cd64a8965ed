import math

import numpy as np
import pytest
from scipy import stats

from pcid.kolmogorov import ks_two_sample


def _same(ours, theirs) -> bool:
    return np.float64(ours).tobytes() == np.float64(theirs).tobytes()


def _pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    """Equal-size pairs: near and far apart, with ties, with infinities,
    identical (h = 0), and one whose p is below 1e-200."""
    rng = np.random.default_rng(11)
    pairs = []
    for n in (1, 2, 3, 140, 141, 3000, 20000):
        for shift in (0.0, 0.1, 0.5, 3.0):
            pairs.append((rng.normal(size=n), rng.normal(shift, 1.2, size=n)))
    for n in (3, 90, 900):
        for shift in (0, 1):
            pairs.append((rng.integers(-2, 3, size=n).astype(float),
                          rng.integers(-2 + shift, 3 + shift, size=n).astype(float)))
    with_inf = rng.normal(size=60)
    with_inf[::7], with_inf[::11] = np.inf, -np.inf
    pairs.append((with_inf, rng.normal(size=60)))
    pairs.append((np.array([-np.inf, np.inf]), np.array([np.inf, 0.0])))
    same = rng.normal(size=50)
    pairs.append((same, same[::-1].copy()))
    pairs.append((rng.normal(size=3000), rng.normal(2.0, 1.0, size=3000)))
    return pairs


def test_ks_two_sample_bits_equal_ks_2samp():
    p_values = []
    for a, b in _pairs():
        d, p = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="exact")
        assert _same(d, ref.statistic) and _same(p, ref.pvalue), (a, b)
        p_values.append(p)
    assert min(p_values) < 1e-200 and max(p_values) == 1.0


def test_documented_edges():
    with pytest.raises(ValueError, match="equal size"):
        ks_two_sample([0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="equal size"):
        ks_two_sample([], [0.3])
    for a, b in (([], []), ([0.1, math.nan], [0.2, 0.3]), ([0.1, 0.2], [math.nan, 0.3])):
        d, p = ks_two_sample(a, b)
        assert math.isnan(d) and math.isnan(p)
    assert ks_two_sample([0.4, 0.1], [0.1, 0.4]) == (0.0, 1.0)
    # h = 1 at n = 5: the sum rounds to 1 + 2^-52, where ks_2samp's exact
    # method gives up; the p-value is clipped to 1
    assert ks_two_sample([0, 2, 4, 6, 8], [1, 3, 5, 7, 9]) == (0.2, 1.0)
