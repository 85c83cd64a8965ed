"""Reference values computed independently of the simulation engine.

Each closed form is validated against a direct numerical computation
(deterministic quadrature, direct products, or brute-force enumeration) in
the test suite. `check_gaussian_limit` holds the variance factor gamma
against its exact mean and second moment at the horizon run
(`gamma_partial_product_closed`, `gamma_second_moment_partial`). No
verdict uses the CLT limit forms (`rru_clt_variance`,
`tilde_sigma_components`), which are a few percent off at finite horizons:
the CLT checks hold each scaled sum against its own quadratic variation.
Quadrature uses a fixed composite Simpson rule, so every oracle value is
deterministic and RNG-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specs import DegenerateWeight, GammaWeight, TwoPointWeight, UniformWeight

QUADRATURE_PANELS = 10_000


def composite_simpson(f, a: float, b: float, panels: int = QUADRATURE_PANELS) -> float:
    """Composite Simpson quadrature with a fixed even panel count."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


# ---------------------------------------------------------------------------
# Step-2 correlation of the cross-reinforced uniform pair
# ---------------------------------------------------------------------------

def corr_uniform_step2(panels: int = QUADRATURE_PANELS) -> tuple[float, float]:
    """Covariance and correlation of the second observations of the
    cross-reinforced uniform pair, by quadrature over [0,1]^2.

    The integrand (x - 1/2)^2 (y - 1/2)^2 of the two independent first-step
    uniforms is separable, so the tensor-product Simpson sum over the square
    equals the product of the one-dimensional Simpson sums; each factor is
    exact for this quadratic. Returns (1/144, 1/12).
    """
    g = lambda x: (x - 0.5) ** 2
    one_dim = composite_simpson(g, 0.0, 1.0, panels)
    covariance = one_dim * one_dim           # E[(X-1/2)^2] E[(Y-1/2)^2]
    variance = composite_simpson(g, 0.0, 1.0, panels)  # Var of a uniform coordinate
    return covariance, covariance / variance


# ---------------------------------------------------------------------------
# The predictive-variance factor gamma under Poisson arrivals
# ---------------------------------------------------------------------------

def gamma_partial_product(n: int) -> float:
    """prod_{k=1..n} (1 - 2 / ((k+1)(k+2))), E[gamma] after n steps under
    Poisson arrivals, computed as a direct product."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    return float(np.prod(1.0 - 2.0 / ((k + 1.0) * (k + 2.0))))


def gamma_partial_product_closed(n: int) -> float:
    """Telescoped form (n+3) / (3(n+1)) of the same product."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n + 3.0) / (3.0 * (n + 1.0))


def gamma_mean_limit() -> float:
    """Limit of the partial products: E[gamma] -> 1/3 as n -> infinity."""
    return 1.0 / 3.0


def gamma_second_moment_partial(n: int) -> float:
    """prod_{k=1..n} E[(1 - lambda_k^2)^2] for independent Beta(1, k)
    fractions: E[gamma^2] after n steps under Poisson arrivals."""
    k = np.arange(1, n + 1, dtype=float)
    e2 = 2.0 / ((k + 1.0) * (k + 2.0))
    e4 = 24.0 / ((k + 1.0) * (k + 2.0) * (k + 3.0) * (k + 4.0))
    return float(np.prod(1.0 - 2.0 * e2 + e4))


# ---------------------------------------------------------------------------
# Moments of the reinforcement-weight families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMoments:
    mean: float
    variance: float
    second_moment: float
    inv_square_moment: float


def weight_moments(dist) -> WeightMoments:
    """Closed-form moments of a weight distribution, including E[1/W^2].

    The shifted gamma has no elementary inverse-square moment; it is
    computed by the fixed quadrature rule instead (still deterministic).
    """
    mean, var, second = dist.mean(), dist.variance(), dist.second_moment()
    if isinstance(dist, DegenerateWeight):
        inv2 = 1.0 / dist.value ** 2
    elif isinstance(dist, TwoPointWeight):
        inv2 = dist.p_lo / dist.lo ** 2 + (1.0 - dist.p_lo) / dist.hi ** 2
    elif isinstance(dist, UniformWeight):
        inv2 = 1.0 / (dist.a * dist.b)
    elif isinstance(dist, GammaWeight):
        if dist.shift == 0.0:
            if dist.shape <= 2:
                raise ValueError("E[1/W^2] is infinite for an unshifted gamma with shape <= 2")
            inv2 = 1.0 / (dist.scale ** 2 * (dist.shape - 1.0) * (dist.shape - 2.0))
        else:
            inv2 = composite_simpson(
                lambda u: 1.0 / np.maximum(dist.from_uniform(np.minimum(u, 1.0 - 1e-14)),
                                           dist.shift) ** 2,
                0.0, 1.0)
    else:
        raise ValueError(f"unknown weight distribution {type(dist).__name__}")
    if not all(math.isfinite(v) for v in (mean, var, second, inv2)):
        raise ValueError("weight moments are not all finite")
    return WeightMoments(mean, var, second, inv2)


def rru_clt_variance(moments: WeightMoments, sigma2_alpha) -> float | np.ndarray:
    """Limit variance of the scaled sample-mean deviation for common-weight
    reinforcement: sigma2_alpha * Var(W) / E[W]^2."""
    if not math.isfinite(moments.inv_square_moment):
        raise ValueError("reference requires E[1/W^2] < infinity")
    if moments.mean <= 0 or not math.isfinite(moments.mean):
        raise ValueError(f"degenerate weight mean {moments.mean}")
    return sigma2_alpha * moments.variance / moments.mean ** 2


# ---------------------------------------------------------------------------
# Limit moments of independent Polya sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalLimitMoments:
    mean: float
    variance: float
    degenerate: bool


def polya_limit_moments(w0: float, base, interval: tuple[float, float]) -> IntervalLimitMoments:
    """Mean and variance of the limiting random mass alpha(A) of an interval
    A under Polya reinforcement with base weight w0: the mass is Beta
    distributed with mean nu(A) and variance nu(A)(1 - nu(A)) / (w0 + 1)."""
    a, b = interval
    if not (b > a):
        raise ValueError(f"interval must have positive length, got {interval}")
    p = float(base.cdf(np.asarray([b]))[0] - base.cdf(np.asarray([a]))[0])
    degenerate = p <= 0.0 or p >= 1.0
    var = 0.0 if degenerate else p * (1.0 - p) / (w0 + 1.0)
    return IntervalLimitMoments(p, var, degenerate)


# ---------------------------------------------------------------------------
# Sample-mean limit covariance for the cross-reinforced uniform pair
# ---------------------------------------------------------------------------

def tilde_sigma_components(moments: np.ndarray) -> dict:
    """Plug-in components of the sample-mean limit covariance for the
    cross-reinforced uniform pair, vectorized over paths.

    moments: (..., 2, 3) raw moments m_0..m_2 of the two terminal predictives.
    Returns diag_companion (..., 2) and offdiag (...):

    * diag_companion[i] = 4 sigma2_i * int (y - 1/2)^2 d alpha_j,  j != i
    * offdiag           = 4 sigma2_1 sigma2_2

    The squared increments of the scaled sample-mean deviation of
    coordinate i carry the coupling factor (1 - 2 x_j) of the *other*
    coordinate, so ensemble variances track diag_companion.
    """
    m = np.asarray(moments, dtype=float)
    mu = m[..., 1]
    s2 = m[..., 2] - mu ** 2
    int_half = m[..., 2] - m[..., 1] + 0.25 * m[..., 0]  # int (x - 1/2)^2 d alpha
    diag_companion = 4.0 * s2 * int_half[..., ::-1]
    offdiag = 4.0 * s2[..., 0] * s2[..., 1]
    return {"diag_companion": diag_companion, "offdiag": offdiag}
