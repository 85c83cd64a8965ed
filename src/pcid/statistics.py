"""Statistics of recorded paths: SLLN running averages, empirical vs
predictive distances, and the chunk reducers behind the CLT and Gaussian
verdicts (`clt_path_summaries` is the one place the scaled sums S_n and
S~_n are formed).

Everything here is a pure function of an Ensemble (or of one chunk of an
ensemble), vectorized across paths. Step indices are 1-based in the math
and 0-based in the arrays; predictive series carry the prior at index 0,
so the predictive mean of observation n sits at index n-1.
"""

from __future__ import annotations

import numpy as np

from . import processes
from .engine import Ensemble

TELESCOPE_RTOL = 1e-9


class StatisticsError(ValueError):
    """Raised when a derived-series computation is invalid for the data."""


SLLN_FUNCTIONALS = ("product_of_coords", "log_sum_of_coords")


def slln_running_average(ens: Ensemble, functional: str) -> np.ndarray:
    """(1/n) sum_{k<=n} f(X_k) for f the coordinate product or log of the
    coordinate sum, shape (P, H)."""
    x = ens.observations
    if functional == "product_of_coords":
        y = np.prod(x, axis=2)
    elif functional == "log_sum_of_coords":
        sums = np.sum(x, axis=2)
        if np.any(sums <= 0):
            raise StatisticsError("log_sum_of_coords requires positive coordinate sums")
        y = np.log(sums)
    else:
        raise StatisticsError(
            f"unknown functional {functional!r}; choose from {SLLN_FUNCTIONALS}")
    n = np.arange(1, ens.horizon + 1, dtype=float)[None, :]
    return np.cumsum(y, axis=1) / n


# ---------------------------------------------------------------------------
# Empirical vs predictive distances
# ---------------------------------------------------------------------------

def _marginal_distance(sorted_obs: np.ndarray, mixture, n_grid: int) -> float:
    lo = min(sorted_obs[0], mixture.base.support()[0])
    hi = max(sorted_obs[-1], mixture.base.support()[1])
    pts = np.sort(np.concatenate([np.linspace(lo, hi, n_grid), mixture.atom_values]))
    emp = np.searchsorted(sorted_obs, pts, side="right") / len(sorted_obs)
    return float(np.max(np.abs(emp - mixture.cdf(pts))))


def empirical_predictive_distance(ens: Ensemble, n: int | None = None,
                                  n_grid: int = 512) -> dict:
    """Kolmogorov distance between each path's empirical distribution of the
    first n observations and its terminal predictive mixture.

    Returns {"marginal": (P, K), "joint": (P,) or None}. The joint entry
    (two coordinates only) is the maximum discrepancy between the empirical
    joint measure and the product of the terminal marginal predictives over
    the 10 x 10 rectangles anchored at the empirical marginal deciles.
    """
    n = ens.horizon if n is None else n
    if n > ens.horizon:
        raise StatisticsError(f"n={n} exceeds the recorded horizon {ens.horizon}")
    x = ens.observations[:, :n, :]
    n_paths, _, k = x.shape
    marginal = np.zeros((n_paths, k))
    joint = np.zeros(n_paths) if k == 2 else None
    deciles = np.arange(0.1, 0.95, 0.1)
    for p in range(n_paths):
        mixtures = [ens.terminal_mixture(p, i) for i in range(k)]
        for i in range(k):
            marginal[p, i] = _marginal_distance(np.sort(x[p, :, i]), mixtures[i], n_grid)
        if k != 2:
            continue
        # edges sit just above the empirical deciles so that atoms landing
        # exactly on a decile fall on the same side in the (left-closed)
        # histogram and in the (right-continuous) CDF differences
        edges = [np.nextafter(np.quantile(x[p, :, i], deciles), np.inf) for i in range(2)]
        cdf_incr = []
        for i in range(2):
            c = np.concatenate([[0.0], mixtures[i].cdf(edges[i]), [1.0]])
            cdf_incr.append(np.diff(c))
        bins = [np.concatenate([[-np.inf], e, [np.inf]]) for e in edges]
        counts, _, _ = np.histogram2d(x[p, :, 0], x[p, :, 1], bins=bins)
        pred = np.outer(cdf_incr[0], cdf_incr[1])
        joint[p] = float(np.max(np.abs(counts / n - pred)))
    out = {"marginal": marginal}
    if joint is not None:
        out["joint"] = joint
    return out


# ---------------------------------------------------------------------------
# Chunk reducers for large ensembles
# ---------------------------------------------------------------------------

def _step_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the steps of a C-ordered (b, H, K) block, in the order
    a.sum(axis=1) adds them, bit for bit: pairwise for K = 1, where the
    steps are the inner loop; left to right for K >= 2, where numpy adds
    step rows of K values one after another, which one accumulate over the
    steps does without a K-long inner loop per path and step."""
    if a.shape[2] == 1:
        return a.sum(axis=1)
    return np.cumsum(a, axis=1)[:, -1]


def clt_path_summaries(ens: Ensemble) -> dict:
    """Terminal scaled sums and plug-in moments per path, for CLT verdicts.

    Returns S and S~ at n = horizon, the terminal predictive variance
    (the plug-in for the directing-measure variance), and, for reinforced
    kinds, the terminal mixture's raw moments.

    Runs over row blocks of about `processes.GENEALOGY_BLOCK_STEPS`
    path-steps: each block's forecast errors are formed once, summed into
    S, then turned into the residuals V = U - n dE in place and summed for
    the telescoping check. So its temporaries are two block-sized arrays
    (at most 256 KiB each, or one path row if that is longer) whatever the
    chunk size. Each block sums its steps in the order numpy's reduction
    over the whole chunk would (`_step_sums`: pairwise for one coordinate,
    left to right through one accumulate for several), so the results do
    not depend on the blocks, bit for bit.
    """
    h = ens.horizon
    x, mu = ens.observations, ens.predictive_mean
    n_paths, _, k = x.shape
    n = np.arange(1, h + 1, dtype=float)[None, :, None]
    sqrt_h = float(np.sqrt(h))
    s, s_tilde = np.empty((n_paths, k)), np.empty((n_paths, k))
    err = 0.0
    rows = max(1, processes.GENEALOGY_BLOCK_STEPS // ((h + 1) * k))
    for lo in range(0, n_paths, rows):
        blk = slice(lo, lo + rows)
        v = x[blk] - mu[blk, :-1]
        s[blk] = _step_sums(v) / sqrt_h
        s_tilde[blk] = (_step_sums(x[blk]) / h - mu[blk, -1]) * sqrt_h
        de = np.subtract(mu[blk, 1:], mu[blk, :-1])
        de *= n
        v -= de
        via_v = _step_sums(v) / sqrt_h
        # np.maximum keeps a NaN from any block
        err = np.maximum(err, np.max(np.abs(s_tilde[blk] - via_v)
                                     / (1.0 + np.abs(s_tilde[blk]))))
    if not err <= TELESCOPE_RTOL:   # also catches NaN from corrupt inputs
        raise StatisticsError(f"telescoping identity violated at the terminal step: "
                              f"max relative error {err:.3e} > {TELESCOPE_RTOL}")
    if "weighted_power_sums" not in ens.arrays:
        return {"S": s, "S_tilde": s_tilde, "sigma2_alpha": ens.terminal_variance()}
    # the mixture moments once, and the variance from them as
    # Ensemble.terminal_variance forms it
    m = ens.terminal_moments()
    return {"S": s, "S_tilde": s_tilde, "sigma2_alpha": m[:, :, 2] - m[:, :, 1] ** 2,
            "terminal_moments": m}


def gaussian_path_summaries(ens: Ensemble) -> dict:
    return {"gamma_hat": ens.gamma_hat, "terminal_mu": ens.arrays["terminal_mu"]}
