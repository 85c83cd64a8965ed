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
from .specs import reinforced_view

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

def empirical_predictive_distance(ens: Ensemble, n: int | None = None,
                                  n_grid: int = 512) -> dict:
    """Kolmogorov distance between each path's empirical distribution of the
    first n observations and its terminal predictive mixture.

    Returns {"marginal": (P, K)}, and for two coordinates also "joint": (P,),
    the maximum discrepancy between the empirical joint measure and the
    product of the terminal marginal predictives over the 10 x 10
    rectangles anchored at the empirical marginal deciles. Each path is a
    row of the same operations, so this also runs as a chunk reducer."""
    rspec = reinforced_view(ens.spec)
    if rspec is None:
        raise StatisticsError("empirical_predictive_distance applies to reinforced kinds")
    n = ens.horizon if n is None else n
    if not 1 <= n <= ens.horizon:
        raise StatisticsError(f"n={n} must lie in [1, {ens.horizon}], the recorded horizon")
    obs, w, total = ens.observations, ens.weights, ens.arrays["total_weight"]
    x = obs[:, :n]
    n_paths, _, k = x.shape
    # each coordinate's terminal mixtures, a row per path, as mixture_cdf takes them
    mix = [(rspec.w0[i], rspec.base[i], obs[:, :, i], w[:, :, i], total[:, i])
           for i in range(k)]
    marginal = np.empty((n_paths, k))
    for i in range(k):
        srt = np.sort(x[:, :, i], axis=1)
        lo = np.minimum(srt[:, 0], rspec.base[i].support()[0])
        hi = np.maximum(srt[:, -1], rspec.base[i].support()[1])
        # lo < hi on every row, or on none for a one-point base, so linspace
        # forms each row as alone; a zero-weight atom is lo, adding no point
        pts = np.concatenate([np.linspace(lo, hi, n_grid, axis=1),
                              np.where(w[:, :, i] > 0, obs[:, :, i], lo[:, None])], axis=1)
        emp = processes.searchsorted_rows(srt, pts) / n
        marginal[:, i] = np.max(np.abs(emp - processes.mixture_cdf(*mix[i], pts)), axis=1)
    if k != 2:
        return {"marginal": marginal}
    # edges (2, P, 9) just above the empirical deciles: an atom on a decile
    # falls on one side in the (left-closed) cells and the CDF differences
    edges = np.nextafter(np.quantile(x, np.arange(0.1, 0.95, 0.1), axis=1), np.inf).T
    incr = [np.diff(processes.mixture_cdf(*mix[i], edges[i]), axis=1, prepend=0.0,
                    append=1.0) for i in range(2)]
    cell = [processes.searchsorted_rows(edges[i], x[:, :, i]) for i in range(2)]
    flat = np.arange(n_paths)[:, None] * 100 + cell[0] * 10 + cell[1]
    counts = np.bincount(flat.ravel(), minlength=100 * n_paths).reshape(n_paths, 10, 10)
    pred = incr[0][:, :, None] * incr[1][:, None, :]
    return {"marginal": marginal, "joint": np.max(np.abs(counts / n - pred), axis=(1, 2))}


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
    """Per path, at n = horizon: S = sum U_k / sqrt(H) over the forecast
    errors U_k, S~ = sqrt(H)(sample mean - predictive mean) = sum xi_k /
    sqrt(H) over the residuals xi_k = U_k - k dE_k, their quadratic
    variations QV_S = (1/H) sum U_k^2 and QV_S_tilde = (1/H) sum xi_k^2,
    and for two or more coordinates QV_01 = (1/H) sum xi_k,0 xi_k,1. It
    reads the observations and the predictive means, and no predictive
    variance series.

    Runs over row blocks of about `processes.GENEALOGY_BLOCK_STEPS`
    path-steps: a block's U is formed once, summed and squared into the
    increment buffer, then turned into xi in place, summed for the
    telescoping check and squared (or multiplied across coordinates 0 and
    1) into that buffer. So its temporaries are two block-sized arrays (at
    most 256 KiB each, or one path row if that is longer). Each block sums
    its steps in the order numpy's reduction over the whole chunk would
    (`_step_sums`: pairwise for one coordinate, left to right through one
    accumulate for several), so the results do not depend on the blocks,
    bit for bit.
    """
    h = ens.horizon
    x, mu = ens.observations, ens.predictive_mean
    n_paths, _, k = x.shape
    n = np.arange(1, h + 1, dtype=float)[None, :, None]
    sqrt_h = float(np.sqrt(h))
    s, s_tilde = np.empty((n_paths, k)), np.empty((n_paths, k))
    qv = {"QV_S": np.empty((n_paths, k)), "QV_S_tilde": np.empty((n_paths, k))}
    if k >= 2:
        qv["QV_01"] = np.empty(n_paths)
    err = 0.0
    rows = max(1, processes.GENEALOGY_BLOCK_STEPS // ((h + 1) * k))
    for lo in range(0, n_paths, rows):
        blk = slice(lo, lo + rows)
        v = x[blk] - mu[blk, :-1]
        s[blk] = _step_sums(v) / sqrt_h
        s_tilde[blk] = (_step_sums(x[blk]) / h - mu[blk, -1]) * sqrt_h
        de = np.multiply(v, v)
        qv["QV_S"][blk] = _step_sums(de) / h
        np.subtract(mu[blk, 1:], mu[blk, :-1], out=de)
        de *= n
        v -= de
        via_v = _step_sums(v) / sqrt_h
        # np.maximum keeps a NaN from any block
        err = np.maximum(err, np.max(np.abs(s_tilde[blk] - via_v)
                                     / (1.0 + np.abs(s_tilde[blk]))))
        np.multiply(v, v, out=de)
        qv["QV_S_tilde"][blk] = _step_sums(de) / h
        if k >= 2:
            # the cross products in a contiguous (b, H, 1) head of the buffer
            cross = de.reshape(-1)[:len(v) * h].reshape(len(v), h, 1)
            np.multiply(v[:, :, :1], v[:, :, 1:2], out=cross)
            qv["QV_01"][blk] = _step_sums(cross)[:, 0] / h
    if not err <= TELESCOPE_RTOL:   # also catches NaN from corrupt inputs
        raise StatisticsError(f"telescoping identity violated at the terminal step: "
                              f"max relative error {err:.3e} > {TELESCOPE_RTOL}")
    return {"S": s, "S_tilde": s_tilde, **qv}


def gaussian_path_summaries(ens: Ensemble) -> dict:
    return {"gamma_hat": ens.gamma_hat, "terminal_mean": ens.terminal_mean}
