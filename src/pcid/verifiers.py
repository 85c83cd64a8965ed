"""Statistical verdicts: limit-theorem consequences as pass/fail tests.

Every check produces a TestVerdict built from named sub-checks. Each
sub-check carries a normalized margin that is <= 1 exactly when it passes,
and the verdict's headline statistic is the worst margin, so the verdict
invariant "pass iff statistic <= tolerance (= 1)" holds uniformly across
p-value, tolerance, and bound style sub-checks. Sub-checks based on
p-values are Bonferroni-adjusted within one verdict.

Verdicts are bit-reproducible from (spec, sizes, master seed): ensembles
are deterministic, and the permutation test draws from a reserved verifier
substream derived from the master seed and the check's name.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import kolmogorov, oracles, statistics
from .engine import derive_stream, map_path_chunks, run_ensemble
from .specs import (
    Ar1DriftSpec,
    CommonWeight,
    GaussianLastTickSpec,
    UniformCoupledSpec,
    reinforced_view,
)

VERIFIER_SUBSTREAM = 0xFFFF  # reserved; engine paths use substreams 0..K


@dataclass(frozen=True)
class SubCheck:
    name: str
    kind: str            # "p_value" | "tolerance" | "upper_bound" | "lower_bound"
    statistic: float
    reference: float | str
    tolerance: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin <= 1.0

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "statistic": self.statistic,
                "reference": self.reference, "tolerance": self.tolerance,
                "margin": self.margin, "pass": self.passed}


def _p_value_check(name: str, p: float, alpha_adj: float) -> SubCheck:
    margin = alpha_adj / p if p > 0 else math.inf
    return SubCheck(name, "p_value", p, "p-value >= adjusted alpha", alpha_adj, margin)


def _tolerance_check(name: str, stat: float, ref: float, tol: float) -> SubCheck:
    margin = abs(stat - ref) / tol if tol > 0 else math.inf
    return SubCheck(name, "tolerance", stat, ref, tol, margin)


def _upper_bound_check(name: str, stat: float, bound: float) -> SubCheck:
    margin = abs(stat) / bound if bound > 0 else math.inf
    return SubCheck(name, "upper_bound", stat, 0.0, bound, margin)


def _lower_bound_check(name: str, stat: float, bound: float, slack: float) -> SubCheck:
    if slack > 0:
        margin = (bound - stat) / slack
    else:
        margin = 0.0 if stat > bound else math.inf
    return SubCheck(name, "lower_bound", stat, bound, slack, max(margin, 0.0))


@dataclass
class TestVerdict:
    name: str
    statistic: float          # worst sub-check margin
    reference: float          # margin budget
    tolerance: float
    alpha: float
    passed: bool
    n_paths: int
    horizon: int
    seed: int
    subchecks: list[SubCheck] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "statistic": self.statistic, "reference": self.reference,
                "tolerance": self.tolerance, "alpha": self.alpha, "pass": self.passed,
                "n_paths": self.n_paths, "horizon": self.horizon, "seed": self.seed,
                "params": self.params,
                "subchecks": [s.to_dict() for s in self.subchecks]}


def _verdict(name: str, subchecks: list[SubCheck], alpha: float, n_paths: int,
             horizon: int, seed: int, params: dict) -> TestVerdict:
    worst = max((s.margin for s in subchecks), default=math.inf)
    return TestVerdict(name, worst, 1.0, 1.0, alpha, worst <= 1.0,
                       n_paths, horizon, seed, subchecks, params)


def _integer(value, name: str) -> int:
    """`value` as an int: an integer, or an integral float such as 3.0;
    never a bool, whose int() would be 0 or 1."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _coordinate(coord, k: int) -> int:
    """`coord` as an index into k coordinates; -1 is no alias for k - 1."""
    coord = _integer(coord, "coord")
    if not 0 <= coord < k:
        raise ValueError(f"coord must lie in [0, {k}) for {k} coordinates, got {coord}")
    return coord


def _verifier_rng(master_seed: int, label: str) -> np.random.Generator:
    tag = zlib.crc32(label.encode()) & 0xFFFFFFFF
    return derive_stream(master_seed, tag, VERIFIER_SUBSTREAM).generator()


# ---------------------------------------------------------------------------
# Two-sample energy-distance permutation test
# ---------------------------------------------------------------------------

# Bytes of one row block of the energy test's distance matrix. Blocks hold
# at least two rows, so each block's product with the labels stays a matrix
# product (one row would go to a matrix-vector routine with other rounding).
ENERGY_BLOCK_BYTES = 8 << 20


def energy_permutation_test(sample_a: np.ndarray, sample_b: np.ndarray,
                            rng: np.random.Generator,
                            n_permutations: int = 199) -> tuple[float, float]:
    """Two-sample test of equality of multivariate distributions.

    The statistic is nm/(n+m) * (2 mean d(a,b) - mean d(a,a') - mean
    d(b,b')) with Euclidean distances; the null distribution comes from
    label permutations. Returns (statistic, p-value) with the standard
    (1 + #{perm >= obs}) / (1 + n_permutations) p-value.

    The pooled N x N distance matrix is never formed: balanced row blocks
    of at most ENERGY_BLOCK_BYTES (and at least two rows) give its row sums
    and its product with the N x (n_permutations + 1) label matrix, one
    GEMM per block, so memory grows with N times the block rows, not N^2.
    """
    a = np.atleast_2d(np.asarray(sample_a, float))
    b = np.atleast_2d(np.asarray(sample_b, float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("samples must be 2-d with matching feature dimension")
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError(f"samples must not be empty, got {n} and {m} points")
    big = np.vstack([a, b])
    total_n = n + m
    labels = np.zeros((total_n, n_permutations + 1))
    labels[:n, 0] = 1.0
    for c in range(1, n_permutations + 1):
        perm = rng.permutation(total_n)
        labels[perm[:n], c] = 1.0
    cross = np.empty((total_n, n_permutations + 1))  # dist @ labels
    row_sums = np.empty(total_n)
    block_rows = max(2, ENERGY_BLOCK_BYTES // (8 * total_n))
    n_blocks = max(1, min(total_n // 2, -(-total_n // block_rows)))
    for j in range(n_blocks):
        blk = slice(total_n * j // n_blocks, total_n * (j + 1) // n_blocks)
        dist = cdist(big[blk], big)
        np.matmul(dist, labels, out=cross[blk])
        dist.sum(axis=1, out=row_sums[blk])
    total_sum = float(row_sums.sum())
    s_aa = np.einsum("nc,nc->c", labels, cross)
    s_a_all = cross.sum(axis=0)
    s_ab = s_a_all - s_aa
    s_bb = total_sum - 2.0 * s_ab - s_aa
    scale = n * m / total_n
    stats_all = scale * (2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m))
    observed = float(stats_all[0])
    p = float((1 + np.sum(stats_all[1:] >= observed)) / (1 + n_permutations))
    return observed, p


# ---------------------------------------------------------------------------
# p-c.i.d. joint-law check
# ---------------------------------------------------------------------------

def check_pcid(spec, n_paths: int, horizon: int | None, master_seed: int, *,
               n: int = 1, coord: int = 0, alpha: float = 0.01,
               threads: int | None = None, n_permutations: int = 199,
               max_group: int = 5000) -> TestVerdict:
    """Permutation test of the defining joint-law identity: conditioning
    history and concomitant coordinates fixed, the next and the
    next-but-one observations of one coordinate share a joint law.

    Compares (X_{1:n}, X_{n+1} without coord j, X_{n+1,j}) against
    (X_{1:n}, X_{n+1} without coord j, X_{n+2,j}) across two independent
    halves of the ensemble with a two-sample energy-distance test.

    Each half holds at most `max_group` paths, so the test pools
    N <= 2 * max_group points. Its memory is the N x (n_permutations + 1)
    labels and their products with the distances, 32 MB at the defaults,
    plus distance row blocks of ENERGY_BLOCK_BYTES; no N x N matrix.
    """
    k = spec.n_coords
    if k < 2:
        raise ValueError("the joint-law check requires at least 2 coordinates")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if horizon is None:
        horizon = n + 2
    if n + 2 > horizon:
        raise ValueError(f"need horizon >= n + 2 = {n + 2}, got {horizon}")
    coord = _coordinate(coord, k)
    if n_paths < 2:
        raise ValueError(f"need n_paths >= 2 for two halves of paths, got {n_paths}")
    ens = run_ensemble(spec, n_paths, horizon, master_seed,
                       record=frozenset({"observations"}), threads=threads)
    obs = ens.observations
    half = min(n_paths // 2, max_group)
    others = [i for i in range(k) if i != coord]

    def features(block: np.ndarray, step_j: int) -> np.ndarray:
        hist = block[:, :n, :].reshape(len(block), n * k)
        concomitant = block[:, n, others]
        target = block[:, step_j, coord][:, None]
        return np.concatenate([hist, concomitant, target], axis=1)

    sample_a = features(obs[:half], n)          # X_{n+1,j}: array index n
    sample_b = features(obs[half:2 * half], n + 1)  # X_{n+2,j}
    rng = _verifier_rng(master_seed, f"check_pcid:{n}:{coord}")
    stat, p = energy_permutation_test(sample_a, sample_b, rng, n_permutations)
    sub = _p_value_check("energy_distance_p", p, alpha)
    return _verdict("check_pcid", [sub], alpha, n_paths, horizon, master_seed,
                    {"n": n, "coord": coord, "n_permutations": n_permutations,
                     "group_size": half, "statistic_value": stat})


# ---------------------------------------------------------------------------
# Stopping-time / marginal-identity check
# ---------------------------------------------------------------------------

STOPPING_RULE_KEYS = {"constant": ("n",), "first_exceed": ("threshold", "cap")}


def check_stopping_time(spec, n_paths: int, horizon: int, master_seed: int, *,
                        tau: dict, coord: int = 0, alpha: float = 0.01,
                        threads: int | None = None) -> TestVerdict:
    """Two-sample KS test of X_{tau+1} against X_1 across independent path
    halves, for a bounded stopping rule tau.

    tau = {"kind": "constant", "n": v} uses tau identically v (so v = n
    reduces to the marginal-identity check of X_{n+1} against X_1);
    tau = {"kind": "first_exceed", "threshold": t, "cap": c} stops at the
    first step whose observation exceeds t, capped at c.
    """
    if not isinstance(tau, dict):
        raise ValueError(f"tau must be an object, got {tau!r}")
    kind = tau.get("kind")
    keys = STOPPING_RULE_KEYS.get(kind)
    if keys is None:
        raise ValueError(f"unknown stopping rule kind {kind!r}")
    for key in keys:
        if key not in tau:
            raise ValueError(f"stopping rule {kind!r} needs tau.{key}")
    if kind == "constant":
        bound = _integer(tau["n"], "tau.n")
    else:
        bound = _integer(tau["cap"], "tau.cap")
        thr = tau["threshold"]
        if isinstance(thr, bool) or not isinstance(thr, numbers.Real):
            raise ValueError(f"tau.threshold must be a number, got {thr!r}")
    if not (0 <= bound <= horizon - 1):
        raise ValueError(f"stopping rule bound {bound} exceeds horizon - 1 = {horizon - 1}")
    coord = _coordinate(coord, spec.n_coords)
    if n_paths < 2:
        raise ValueError(f"need n_paths >= 2 for two halves of paths, got {n_paths}")
    ens = run_ensemble(spec, n_paths, horizon, master_seed,
                       record=frozenset({"observations"}), threads=threads)
    obs = ens.observations[:, :, coord]
    half = n_paths // 2
    first_obs = obs[:half, 0]
    block = obs[half:2 * half]
    if kind == "constant":
        tau_idx = np.full(len(block), bound)
    else:
        exceeded = block > float(thr)
        any_hit = exceeded.any(axis=1)
        first_hit = exceeded.argmax(axis=1) + 1          # 1-based step of first exceedance
        tau_idx = np.where(any_hit, np.minimum(first_hit, bound), bound)
    stopped = block[np.arange(len(block)), tau_idx]      # X_{tau+1} at array index tau
    ks_statistic, p = kolmogorov.ks_two_sample(first_obs, stopped)
    sub = _p_value_check("ks_p", p, alpha)
    return _verdict("check_stopping_time", [sub], alpha, n_paths, horizon, master_seed,
                    {"tau": tau, "coord": coord, "ks_statistic": ks_statistic})


# ---------------------------------------------------------------------------
# CLT for scaled forecast-error sums
# ---------------------------------------------------------------------------

def _clt_record(spec) -> frozenset:
    if reinforced_view(spec) is not None:
        return frozenset({"observations", "predictive_mean"})
    return frozenset({"observations", "predictive_mean", "predictive_var"})


def _clt_summaries(spec, n_paths: int, horizon: int, master_seed: int,
                   threads: int | None) -> dict:
    return map_path_chunks(spec, n_paths, horizon, master_seed,
                           statistics.clt_path_summaries,
                           record=_clt_record(spec), threads=threads)


def _normal_fit_and_variance(values: np.ndarray, ref_path: np.ndarray, alpha_adj: float,
                             band: float) -> list[SubCheck]:
    """normal_fit_coord{i} for every coordinate i, then variance_coord{i}:
    a KS fit of values[:, i] / sqrt(ref_path[:, i]) to N(0, 1) at level
    alpha_adj, and the ensemble variance of values[:, i] within the relative
    `band` of the mean of ref_path[:, i]. ref_path holds one reference per
    path, or a single row shared by every path."""
    k = values.shape[1]
    subchecks = []
    for i in range(k):
        _, p = kolmogorov.ks_normal(values[:, i] / np.sqrt(ref_path[:, i]))
        subchecks.append(_p_value_check(f"normal_fit_coord{i}", p, alpha_adj))
    for i in range(k):
        ref = float(ref_path[:, i].mean())
        subchecks.append(_tolerance_check(f"variance_coord{i}", float(values[:, i].var()),
                                          ref, band * ref))
    return subchecks


def check_clt_forecast_errors(spec, n_paths: int, horizon: int, master_seed: int, *,
                              alpha: float = 0.01, threads: int | None = None) -> TestVerdict:
    """Three sub-checks on S_n = (scaled) cumulative forecast errors at
    n = horizon: per-coordinate normal fit of S / plug-in sigma, ensemble
    variance against the mean plug-in variance (5%), and vanishing
    cross-coordinate correlation (diagonal limit covariance)."""
    n = horizon
    if n < 1000:
        raise ValueError(f"asymptotic regime not reached: need horizon >= 1000, got {n}")
    summaries = _clt_summaries(spec, n_paths, n, master_seed, threads)
    s = summaries["S"]
    sig2 = summaries["sigma2_alpha"]
    if np.any(sig2 <= 0):
        raise ValueError("plug-in predictive variances must be positive")
    k = s.shape[1]
    subchecks = _normal_fit_and_variance(s, sig2, alpha / k, 0.05)
    bound = 4.0 / math.sqrt(len(s))
    for i in range(k):
        for j in range(i + 1, k):
            corr = float(np.corrcoef(s[:, i], s[:, j])[0, 1])
            subchecks.append(_upper_bound_check(f"cross_corr_{i}{j}", corr, bound))
    return _verdict("check_clt_forecast_errors", subchecks, alpha, n_paths, n,
                    master_seed, {})


# ---------------------------------------------------------------------------
# CLT for the scaled sample-mean deviation
# ---------------------------------------------------------------------------

def check_clt_sample_mean(spec, n_paths: int, horizon: int, master_seed: int, *,
                          alpha: float = 0.01, threads: int | None = None) -> TestVerdict:
    """Checks S~_n = sqrt(n)(sample mean - predictive mean) against its
    closed-form limit covariance, available for common-weight reinforcement
    (sigma2_alpha * Var(W)/E[W]^2), the cross-reinforced uniform pair with
    the harmonic fraction schedule, and i.i.d. sequences."""
    n = horizon
    # the reference form, found before the ensemble is simulated
    rspec = reinforced_view(spec)
    if rspec is not None and isinstance(rspec.coupling, CommonWeight):
        form = "common_weight"
    elif isinstance(spec, UniformCoupledSpec):
        if spec.beta.kind != "harmonic":
            raise ValueError("no reference form: the uniform-coupled limit covariance "
                             "is implemented for the harmonic fraction schedule")
        form = "uniform_coupled"
    elif isinstance(spec, Ar1DriftSpec) and spec.phi == 0.0 and spec.drift == 0.0:
        form = "iid"
    else:
        raise ValueError(f"no reference form for spec kind {spec.kind!r}")

    summaries = _clt_summaries(spec, n_paths, n, master_seed, threads)
    s_tilde = summaries["S_tilde"]
    k = s_tilde.shape[1]
    params: dict = {}
    if form == "common_weight":
        moments = oracles.weight_moments(rspec.coupling.dist)
        ratio = moments.variance / moments.mean ** 2
        params["weight_variance_ratio"] = ratio
        if ratio == 0.0:
            subchecks = [_upper_bound_check(f"variance_coord{i}", float(s_tilde[:, i].var()),
                                            0.01) for i in range(k)]
        else:
            ref_path = oracles.rru_clt_variance(moments, summaries["sigma2_alpha"])
            subchecks = _normal_fit_and_variance(s_tilde, ref_path, alpha / k, 0.10)
    elif form == "uniform_coupled":
        parts = oracles.tilde_sigma_components(summaries["terminal_moments"])
        diag = parts["diag_companion"]
        offdiag = parts["offdiag"]
        subchecks = _normal_fit_and_variance(s_tilde, diag, alpha / 2, 0.10)
        cov = float(np.cov(s_tilde[:, 0], s_tilde[:, 1])[0, 1])
        ref_cov = float(offdiag.mean())
        subchecks.append(_tolerance_check("cross_covariance", cov, ref_cov, 0.10 * ref_cov))
        corr = float(np.corrcoef(s_tilde[:, 0], s_tilde[:, 1])[0, 1])
        ref_corr = ref_cov / math.sqrt(float(diag[:, 0].mean()) * float(diag[:, 1].mean()))
        subchecks.append(_tolerance_check("cross_correlation", corr, ref_corr,
                                          4.0 / math.sqrt(len(s_tilde))))
        params["reference_correlation"] = ref_corr
    else:
        # i.i.d.: one shared row, whose mean is noise_var itself, which the
        # mean of a column of n_paths copies need not be
        subchecks = _normal_fit_and_variance(s_tilde, np.array([[spec.noise_var]]), alpha,
                                             0.10)
    return _verdict("check_clt_sample_mean", subchecks, alpha, n_paths, n,
                    master_seed, params)


# ---------------------------------------------------------------------------
# Gaussian arrival-time limit
# ---------------------------------------------------------------------------

def check_gaussian_limit(spec, n_paths: int, horizon: int, master_seed: int, *,
                         alpha: float = 0.01, threads: int | None = None) -> TestVerdict:
    """Limit checks of the last-tick Gaussian system: the mean and spread of
    the variance factor gamma (closed forms exist under Poisson arrivals),
    the variance of the terminal predictive mean, and the cross-coordinate
    dependence induced by the shared arrival times."""
    if not isinstance(spec, GaussianLastTickSpec):
        raise ValueError("check_gaussian_limit applies to the gaussian_last_tick kind")
    if horizon < 1000:
        raise ValueError(f"need horizon >= 1000, got {horizon}")
    reduced = map_path_chunks(spec, n_paths, horizon, master_seed,
                              statistics.gaussian_path_summaries,
                              record=frozenset(), threads=threads)
    gamma = reduced["gamma_hat"]
    mu_term = reduced["terminal_mu"]
    k = spec.n_coords
    subchecks = []
    poisson = spec.t0 is None
    gamma_var = float(gamma.var())
    if poisson:
        subchecks.append(_tolerance_check("gamma_mean", float(gamma.mean()),
                                          oracles.gamma_mean_limit(), 0.01))
        centered = gamma - gamma.mean()
        se_var = math.sqrt(max(float((centered ** 4).mean()) - gamma_var ** 2, 0.0)
                           / len(gamma))
        subchecks.append(_lower_bound_check("gamma_variance_bound", gamma_var,
                                            oracles.gamma_variance_lower_bound(),
                                            3.0 * se_var))
        subchecks.append(_lower_bound_check("gamma_variance_positive", gamma_var, 0.0, 0.0))
    one_minus_gamma = 1.0 - float(gamma.mean())
    for i in range(k):
        ref = one_minus_gamma * spec.sigma2_1[i]
        subchecks.append(_tolerance_check(f"terminal_mu_variance_coord{i}",
                                          float(mu_term[:, i].var()), ref, 0.05 * ref))
    if k >= 2:
        sq = mu_term[:, :2] ** 2
        corr = float(np.corrcoef(sq[:, 0], sq[:, 1])[0, 1])
        ref_corr = (spec.sigma2_1[0] * spec.sigma2_1[1] * gamma_var
                    / (float(sq[:, 0].std()) * float(sq[:, 1].std())))
        subchecks.append(_tolerance_check("mu_squared_correlation", corr, ref_corr,
                                          4.0 / math.sqrt(len(gamma))))
    return _verdict("check_gaussian_limit", subchecks, alpha, n_paths, horizon,
                    master_seed, {"poisson_arrivals": poisson})


VERIFIERS = {
    "check_pcid": check_pcid,
    "check_stopping_time": check_stopping_time,
    "check_clt_forecast_errors": check_clt_forecast_errors,
    "check_clt_sample_mean": check_clt_sample_mean,
    "check_gaussian_limit": check_gaussian_limit,
}


def list_verifier_names() -> list[str]:
    return sorted(VERIFIERS)
