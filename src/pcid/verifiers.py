"""Statistical verdicts: limit-theorem consequences as pass/fail tests.

Each check states the ensemble it reads, and `run_checks` simulates one
for all the checks of equal (n_paths, horizon). A check reduces its
arrays to named p-values: z-tests of a statistic against its exact
expectation at the sizes run, a two-sample KS test of two equal halves
with its exact null law, and a permutation test, each one sub-check at
the check's alpha over their number (Bonferroni), with margin level / p,
<= 1 exactly when it passes. The verdict's statistic is the worst
margin, so "pass iff statistic <= 1" holds.

Verdicts are bit-reproducible from (spec, sizes, master seed): ensembles
are deterministic, and the permutation test draws from a reserved verifier
substream derived from the master seed and the check's name.
"""

from __future__ import annotations

import functools
import inspect
import math
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import kolmogorov, oracles, statistics
from .engine import derive_stream, map_path_chunks
from .specs import (
    GaussianLastTickSpec,
    STOPPING_RULES,
    _check_domain,
    _check_keys,
    _read_nested,
    _require,
)

VERIFIER_SUBSTREAM = 0xFFFF  # reserved; engine paths use substreams 0..K <= specs.MAX_COORDS


def _fields_dict(record) -> dict:
    """A sub-check's or verdict's dict form: its fields, `passed` under the
    key "pass", and each sub-check in its dict form."""
    d = {f.name: getattr(record, f.name) for f in fields(record) if f.name != "passed"}
    d["pass"] = record.passed
    if "subchecks" in d:
        d["subchecks"] = [s.to_dict() for s in d["subchecks"]]
    return d


@dataclass(frozen=True)
class SubCheck:
    name: str
    statistic: float     # the p-value
    tolerance: float     # its level: the verdict's alpha over its number of p-values
    margin: float        # level / p; inf for p = 0 or NaN

    @property
    def passed(self) -> bool:
        return self.margin <= 1.0

    def to_dict(self) -> dict:
        return _fields_dict(self)


@dataclass
class TestVerdict:
    name: str
    statistic: float          # worst sub-check margin
    alpha: float
    passed: bool
    n_paths: int
    horizon: int
    seed: int
    subchecks: list[SubCheck] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _fields_dict(self)


def _verdict(name: str, p_values: dict, alpha: float, n_paths: int,
             horizon: int, seed: int, params: dict) -> TestVerdict:
    """The verdict on `p_values`, name -> p: each a sub-check at level
    alpha / len(p_values)."""
    level = alpha / len(p_values)
    subchecks = [SubCheck(sub, p, level, level / p if p > 0 else math.inf)
                 for sub, p in p_values.items()]
    worst = max(s.margin for s in subchecks)
    return TestVerdict(name, worst, alpha, worst <= 1.0,
                       n_paths, horizon, seed, subchecks, params)


def _z_test_p(values: np.ndarray, reference: np.ndarray | float) -> float:
    """The p-value of a two-sided z-test of E[values - reference] = 0 over
    the paths, with the sample SD: a per-path statistic against a per-path
    (or constant) reference with the same expectation at the sizes run.
    p = 2 Phi(-|z|) = erfc(|z| / sqrt 2), which underflows to 0 at
    |z| >= 38.50. With no spread the mean itself decides: p = 1 if it is 0,
    else 0."""
    d = values - reference
    mean, sd = float(d.mean()), float(d.std(ddof=1))
    if sd == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    return math.erfc(abs(mean / (sd / math.sqrt(len(d)))) / math.sqrt(2))


# The domain of each check argument a config may set, by name: a _DOMAINS
# entry, or the family of a stopping-time check's `tau` (specs.STOPPING_RULES).
ARG_DOMAINS = {"n_paths": "size", "horizon": "size", "alpha": "unit_interval",
               "n": "count", "coord": "count", "n_permutations": "size",
               "max_group": "size", "tau": STOPPING_RULES}
_CASTS = {"int": int, "int | None": int, "float": float}


def fit_params(check, params, where: str = "") -> dict:
    """`params`, arguments of `check` that ARG_DOMAINS names, as the check
    takes them: a number in its domain as the annotated type, or None where
    that allows it (check_pcid derives a horizon); a stopping rule checked
    and kept as given. Errors name the argument under `where`."""
    _require(isinstance(params, dict), where, f"expected an object, got {params!r}")
    args = inspect.signature(check).parameters
    _check_keys(params, [a for a in args if a in ARG_DOMAINS], where)
    fitted = dict(params)
    for key, value in params.items():
        name = f"{where}.{key}" if where else key
        if isinstance(ARG_DOMAINS[key], dict):
            _read_nested(ARG_DOMAINS[key], value, name).validate(name)
        elif value is not None or args[key].annotation != "int | None":
            _check_domain(ARG_DOMAINS[key], value, name, key)
            fitted[key] = _CASTS[args[key].annotation](value)
    return fitted


VERIFIERS, STARTERS = {}, {}   # name -> check; name -> its starter, apart: checks may be wrapped


def _check(body):
    """Register the check whose body is the generator `body`; return it as a
    run of one. The body checks its parameters against the spec and sizes,
    yields its demand (n_paths, horizon, record, chunk reducer), is sent the
    reducer's arrays and yields its verdict. Its starter fits the arguments
    (fit_params), refuses one path and runs the body to its demand."""
    signature = inspect.signature(body)

    def start(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments.update(fit_params(
            body, {k: v for k, v in bound.arguments.items() if k in ARG_DOMAINS}))
        n_paths = bound.arguments["n_paths"]
        if n_paths < 2:     # every check compares paths
            raise ValueError(f"need n_paths >= 2 to compare paths, got {n_paths}")
        started = body(*bound.args, **bound.kwargs)
        return body.__name__, started, next(started)

    @functools.wraps(body)
    def check(spec, n_paths, horizon, master_seed, *, threads=None, **params):
        started = start(spec, n_paths, horizon, master_seed, **params)
        return run_checks(spec, master_seed, [started], threads)[0]

    STARTERS[body.__name__], VERIFIERS[body.__name__] = start, check
    return check


def run_checks(spec, master_seed: int, started: list, threads: int | None = None) -> list:
    """The results of the started checks, (name, body, demand), in order.
    Those of equal (n_paths, horizon) share one ensemble, which records the
    union of their series and runs each distinct reducer once per chunk;
    each body is sent its reducer's arrays. An error lists them in `checks`."""
    results = {}
    for size in dict.fromkeys(demand[:2] for _, _, demand in started):
        group = [entry for entry in started if entry[2][:2] == size]
        reducers = list(dict.fromkeys(demand[3] for _, _, demand in group))
        try:
            reduced = map_path_chunks(spec, *size, master_seed, lambda ens: {
                (j, k): v for j, reduce in enumerate(reducers) for k, v in reduce(ens).items()},
                record=frozenset().union(*(d[2] for _, _, d in group)), threads=threads)
            for _, body, d in group:
                results[body] = body.send({k: v for (j, k), v in reduced.items()
                                           if reducers[j] is d[3]})
        except Exception as exc:
            exc.checks = [name for name, _, _ in group]
            raise
    return [results[body] for _, body, _ in started]


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
# Rows of one tile of a distance block: the tile's temporary is at most this
# many rows of the pooled sample, and never more rows than the smallest block.
ENERGY_TILE_ROWS = 32


def _euclidean_rows(points_t: np.ndarray, start: int, out: np.ndarray,
                    tile: np.ndarray) -> None:
    """out[i, j] = |p_{start+i} - p_j| for the pooled points p whose (d, N)
    transpose is `points_t`, bit for bit SciPy's pairwise Euclidean
    distances between rows start..start+len(out)-1 of p and all of p.

    Tile by tile of len(tile) rows: acc = (x_0 - p_0)^2, then for each later
    feature k in order acc += (x_k - p_k)^2, then sqrt in place. These are
    SciPy's operations in SciPy's order: one sequential sum over the
    features from feature 0, of |x - y| * |x - y| = (x - y)^2. Like
    SciPy, it is silent when a square overflows to inf or inf - inf is NaN.
    """
    if len(points_t) == 0:
        out.fill(0.0)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, len(out), len(tile)):
            acc = out[r0:r0 + len(tile)]
            rows = slice(start + r0, start + r0 + len(acc))
            for k, feature in enumerate(points_t):
                t = acc if k == 0 else tile[:len(acc)]
                np.subtract(feature[rows, None], feature, out=t)
                np.multiply(t, t, out=t)
                if k:
                    acc += t
            np.sqrt(acc, out=acc)


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
    GEMM per block. Each block's distances are built in tiles of at most
    ENERGY_TILE_ROWS rows, bit for bit SciPy's Euclidean distances. The
    statistics read only the column sums of that product and of its
    elementwise product with the labels, so each block folds its rows into
    them in row order, and no N x (n_permutations + 1) product is kept.
    Memory is the labels, one distance block, one tile, two
    (block rows + 1) x (n_permutations + 1) buffers and the (d, N)
    transposed sample: it grows with N times the block rows, not N^2.
    """
    a = np.atleast_2d(np.asarray(sample_a, float))
    b = np.atleast_2d(np.asarray(sample_b, float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("samples must be 2-d with matching feature dimension")
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError(f"samples must not be empty, got {n} and {m} points")
    total_n = n + m
    points_t = np.empty((a.shape[1], total_n))  # each feature one contiguous row
    points_t[:, :n] = a.T
    points_t[:, n:] = b.T
    labels = np.zeros((total_n, n_permutations + 1))
    labels[:n, 0] = 1.0
    for c in range(1, n_permutations + 1):
        perm = rng.permutation(total_n)
        labels[perm[:n], c] = 1.0
    row_sums = np.empty(total_n)
    block_rows = max(2, ENERGY_BLOCK_BYTES // (8 * total_n))
    n_blocks = max(1, min(total_n // 2, -(-total_n // block_rows)))
    dist_buf = np.empty((-(-total_n // n_blocks), total_n))
    tile = np.empty((min(ENERGY_TILE_ROWS, total_n // n_blocks), total_n))
    # rows 1.. take a block's dist @ labels (cross) and labels * cross; row 0
    # carries the column sums of the blocks before, so that adding up the
    # rows continues the sums over all N rows in row order
    cross = np.zeros((len(dist_buf) + 1, n_permutations + 1))
    in_a = np.zeros_like(cross)
    for j in range(n_blocks):
        blk = slice(total_n * j // n_blocks, total_n * (j + 1) // n_blocks)
        rows = blk.stop - blk.start
        dist = dist_buf[:rows]
        _euclidean_rows(points_t, blk.start, dist, tile)
        np.matmul(dist, labels, out=cross[1:rows + 1])
        dist.sum(axis=1, out=row_sums[blk])
        np.multiply(labels[blk], cross[1:rows + 1], out=in_a[1:rows + 1])  # exact: 0/1 labels
        cross[0] = cross[:rows + 1].sum(axis=0)
        in_a[0] = in_a[:rows + 1].sum(axis=0)
    total_sum = float(row_sums.sum())
    s_aa = in_a[0]
    s_ab = cross[0] - s_aa
    s_bb = total_sum - 2.0 * s_ab - s_aa
    scale = n * m / total_n
    stats_all = scale * (2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m))
    observed = float(stats_all[0])
    p = float((1 + np.sum(stats_all[1:] >= observed)) / (1 + n_permutations))
    return observed, p


# ---------------------------------------------------------------------------
# p-c.i.d. joint-law check
# ---------------------------------------------------------------------------

@_check
def check_pcid(spec, n_paths: int, horizon: int | None, master_seed: int, *,
               n: int = 1, coord: int = 0, alpha: float = 0.01,
               n_permutations: int = 199, max_group: int = 5000):
    """Permutation test of the defining joint-law identity: conditioning
    history and concomitant coordinates fixed, the next and the
    next-but-one observations of one coordinate share a joint law.

    Compares (X_{1:n}, X_{n+1} without coord j, X_{n+1,j}) against
    (X_{1:n}, X_{n+1} without coord j, X_{n+2,j}) across two independent
    halves of the ensemble with a two-sample energy-distance test.

    Each half holds at most `max_group` paths, and only those 2 * half
    paths are simulated (a smaller ensemble is the prefix of a larger one)
    and cut to their first n + 2 steps in the workers, so the test pools
    N <= 2 * max_group points. Its memory is the N x (n_permutations + 1)
    labels, 16 MB at the defaults, plus one distance row block of at most
    ENERGY_BLOCK_BYTES, one tile of at most ENERGY_TILE_ROWS rows, two
    buffers of a block's rows and the (d, N) transposed sample; no N x N
    matrix. The verdict reports the configured n_paths.
    """
    k = spec.n_coords
    if k < 2:
        raise ValueError("the joint-law check requires at least 2 coordinates")
    if horizon is None:
        horizon = n + 2
    if n + 2 > horizon:
        raise ValueError(f"need horizon >= n + 2 = {n + 2}, got {horizon}")
    if coord >= k:
        raise ValueError(f"coord must lie in [0, {k}) for {k} coordinates, got {coord}")
    half = min(n_paths // 2, max_group)
    obs = (yield 2 * half, horizon, frozenset({"observations"}),
           lambda ens: {"head": ens.observations[:, :n + 2]})["head"]
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
    yield _verdict("check_pcid", {"energy_distance_p": p}, alpha, n_paths, horizon, master_seed,
                   {"n": n, "coord": coord, "n_permutations": n_permutations,
                    "group_size": half, "statistic_value": stat})


# ---------------------------------------------------------------------------
# Stopping-time / marginal-identity check
# ---------------------------------------------------------------------------

def _stopped_pair(coord: int, bound: int, threshold):
    """A chunk reducer: per path, X_1 and X_{tau+1} of coordinate `coord`,
    where tau is the first step whose observation exceeds `threshold`,
    capped at `bound`, or `bound` itself for a threshold of None."""
    def reduce(ens) -> dict:
        obs = ens.observations[:, :, coord]
        if threshold is None:
            tau_idx = np.full(len(obs), bound)
        else:
            exceeded = obs > threshold
            any_hit = exceeded.any(axis=1)
            first_hit = exceeded.argmax(axis=1) + 1      # 1-based step of first exceedance
            tau_idx = np.where(any_hit, np.minimum(first_hit, bound), bound)
        # X_{tau+1} at array index tau
        return {"first": obs[:, 0], "stopped": obs[np.arange(len(obs)), tau_idx]}
    return reduce


@_check
def check_stopping_time(spec, n_paths: int, horizon: int, master_seed: int, *,
                        tau: dict, coord: int = 0, alpha: float = 0.01):
    """Two-sample KS test of X_{tau+1} against X_1 across independent path
    halves, for a bounded stopping rule tau.

    tau = {"kind": "constant", "n": v} uses tau identically v (so v = n
    reduces to the marginal-identity check of X_{n+1} against X_1);
    tau = {"kind": "first_exceed", "threshold": t, "cap": c} stops at the
    first step whose observation exceeds t, capped at c.

    The chunk workers reduce each path to (X_1, X_{tau+1}), so the caller
    holds two values per path, and only the 2 * (n_paths // 2) compared
    paths are simulated (a prefix of the ensemble).

    Its p-value is the exact null law of D for two halves of n_paths // 2
    points (`kolmogorov.ks_two_sample`), from 2 paths up; under ties
    (discrete bases) the test is conservative.
    """
    rule = _read_nested(STOPPING_RULES, tau, "tau")
    bound, thr = (rule.n, None) if rule.kind == "constant" else (rule.cap, rule.threshold)
    if bound > horizon - 1:
        raise ValueError(f"stopping rule bound {bound} exceeds horizon - 1 = {horizon - 1}")
    if coord >= spec.n_coords:
        raise ValueError(f"coord must lie in [0, {spec.n_coords}) for {spec.n_coords} "
                         f"coordinates, got {coord}")
    half = n_paths // 2
    reduced = yield 2 * half, horizon, frozenset({"observations"}), _stopped_pair(coord, bound, thr)
    ks_statistic, p = kolmogorov.ks_two_sample(reduced["first"][:half], reduced["stopped"][half:])
    yield _verdict("check_stopping_time", {"ks_p": p}, alpha, n_paths, horizon, master_seed,
                   {"tau": tau, "coord": coord, "ks_statistic": ks_statistic})


# ---------------------------------------------------------------------------
# CLT for scaled forecast-error sums
# ---------------------------------------------------------------------------

# the series `statistics.clt_path_summaries` reads
CLT_RECORD = frozenset({"observations", "predictive_mean"})


@_check
def check_clt_forecast_errors(spec, n_paths: int, horizon: int, master_seed: int, *,
                              alpha: float = 0.01):
    """Z-tests of S = (scaled) cumulative forecast errors at n = horizon:
    per coordinate, S^2 against its quadratic variation QV_S = (1/H) sum
    U_k^2 (`variance_coord{i}`); per pair, S_i S_j against 0
    (`cross_covariance_{i}{j}`). Both are exact at every horizon, the cross
    ones whenever the coordinates draw conditionally independently given
    the past, as every multi-coordinate kind does.

    What it cannot see: forecast errors are martingale differences under
    any model's own predictive, so the S identity holds for every kind,
    c.i.d. or not. It tests the simulator and the CLT's normalisation, not
    the p-c.i.d. property: at 2000 x 1000 it rejected 0 of 20 seeds of
    `broken_feedback_weight` and 0 of 10 of `ar1_drift`. Nor does it test
    the normal shape of the limit, which these sizes do not reach (README)."""
    summaries = yield n_paths, horizon, CLT_RECORD, statistics.clt_path_summaries
    s = summaries["S"]
    k = s.shape[1]
    p_values = {f"variance_coord{i}": _z_test_p(s[:, i] ** 2, summaries["QV_S"][:, i])
                for i in range(k)}
    p_values.update({f"cross_covariance_{i}{j}": _z_test_p(s[:, i] * s[:, j], 0.0)
                     for i in range(k) for j in range(i + 1, k)})
    yield _verdict("check_clt_forecast_errors", p_values, alpha, n_paths, horizon,
                   master_seed, {})


# ---------------------------------------------------------------------------
# CLT for the scaled sample-mean deviation
# ---------------------------------------------------------------------------

@_check
def check_clt_sample_mean(spec, n_paths: int, horizon: int, master_seed: int, *,
                          alpha: float = 0.01):
    """Z-tests, for every kind, of S~ = sqrt(H)(sample mean - predictive
    mean) at n = horizon against its own quadratic variation: S~_i^2
    against QV_S~_i (`variance_coord{i}`) and, for two or more coordinates,
    S~_0 S~_1 against QV_01 (`cross_covariance`), Bonferroni-adjusted.

    Exact at every horizon when the predictive-mean increments are
    martingale differences, as in a c.i.d. coordinate; so, unlike the
    forecast-error check, it sees a drifting `ar1_drift` and
    `broken_feedback_weight` at scale > 0. No normal fit of S~: for Polya
    sequences S~ is dominated by its first steps and has no normal limit."""
    summaries = yield n_paths, horizon, CLT_RECORD, statistics.clt_path_summaries
    s_tilde = summaries["S_tilde"]
    k = s_tilde.shape[1]
    p_values = {f"variance_coord{i}": _z_test_p(s_tilde[:, i] ** 2, summaries["QV_S_tilde"][:, i])
                for i in range(k)}
    if k >= 2:
        p_values["cross_covariance"] = _z_test_p(s_tilde[:, 0] * s_tilde[:, 1], summaries["QV_01"])
    yield _verdict("check_clt_sample_mean", p_values, alpha, n_paths, horizon,
                   master_seed, {})


# ---------------------------------------------------------------------------
# Gaussian arrival-time limit
# ---------------------------------------------------------------------------

@_check
def check_gaussian_limit(spec, n_paths: int, horizon: int, master_seed: int, *,
                         alpha: float = 0.01):
    """Z-tests of the last-tick Gaussian system against its exact moments at
    the horizon run, for any horizon.

    Under Poisson arrivals (no fixed t0) the fractions lambda_k are
    independent Beta(1, k), so the variance factor gamma = prod (1 -
    lambda_k^2) has E[gamma] = `oracles.gamma_partial_product_closed(H)`
    (`gamma_mean`) and E[gamma^2] = `oracles.gamma_second_moment_partial(H)`
    (`gamma_second_moment`). For any arrivals, given them, the moves
    A_i = mu_{H,i} - mu_{1,i} of the terminal predictive means are
    independent N(0, sigma2_{1,i} (1 - gamma)): A_i^2 against
    sigma2_{1,i} (1 - gamma) (`terminal_mu_variance_coord{i}`) and, for two
    or more coordinates, (A_0 A_1)^2 against sigma2_{1,0} sigma2_{1,1}
    (1 - gamma)^2 (`mu_squared_cross`), the dependence that the shared
    arrival times induce."""
    if not isinstance(spec, GaussianLastTickSpec):
        raise ValueError("check_gaussian_limit applies to the gaussian_last_tick kind")
    reduced = yield n_paths, horizon, frozenset(), statistics.gaussian_path_summaries
    gamma = reduced["gamma_hat"]
    moves = reduced["terminal_mean"] - np.asarray(spec.mu1)
    sigma2 = spec.sigma2_1
    poisson = spec.t0 is None
    p_values = {}
    if poisson:
        p_values["gamma_mean"] = _z_test_p(gamma, oracles.gamma_partial_product_closed(horizon))
        p_values["gamma_second_moment"] = _z_test_p(
            gamma ** 2, oracles.gamma_second_moment_partial(horizon))
    for i in range(spec.n_coords):
        p_values[f"terminal_mu_variance_coord{i}"] = _z_test_p(moves[:, i] ** 2,
                                                               sigma2[i] * (1.0 - gamma))
    if spec.n_coords >= 2:
        p_values["mu_squared_cross"] = _z_test_p((moves[:, 0] * moves[:, 1]) ** 2,
                                                 sigma2[0] * sigma2[1] * (1.0 - gamma) ** 2)
    yield _verdict("check_gaussian_limit", p_values, alpha, n_paths, horizon,
                   master_seed, {"poisson_arrivals": poisson})


def list_verifier_names() -> list[str]:
    return sorted(VERIFIERS)
