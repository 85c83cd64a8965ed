"""The process zoo: exact one-step predictive laws and state updates.

Two layers live here.

* Scalar, single-path operations (`reinforced_step`, `uniform_coupled_step`,
  `gaussian_last_tick_step`, `state_space_cid_step`, `poisson_arrivals`)
  written directly against the per-coordinate state objects. These are the
  readable reference implementations. A `ReinforcedCoordState` is also a
  reinforced coordinate's predictive mixture: it gives the predictive
  mean, variance, CDF and component probabilities, and draws from it. Its
  CDF is `mixture_cdf`, the one mixture CDF: a row of atoms per mixture,
  one row for the state and one per path for a batch.

* Batch kernels (`simulate_*_chunk`) that run a whole chunk of paths with
  numpy. They consume pre-generated random inputs and follow the exact same
  draw layout as the scalar layer, so for matching streams the two layers
  produce bit-identical paths (asserted in the test suite).

Sampling from an atomic-plus-base mixture uses a single uniform per draw:
with s = u * total_weight, the draw is from the base measure when s < w0
(mapped through the base inverse CDF of s / w0), otherwise it is the first
atom whose cumulative weight exceeds s - w0.

The reinforced kernel works in one of two orders. Under common and i.i.d.
weights, which ignore the observations, it works in genealogy order: all
weights first, then every step's source (a base draw, or the earlier atom
it copies, found by one bisection over all of a block's steps at short
horizons, at long ones by one `np.searchsorted` per path row over the
row's queries in sorted order), then the values down each copy chain, then
the power sums and predictive series as cumulative sums. Cross-fraction and
feedback weights depend on each step's draws, so those couplings keep a
loop over the steps.

The Gaussian kernel steps with a coordinate-major state: mu and sigma^2 are
(K, P), each coordinate's normals are one contiguous row per path, and
every step updates the state in place with one loop over the paths per
coordinate and operation. It steps in tiles, each laid out step-major
before its steps run, so that a step reads contiguous rows. It finds the
arrivals and the fractions lambda_n one tile at a time, carrying the
arrival total from tile to tile, and divides its exponential draws by the
rate in place, so it makes no array as long as a path besides its draws
and recorded series. The operations and their order are the scalar
step's, so the two layers still agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .specs import (
    Ar1DriftSpec,
    CommonWeight,
    CrossFraction,
    FeedbackWeight,
    GaussianLastTickSpec,
    IidWeights,
    StateSpaceCidSpec,
    reinforced_view,
)


class ProcessError(RuntimeError):
    """Runtime failure of a generative step (invalid draw or argument)."""


# ---------------------------------------------------------------------------
# Per-coordinate states and scalar steps
# ---------------------------------------------------------------------------

def mixture_moment(w0, base_moment, power_sum, total_weight):
    """Raw moment (w0 * nu_r + S_r) / total of the predictive mixture, where
    nu_r is the base measure's r-th raw moment and S_r = sum_k W_k x_k^r.

    Scalars and arrays alike. The scalar state, the batch kernel and
    `Ensemble.terminal_moments` all call it, so they agree bit for bit."""
    return (w0 * base_moment + power_sum) / total_weight


def mixture_mean_var(w0, base_m1, base_m2, s1, s2, total_weight):
    """Mean and variance of the predictive mixture from the power sums
    S_1, S_2 and the total weight; scalars and arrays alike."""
    mean = mixture_moment(w0, base_m1, s1, total_weight)
    # mean * mean, as numpy squares arrays; float ** 2 calls pow(), which
    # is not always correctly rounded
    return mean, mixture_moment(w0, base_m2, s2, total_weight) - mean * mean


def searchsorted_rows(a, v) -> np.ndarray:
    """np.searchsorted(a[r], v[r], side="right") for each row r of `a`."""
    return np.array([np.searchsorted(ar, vr, side="right")
                     for ar, vr in zip(a, v)]).reshape(v.shape)


def mixture_cdf(w0, base, values, weights, total, x):
    """CDF at x[r] of the mixture (w0 * base + sum_k W_k delta_{x_k}) / total[r]
    of the atoms in row r of `values` and `weights`, for (R, g) points x.
    Each row's atoms are sorted stably, so the scalar state's `cdf` (one
    row) and a batch of paths agree bit for bit."""
    order = np.argsort(values, axis=1, kind="stable")
    cum = np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1)
    at = searchsorted_rows(np.take_along_axis(values, order, axis=1), x)
    atom_mass = np.take_along_axis(np.pad(cum, ((0, 0), (1, 0))), at, axis=1)
    return (w0 * base.cdf(x) + atom_mass) / np.asarray(total)[:, None]


@dataclass
class ReinforcedCoordState:
    """One reinforced coordinate and its predictive mixture
    (w0 * base + sum_k W_k delta_{x_k}) / total_weight.

    The atom list holds (value, weight) pairs in arrival order; a predictive
    draw is a binary search of their cumulative weights. The steps append
    no zero-weight atom; one would not affect the mixture.
    """

    w0: float
    base: object
    atom_values: list = dc_field(default_factory=list)
    atom_weights: list = dc_field(default_factory=list)
    total_weight: float = 0.0
    # running sums of W * x and W * x^2, for exact mixture moments
    power_sums: list = dc_field(default_factory=lambda: [0.0, 0.0])

    def __post_init__(self):
        if self.total_weight == 0.0:
            self.total_weight = self.w0

    def append_atom(self, value: float, weight: float) -> None:
        if weight < 0 or not math.isfinite(weight):
            raise ProcessError(f"atom weight must be non-negative and finite, got {weight}")
        self.atom_values.append(value)
        self.atom_weights.append(weight)
        self.total_weight = self.total_weight + weight
        self.power_sums[0] += weight * value
        self.power_sums[1] += weight * (value * value)

    def _mean_var(self) -> tuple[float, float]:
        if not self.atom_values:
            # the prior is the base measure; (w0 * m_r + 0) / w0 need not
            # round back to m_r
            m1 = self.base.raw_moment(1)
            return m1, self.base.raw_moment(2) - m1 * m1
        return mixture_mean_var(self.w0, self.base.raw_moment(1), self.base.raw_moment(2),
                                *self.power_sums, self.total_weight)

    def predictive_mean(self) -> float:
        return self._mean_var()[0]

    def predictive_var(self) -> float:
        return self._mean_var()[1]

    def component_probabilities(self) -> np.ndarray:
        """Probability of the base component followed by each atom."""
        return np.concatenate(([self.w0], self.atom_weights)) / self.total_weight

    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return mixture_cdf(self.w0, self.base, np.array([self.atom_values], float),
                           np.array([self.atom_weights], float), [self.total_weight],
                           x.reshape(1, -1))[0].reshape(x.shape)

    def recomputed_total(self) -> float:
        return self.w0 + math.fsum(self.atom_weights)

    def sample(self, rng) -> float:
        """Predictive draw by the single-uniform composition scheme."""
        s = rng.random() * self.total_weight
        if s < self.w0:
            return float(self.base.ppf(s / self.w0))
        k = int(np.searchsorted(np.cumsum(self.atom_weights), s - self.w0, side="right"))
        return self.atom_values[min(k, len(self.atom_values) - 1)]


def init_reinforced_states(spec) -> list[ReinforcedCoordState]:
    rspec = reinforced_view(spec)
    return [ReinforcedCoordState(w, b) for w, b in zip(rspec.w0, rspec.base)]


def reinforced_step(states, rule, n: int, streams):
    """Advance every coordinate of a reinforced system by one observation.

    Coordinates draw from their current predictives (conditionally
    independent), then the step weights are drawn from the coupling rule,
    independently of the new observations (except under FeedbackWeight,
    the negative control), and the atoms are appended. Returns the vector
    of observations.
    """
    if n < 1:
        raise ProcessError(f"step index must be >= 1, got {n}")
    if isinstance(rule, CrossFraction):
        return uniform_coupled_step(states, rule.beta.value(n), n, streams)
    k = len(states)
    x = np.array([st.sample(streams.coord(i)) for i, st in enumerate(states)])
    if isinstance(rule, FeedbackWeight):
        weights = [float(rule.scale * xi + rule.shift) for xi in x]
    elif isinstance(rule, CommonWeight):
        if rule.dist.consumes_uniform:
            w_common = float(rule.dist.from_uniform(streams.weights.random()))
        else:
            w_common = rule.dist.value
        weights = [w_common] * k
    elif isinstance(rule, IidWeights):
        weights = []
        for _ in range(k):
            if rule.dist.consumes_uniform:
                weights.append(float(rule.dist.from_uniform(streams.weights.random())))
            else:
                weights.append(rule.dist.value)
    else:
        raise ProcessError(f"unsupported coupling rule {type(rule).__name__}")
    for w in weights:
        if not (w > 0):
            raise ProcessError(f"coupling rule drew a non-positive weight: {w}")
    for i, st in enumerate(states):
        st.append_atom(float(x[i]), weights[i])
    return x


def uniform_coupled_step(states, beta_n: float, n: int, streams):
    """One step of the two-coordinate cross-reinforced uniform system.

    Each coordinate draws from its predictive; the reinforcement fraction of
    coordinate i is A = beta_n * x_j for the other coordinate j, realized as
    an appended atom of weight total * A / (1 - A). A == 0 appends nothing.
    """
    if len(states) != 2:
        raise ProcessError(f"uniform-coupled step needs exactly 2 coordinates, got {len(states)}")
    if not (0.0 < beta_n <= 1.0):
        raise ProcessError(f"beta_n must lie in (0, 1], got {beta_n}")
    x = np.array([st.sample(streams.coord(i)) for i, st in enumerate(states)])
    for i, st in enumerate(states):
        a = beta_n * x[1 - i]
        if a >= 1.0:
            raise ProcessError("degenerate reinforcement: fraction A reached 1")
        if a == 0.0:
            continue
        st.append_atom(float(x[i]), st.total_weight * a / (1.0 - a))
    return x


@dataclass
class GaussianCoordState:
    """Predictive state of one coordinate of the last-tick Gaussian system."""

    mu: float
    sigma2: float
    T: float        # current arrival time T_n
    t_prev: float   # last inter-arrival consumed


def gaussian_last_tick_step(states, t_n: float, streams):
    """Draw the synchronous observations, then shift the predictive means
    toward them by lambda = t_n / (T_n + t_n) and shrink the variances by
    1 - lambda^2."""
    if not (t_n > 0):
        raise ProcessError(f"inter-arrival time must be positive, got {t_n}")
    x = np.array([st.mu + math.sqrt(st.sigma2) * streams.coord(i).standard_normal()
                  for i, st in enumerate(states)])
    for i, st in enumerate(states):
        t_next = st.T + t_n
        lam = t_n / t_next
        st.mu = (1.0 - lam) * st.mu + lam * x[i]
        st.sigma2 = (1.0 - lam * lam) * st.sigma2
        st.T = t_next
        st.t_prev = t_n
    return x


def poisson_arrivals(rate: float, horizon: int, rng) -> np.ndarray:
    """Arrival times T_1 < ... < T_horizon of a Poisson process."""
    if not (rate > 0):
        raise ProcessError(f"rate must be positive, got {rate}")
    gaps = rng.standard_exponential(horizon) / rate
    arrivals = np.cumsum(gaps)
    if np.any(np.diff(arrivals) <= 0) or arrivals[0] <= 0:
        raise ProcessError("arrival times must be strictly increasing")
    return arrivals


@dataclass
class StateSpaceCidState:
    """Latent level of the damped-random-walk model."""

    theta: float
    step: int = 0


def state_space_cid_step(state: StateSpaceCidState, n: int, spec: StateSpaceCidSpec, rng):
    """theta_n = theta_{n-1} + N(0, b_n - b_{n-1}); x_n = theta_n + N(0, c - b_n)."""
    b_prev, b_n = spec.b(n - 1), spec.b(n)
    v = rng.standard_normal()
    theta = state.theta + math.sqrt(b_n - b_prev) * v
    eps = rng.standard_normal()
    x = theta + math.sqrt(spec.c - b_n) * eps
    state.theta = theta
    state.step = n
    return x, state


# ---------------------------------------------------------------------------
# Batch kernels (vectorized across a chunk of paths)
# ---------------------------------------------------------------------------

def _row_first_greater(C: np.ndarray, n: int, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row r: smallest k < n with C[r, k] > q[r] (n if none). C rows must
    be nondecreasing over their first n entries and have more than n."""
    lo = np.zeros(len(q), dtype=np.int64)
    hi = np.full(len(q), n, dtype=np.int64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        greater = C[rows, mid] > q
        hi = np.where(active & greater, mid, hi)
        lo = np.where(active & ~greater, mid + 1, lo)
        active = lo < hi
    return lo


# The series a kernel can record: name -> (first step, last step - H,
# whether it has a coordinate axis). One value per path and step (and
# coordinate); the predictive series start with the prior at step 0.
SERIES = {
    "observations": (1, 0, True),
    "weights": (1, 0, True),            # reinforcement weights W_n
    "predictive_mean": (0, 0, True),
    "predictive_var": (0, 0, True),
    "arrivals": (1, 1, False),          # arrival times T_1 .. T_{H+1}
    "lambdas": (1, 0, False),           # fractions t_n / T_{n+1}
    "theta": (1, 0, False),             # the state-space model's latent level
}


def series_shape(name: str, n_paths: int, horizon: int, k: int) -> tuple:
    first, past, per_coord = SERIES[name]
    return (n_paths, horizon + past - first + 1) + ((k,) if per_coord else ())


def series_buffers(names, n_paths: int, horizon: int, k: int, **priors) -> dict:
    """Empty arrays for the series `names`, shaped by SERIES, each prior
    given as a keyword written at step 0; the kernel fills the rest."""
    out = {name: np.empty(series_shape(name, n_paths, horizon, k)) for name in names}
    for name, prior in priors.items():
        if name in out:
            out[name][:, 0] = prior
    return out


def reinforced_weight_shape(rspec, horizon: int) -> tuple | None:
    """Shape of one path's weight uniforms (substream 0) for a reinforced
    view, or None when its coupling draws none. Each coordinate consumes
    `horizon` uniforms of its own substream besides."""
    coupling = rspec.coupling
    if isinstance(coupling, CommonWeight) and coupling.dist.consumes_uniform:
        return (horizon,)
    if isinstance(coupling, IidWeights) and coupling.dist.consumes_uniform:
        return (horizon, rspec.n_coords)
    return None


# Path-steps per row block of the genealogy-order kernel: each of its
# working buffers holds at most 256 KiB, whatever the chunk size (or one
# path row, if that is longer), so a block's ~20 buffers take ~5 MB where
# blocks of 2^17 steps took ~20 MB. `statistics.clt_path_summaries` blocks
# its rows by the same count of values.
GENEALOGY_BLOCK_STEPS = 1 << 15
# Path-steps per chunk of the genealogy-order kernel: 8 row blocks. It
# works a chunk one row block at a time, so longer chunks gain no speed and
# only hold more draws and series; the chunk budget still caps them from
# above. With both constants, `clt_long` (2000 x 2000) peaked at 73.8 MB
# against 125.4 MB with 2^17-step blocks and budget-sized chunks (medians
# of 10 benchmark runs each), and ran no slower at one thread or two
# (BENCH_genealogy_chunks.json).
GENEALOGY_CHUNK_STEPS = 1 << 18
# Below this horizon the kernel finds every step's atom by one flattened
# bisection (`_row_first_greater`), at and above it by one `np.searchsorted`
# per path row over that row's queries sorted by `np.argsort`: the crossover
# measured in BENCH_short_rows.json and again in BENCH_long_rows.json.
GENEALOGY_FLAT_SEARCH_BELOW = 32
# Steps per tile of the Gaussian kernel, and paths per block of the copy
# that lays a tile out step-major. Per 2222-path chunk over 1000 steps,
# reading each step's normals from per-path rows took 36 ms against 2-6 ms
# from contiguous rows; one transposed copy of all the normals took 30-35
# ms, and the copy in blocks of 64 steps x 512 paths 13-15 ms. Tiles of
# 16-256 steps with blocks of 128-512 paths ran the kernel within 11% of
# the fastest pair, blocks of 1024 paths or more 14-46% slower than it
# (BENCH_gaussian_tiles.json).
GAUSSIAN_TILE_STEPS = 64
GAUSSIAN_TILE_PATHS = 512


def base_moments(rspec) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([b.raw_moment(1) for b in rspec.base]),
            np.array([b.raw_moment(2) for b in rspec.base]))


def total_weights(w0, w: np.ndarray) -> np.ndarray:
    """(P, H+1, ...) totals w0, w0 + W_1, (w0 + W_1) + W_2, ... of the
    weights w (P, H, ...). np.cumsum adds left to right, in step order."""
    return np.cumsum(np.concatenate([np.broadcast_to(w0, w[:, :1].shape), w], axis=1),
                     axis=1)


def predictive_series(w0, base_m1, base_m2, x: np.ndarray, w: np.ndarray,
                      tot: np.ndarray, with_var: bool = True) -> tuple:
    """Power sums S_1 = cumsum(W x) and S_2 = cumsum(W x^2), (P, H, ...), and
    the predictive mean and (if `with_var`, else None) variance series,
    (P, H+1, ...) prior first, of reinforced paths with observations x,
    weights w and totals tot = total_weights(w0, w). The sums run in step
    order, so each entry equals a running sum updated once per step, bit
    for bit."""
    s1 = np.cumsum(w * x, axis=1)
    s2 = np.cumsum(w * (x * x), axis=1)
    shape = (x.shape[0], x.shape[1] + 1) + x.shape[2:]
    mean = np.empty(shape)
    mean[:, 0] = base_m1
    if not with_var:
        mean[:, 1:] = mixture_moment(w0, base_m1, s1, tot[:, 1:])
        return s1, s2, mean, None
    var = np.empty(shape)
    var[:, 0] = base_m2 - base_m1 * base_m1
    mean[:, 1:], var[:, 1:] = mixture_mean_var(w0, base_m1, base_m2, s1, s2, tot[:, 1:])
    return s1, s2, mean, var


def _forest_roots(parent: np.ndarray) -> np.ndarray:
    """Root of every node of a forest given by parent indices (a root is its
    own parent), by pointer doubling."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _genealogy_values(base, w0: float, u: np.ndarray, cumw: np.ndarray,
                      tot: np.ndarray) -> np.ndarray:
    """Observations (b, H) of one coordinate of a row block, from its
    uniforms u (b, H), the cumulative weights cumw = np.cumsum(w, axis=1)
    of its weights w (b, H) and the totals tot = total_weights(w0, w)."""
    b, horizon = u.shape
    s = u * tot[:, :-1]
    from_base = s < w0
    from_base[:, 0] = True
    base_vals = base.ppf(np.where(from_base, s / w0, 0.5))
    q = s - w0
    if horizon < GENEALOGY_FLAT_SEARCH_BELOW:
        # one bisection over every (row, step) query at once, over the
        # first H - 1 cumulative weights: the cap below takes every atom
        # to at most H - 2
        atom = _row_first_greater(cumw, horizon - 1, q.ravel(),
                                  np.repeat(np.arange(b), horizon)).reshape(b, horizon)
    else:
        # one search per row over its queries in ascending order: the index
        # found for a query does not depend on the order of the keys, and
        # numpy's search keeps the previous key's bracket when keys ascend
        atom = np.empty((b, horizon), dtype=np.int64)
        for r in range(b):
            order = np.argsort(q[r])
            atom[r, order] = np.searchsorted(cumw[r], q[r, order], side="right")
    steps = np.arange(horizon)
    # parents as flat indices into the block's (b, H) arrays
    parent = (np.where(from_base, steps, np.minimum(atom, steps - 1))
              + horizon * np.arange(b)[:, None])
    return base_vals.ravel()[_forest_roots(parent.ravel())].reshape(b, horizon)


def _genealogy_block_rows(horizon: int) -> int:
    return max(1, GENEALOGY_BLOCK_STEPS // (horizon + 1))


def _runs_in_genealogy_order(rspec) -> bool:
    """Whether a reinforced view's weights ignore its observations, so that
    `simulate_reinforced_chunk` runs it in genealogy order."""
    return isinstance(rspec.coupling, (CommonWeight, IidWeights))


def genealogy_chunk_paths(spec, horizon: int) -> int | None:
    """Most paths per chunk of a reinforced kind that runs in genealogy
    order: GENEALOGY_CHUNK_STEPS path-steps, or one path if a row is
    longer; None for couplings that step, whose kernel makes one numpy call
    per step over all of a chunk's paths and so wants large chunks."""
    if not _runs_in_genealogy_order(reinforced_view(spec)):
        return None
    return max(1, GENEALOGY_CHUNK_STEPS // (horizon + 1))


def genealogy_block_bytes(spec, horizon: int, n_paths: int) -> int:
    """Upper estimate of the bytes `_genealogy_chunk` holds for one row
    block of a chunk of n_paths paths of a reinforced kind, besides its
    inputs and outputs; 0 for couplings that step. A block of b rows peaks
    at under 20 (b, H+1) float arrays, plus under two (b, H, K) ones per
    coordinate under i.i.d. weights (traced with tracemalloc for K up to
    10); b is at most n_paths and at most the block's rows."""
    rspec = reinforced_view(spec)
    if not _runs_in_genealogy_order(rspec):
        return 0
    n_buffers = 20
    if isinstance(rspec.coupling, IidWeights):
        n_buffers += 2 * rspec.n_coords
    return 8 * n_buffers * min(n_paths, _genealogy_block_rows(horizon)) * (horizon + 1)


def _genealogy_chunk(rspec, horizon: int, coord_u: np.ndarray, weight_u,
                     record: frozenset) -> dict:
    """`simulate_reinforced_chunk` for weights drawn independently of the
    observations (common and i.i.d. weights), in row blocks.

    The weights come first, so the total weight before every step is known
    before any draw. With s = u * total, step n is a base draw when s < w0
    (always at n = 1), else a copy of the first atom whose cumulative weight
    exceeds s - w0. Every copy chain ends at a base draw, and each step on
    it takes that draw's value: the urn scheme of Blackwell and MacQueen
    (1973). Same draws, same arithmetic and the same bits as the step loop.
    """
    k = rspec.n_coords
    n_paths = coord_u.shape[0]
    w0 = np.asarray(rspec.w0, dtype=float)
    m1, m2 = base_moments(rspec)
    dist = rspec.coupling.dist
    out = series_buffers(record, n_paths, horizon, k)
    out.update(total_weight=np.empty((n_paths, k)),
               weighted_power_sums=np.empty((n_paths, k, 2)))

    # weights without a coordinate axis (common or constant ones) are one
    # row for every coordinate: the coordinates share its cumulative weights,
    # and those with equal w0 its totals, each computed once per block
    shared = weight_u is None or weight_u.ndim == 2
    groups = ([[i for i in range(k) if w0[i] == v] for v in dict.fromkeys(w0.tolist())]
              if shared else [[i] for i in range(k)])
    block = _genealogy_block_rows(horizon)
    for lo in range(0, n_paths, block):
        blk = slice(lo, min(lo + block, n_paths))
        b = blk.stop - lo
        w = (dist.from_uniform(weight_u[blk]) if dist.consumes_uniform
             else np.full((b, horizon), dist.value))
        w = np.broadcast_to(w.reshape(b, horizon, -1), (b, horizon, k))
        if "weights" in out:
            out["weights"][blk] = w
        for j, group in enumerate(groups):
            wi = w[:, :, group[0]]
            if j == 0 or not shared:
                cumw = np.cumsum(wi, axis=1)
            tot = total_weights(w0[group[0]], wi)
            for i in group:
                x = _genealogy_values(rspec.base[i], w0[i], coord_u[blk, :, i], cumw, tot)
                s1, s2, mean, var = predictive_series(w0[i], m1[i], m2[i], x, wi, tot,
                                                      with_var="predictive_var" in out)
                out["total_weight"][blk, i] = tot[:, -1]
                out["weighted_power_sums"][blk, i, 0] = s1[:, -1]
                out["weighted_power_sums"][blk, i, 1] = s2[:, -1]
                for name, values in (("observations", x), ("predictive_mean", mean),
                                     ("predictive_var", var)):
                    if name in out:
                        out[name][blk, :, i] = values
    return out


def simulate_reinforced_chunk(spec, horizon: int, coord_u: np.ndarray,
                              weight_u, record: frozenset) -> dict:
    """Run a chunk of paths of any reinforced-family spec.

    coord_u: (P, H, K) uniforms, one per observation (selection and base
    draw share the uniform via the composition scheme). weight_u: None,
    (P, H) for common weights, or (P, H, K) for i.i.d. weights.

    Common and i.i.d. weights ignore the observations, so those couplings
    run in genealogy order (`_genealogy_chunk`). Cross-fraction and
    feedback weights depend on each step's draws, so they step: each step
    finds its atoms by a batched binary search over the cumulative weights.
    """
    rspec = reinforced_view(spec)
    coupling = rspec.coupling
    if _runs_in_genealogy_order(rspec):
        return _genealogy_chunk(rspec, horizon, coord_u, weight_u, record)
    k = rspec.n_coords
    w0 = np.asarray(rspec.w0, dtype=float)
    bases = rspec.base
    n_paths = coord_u.shape[0]
    rows = np.arange(n_paths)

    base_m1, base_m2 = base_moments(rspec)
    # the observations are the kernel's own buffer, recorded or not
    out = series_buffers(record | {"observations"}, n_paths, horizon, k,
                         predictive_mean=base_m1, predictive_var=base_m2 - base_m1 ** 2)
    obs = out["observations"]
    weights_out = out.get("weights")
    mean_out, var_out = out.get("predictive_mean"), out.get("predictive_var")
    cumw = np.zeros((n_paths, horizon, k))
    tot = np.broadcast_to(w0, (n_paths, k)).copy()
    psums = np.zeros((n_paths, k, 2))

    x_step = np.empty((n_paths, k))
    for n in range(1, horizon + 1):
        for i in range(k):
            s = coord_u[:, n - 1, i] * tot[:, i]
            if n == 1:
                x_step[:, i] = bases[i].ppf(s / w0[i])
                continue
            from_base = s < w0[i]
            q = np.where(from_base, s / w0[i], 0.5)
            base_vals = bases[i].ppf(q)
            idx = _row_first_greater(cumw[:, :, i], n - 1,
                                     np.where(from_base, -1.0, s - w0[i]), rows)
            atom_vals = obs[rows, np.minimum(idx, n - 2), i]
            x_step[:, i] = np.where(from_base, base_vals, atom_vals)
        obs[:, n - 1, :] = x_step

        if isinstance(coupling, FeedbackWeight):
            w_step = coupling.scale * x_step + coupling.shift
        else:
            a = coupling.beta.value(n) * x_step[:, ::-1]
            if np.any(a >= 1.0):
                raise ProcessError("degenerate reinforcement: fraction A reached 1")
            with np.errstate(over="ignore"):    # refused below, with the kernel's own error
                w_step = tot * a / (1.0 - a)
        if not np.isfinite(w_step).all():   # as append_atom does; no step: it depends on the plan
            raise ProcessError(f"atom weight must be non-negative and finite, got "
                               f"{w_step[~np.isfinite(w_step)][0]}")

        if weights_out is not None:
            weights_out[:, n - 1, :] = w_step
        prev = cumw[:, n - 2, :] if n >= 2 else 0.0
        cumw[:, n - 1, :] = prev + w_step
        tot = tot + w_step
        psums[:, :, 0] += w_step * x_step
        psums[:, :, 1] += w_step * (x_step * x_step)
        if mean_out is not None or var_out is not None:
            mu_n, var_n = mixture_mean_var(w0, base_m1, base_m2,
                                           psums[:, :, 0], psums[:, :, 1], tot)
        if mean_out is not None:
            mean_out[:, n, :] = mu_n
        if var_out is not None:
            var_out[:, n, :] = var_n

    if "observations" not in record:
        del out["observations"]
    out.update(total_weight=tot, weighted_power_sums=psums)
    return out


def simulate_gaussian_chunk(spec: GaussianLastTickSpec, horizon: int, exp_draws: np.ndarray,
                            z: np.ndarray, record: frozenset) -> dict:
    """Run a chunk of the last-tick Gaussian system.

    exp_draws: (P, H+1) standard exponentials (inter-arrivals before rate
    scaling; the first is replaced when the spec fixes t0). z: (P, H, K)
    standard normals; `_chunk_draws` passes a view of (P, K, H) rows. The
    kernel owns exp_draws and divides them by the rate in place.

    The state is coordinate-major: mu and sigma^2 are (K, P), and each step
    updates them in place, one loop over the paths per coordinate and
    operation, in the scalar step's operation order, so with the scalar
    step's bits.

    The steps run in tiles of GAUSSIAN_TILE_STEPS. Before each tile, its
    normals and gaps are copied step-major into (T, K, P) and (T, P)
    buffers, in blocks of GAUSSIAN_TILE_PATHS paths, so that every step
    reads contiguous rows rather than one value from each per-path row. A
    (T+1, P) buffer then takes the tile's arrivals: row 0 carries T_{lo+1}
    from the tile before, the tile's gaps go below it, and one np.cumsum
    down the rows adds them left to right, as a cumsum along each path
    would. The gaps are then divided by these arrivals in place, into the
    fractions lambda_n = t_n / T_{n+1}. Recorded arrivals and lambdas are
    copied out of these buffers tile by tile.
    """
    n_paths = exp_draws.shape[0]
    k = spec.n_coords
    tile = min(horizon, GAUSSIAN_TILE_STEPS)
    gaps = np.divide(exp_draws, spec.rate, out=exp_draws)
    if spec.t0 is not None:
        gaps[:, 0] = spec.t0

    mu = np.repeat(np.asarray(spec.mu1, dtype=float)[:, None], n_paths, axis=1)
    s2 = np.repeat(np.asarray(spec.sigma2_1, dtype=float)[:, None], n_paths, axis=1)
    gamma_hat = np.ones(n_paths)
    x = np.empty((k, n_paths))
    shrink = np.empty(n_paths)  # 1 - lambda, then 1 - lambda^2

    out = series_buffers(record, n_paths, horizon, k, predictive_mean=spec.mu1,
                         predictive_var=spec.sigma2_1, arrivals=gaps[:, 0])
    obs, arr_out, lam_out = out.get("observations"), out.get("arrivals"), out.get("lambdas")
    mean_out, var_out = out.get("predictive_mean"), out.get("predictive_var")

    z_tile = np.empty((tile, k, n_paths))
    lam_tile = np.empty((tile, n_paths))
    arr_tile = np.empty((tile + 1, n_paths))
    arr_tile[0] = gaps[:, 0]            # T_1
    for lo in range(0, horizon, tile):
        t = min(tile, horizon - lo)
        for p in range(0, n_paths, GAUSSIAN_TILE_PATHS):
            q = min(p + GAUSSIAN_TILE_PATHS, n_paths)
            np.copyto(z_tile[:t, :, p:q], z[p:q, lo:lo + t, :].transpose(1, 2, 0))
            np.copyto(lam_tile[:t, p:q], gaps[p:q, lo + 1:lo + t + 1].T)
        # row 0 holds T_{lo+1}: the sums go on to T_{lo+2} .. T_{lo+t+1}
        arr_tile[1:t + 1] = lam_tile[:t]
        np.cumsum(arr_tile[:t + 1], axis=0, out=arr_tile[:t + 1])
        np.divide(lam_tile[:t], arr_tile[1:t + 1], out=lam_tile[:t])
        if arr_out is not None:
            arr_out[:, lo + 1:lo + t + 1] = arr_tile[1:t + 1].T
        if lam_out is not None:
            lam_out[:, lo:lo + t] = lam_tile[:t].T
        arr_tile[0] = arr_tile[t]
        for j in range(t):
            n = lo + j + 1
            lam = lam_tile[j]
            np.sqrt(s2, out=x)
            np.multiply(x, z_tile[j], out=x)
            np.add(mu, x, out=x)                   # x = mu + sqrt(s2) * z
            if obs is not None:
                obs[:, n - 1, :] = x.T
            np.subtract(1.0, lam, out=shrink)
            np.multiply(shrink, mu, out=mu)
            np.multiply(lam, x, out=x)
            np.add(mu, x, out=mu)                  # mu = (1 - lam) * mu + lam * x
            np.square(lam, out=shrink)
            np.subtract(1.0, shrink, out=shrink)
            np.multiply(shrink, s2, out=s2)        # s2 = (1 - lam^2) * s2
            np.multiply(gamma_hat, shrink, out=gamma_hat)
            if mean_out is not None:
                mean_out[:, n, :] = mu.T
            if var_out is not None:
                var_out[:, n, :] = s2.T

    # free the step and tile buffers before the terminal copies
    del x, shrink, lam, z_tile, lam_tile, arr_tile
    out.update(gamma_hat=gamma_hat, terminal_mu=np.ascontiguousarray(mu.T),
               terminal_sigma2=np.ascontiguousarray(s2.T))
    return out


def simulate_state_space_chunk(spec: StateSpaceCidSpec, horizon: int,
                               z: np.ndarray, record: frozenset) -> dict:
    """Run a chunk of the damped-random-walk model. z: (P, H, 2) standard
    normals, (state increment, observation noise) per step. Predictive
    summaries are the exact Gaussian filter of the observations."""
    n_paths = z.shape[0]
    theta = np.full(n_paths, spec.theta0)
    m = np.full(n_paths, spec.theta0)     # posterior mean of theta_n given X_{1:n}
    p_var = np.zeros(n_paths)             # posterior variance
    out = series_buffers(record, n_paths, horizon, 1,
                         predictive_mean=spec.theta0, predictive_var=spec.c)
    obs, theta_out = out.get("observations"), out.get("theta")
    mean_out, var_out = out.get("predictive_mean"), out.get("predictive_var")

    for n in range(1, horizon + 1):
        b_prev, b_n = spec.b(n - 1), spec.b(n)
        theta = theta + math.sqrt(b_n - b_prev) * z[:, n - 1, 0]
        x = theta + math.sqrt(spec.c - b_n) * z[:, n - 1, 1]
        if obs is not None:
            obs[:, n - 1, 0] = x
        if theta_out is not None:
            theta_out[:, n - 1] = theta
        # exact filter update for the predictive of the next observation
        prior_var = p_var + (b_n - b_prev)
        obs_var = spec.c - b_n
        gain = prior_var / (prior_var + obs_var)
        m = m + gain * (x - m)
        p_var = (1.0 - gain) * prior_var
        if mean_out is not None:
            mean_out[:, n, 0] = m
        if var_out is not None:
            # predictive Var(X_{n+1} | X_{1:n}) = P_n + (b_{n+1}-b_n) + (c-b_{n+1})
            var_out[:, n, 0] = p_var + (spec.c - b_n)
    return out


def simulate_ar1_chunk(spec: Ar1DriftSpec, horizon: int, z: np.ndarray,
                       record: frozenset) -> dict:
    """Run a chunk of the AR(1)-with-drift control. z: (P, H) normals."""
    n_paths = z.shape[0]
    out = series_buffers(record, n_paths, horizon, 1,
                         predictive_mean=spec.init_mean, predictive_var=spec.init_var)
    obs = out.get("observations")
    mean_out, var_out = out.get("predictive_mean"), out.get("predictive_var")
    x = spec.init_mean + math.sqrt(spec.init_var) * z[:, 0]
    for n in range(1, horizon + 1):
        if n > 1:
            x = spec.drift + spec.phi * x + math.sqrt(spec.noise_var) * z[:, n - 1]
        if obs is not None:
            obs[:, n - 1, 0] = x
        if mean_out is not None:
            mean_out[:, n, 0] = spec.drift + spec.phi * x
        if var_out is not None:
            var_out[:, n, 0] = spec.noise_var
    return out
