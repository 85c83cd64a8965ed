"""Deterministic, reproducible ensemble execution.

Random streams are addressed by the triple (master_seed, path_index,
substream_index) and realized as keyed Philox counter-based generators, so
a path's randomness is a pure function of its address. Ensembles are
therefore identical for any chunking of the path range and any number of
worker threads; workers write to disjoint slices of the output arrays.

Chunk plan: `map_path_chunks` splits the paths into balanced contiguous
ranges, a multiple of the worker count of them, each small enough that one
chunk per worker fits in CHUNK_BUDGET_BYTES together. So the chunk data in
flight (draws, recorded series and kernel buffers) stays near that one
budget whatever `threads` is; a reducer that keeps every path's series,
as `run_ensemble` does, holds the whole ensemble besides.

Substream convention per path: substream 0 carries shared randomness
(reinforcement weights, arrival times), substream 1 + i carries the draws
of coordinate i.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import processes
from .specs import (
    Ar1DriftSpec,
    GaussianLastTickSpec,
    SpecValidationError,
    StateSpaceCidSpec,
    reinforced_view,
)

_SUB_BITS = 16
_PATH_BITS = 48
MAX_SUBSTREAMS = 1 << _SUB_BITS
MAX_PATHS = 1 << _PATH_BITS

CHUNK_BUDGET_BYTES = 128 * 1024 * 1024


class MissingSeriesError(KeyError):
    """A computation asked for a series the ensemble did not record."""


def _check_stream_address(master_seed: int, path_index: int, substream_index: int) -> None:
    if not (0 <= master_seed < (1 << 64)):
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    if not (0 <= path_index < MAX_PATHS):
        raise ValueError(f"path_index must lie in [0, 2^{_PATH_BITS}), got {path_index}")
    if not (0 <= substream_index < MAX_SUBSTREAMS):
        raise ValueError(f"substream_index must lie in [0, 2^{_SUB_BITS}), got {substream_index}")


def _philox_key(master_seed: int, path_index: int, substream_index: int) -> int:
    return (master_seed << 64) | (path_index << _SUB_BITS) | substream_index


@dataclass(frozen=True)
class RngStream:
    """Address of one deterministic random stream."""

    master_seed: int
    path_index: int
    substream_index: int

    def generator(self) -> np.random.Generator:
        key = _philox_key(self.master_seed, self.path_index, self.substream_index)
        return np.random.Generator(np.random.Philox(key=key))


def derive_stream(master_seed: int, path_index: int, substream_index: int) -> RngStream:
    """Stateless derivation of the stream addressed by the given triple."""
    _check_stream_address(master_seed, path_index, substream_index)
    return RngStream(master_seed, path_index, substream_index)


class PathStreams:
    """The per-path generator bundle used by the scalar process steps."""

    def __init__(self, master_seed: int, path_index: int, n_coords: int):
        self.weights = derive_stream(master_seed, path_index, 0).generator()
        self._coords = [derive_stream(master_seed, path_index, 1 + i).generator()
                        for i in range(n_coords)]

    def coord(self, i: int) -> np.random.Generator:
        return self._coords[i]


class _StreamFiller:
    """Reuses one Philox generator, re-keyed per (path, substream), to fill
    per-path random blocks without per-path object construction."""

    def __init__(self, master_seed: int):
        _check_stream_address(master_seed, 0, 0)
        self._bg = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bg)
        # the state of a fresh stream, built once: the state setter copies
        # the values out, so each re-key writes only the key word it changes
        self._state = self._bg.state
        self._state["state"]["key"] = self._key = np.array([0, master_seed], dtype=np.uint64)
        self._state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def rekey(self, path_index: int, substream_index: int) -> np.random.Generator:
        self._key[0] = (path_index << _SUB_BITS) | substream_index
        self._bg.state = self._state
        return self.generator


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass
class Ensemble:
    """Recorded output of `run_ensemble`: per-path series plus cheap per-path
    terminal summaries (always present where the kind defines them).

    Series shapes, with P paths, H steps and K coordinates:

    * observations, weights: (P, H, K);
    * predictive_mean, predictive_var: (P, H+1, K), the prior first;
    * arrivals: (P, H+1) arrival times;
    * lambdas: (P, H) interpolation fractions t_n / T_{n+1};
    * theta: (P, H) latent level of the state-space model.
    """

    spec: object
    n_paths: int
    horizon: int
    master_seed: int
    record: frozenset
    arrays: dict = field(default_factory=dict)

    def _series(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise MissingSeriesError(
                f"series {name!r} was not recorded; recorded: {sorted(self.arrays)}")
        return self.arrays[name]

    @property
    def observations(self) -> np.ndarray:
        return self._series("observations")

    @property
    def predictive_mean(self) -> np.ndarray:
        return self._series("predictive_mean")

    @property
    def predictive_var(self) -> np.ndarray:
        return self._series("predictive_var")

    @property
    def weights(self) -> np.ndarray:
        return self._series("weights")

    @property
    def arrivals(self) -> np.ndarray:
        return self._series("arrivals")

    @property
    def lambdas(self) -> np.ndarray:
        return self._series("lambdas")

    @property
    def gamma_hat(self) -> np.ndarray:
        return self._series("gamma_hat")

    @property
    def theta(self) -> np.ndarray:
        return self._series("theta")

    @property
    def n_coords(self) -> int:
        return self.spec.n_coords

    def terminal_moments(self) -> np.ndarray:
        """(paths, coords, 3) raw moments m_0..m_2 of the terminal predictive
        mixture of each reinforced coordinate."""
        if "weighted_power_sums" not in self.arrays:
            raise MissingSeriesError("terminal mixture moments exist only for reinforced kinds")
        psums = self.arrays["weighted_power_sums"]
        tot = self.arrays["total_weight"]
        rspec = reinforced_view(self.spec)
        base_m = np.array([[b.raw_moment(1), b.raw_moment(2)] for b in rspec.base])
        m = np.ones(psums.shape[:2] + (3,))
        m[:, :, 1:] = processes.mixture_moment(np.asarray(rspec.w0)[:, None], base_m,
                                               psums, tot[:, :, None])
        return m

    def terminal_mean(self) -> np.ndarray:
        """(paths, coords) mean of the terminal predictive distribution: the
        kind's terminal record, else the reinforced mixture moments, else the
        last predictive mean."""
        if "terminal_mu" in self.arrays:
            return self.arrays["terminal_mu"]
        if "weighted_power_sums" in self.arrays:
            return self.terminal_moments()[:, :, 1]
        return self.predictive_mean[:, -1, :]

    def terminal_variance(self) -> np.ndarray:
        """(paths, coords) variance of the terminal predictive distribution,
        found in the same order as `terminal_mean`."""
        if "terminal_sigma2" in self.arrays:
            return self.arrays["terminal_sigma2"]
        if "weighted_power_sums" in self.arrays:
            m = self.terminal_moments()
            return m[:, :, 2] - m[:, :, 1] ** 2
        return self.predictive_var[:, -1, :]

    def terminal_mixture(self, path: int, coord: int) -> processes.ReinforcedCoordState:
        """Terminal predictive mixture of one path/coordinate (requires
        recorded observations and weights). Its total weight and power sums
        are the ensemble's own, so its moments equal `terminal_mean` and
        `terminal_variance` bit for bit; zero-weight atoms are left out."""
        rspec = reinforced_view(self.spec)
        if rspec is None:
            raise MissingSeriesError("terminal mixtures exist only for reinforced kinds")
        x = self.observations[path, :, coord]
        w = self.weights[path, :, coord]
        keep = w > 0
        return processes.ReinforcedCoordState(
            rspec.w0[coord], rspec.base[coord], x[keep].tolist(), w[keep].tolist(),
            np.cumsum(w[keep]).tolist(), float(self.arrays["total_weight"][path, coord]),
            self.arrays["weighted_power_sums"][path, coord].tolist())


def default_record(spec) -> frozenset:
    if reinforced_view(spec) is not None:
        return frozenset({"observations", "predictive_mean", "predictive_var", "weights"})
    if isinstance(spec, GaussianLastTickSpec):
        return frozenset({"observations", "predictive_mean", "predictive_var",
                          "arrivals", "lambdas"})
    if isinstance(spec, StateSpaceCidSpec):
        return frozenset({"observations", "predictive_mean", "predictive_var", "theta"})
    return frozenset({"observations", "predictive_mean", "predictive_var"})


def _series_bytes_per_path(spec, horizon: int, record: frozenset) -> int:
    """Bytes one path holds while its chunk runs: draws, recorded series,
    kernel buffers and terminal summaries (an upper estimate)."""
    k = spec.n_coords
    per = 0
    for name in record:
        if name in ("observations", "weights"):
            per += 8 * horizon * k
        elif name in ("predictive_mean", "predictive_var"):
            per += 8 * (horizon + 1) * k
        elif name in ("arrivals", "lambdas", "theta"):
            per += 8 * (horizon + 1)
    if isinstance(spec, GaussianLastTickSpec):
        # draws: H+1 arrival gaps and H normals per coordinate; the kernel's
        # gaps (overwritten by the lambdas) and arrivals, unless recorded;
        # its step buffers and terminal copies, 2K + 2 besides the summaries
        per += 8 * ((horizon + 1) * (3 - len(record & {"arrivals", "lambdas"}))
                    + horizon * k + 2 * k + 2)
    else:
        # working buffers: random inputs + (for reinforced kinds)
        # cumulative weights
        per += 8 * (horizon + 1) * k * 2
        if reinforced_view(spec) is not None:
            per += 8 * horizon * k * (2 if "observations" not in record else 1)
    # terminal summaries: at most three per coordinate and one per path
    return per + 8 * (3 * k + 1)


def _chunk_bounds(spec, n_paths: int, horizon: int, record: frozenset,
                  n_workers: int) -> list[tuple[int, int]]:
    """Balanced path ranges [lo, hi) covering [0, n_paths) in order: a
    multiple of `n_workers` of them (one per path when there are fewer
    paths), their sizes differing by at most one, and `n_workers` chunks
    together within CHUNK_BUDGET_BYTES unless a chunk is a single path."""
    per = _series_bytes_per_path(spec, horizon, record)
    max_paths = max(1, CHUNK_BUDGET_BYTES // (n_workers * per))
    n_chunks = -(-n_paths // max_paths)
    n_chunks = min(-(-n_chunks // n_workers) * n_workers, n_paths)
    return [(n_paths * j // n_chunks, n_paths * (j + 1) // n_chunks) for j in range(n_chunks)]


def _chunk_draws(spec, horizon: int, master_seed: int, path_lo: int, n_paths: int) -> dict:
    """Pre-generate the chunk's random inputs from per-path substreams."""
    filler = _StreamFiller(master_seed)
    k = spec.n_coords
    rspec = reinforced_view(spec)
    if rspec is not None:
        coord_u = np.empty((n_paths, horizon, k))
        for p in range(n_paths):
            for i in range(k):
                coord_u[p, :, i] = filler.rekey(path_lo + p, 1 + i).random(horizon)
        wshape = processes.reinforced_weight_shape(rspec, horizon)
        weight_u = None
        if wshape is not None:
            weight_u = np.empty((n_paths,) + wshape)
            for p in range(n_paths):
                weight_u[p] = filler.rekey(path_lo + p, 0).random(wshape)
        return {"coord_u": coord_u, "weight_u": weight_u}
    if isinstance(spec, GaussianLastTickSpec):
        # each stream fills its own contiguous row in place; the kernel gets
        # z as a (P, H, K) view of the (P, K, H) rows
        exp_draws = np.empty((n_paths, horizon + 1))
        z = np.empty((n_paths, k, horizon))
        for p in range(n_paths):
            filler.rekey(path_lo + p, 0).standard_exponential(horizon + 1, out=exp_draws[p])
            for i in range(k):
                filler.rekey(path_lo + p, 1 + i).standard_normal(horizon, out=z[p, i])
        return {"exp_draws": exp_draws, "z": z.transpose(0, 2, 1)}
    if isinstance(spec, StateSpaceCidSpec):
        z = np.empty((n_paths, horizon, 2))
        for p in range(n_paths):
            z[p] = filler.rekey(path_lo + p, 1).standard_normal((horizon, 2))
        return {"z": z}
    if isinstance(spec, Ar1DriftSpec):
        z = np.empty((n_paths, horizon))
        for p in range(n_paths):
            z[p] = filler.rekey(path_lo + p, 1).standard_normal(horizon)
        return {"z": z}
    raise SpecValidationError("spec.kind", f"no simulator for spec kind {spec.kind!r}")


def _run_chunk(spec, horizon: int, master_seed: int, path_lo: int, n_paths: int,
               record: frozenset) -> dict:
    draws = _chunk_draws(spec, horizon, master_seed, path_lo, n_paths)
    if reinforced_view(spec) is not None:
        return processes.simulate_reinforced_chunk(
            spec, horizon, draws["coord_u"], draws["weight_u"], record)
    if isinstance(spec, GaussianLastTickSpec):
        return processes.simulate_gaussian_chunk(
            spec, horizon, draws["exp_draws"], draws["z"], record)
    if isinstance(spec, StateSpaceCidSpec):
        return processes.simulate_state_space_chunk(spec, horizon, draws["z"], record)
    return processes.simulate_ar1_chunk(spec, horizon, draws["z"], record)


def _resolve_threads(threads: int | None) -> int:
    """`threads`, or by default the cores this process may run on."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def _validate_run_args(spec, n_paths: int, horizon: int, master_seed: int,
                       chunk_paths: int | None = None) -> None:
    spec.validate()
    if n_paths < 1:
        raise SpecValidationError("n_paths", f"must be >= 1, got {n_paths}")
    if horizon < 1:
        raise SpecValidationError("horizon", f"must be >= 1, got {horizon}")
    _check_stream_address(master_seed, 0, 0)
    if n_paths > MAX_PATHS:
        raise SpecValidationError("n_paths", f"must be <= 2^{_PATH_BITS}")
    if chunk_paths is not None and chunk_paths < 1:
        raise ValueError(f"chunk_paths must be None or >= 1, got {chunk_paths}")


def map_path_chunks(spec, n_paths: int, horizon: int, master_seed: int, reducer,
                    *, record: frozenset | None = None, threads: int | None = None,
                    chunk_paths: int | None = None) -> dict:
    """Run the ensemble chunk by chunk and apply `reducer` to each chunk's
    Ensemble, gathering the per-path result arrays in path order.

    The reducer must be a pure function mapping an Ensemble to a dict of
    arrays whose first dimension indexes the chunk's paths. Chunks follow
    `_chunk_bounds`, so the chunk data in flight stays near
    CHUNK_BUDGET_BYTES regardless of n_paths and `threads`; `chunk_paths`
    sets a fixed chunk size instead.
    """
    _validate_run_args(spec, n_paths, horizon, master_seed, chunk_paths)
    record = frozenset(record) if record is not None else default_record(spec)
    threads = _resolve_threads(threads)
    if chunk_paths is None:
        bounds = _chunk_bounds(spec, n_paths, horizon, record, threads)
    else:
        bounds = [(lo, min(lo + chunk_paths, n_paths)) for lo in range(0, n_paths, chunk_paths)]
    n_workers = min(threads, len(bounds))

    def work(bound):
        lo, hi = bound
        arrays = _run_chunk(spec, horizon, master_seed, lo, hi - lo, record)
        ens = Ensemble(spec, hi - lo, horizon, master_seed, record, arrays)
        return reducer(ens)

    out: dict = {}

    def store(bound, part):
        # copy each chunk's rows into place as it arrives, so that at most
        # one copy of the result is held besides the chunks in flight
        lo, hi = bound
        for key, val in part.items():
            val = np.asarray(val)
            if val.shape[:1] != (hi - lo,):
                raise ValueError(f"reducer result {key!r} must have one row per path of "
                                 f"the chunk ({hi - lo}), got shape {val.shape}")
            if key not in out:
                out[key] = np.empty((n_paths,) + val.shape[1:], val.dtype)
            out[key][lo:hi] = val

    if n_workers <= 1:
        for bound in bounds:
            store(bound, work(bound))
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for bound, part in zip(bounds, pool.map(work, bounds)):
                store(bound, part)
    return out


def run_ensemble(spec, n_paths: int, horizon: int, master_seed: int,
                 *, record: frozenset | None = None, threads: int | None = None,
                 chunk_paths: int | None = None) -> Ensemble:
    """Simulate `n_paths` independent paths of `spec` up to `horizon`.

    A pure function of (spec, n_paths, horizon, master_seed): the result is
    bit-identical for any thread count and any chunking.
    """
    reduced = map_path_chunks(spec, n_paths, horizon, master_seed, lambda e: e.arrays,
                              record=record, threads=threads, chunk_paths=chunk_paths)
    record = frozenset(record) if record is not None else default_record(spec)
    return Ensemble(spec, n_paths, horizon, master_seed, record, reduced)


def recompute_predictive_series(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Recompute predictive mean/variance series of a reinforced ensemble from
    the recorded observations and weights alone (no look-ahead check). Sums
    in step order, as the simulator does, so the recomputation must match
    the recorded series bit for bit."""
    rspec = reinforced_view(ens.spec)
    if rspec is None:
        raise MissingSeriesError("recomputation applies to reinforced kinds")
    w0 = np.asarray(rspec.w0)
    m1, m2 = processes.base_moments(rspec)
    w = ens.weights
    _, _, mean, var = processes.predictive_series(w0, m1, m2, ens.observations, w,
                                                  processes.total_weights(w0, w))
    return mean, var
