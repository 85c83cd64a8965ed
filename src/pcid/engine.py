"""Deterministic, reproducible ensemble execution.

Random streams are addressed by the triple (master_seed, path_index,
substream_index) and realized as keyed Philox counter-based generators, so
a path's randomness is a pure function of its address. Ensembles are
therefore identical for any chunking of the path range and any number of
worker processes; the caller copies each chunk's result into its rows of
the output arrays, in path order.

Chunk plan: `map_path_chunks` splits the paths into balanced contiguous
ranges, a multiple of the worker count of them, each small enough that one
chunk per worker fits in CHUNK_BUDGET_BYTES together. So the chunk data in
flight (draws, recorded series and kernel buffers) stays within that one
budget whatever `threads` is; a reducer that keeps every path's series,
as `run_ensemble` does, holds the whole ensemble besides. A kind's table
entry may cap its chunks further: the genealogy-order reinforced kernel
works a chunk one row block at a time, so its chunks stop at
`processes.GENEALOGY_CHUNK_STEPS` path-steps, and its in-flight data stays
far under the budget. The step-major kernels (stepping reinforced
couplings, Gaussian, AR(1), state-space) make one numpy call per step over
all of a chunk's paths, so they keep the budget-sized chunks.

The kind table `_KINDS` holds, per kernel family, its kernel, its random
inputs (substream, row shape and law), the series it records and the
values it holds besides; the draws, the kernel call and the chunk's byte
estimate all read it. Its substream convention per path: substream 0
carries shared randomness (reinforcement weights, arrival times),
substream 1 + i carries the draws of coordinate i.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import processes
from .specs import SpecValidationError, _check_domain, reinforced_view

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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011), the bit generator behind np.random.Philox: the round
# multipliers and the key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)

# Rows of at most this many uniforms are filled by `_philox_uniforms`,
# longer ones by re-keying one generator per stream: the crossover measured
# in BENCH_short_rows.json.
PHILOX_VECTOR_MAX_ROW = 96
# Philox blocks (4 uniforms each) per pass of `_philox_uniforms`: its
# buffers take at most 1.4 MiB whatever the chunk size.
PHILOX_PASS_BLOCKS = 1 << 14
# uint64 words `_philox_uniforms` holds per block of a pass: the counter
# and the next round's words, four each, and `_mulhilo`'s three scratch
# words
PHILOX_PASS_WORDS = 4 + 4 + 3


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray,
             t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> None:
    """hi, lo = the high and low 64-bit words of a * m, for a uint64 array a
    and a 64-bit constant m, from 32-bit halves; t1..t3 are scratch."""
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    np.multiply(a, _U64(m), out=lo)
    np.bitwise_and(a, _LO32, out=t1)            # a_lo
    np.right_shift(a, _U64(32), out=t2)         # a_hi
    np.multiply(t1, m_lo, out=t3)
    np.right_shift(t3, _U64(32), out=t3)
    np.multiply(t2, m_lo, out=hi)
    np.add(hi, t3, out=hi)                      # u = a_hi m_lo + (a_lo m_lo >> 32)
    np.multiply(t1, m_hi, out=t1)
    np.bitwise_and(hi, _LO32, out=t3)
    np.add(t1, t3, out=t1)                      # v = a_lo m_hi + (u & LO)
    np.right_shift(hi, _U64(32), out=t3)
    np.multiply(t2, m_hi, out=hi)
    np.add(hi, t3, out=hi)
    np.right_shift(t1, _U64(32), out=t1)
    np.add(hi, t1, out=hi)                      # a_hi m_hi + (u >> 32) + (v >> 32)


def _philox_pass_rows(n_paths: int, n_blocks: int) -> int:
    return max(1, min(n_paths, PHILOX_PASS_BLOCKS // n_blocks))


def _philox_pass_bytes(n_paths: int, n: int) -> int:
    """Bytes of `_philox_uniforms`'s buffers for P = n_paths rows of n."""
    n_blocks = -(-n // 4)
    return 8 * PHILOX_PASS_WORDS * _philox_pass_rows(n_paths, n_blocks) * n_blocks


def _philox_uniforms(master_seed: int, path_lo: int, substream: int,
                     out: np.ndarray) -> None:
    """Fill `out` (P, n) with the first n uniforms of the streams
    (master_seed, path_lo + p, substream), bit for bit as
    `derive_stream(...).generator().random(n)` draws them.

    Philox4x64-10 over (key, counter) arrays: a fresh np.random.Philox steps
    its counter before its first block, so uniform j is lane j % 4 of the
    block at counter j // 4 + 1, taken as (word >> 11) * 2^-53. The streams
    go in passes of at most PHILOX_PASS_BLOCKS blocks."""
    n_paths, n = out.shape
    n_blocks = -(-n // 4)
    rows = _philox_pass_rows(n_paths, n_blocks)
    buf = np.empty((PHILOX_PASS_WORDS, rows, n_blocks), _U64)
    ctr, nxt, (t1, t2, t3) = buf[:4], buf[4:8], buf[8:]
    for lo in range(0, n_paths, rows):
        r = min(rows, n_paths - lo)
        c, d = ctr[:, :r], nxt[:, :r]
        c[0] = np.arange(1, n_blocks + 1, dtype=_U64)
        c[1:] = 0
        key0 = np.arange(path_lo + lo, path_lo + lo + r, dtype=_U64)[:, None]
        key0 <<= _U64(_SUB_BITS)
        key0 |= _U64(substream)
        key1 = master_seed
        for rnd in range(10):
            if rnd:
                key0 += _U64(_PHILOX_W[0])
                key1 = (key1 + _PHILOX_W[1]) & 0xFFFFFFFFFFFFFFFF
            # (c0, c1, c2, c3) -> (hi(c2 M1) ^ c1 ^ k0, lo(c2 M1),
            #                      hi(c0 M0) ^ c3 ^ k1, lo(c0 M0))
            _mulhilo(c[0], _PHILOX_M[0], d[2], d[3], t1[:r], t2[:r], t3[:r])
            _mulhilo(c[2], _PHILOX_M[1], d[0], d[1], t1[:r], t2[:r], t3[:r])
            d[0] ^= c[1]
            d[0] ^= key0
            d[2] ^= c[3]
            d[2] ^= _U64(key1)
            c, d = d, c
        # ten rounds swap the buffers back: c is a view of ctr again, and
        # nxt takes the blocks' words in stream order
        words = nxt.reshape(-1)[:4 * r * n_blocks].reshape(r, 4 * n_blocks)
        np.copyto(words.reshape(r, n_blocks, 4), c.transpose(1, 2, 0))
        words = words[:, :n]
        words >>= _U64(11)
        np.multiply(words, 1.0 / 9007199254740992.0, out=out[lo:lo + r])


class _StreamFiller:
    """Fills per-path rows of uniforms: short rows by the vectorized
    `_philox_uniforms`, long ones by one Philox generator re-keyed per
    (path, substream), without per-path object construction."""

    def __init__(self, master_seed: int):
        _check_stream_address(master_seed, 0, 0)
        self._master_seed = master_seed
        self._bg = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bg)
        # the state of a fresh stream, built once: the state setter copies
        # the values out, so each re-key writes only the key word it changes.
        # Lists of Python ints, not uint64 arrays: the setter reads every
        # word by index, and a list gives it an int without a numpy scalar.
        self._key = [0, master_seed]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0] * 4, "key": self._key},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(self, path_index: int, substream_index: int) -> np.random.Generator:
        self._key[0] = (path_index << _SUB_BITS) | substream_index
        self._bg.state = self._state
        return self.generator

    def uniforms(self, path_lo: int, substream: int, out: np.ndarray) -> None:
        """out (P, n), rows contiguous: the first n uniforms of the streams
        (master_seed, path_lo + p, substream). Long rows are drawn straight
        into their row of out."""
        n_paths, n = out.shape
        if n <= PHILOX_VECTOR_MAX_ROW:
            _philox_uniforms(self._master_seed, path_lo, substream, out)
            return
        for p in range(n_paths):
            self.rekey(path_lo + p, substream).random(out=out[p])


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass
class Ensemble:
    """Recorded output of `run_ensemble`: per-path series plus what every
    kernel returns besides, the terminal predictive's mean (`terminal_mean`,
    (P, K)), and the kind's own per-path summaries (`gamma_hat`,
    `total_weight`).

    Each series of `processes.SERIES`, gamma_hat and terminal_mean has an
    accessor of that name; one that is absent raises MissingSeriesError.
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
    def n_coords(self) -> int:
        return self.spec.n_coords


for _name in (*processes.SERIES, "gamma_hat", "terminal_mean"):
    setattr(Ensemble, _name, property(lambda self, name=_name: self._series(name)))


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """What the engine knows of one kernel family."""

    kernel: str        # its `processes` chunk function, by name: looked up when called
    # its random inputs in the kernel's argument order: (name, substream or
    # None for one per coordinate, one stream's row shape for (spec, H) or
    # None for no draws, the Generator method that draws the row)
    inputs: tuple
    series: frozenset  # what it can record, all by default
    held: object       # (H, K) -> values per path held besides draws and series
    views: frozenset = frozenset()  # recorded series counted in `held`
    blocks: object = None           # (spec, H, P) -> bytes of its row blocks, if any
    chunk_cap: object = None        # (spec, H) -> most paths per chunk, or None


_PREDICTIVE = frozenset({"observations", "predictive_mean", "predictive_var"})

_KINDS = {
    # every kind that `reinforced_view` reads as a reinforced system
    "reinforced": _Kind(
        "simulate_reinforced_chunk",
        (("coord_u", None, lambda spec, h: (h,), "random"),
         ("weight_u", 0, lambda spec, h: processes.reinforced_weight_shape(
             reinforced_view(spec), h), "random")),
        _PREDICTIVE | {"weights"},
        # the stepping kernel's observations and cumulative weights, and
        # at most 20 (P,) arrays per coordinate besides: its state, the
        # terminal mean and each step's temporaries (traced: under 16)
        held=lambda h, k: 2 * h * k + 20 * k,
        views=frozenset({"observations"}),
        blocks=processes.genealogy_block_bytes,
        # a kernel that works a chunk row block by row block gains nothing
        # from chunks of more than a few blocks
        chunk_cap=processes.genealogy_chunk_paths),
    "gaussian_last_tick": _Kind(
        "simulate_gaussian_chunk",
        (("exp_draws", 0, lambda spec, h: (h + 1,), "standard_exponential"),
         ("z", None, lambda spec, h: (h,), "standard_normal")),
        _PREDICTIVE | {"arrivals", "lambdas"},
        # 2(H + 1): room for the recorded arrivals and lambdas, counted
        # whether they are recorded or not, since it sets the chunk plan
        # (ROADMAP, "Leftover kernel costs"). mu, sigma^2 and the step's
        # draws, K each; a step buffer; gamma_hat and the terminal copy
        # of mu, counted with room for a second; the tile's normals and
        # lambdas, K + 1 per step of a tile, and its arrivals, one more
        held=lambda h, k: (2 * (h + 1) + 5 * k + 3
                           + (k + 2) * min(h, processes.GAUSSIAN_TILE_STEPS)),
        views=frozenset({"arrivals", "lambdas"})),
    "state_space_cid": _Kind(
        "simulate_state_space_chunk",
        (("z", 1, lambda spec, h: (h, 2), "standard_normal"),),
        _PREDICTIVE | {"theta"},
        # the level, the filter's mean and variance, each step's
        # temporaries and the terminal mean (traced over every record,
        # H 5 and 1000: under 9)
        held=lambda h, k: 12),
    "ar1_drift": _Kind(
        "simulate_ar1_chunk",
        (("z", 1, lambda spec, h: (h,), "standard_normal"),),
        _PREDICTIVE,
        # the state, each step's temporaries and the terminal mean, one
        # (P, 1) array, with room for a second (traced over every record,
        # H 5 and 1000: under 5)
        held=lambda h, k: 6),
}


def _kind(spec) -> _Kind:
    kind = _KINDS.get("reinforced" if reinforced_view(spec) is not None else spec.kind)
    if kind is None:
        raise SpecValidationError("spec.kind", f"no simulator for spec kind {spec.kind!r}")
    return kind


def default_record(spec) -> frozenset:
    return _kind(spec).series


def check_record(spec, record) -> None:
    """Raise SpecValidationError on field `record` unless every name in
    `record` is a series the spec's kind records."""
    series = _kind(spec).series
    bad = [name for name in record if not isinstance(name, str) or name not in series]
    if bad:
        raise SpecValidationError("record", f"spec kind {spec.kind!r} records no {bad}; "
                                            f"it records {sorted(series)}")


def _series_bytes_per_path(spec, horizon: int, record: frozenset) -> int:
    """Bytes one path holds while its chunk runs (an upper estimate): its
    draws, its recorded series and what its kernel holds besides, all by
    the kind table."""
    kind, k = _kind(spec), spec.n_coords
    values = kind.held(horizon, k)
    for _, sub, row, _ in kind.inputs:
        shape = row(spec, horizon)
        if shape is not None:
            values += math.prod(shape) * (k if sub is None else 1)
    for name in record - kind.views:
        values += math.prod(processes.series_shape(name, 1, horizon, k))
    return 8 * values


def _worker_bytes(spec, horizon: int, n_paths: int) -> int:
    """Bytes a worker's buffers take besides the per-path estimate, for a
    chunk of n_paths paths: the uniform filler's pass buffers for the
    longest vectorized row, and the kernel's row blocks, if it has any.
    Both are bounded by their blocks, so they grow with n_paths only up to
    a fixed size."""
    kind = _kind(spec)
    rows = [math.prod(shape) for _, _, row, law in kind.inputs
            if law == "random" and (shape := row(spec, horizon)) is not None]
    held = max([_philox_pass_bytes(n_paths, n) for n in rows if n <= PHILOX_VECTOR_MAX_ROW],
               default=0)
    if kind.blocks is not None:
        held += kind.blocks(spec, horizon, n_paths)
    return held


def _chunk_bounds(spec, n_paths: int, horizon: int, record: frozenset,
                  n_workers: int) -> list[tuple[int, int]]:
    """Balanced path ranges [lo, hi) covering [0, n_paths) in order: a
    multiple of `n_workers` of them (one per path when there are fewer
    paths), their sizes differing by at most one, and `n_workers` chunks
    together, with each worker's buffers, within CHUNK_BUDGET_BYTES unless
    a chunk is a single path. A kind whose table entry caps its chunks
    gets chunks of at most that many paths besides."""
    kind = _kind(spec)
    per = _series_bytes_per_path(spec, horizon, record)

    def fits(p: int) -> bool:
        return n_workers * (p * per + _worker_bytes(spec, horizon, p)) <= CHUNK_BUDGET_BYTES

    # the largest chunk that fits (the bytes grow with the chunk) and keeps
    # to the kind's cap, or one path
    max_paths, hi = 1, max(1, n_paths)
    if kind.chunk_cap is not None and (cap := kind.chunk_cap(spec, horizon)) is not None:
        hi = min(hi, cap)
    while max_paths < hi:
        mid = (max_paths + hi + 1) // 2
        if fits(mid):
            max_paths = mid
        else:
            hi = mid - 1
    n_chunks = -(-n_paths // max_paths)
    n_chunks = min(-(-n_chunks // n_workers) * n_workers, n_paths)
    return [(n_paths * j // n_chunks, n_paths * (j + 1) // n_chunks) for j in range(n_chunks)]


def _chunk_draws(spec, horizon: int, master_seed: int, path_lo: int, n_paths: int) -> dict:
    """The chunk's random inputs, laid out by the kind table: row p of an
    input comes from the stream (master_seed, path_lo + p, substream)."""
    filler = _StreamFiller(master_seed)
    draws = {}
    for name, sub, row, law in _kind(spec).inputs:
        shape = row(spec, horizon)
        if shape is None:
            draws[name] = None
            continue
        subs = range(1, spec.n_coords + 1) if sub is None else (sub,)
        if subs[-1] >= MAX_SUBSTREAMS:      # it would spill into the path bits of the key
            raise ValueError(f"input {name!r} needs substream {subs[-1]}, beyond "
                             f"the {MAX_SUBSTREAMS} of a path's streams")
        buf = np.empty((n_paths, len(subs)) + shape)
        for j, stream in enumerate(subs):
            if law == "random":
                filler.uniforms(path_lo, stream, buf[:, j].reshape(n_paths, -1))
            else:
                for p in range(n_paths):
                    getattr(filler.rekey(path_lo + p, stream), law)(out=buf[p, j])
        draws[name] = buf[:, 0] if sub is not None else np.moveaxis(buf, 1, -1)
    return draws


def _run_chunk(spec, horizon: int, master_seed: int, path_lo: int, n_paths: int,
               record: frozenset) -> dict:
    draws = _chunk_draws(spec, horizon, master_seed, path_lo, n_paths)
    kernel = getattr(processes, _kind(spec).kernel)
    return kernel(spec, horizon, *draws.values(), record)


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
                       record=None) -> None:
    spec.validate()
    if record is not None:
        check_record(spec, record)
    # the chunk plan's search for a fractional n_paths would never end
    _check_domain("size", n_paths, "n_paths", "n_paths")
    _check_domain("size", horizon, "horizon", "horizon")
    _check_stream_address(master_seed, 0, 0)
    if n_paths > MAX_PATHS:
        raise SpecValidationError("n_paths", f"must be <= 2^{_PATH_BITS}")


def _chunk_worker(work, bounds, recv, send) -> None:
    """Body of one forked worker: send (work(bound), None) for each bound in
    order, or, on the first failure, (None, (exception, traceback text))."""
    recv.close()    # the parent's end: with it closed here, a dead parent breaks the pipe
    try:
        for bound in bounds:
            send.send((work(bound), None))
    except BaseException as exc:  # re-raised in the parent
        import traceback
        send.send((None, (exc, traceback.format_exc())))
    finally:
        send.close()


def _forked_map(work, store, bounds: list, n_workers: int) -> None:
    """Call store(bound, work(bound)) for every bound, in order, with
    work(bound) computed by `n_workers` forked processes: worker w takes
    bounds w, w + n_workers, ... and sends each result back over its own
    pipe. Every worker has exited when this returns or raises."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(n_workers):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=_chunk_worker,
                               args=(work, bounds[w::n_workers], recv, send))
            proc.start()
            procs.append(proc)
            send.close()
        for j, bound in enumerate(bounds):
            w = j % n_workers
            try:
                part, error = conns[w].recv()
            except EOFError:
                procs[w].join()
                raise RuntimeError(f"chunk worker {w} (pid {procs[w].pid}) exited with code "
                                   f"{procs[w].exitcode} before sending chunk {bound}") from None
            if error is not None:
                exc, text = error
                raise exc from RuntimeError(f"in chunk worker {w}:\n{text}")
            store(bound, part)
    except BaseException:
        for proc in procs:
            proc.terminate()    # it may be mid-chunk, or blocked sending one
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def map_path_chunks(spec, n_paths: int, horizon: int, master_seed: int, reducer,
                    *, record: frozenset | None = None, threads: int | None = None) -> dict:
    """Run the ensemble chunk by chunk and apply `reducer` to each chunk's
    Ensemble, gathering the per-path result arrays in path order.

    The reducer must be a pure function mapping an Ensemble to a dict of
    arrays whose first dimension indexes the chunk's paths. Chunks follow
    `_chunk_bounds`, so the chunk data in flight stays near
    CHUNK_BUDGET_BYTES regardless of n_paths and `threads`.

    With `threads` workers and more chunks than workers, on a platform
    that can fork, the chunks run in `threads` forked worker processes,
    started for this call and joined before it returns or raises. The
    reducer then runs in a worker: its result must pickle, and its side
    effects (and spans a tracer records in it) stay in the worker. An
    exception it raises reaches the caller with its type and arguments. A
    plan with at most one chunk per worker runs in this process, chunk
    after chunk, as does every plan at `threads=1`.
    """
    _validate_run_args(spec, n_paths, horizon, master_seed, record)
    record = frozenset(record) if record is not None else default_record(spec)
    threads = _resolve_threads(threads)
    bounds = _chunk_bounds(spec, n_paths, horizon, record, threads)

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

    if 1 < threads < len(bounds) and hasattr(os, "fork"):
        _forked_map(work, store, bounds, threads)
    else:
        for bound in bounds:
            store(bound, work(bound))
    return out


def run_ensemble(spec, n_paths: int, horizon: int, master_seed: int,
                 *, record: frozenset | None = None, threads: int | None = None) -> Ensemble:
    """Simulate `n_paths` independent paths of `spec` up to `horizon`.

    A pure function of (spec, n_paths, horizon, master_seed): the result is
    bit-identical for any worker count and any chunking.
    """
    reduced = map_path_chunks(spec, n_paths, horizon, master_seed, lambda e: e.arrays,
                              record=record, threads=threads)
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
    return processes.predictive_series(w0, m1, m2, ens.observations, w,
                                       processes.total_weights(w0, w))
