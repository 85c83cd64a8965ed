"""The benchmark's own test: computed counters repeat exactly.

Runs each workload's traced process twice and requires every computed
counter (path-steps, Philox re-keys, draw bytes, GEMM flops and matrix
bytes, CSV rows and bytes) to be identical across the two runs, and the
traced path-steps to equal the count the workload table declares.  Both
runs also pass the benchmark's output checks.  A stress test checks that
the tracer loses no span or count when chunks run on a thread pool.

Run from the root of the checkout (about a minute on 2 cores):

    python3 -m pytest perfbench/counters_check.py
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402

COUNTERS = (
    "engine.path_steps",
    "processes.kernel.path_steps",
    "engine.draws.calls",
    "engine.draws.rekeys",
    "engine.draws.bytes",
    "engine.chunks",
    "verifiers.energy.flops",
    "verifiers.energy.matrix_bytes",
    "runner.write_series.rows",
    "runner.write_series.bytes",
)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counters_repeat_exactly(workload):
    bench = run.Bench(workload, run.DEFAULT_SEED, seconds=0, trace=True)
    bench.run_workload(run.THREADS, trace=True)
    bench.run_workload(run.THREADS, trace=True)
    assert bench.failures == []
    first, second = (r["layers"] for r in bench.results)
    for name in COUNTERS:
        assert first.get(name, 0.0) == second.get(name, 0.0), name
    assert first["engine.path_steps"] == run.WORKLOADS[workload]["path_steps"]
    assert first["processes.kernel.path_steps"] == first["engine.path_steps"]
    if workload == "bundled_configs":      # uniform_coupled_demo records series
        assert first["runner.write_series.rows"] > 0
        assert first["runner.write_series.bytes"] > 0


def test_tracer_is_thread_safe():
    tracer = tracing.Tracer()
    chunk = tracer.wrap(lambda: tracer.count("hits"), "engine.chunk")
    n_chunks = 4000

    def map_path_chunks():
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(chunk) for _ in range(n_chunks)]
            for f in futures:
                f.result(timeout=30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.wrap(map_path_chunks, "engine.map_path_chunks")()
    finally:
        sys.setswitchinterval(interval)
    map_span = tracer.spans[0]
    chunks = tracer.spans[1:]
    assert map_span.name == "engine.map_path_chunks"
    assert len(chunks) == n_chunks
    assert len({s.sid for s in tracer.spans}) == n_chunks + 1
    assert all(s.parent == map_span.sid for s in chunks)
    assert tracer.counters["hits"] == n_chunks
    assert tracing.layer_metrics(tracer)["engine.chunks"] == n_chunks
