"""One fresh pcid process of the benchmark: set up, run a workload's configs
through `pcid.runner.run_experiment` one or more times, and write a JSON
result file.

Usage: python3 perfbench/child.py '<job JSON>'

The job names the configs (bundled name or file path, optional --paths
override), seed, thread count, output directory, result file, whether to
trace, and a work budget in seconds.  Set-up ends when pcid is imported and
every config is loaded; the parent times set-up from just before it started
this process.  The process then runs the whole workload once, and again
while one more run would end nearer the budget than the last one did.  Each
run writes to its own `rep<k>` directory and is timed on its own.  A fixed
calibration loop is timed after set-up and after every run, so the parent
can tell how fast the machine was going around each run.
"""

import io
import json
import os
import platform
import resource
import sys
import time
import traceback

CALIBRATION_ITERATIONS = 2_000_000


def calibration_s() -> float:
    """Time a fixed pure-Python loop: 0.11-0.16 s on a shared 2-vCPU Xeon VM, Python 3.11."""
    t = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return time.perf_counter() - t


def platform_key() -> str:
    """Machine facts that decide the floating-point bits of a report: the
    numpy/scipy builds and the vector units their kernels dispatch on."""
    import numpy
    import scipy
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    simd = "+".join(f for f in ("AVX512F", "AVX2", "FMA3") if features.get(f)) or "base"
    return f"{platform.machine()}-{simd}-numpy{numpy.__version__}-scipy{scipy.__version__}"


def main(job: dict) -> int:
    src = os.path.realpath(job["src"])
    import pcid
    import pcid.runner as runner
    if not os.path.realpath(pcid.__file__).startswith(src + os.sep):
        print(f"error: imported pcid from {pcid.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    result = {}
    configs = []
    for entry in job["configs"]:
        try:
            configs.append((entry, runner.load_config(entry["config"])))
        except runner.ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            result.setdefault("config_errors", []).append(entry["config"])
    result["setup_end"] = time.perf_counter()

    result["reps"] = []
    result["setup_cal_s"] = cal = calibration_s()
    while True:
        rep = {"runs": [], "cal_before_s": cal}
        t_rep = time.perf_counter()
        for entry, config in configs:
            out = os.path.join(job["out"], f"rep{len(result['reps'])}", config.name)
            run = {"config": entry["config"], "name": config.name, "out": out}
            try:
                run["exit"] = runner.run_experiment(
                    config, out, seed=job["seed"], threads=job["threads"],
                    n_paths=entry.get("paths"), stream=io.StringIO())
            except (runner.ConfigError, runner.SpecValidationError) as exc:
                print(f"error: {entry['config']}: {exc}", file=sys.stderr)
                run["exit"] = runner.EXIT_CONFIG
            except Exception:  # noqa: BLE001 - any crash is a failed operation
                traceback.print_exc()
                run["exit"] = "exception"
            rep["runs"].append(run)
        rep["wall_s"] = time.perf_counter() - t_rep
        rep["cal_after_s"] = cal = calibration_s()
        result["reps"].append(rep)
        if len(result["reps"]) == 1:   # the high-water mark of one fresh run
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Stop unless one more run would end nearer the budget than this one did.
        spent = time.perf_counter() - result["setup_end"]
        mean = spent / len(result["reps"])
        crashed = any(r["exit"] not in (0, 1) for r in rep["runs"])
        if crashed or spent + mean / 2 > job["budget_s"]:
            break
    result["platform"] = platform_key()

    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer)
        result["absent"] = tracer.absent
        tracer.write_spans(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
