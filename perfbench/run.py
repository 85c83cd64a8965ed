"""The pcid benchmark: time to verdict and memory, end to end and per layer.

Usage, from the root of a pcid checkout:

    python3 perfbench/run.py --workload clt_long --seed 1 --seconds 57 --trace 0

Each workload is a list of `pcid run` configs that a fresh process
(perfbench/child.py) sets up and runs, using the library under src/.  With
`--trace 0` the benchmark starts four such processes in the order A B B A,
where A runs at the default thread count (2, or fewer cores) and B at one
thread.  Each process runs the workload again and again for its share of
`--seconds`, and every run is one timing sample; the benchmark reports
medians.  With `--trace 1` it alternates an untraced and a traced process
at the default thread count, each running the workload once, for
`--seconds`, and reports the traced per-layer breakdown instead.  Every
run's outputs are checked: exit code 0 or 1, every configured check present
in report.json, outputs byte-identical across thread counts, tracing and
repeats, and equal to the stored reference digests where one exists for
this platform, library version, report schema, workload and seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
are the ones BENCHMARK.json declares.  Outputs, results and spans go to
.perfbench_out/ under the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(HERE, "references.json")

DEFAULT_SEED = 1
DEADLINE_S = 170.0      # the whole run must end within 180 s
THREADS = min(2, len(os.sched_getaffinity(0)))
UNTRACED = (THREADS, 1, 1, THREADS)   # thread counts of a run's processes, A B B A
MIN_TRACED_ROUNDS = 2   # a traced round runs each variant (tracing off, on) once
# The time child.calibration_s() takes on the machine the benchmark was set up
# on, in a quiet moment.  A time is reported at that machine speed: each
# measured time is scaled by CALIBRATION_REF_S over the calibration time
# taken around it.  A shared machine's speed can swing by 40% over minutes,
# and the loop swings with it; pcid's own code does not touch the loop.
CALIBRATION_REF_S = 0.12

# Each workload: the configs one process runs, and the path-steps
# (paths x horizon x coordinates, summed over every simulated ensemble,
# verifier-internal sizes included) that those configs request.
WORKLOADS = {
    "clt_long": {
        "configs": [{"config": "perfbench/configs/clt_long.json"}],
        "path_steps": 2000 * 2000 * 2,
    },
    "wide_short": {
        "configs": [{"config": "polya_baseline", "paths": 100000}],
        "path_steps": 100000 * 3 * 2 + 2 * 100000 * 24 * 2,
    },
    "bundled_configs": {
        "configs": [{"config": name} for name in (
            "polya_baseline", "broken_weight_coupling",
            "uniform_coupled_demo", "gaussian_last_tick_limit")],
        "path_steps": (4000 * 3 * 2 + 2 * 4000 * 24 * 2) + 4000 * 2 * 2
                      + (2000 * 3 * 2 + 200 * 50 * 2) + 20000 * 1000 * 2,
    },
}


class Failure(Exception):
    """One run of a workload failed an output check."""


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_begin = time.perf_counter()
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.n_children = 0
        self.setup_samples: list[float] = []       # scaled to the reference speed
        self.raw_setup_samples: list[float] = []   # as measured
        self.results: list[dict] = []     # processes whose first run passed every check
        self.samples: list[dict] = []     # one per run that passed: threads, traced, times
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict | None = None
        self.reference_status = "not checked"
        self.verdicts: list[list[dict]] = []

    # -- child processes -----------------------------------------------------

    def spawn(self, threads: int, trace: bool, budget_s: float) -> dict:
        n = self.n_children
        self.n_children += 1
        job = {"configs": self.spec["configs"], "seed": self.seed, "threads": threads,
               "trace": trace, "budget_s": budget_s, "src": SRC,
               "out": os.path.join(self.dir, f"out{n}"),
               "result": os.path.join(self.dir, f"result{n}.json"),
               "spans": os.path.join(self.dir, f"spans{n}.jsonl")}
        env = {k: v for k, v in os.environ.items() if k != "PCID_SEED"}
        env["PYTHONPATH"] = SRC
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.t_begin))
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                                   json.dumps(job)], cwd=ROOT, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise Failure(f"process {n} exceeded the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            raise Failure(f"process {n} exited with code {proc.returncode}")
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        if result.get("config_errors"):
            raise Failure(f"process {n}: configs failed to load: {result['config_errors']}")
        result["setup_s"] = result["setup_end"] - t_spawn
        result["threads"] = threads
        result["traced"] = trace
        return result

    def run_workload(self, threads: int, trace: bool = False, budget_s: float = 0.0) -> None:
        """Start one process that runs the workload once, and again while one
        more run would end nearer `budget_s` than the last one did; check
        every run it made."""
        out_dir = os.path.join(self.dir, f"out{self.n_children}")
        try:
            result = self.spawn(threads, trace, budget_s)
        except Failure as exc:
            self.attempted += 1
            self.failures.append(str(exc))
            shutil.rmtree(out_dir, ignore_errors=True)
            return
        self.raw_setup_samples.append(result["setup_s"])
        self.setup_samples.append(result["setup_s"] * CALIBRATION_REF_S / result["setup_cal_s"])
        for k, rep in enumerate(result["reps"]):
            self.attempted += 1
            try:
                self.check_outputs(rep, result)
            except Failure as exc:
                self.failures.append(str(exc))
                continue
            finally:
                shutil.rmtree(os.path.join(out_dir, f"rep{k}"), ignore_errors=True)
            speed = CALIBRATION_REF_S / ((rep["cal_before_s"] + rep["cal_after_s"]) / 2)
            self.samples.append({"threads": threads, "traced": trace, "speed": speed,
                                 "wall_s": rep["wall_s"] * speed, "raw_wall_s": rep["wall_s"]})
            if k == 0:
                self.results.append(result)
        shutil.rmtree(out_dir, ignore_errors=True)

    # -- output checks -------------------------------------------------------

    def check_outputs(self, rep: dict, result: dict) -> None:
        digests, verdicts = {}, []
        for run in rep["runs"]:
            if run["exit"] not in (0, 1):
                raise Failure(f"{run['config']}: exit {run['exit']}")
            try:
                with open(os.path.join(run["out"], "report.json"), encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                raise Failure(f"{run['config']}: unreadable report.json: {exc}") from None
            wanted = [t["name"] for t in report["config"].get("tests", [])]
            got = [v["name"] for v in report["verdicts"]]
            if got != wanted:
                raise Failure(f"{run['config']}: report has checks {got}, config asks {wanted}")
            for v in report["verdicts"]:
                worst = max(v["subchecks"], key=lambda s: s["margin"], default=None)
                verdicts.append({"config": run["name"], "check": v["name"], "pass": v["pass"],
                                 "worst_margin": v["statistic"],
                                 "worst_subcheck": worst and worst["name"]})
            for fname in sorted(os.listdir(run["out"])):
                if fname == "report.json" or fname.startswith("series_"):
                    digests[f"{run['name']}/{fname}"] = sha256(os.path.join(run["out"], fname))
            version = f"pcid-{report['library_version']}-schema{report['report_schema']}"
        self.verdicts.append(verdicts)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise Failure("outputs differ from the first run's (threads "
                          f"{result['threads']}, traced {result['traced']})")
        self.check_reference(result["platform"], version, digests)

    def reference_entry(self, platform: str, version: str) -> tuple[dict, list]:
        try:
            with open(REFERENCES, encoding="utf-8") as fh:
                refs = json.load(fh)
        except FileNotFoundError:
            refs = {}
        return refs, [platform, version, self.workload, str(self.seed)]

    def check_reference(self, platform: str, version: str, digests: dict) -> None:
        node, keys = self.reference_entry(platform, version)
        for key in keys:
            node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            self.reference_status = f"no reference for {'/'.join(keys)}"
        elif node != digests:
            self.reference_status = "MISMATCH"
            raise Failure(f"outputs differ from the reference for {'/'.join(keys)}")
        else:
            self.reference_status = "match"
        self.reference_key = (platform, version)

    def update_reference(self) -> None:
        refs, keys = self.reference_entry(*self.reference_key)
        node = refs
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = self.digests
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")

    # -- driving -------------------------------------------------------------

    def measure(self) -> None:
        if self.trace:
            self.measure_traced()
            return
        t0 = time.perf_counter()
        for i, threads in enumerate(UNTRACED):
            left = self.seconds - (time.perf_counter() - t0)
            # Until a process has reported, guess set-up at 1.5 s (it is about 1 s).
            setup = statistics.median(self.raw_setup_samples) if self.raw_setup_samples else 1.5
            self.run_workload(threads, budget_s=left / (len(UNTRACED) - i) - setup)

    def measure_traced(self) -> None:
        variants = [(THREADS, False), (THREADS, True)]
        t0 = time.perf_counter()
        rounds = 0
        while True:
            for threads, trace in (variants if rounds % 2 == 0 else variants[::-1]):
                self.run_workload(threads, trace)
            rounds += 1
            elapsed = time.perf_counter() - t0
            total = time.perf_counter() - self.t_begin
            per_round = elapsed / rounds
            if total + 2 * per_round > DEADLINE_S or \
                    (rounds >= MIN_TRACED_ROUNDS and elapsed + per_round > self.seconds):
                break

    def walls(self, threads: int, traced: bool, key: str = "wall_s") -> list[float]:
        return [r[key] for r in self.samples
                if r["threads"] == threads and r["traced"] == traced]

    def end_to_end(self) -> dict:
        wall = statistics.median(self.walls(THREADS, False))
        return {
            "wall_s": wall,
            "wall_s_1t": statistics.median(self.walls(1, False)),
            "path_steps_per_s": self.spec["path_steps"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.results
                                             if r["threads"] == THREADS),
            "setup_s": statistics.median(self.setup_samples),
        }

    def per_layer(self, declared: list[str]) -> tuple[dict, dict]:
        traced = [r for r in self.results if r["traced"]]
        metrics = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
                   for name in declared}
        metrics["trace.overhead_s"] = (statistics.median(self.walls(THREADS, True))
                                       - statistics.median(self.walls(THREADS, False)))
        return metrics, traced[-1]


def print_breakdown(traced: dict) -> None:
    layers = traced["layers"]
    selfs = sorted(((k[:-len(".self_s")], v) for k, v in layers.items()
                    if k.endswith(".self_s")), key=lambda kv: -kv[1])
    print("self time by layer and by check (last traced run):")
    for name, value in selfs:
        print(f"  {name:40s} {value:10.4f} s")
    bounds = sorted(((k[:-2], v) for k, v in layers.items() if k.endswith(".s")),
                    key=lambda kv: -kv[1])
    print("time by boundary, children included:")
    for name, value in bounds:
        print(f"  {name:40s} {value:10.4f} s")
    if traced.get("absent"):
        print(f"absent boundaries (reported as 0): {', '.join(traced['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=57.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's output digests as the reference")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "pcid", "__init__.py")):
        print(f"error: no pcid sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.measure()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    needed = {(THREADS, False), (THREADS, True) if args.trace else (1, False)}
    if not needed <= {(r["threads"], r["traced"]) for r in bench.results}:
        print("error: no run of a needed kind completed: " + "; ".join(bench.failures),
              file=sys.stderr)
        return 1

    if args.trace:
        values, last = bench.per_layer(list(units))
        print_breakdown(last)
    else:
        values = bench.end_to_end()
    failed = len(bench.failures)
    counts = ", ".join(f"{len(bench.walls(t, tr))} at threads {t}{' traced' if tr else ''}"
                       for t, tr in sorted(needed, key=lambda k: (-k[0], k[1])))
    print(f"workload {args.workload}, seed {args.seed}: {bench.attempted} runs ({counts}), "
          f"{len(bench.setup_samples)} set-ups, {failed} failed "
          f"(ops_failed {failed / bench.attempted:.3f}); reference: {bench.reference_status}")
    for message in bench.failures:
        print(f"  failed: {message}")
    for v in bench.verdicts[-1] if bench.verdicts else []:
        print(f"  verdict {v['config']}/{v['check']}: {'PASS' if v['pass'] else 'FAIL'} "
              f"worst margin {v['worst_margin']:.4f} ({v['worst_subcheck']})")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    raw = {"wall_s": bench.walls(THREADS, False, "raw_wall_s"),
           "wall_s_1t": bench.walls(1, False, "raw_wall_s"),
           "wall_s_traced": bench.walls(THREADS, True, "raw_wall_s"),
           "setup_s": bench.raw_setup_samples}
    print("  as measured, before scaling to the reference speed: " + ", ".join(
        f"{name} {statistics.median(v):.4g} s" for name, v in raw.items() if v) +
        f"; machine speed {statistics.median(r['speed'] for r in bench.samples):.3f}"
        " of the reference")
    samples = {"wall_s": bench.walls(THREADS, False), "wall_s_1t": bench.walls(1, False),
               "wall_s_traced": bench.walls(THREADS, True), "setup_s": bench.setup_samples,
               "speed": [r["speed"] for r in bench.samples], "raw": raw}
    with open(bench.dir + ".json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": values, "samples": samples, "failures": bench.failures,
                   "verdicts": bench.verdicts, "digests": bench.digests,
                   "reference": bench.reference_status}, fh, indent=1)
    if args.update_reference and not failed:
        bench.update_reference()
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
