"""Experiment orchestration and the `pcid` command-line interface.

An experiment config is a single JSON document: a process spec, ensemble
sizes, a master seed, the verifier checks to run (with per-check
overrides), and the series to persist. The runner executes the checks,
prints a summary table, and writes report.json, summary.txt, and one
series_<name>.csv per requested series into the output directory.

Reports are byte-identical across reruns with the same seed and across
worker counts: they contain the config, resolved seed, sizes, verdicts,
and the library version - nothing machine- or schedule-dependent.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error (unknown spec kind, unknown check, invalid field), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from . import __version__
from .engine import check_record, run_ensemble
from .processes import SERIES
from .specs import SpecValidationError, list_spec_kinds, spec_from_dict, SPEC_KINDS
from .verifiers import VERIFIERS, list_verifier_names

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

REPORT_SCHEMA = 1

CSV_HEADER = "path,step,coordinate,series,value"


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    name: str
    spec: object
    n_paths: int
    horizon: int
    master_seed: int | None
    tests: list[dict] = field(default_factory=list)
    record: list[str] = field(default_factory=list)
    series_format: str = "csv"
    raw: dict = field(default_factory=dict)


def _load_config_text(path_or_name: str) -> str:
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            return fh.read()
    bundled = resources.files("pcid").joinpath("configs", path_or_name + ".json")
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise ConfigError(f"config {path_or_name!r} is neither a file nor a bundled config; "
                      f"bundled: {sorted(p.stem for p in resources.files('pcid').joinpath('configs').iterdir())}")


def _as_int(value, key: str, source: str) -> int:
    """An integer, an integral float such as 1e6, or a decimal string
    (PCID_SEED); never a bool or a float with a fractional part, which int()
    would silently turn into 0, 1 or a truncated count."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{source}: {key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {key} must be an integer, got {value!r}") from exc


def _as_seed(value, key: str, source: str) -> int:
    seed = _as_int(value, key, source)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{source}: {key} must lie in [0, 2^64), got {seed}")
    return seed


def parse_config(doc: dict, source: str = "<config>") -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: the config must be a JSON object, "
                          f"got {type(doc).__name__}")
    try:
        spec = spec_from_dict(doc.get("spec", {}))
    except SpecValidationError as exc:
        raise ConfigError(f"{source}: invalid spec: {exc}") from exc
    n_paths = _as_int(doc.get("n_paths", 0), "n_paths", source)
    horizon = _as_int(doc.get("horizon", 0), "horizon", source)
    if n_paths < 1:
        raise ConfigError(f"{source}: n_paths must be >= 1, got {n_paths}")
    if horizon < 1:
        raise ConfigError(f"{source}: horizon must be >= 1, got {horizon}")
    tests = doc.get("tests", [])
    if not isinstance(tests, list):
        raise ConfigError(f"{source}: tests must be a list, got {tests!r}")
    for t in tests:
        if not isinstance(t, dict) or "name" not in t:
            raise ConfigError(f"{source}: each test entry needs a 'name'")
        if t["name"] not in VERIFIERS:
            raise ConfigError(f"{source}: unknown check {t['name']!r}; "
                              f"known: {list_verifier_names()}")
        params = t.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{source}: check {t['name']!r}: params must be an object, "
                              f"got {params!r}")
        if "n_paths" in params:
            _as_int(params["n_paths"], f"check {t['name']!r}: params.n_paths", source)
        if params.get("horizon") is not None:
            _as_int(params["horizon"], f"check {t['name']!r}: params.horizon", source)
    record = doc.get("record", [])
    if not isinstance(record, list):
        raise ConfigError(f"{source}: record must be a list, got {record!r}")
    try:
        check_record(spec, record)
    except SpecValidationError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    series_format = doc.get("format", "csv")
    if series_format not in ("csv", "json"):
        raise ConfigError(f"{source}: format must be 'csv' or 'json', got {series_format!r}")
    seed = doc.get("master_seed")
    return ExperimentConfig(doc.get("name", "experiment"), spec, n_paths, horizon,
                            None if seed is None else _as_seed(seed, "master_seed", source),
                            tests, list(record), series_format, doc)


def load_config(path_or_name: str) -> ExperimentConfig:
    text = _load_config_text(path_or_name)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path_or_name}: not valid JSON: {exc}") from exc
    return parse_config(doc, source=path_or_name)


def resolve_seed(cli_seed: int | None, config_seed: int | None) -> int:
    """Seed priority: --seed flag, then the config, then PCID_SEED, then 0."""
    if cli_seed is not None:
        return _as_seed(cli_seed, "--seed", "command line")
    if config_seed is not None:
        return config_seed
    env = os.environ.get("PCID_SEED")
    if env is not None:
        return _as_seed(env, "PCID_SEED", "environment")
    return 0


# ---------------------------------------------------------------------------
# Series persistence
# ---------------------------------------------------------------------------

def _series_index(name: str, array) -> list[tuple[int, int]]:
    """(step, coordinate) of each value in one path's row of `array`: steps
    numbered from the series' first step in `SERIES` (0, the prior, for
    predictive series), coordinate -1 for series without a coordinate axis."""
    first, _, per_coord = SERIES[name]
    coords = range(array.shape[2]) if per_coord else (-1,)
    return [(s + first, c) for s in range(array.shape[1]) for c in coords]


def write_series(ens, record: list[str], out_dir: str, series_format: str) -> list[str]:
    """One file per series: CSV lines "path,step,coordinate,name,value" (each
    value's repr joined to its precomputed "step,coordinate,name," tail), or a
    JSON list of the same rows."""
    written = []
    for name in record:
        array = ens.arrays[name]
        index = _series_index(name, array)
        # (path, values) a path row at a time; tolist() yields the Python
        # floats that float(v) would
        rows = enumerate(row.tolist() for row in
                         array.reshape(len(array), len(index)).astype(float, copy=False))
        path = os.path.join(out_dir, f"series_{name}.{series_format}")
        with open(path, "w", encoding="utf-8") as fh:
            if series_format == "csv":
                fh.write(CSV_HEADER + "\n")
                tails = [f"{s},{c},{name}," for s, c in index]
                for p, values in rows:
                    head = f"{p},"
                    fh.write(head + ("\n" + head).join(map(str.__add__, tails,
                                                           map(repr, values))) + "\n")
            else:
                # the bytes of json.dump(rows as dicts, indent=1, sort_keys=True),
                # written a path row at a time: each value as json's encoder
                # writes it (NaN, Infinity), taken from its one-line list form
                fields = [(f' {{\n  "coordinate": {c},\n  "path": ',
                           f',\n  "series": {json.dumps(name)},\n  "step": {s},\n  "value": ')
                          for s, c in index]
                fh.write("[")
                for p, values in rows:
                    texts = json.dumps(values)[1:-1].split(", ")
                    fh.write(("," if p else "") + "\n" + ",\n".join(
                        [f"{head}{p}{tail}{v}\n }}" for (head, tail), v in zip(fields, texts)]))
                fh.write("\n]\n" if len(array) else "]\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _summary_table(verdicts: list) -> str:
    lines = [f"{'check':34s} {'pass':5s} {'worst margin':>12s} {'alpha':>7s} "
             f"{'paths':>8s} {'horizon':>8s}"]
    for v in verdicts:
        lines.append(f"{v.name:34s} {('PASS' if v.passed else 'FAIL'):5s} "
                     f"{v.statistic:12.4f} {v.alpha:7.3g} {v.n_paths:8d} {v.horizon:8d}")
    ok = all(v.passed for v in verdicts)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'} "
                 f"({sum(v.passed for v in verdicts)}/{len(verdicts)} checks passed)")
    return "\n".join(lines)


def run_experiment(config: ExperimentConfig, out_dir: str, *, seed: int,
                   threads: int | None = None, n_paths: int | None = None,
                   horizon: int | None = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    if threads is not None and threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    for flag, value in (("--paths", n_paths), ("--horizon", horizon)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    paths = n_paths if n_paths is not None else config.n_paths
    steps = horizon if horizon is not None else config.horizon
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_IO

    verdicts = []
    for test in config.tests:
        fn = VERIFIERS[test["name"]]
        params = dict(test.get("params", {}))
        t_paths = int(params.pop("n_paths", paths))
        t_horizon = params.pop("horizon", steps)
        t_horizon = None if t_horizon is None else int(t_horizon)
        try:
            verdicts.append(fn(config.spec, t_paths, t_horizon, seed,
                               threads=threads, **params))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"check {test['name']!r}: {exc}") from exc

    report = {
        "report_schema": REPORT_SCHEMA,
        "library_version": __version__,
        "experiment": config.name,
        "config": config.raw,
        "master_seed": seed,
        "n_paths": paths,
        "horizon": steps,
        "verdicts": [v.to_dict() for v in verdicts],
        "all_pass": all(v.passed for v in verdicts),
    }
    try:
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        table = _summary_table(verdicts) if verdicts else "no checks configured"
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        if config.record:
            ens = run_ensemble(config.spec, paths, steps, seed,
                               record=frozenset(config.record), threads=threads)
            write_series(ens, config.record, out_dir, config.series_format)
    except OSError as exc:
        print(f"error: failed to write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(table, file=stream)
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _first_doc_line(obj) -> str:
    doc = (obj.__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def cmd_list_specs(stream) -> int:
    for kind in list_spec_kinds():
        print(f"{kind:24s} {_first_doc_line(SPEC_KINDS[kind])}", file=stream)
    return EXIT_OK


def cmd_list_tests(stream) -> int:
    for name in list_verifier_names():
        print(f"{name:28s} {_first_doc_line(VERIFIERS[name])}", file=stream)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcid",
        description="Simulate p-c.i.d. processes and verify their limit theorems.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True,
                       help="path to a JSON config, or the name of a bundled one")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")
    run_p.add_argument("--paths", type=int, default=None, help="n_paths override")
    run_p.add_argument("--horizon", type=int, default=None, help="horizon override")
    run_p.add_argument("--threads", type=int, default=None,
                       help="worker processes, at least 1 (default: the cores this "
                            "process may run on); results are identical for every "
                            "value, and chunk memory does not grow with it")
    run_p.add_argument("--out", default="pcid_out", help="output directory")
    sub.add_parser("list-specs", help="list process spec kinds")
    sub.add_parser("list-tests", help="list verifier checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-specs":
        return cmd_list_specs(sys.stdout)
    if args.command == "list-tests":
        return cmd_list_tests(sys.stdout)
    try:
        config = load_config(args.config)
        seed = resolve_seed(args.seed, config.master_seed)
        return run_experiment(config, args.out, seed=seed, threads=args.threads,
                              n_paths=args.paths, horizon=args.horizon)
    except (ConfigError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
