"""Experiment orchestration and the `pcid` command-line interface.

An experiment config is a single JSON document: a process spec, ensemble
sizes, a master seed, the verifier checks to run (with per-check
overrides), and the series to persist. The runner starts every check, runs
them and the series on one ensemble per size, prints a summary table, and
writes report.json, summary.txt and a series_<name>.csv per series.

Reports are byte-identical across reruns with the same seed and across
worker counts: they contain the config, resolved seed, sizes, verdicts,
and the library version - nothing machine- or schedule-dependent.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error (unknown kind or check, undeclared key, invalid value), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from . import __version__
from .engine import Ensemble, check_record
from .processes import SERIES, ProcessError
from .specs import (SPEC_KINDS, SpecValidationError, _check_domain, _check_keys, _DictForm,
                    _in, _int, _list, _require, list_spec_kinds, spec_from_dict)
from .verifiers import STARTERS, VERIFIERS, fit_params, list_verifier_names, run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

REPORT_SCHEMA = 4

CSV_HEADER = "path,step,coordinate,series,value"


class ConfigError(Exception):
    pass


def _read_tests(entries, where: str) -> list:
    """The config's test entries, as given: each names a check, and its
    params, if any, are arguments that check takes (`verifiers.fit_params`)."""
    for i, test in enumerate(_list(entries)):
        at = f"{where}[{i}]"
        _require(isinstance(test, dict) and "name" in test, at, "expected an object with a 'name'")
        _check_keys(test, ("name", "params"), at)
        _require(test["name"] in VERIFIERS, f"{at}.name",
                 f"unknown check {test['name']!r}; known: {list_verifier_names()}")
        fit_params(VERIFIERS[test["name"]], test.get("params", {}), f"{at}.params")
    return entries


@dataclass
class ExperimentConfig(_DictForm):
    """An experiment config, read from its JSON object as a spec is
    (`specs._DictForm`): each field below is a key, and no other key is."""

    spec: object = field(metadata={"read": lambda d, where: spec_from_dict(d)})
    n_paths: int = _in("size")
    horizon: int = _in("size")
    name: str = "experiment"
    master_seed: int | None = _in("seed", None)
    tests: list = field(default_factory=list, metadata={"read": _read_tests})
    record: list = field(default_factory=list)
    series_format: str = field(default="csv", metadata={"key": "format"})
    raw: dict = field(default_factory=dict, init=False)   # the JSON object, for the report

    def _relations(self, where: str) -> None:
        _require(self.series_format in ("csv", "json"), "format",
                 f"must be 'csv' or 'json', got {self.series_format!r}")
        check_record(self.spec, self.record)


def _load_config_text(path_or_name: str) -> str:
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            return fh.read()
    bundled = resources.files("pcid").joinpath("configs", path_or_name + ".json")
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise ConfigError(f"config {path_or_name!r} is neither a file nor a bundled config; "
                      f"bundled: {sorted(p.stem for p in resources.files('pcid').joinpath('configs').iterdir())}")


def parse_config(doc: dict, source: str = "<config>") -> ExperimentConfig:
    """The config `doc`, every value it alone decides checked, so that a bad
    one is rejected before anything is simulated."""
    try:
        _require(isinstance(doc, dict), "config", f"not a JSON object: {type(doc).__name__}")
        config = ExperimentConfig.from_dict(doc)
        config.validate()
    except SpecValidationError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    config.raw = doc
    return config


def load_config(path_or_name: str) -> ExperimentConfig:
    text = _load_config_text(path_or_name)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path_or_name}: not valid JSON: {exc}") from exc
    return parse_config(doc, source=path_or_name)


def resolve_seed(cli_seed: int | None, config_seed: int | None) -> int:
    """Seed priority: --seed flag, then the config, then PCID_SEED, then 0.
    Each is read and checked as the config's master_seed is."""
    for name, value in (("--seed", cli_seed), ("master_seed", config_seed),
                        ("PCID_SEED", os.environ.get("PCID_SEED"))):
        if value is not None:
            try:
                seed = _int(value)
            except ValueError as exc:
                raise ConfigError(f"{name}: cannot read {value!r}: {exc}") from None
            _check_domain("seed", seed, name, "the seed")
            return seed
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

def _worst_subcheck(verdict) -> str:
    """The name of the sub-check that sets the verdict's worst margin."""
    return max(verdict.subchecks, key=lambda sub: sub.margin).name


def _summary_table(verdicts: list) -> str:
    lines = [f"{'check':34s} {'pass':5s} {'worst margin':>12s} {'worst sub-check':28s} "
             f"{'alpha':>7s} {'paths':>8s} {'horizon':>8s}"]
    for v in verdicts:
        lines.append(f"{v.name:34s} {('PASS' if v.passed else 'FAIL'):5s} "
                     f"{v.statistic:12.4f} {_worst_subcheck(v):28s} {v.alpha:7.3g} "
                     f"{v.n_paths:8d} {v.horizon:8d}")
    ok = all(v.passed for v in verdicts)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'} "
                 f"({sum(v.passed for v in verdicts)}/{len(verdicts)} checks passed)")
    return "\n".join(lines)


def run_experiment(config: ExperimentConfig, out_dir: str, *, seed: int,
                   threads: int | None = None, n_paths: int | None = None,
                   horizon: int | None = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    for flag, value in (("--threads", threads), ("--paths", n_paths), ("--horizon", horizon)):
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

    started = []    # every check, its relations checked, before anything is simulated
    for test in config.tests:
        args = {"n_paths": paths, "horizon": steps, **test.get("params", {})}
        try:
            started.append(STARTERS[test["name"]](config.spec, master_seed=seed, **args))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"check {test['name']!r}: {exc}") from exc
    if config.record:
        def recorder():     # a check body whose result is the recorded series
            yield (yield paths, steps, frozenset(config.record),
                   lambda ens: {name: ens.arrays[name] for name in config.record})
        body = recorder()
        started.append(("record", body, next(body)))
    try:
        results = run_checks(config.spec, seed, started, threads)
    except (ValueError, TypeError, ProcessError) as exc:
        raise ConfigError(f"check {', '.join(map(repr, exc.checks))}: {exc}") from exc
    verdicts = results[:len(config.tests)]

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
            ens = Ensemble(config.spec, paths, steps, seed, frozenset(config.record), results[-1])
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
