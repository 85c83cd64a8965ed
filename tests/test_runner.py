import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from pcid import runner
from pcid.processes import SERIES
from pcid.runner import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    parse_config,
    resolve_seed,
)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_list_subcommands(capsys):
    assert main(["list-specs"]) == EXIT_OK
    out = capsys.readouterr().out
    for kind in ("polya", "reinforced", "uniform_coupled", "gaussian_last_tick",
                 "state_space_cid"):
        assert kind in out
    lines = [ln.split()[0] for ln in out.strip().splitlines()]
    assert lines == sorted(lines)
    assert main(["list-tests"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("check_pcid", "check_stopping_time", "check_clt_forecast_errors",
                 "check_clt_sample_mean", "check_gaussian_limit"):
        assert name in out


def test_unknown_config_exits_2(capsys):
    assert main(["run", "--config", "no_such_config"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("config,code", [
    pytest.param("missing.json", EXIT_CONFIG, id="missing"),
    pytest.param("invalid.json", EXIT_CONFIG, id="invalid_json"),
    pytest.param("a_directory", EXIT_CONFIG, id="directory"),
    pytest.param("latin1.json", EXIT_CONFIG, id="not_utf8"),
    pytest.param("polya_baseline", EXIT_IO, id="out_is_a_file"),
])
def test_unreadable_config_or_output_writes_nothing(config, code, tmp_path, capsys):
    # a config that cannot be read or parsed exits 2 and an --out that is a
    # regular file exits 3, each with one error line and nothing written
    (tmp_path / "invalid.json").write_text('{"spec": ')
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    out = tmp_path / "out"
    if code == EXIT_IO:
        out.write_text("kept")
    before = sorted(os.listdir(tmp_path))
    path = config if code == EXIT_IO else str(tmp_path / config)
    assert main(["run", "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert code == EXIT_IO or path in err[0]
    assert sorted(os.listdir(tmp_path)) == before
    assert code == EXIT_CONFIG or read(out) == "kept"


def test_unknown_spec_kind_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"spec": {"kind": "martian"}, "n_paths": 10, "horizon": 5}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown spec kind" in capsys.readouterr().err


def test_malformed_spec_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"spec": {"kind": "reinforced",
                                        "coupling": {"kind": "common_weight"}},
                               "n_paths": 10, "horizon": 5}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "coupling.dist" in capsys.readouterr().err
    # json reads NaN; a NaN initial mean is a config error, not a failed verdict
    cfg.write_text(json.dumps({"spec": {"kind": "gaussian_last_tick", "mu1": [float("nan")]},
                               "n_paths": 10, "horizon": 1000,
                               "tests": [{"name": "check_gaussian_limit"}]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "mu1[0]" in capsys.readouterr().err


@pytest.mark.parametrize("doc,key", [
    ({"spec": {"kind": "polya"}, "n_paths": "abc", "horizon": 5}, "n_paths"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5, "master_seed": "x"},
     "master_seed"),
    ([{"spec": {"kind": "polya"}}], "JSON object"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5,
      "tests": [{"name": "check_pcid", "params": 3}]}, "params"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5,
      "tests": [{"name": "check_pcid", "params": {"n_paths": "many"}}]}, "params.n_paths"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5,
      "tests": [{"name": "check_pcid", "params": {"horizon": [3]}}]}, "params.horizon"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5, "master_seed": -1,
      "record": ["observations"]}, "master_seed"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5, "master_seed": 2 ** 64,
      "record": ["observations"]}, "master_seed"),
    # int() would truncate these or read a bool as 0 or 1
    ({"spec": {"kind": "polya"}, "n_paths": 2.9, "horizon": 5}, "n_paths"),
    ({"spec": {"kind": "polya"}, "n_paths": True, "horizon": 5}, "n_paths"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 24.7}, "horizon"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5, "master_seed": 3.5},
     "master_seed"),
    ({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5,
      "tests": [{"name": "check_pcid", "params": {"n_paths": 2.5}}]}, "params.n_paths"),
])
def test_malformed_config_value_exits_2(doc, key, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_integral_float_sizes_parse():
    cfg = parse_config({"spec": {"kind": "polya"}, "n_paths": 1e6, "horizon": 24.0,
                        "master_seed": 3.0})
    assert (cfg.n_paths, cfg.horizon, cfg.master_seed) == (1_000_000, 24, 3)
    assert all(type(v) is int for v in (cfg.n_paths, cfg.horizon, cfg.master_seed))


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated an ensemble for a check that was misconfigured")


# A case whose message changed keeps its id, which names the rule it tests.
@pytest.mark.parametrize("test,key", [
    pytest.param({"name": "check_stopping_time", "params": {"tau": 5}},
                 "params.tau: expected a dict with a 'kind'", id="test0-tau must be an object"),
    ({"name": "check_stopping_time", "params": {"tau": {"kind": "constant"}}}, "tau.n"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "first_exceed", "threshold": 0.8}}}, "tau.cap"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "first_exceed", "cap": 3}}}, "tau.threshold"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "first_exceed", "threshold": "high", "cap": 3}}},
     "tau.threshold"),
    ({"name": "check_stopping_time", "params": {"tau": {"kind": "constant", "n": 3.7}}},
     "tau.n"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "first_exceed", "threshold": 0.8, "cap": 3.7}}}, "tau.cap"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "constant", "n": 3}, "coord": -1}}, "coord"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "constant", "n": 3}, "coord": 2}}, "coord"),
    ({"name": "check_pcid", "params": {"coord": -1}}, "coord"),
    ({"name": "check_pcid", "params": {"coord": 2}}, "coord"),
    ({"name": "check_pcid", "params": {"n": True}}, "n must"),
    ({"name": "check_pcid", "params": {"n_permutations": 1.5}}, "n_permutations"),
    ({"name": "check_pcid", "params": {"max_group": 0}}, "max_group"),
    ({"name": "check_pcid", "params": {"alpha": 0}}, "alpha"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "constant", "n": 3}, "alpha": -1}}, "alpha"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "constant", "n": 3}, "alpha": True}}, "alpha"),
    ({"name": "check_clt_sample_mean", "params": {"alpha": 1}}, "alpha"),
    # no observation exceeds NaN or +inf, and every one exceeds -inf: tau
    # would silently be the cap, or 1
    pytest.param({"name": "check_stopping_time", "params": {"tau": {
        "kind": "first_exceed", "threshold": float("nan"), "cap": 3}}},
        "params.tau: threshold must be finite", id="test18-tau.threshold"),
    # a null horizon: only check_pcid derives one
    *[pytest.param({"name": name, "params": {"horizon": None, **params}},
                   "params.horizon: horizon must be an integer >= 1, got None",
                   id=f"test{i}-{name} needs a horizon")
      for i, name, params in ((19, "check_stopping_time", {"tau": {"kind": "constant", "n": 3}}),
                              (20, "check_clt_forecast_errors", {}),
                              (21, "check_clt_sample_mean", {}),
                              (22, "check_gaussian_limit", {}))],
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "first_exceed", "threshold": float("inf"), "cap": 3}}},
     "params.tau: threshold must be finite"),
    ({"name": "check_stopping_time",
      "params": {"tau": {"kind": "first_exceed", "threshold": -float("inf"), "cap": 3}}},
     "params.tau: threshold must be finite"),
    # one path: a CLT check once simulated it and wrote a FAIL report
    ({"name": "check_clt_forecast_errors", "params": {"n_paths": 1, "horizon": 1000}},
     "n_paths >= 2"),
    ({"name": "check_clt_sample_mean", "params": {"n_paths": 1, "horizon": 1000}},
     "n_paths >= 2"),
])
def test_check_params_rejected_before_simulating(test, key, monkeypatch, tmp_path, capsys):
    from pcid import verifiers
    monkeypatch.setattr(verifiers, "map_path_chunks", _no_simulation)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "polya", "n_coords": 2}, "n_paths": 10,
                               "horizon": 6, "tests": [test]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


_GOOD_CHECK = {"name": "check_stopping_time", "params": {"tau": {"kind": "constant", "n": 3}}}


@pytest.mark.parametrize("doc,key", [
    ({"spec": {"kind": "polya", "w_0": [5, 5]}}, "w_0: undeclared key"),
    ({"spec": {"kind": "polya", "base": [{"kind": "uniform", "bb": 3}, {"kind": "uniform"}]}},
     "base[0].bb: undeclared key"),
    ({"spec": {"kind": "reinforced", "coupling": {"kind": "common_weight", "dist": {
        "kind": "two_point", "p": 0.5}}}}, "coupling.dist.p: undeclared key"),
    ({"master_sed": 7}, "master_sed: undeclared key"),
    ({"kind": "polya"}, "kind: undeclared key"),
    ({"tests": [_GOOD_CHECK, {"name": "check_pcid", "parms": {"n": 1}}]},
     "tests[1].parms: undeclared key"),
    ({"tests": [{"name": "check_pcid", "params": {"alpah": 0.1}}]},
     "tests[0].params.alpah: undeclared key"),
    ({"tests": [{"name": "check_pcid", "params": {"threads": 1}}]},
     "tests[0].params.threads: undeclared key"),
    ({"tests": [{"name": "check_stopping_time",
                 "params": {"tau": {"kind": "constant", "n": 3, "cap": 5}}}]},
     "tests[0].params.tau.cap: undeclared key"),
    ({"format": "csv"}, "format: undeclared key"),
])
def test_undeclared_key_exits_2_at_every_level(doc, key, monkeypatch, tmp_path, capsys):
    # each of these keys was once dropped: the run went on with the default
    from pcid import verifiers
    monkeypatch.setattr(verifiers, "map_path_chunks", _no_simulation)
    cfg = tmp_path / "cfg.json"
    base = {"spec": {"kind": "polya", "n_coords": 2}, "n_paths": 10, "horizon": 6,
            "record": ["observations"]}
    cfg.write_text(json.dumps({**base, **doc, "spec": {**base["spec"], **doc.get("spec", {})}}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad,key", [
    ({"name": "check_gaussian_limit", "params": {"alpha": 2}}, "tests[1].params.alpha"),
    ({"name": "check_gaussian_limit", "parms": {"alpha": 0.05}}, "tests[1].parms"),
    ({"name": "check_gaussian_limit", "params": {"alpah": 0.05}}, "tests[1].params.alpah"),
])
def test_later_check_rejected_before_anything_simulates(bad, key, monkeypatch, tmp_path,
                                                        capsys):
    # the first check would simulate 20000 x 1000 paths before the second
    # one's parameters were looked at
    from pcid import verifiers
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("simulated before every check's parameters were checked")

    monkeypatch.setattr(verifiers, "map_path_chunks", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "gaussian_last_tick", "n_coords": 2},
                               "n_paths": 20000, "horizon": 1000,
                               "tests": [{"name": "check_gaussian_limit"}, bad]}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert calls == []
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("n_coords,bad,key", [
    (2, {"name": "check_pcid", "params": {"coord": 2}}, "coord must lie in [0, 2)"),
    (2, {"name": "check_stopping_time", "params": {"tau": {"kind": "constant", "n": 3},
                                                   "coord": 2}}, "coord must lie in [0, 2)"),
    (2, {"name": "check_pcid", "params": {"n": 5}}, "need horizon >= n + 2 = 7, got 6"),
    (2, {"name": "check_stopping_time", "params": {"tau": {"kind": "constant", "n": 6}}},
     "stopping rule bound 6 exceeds horizon - 1 = 5"),
    (2, {"name": "check_stopping_time",
         "params": {"tau": {"kind": "first_exceed", "threshold": 0.5, "cap": 6}}},
     "stopping rule bound 6 exceeds horizon - 1 = 5"),
    (2, {"name": "check_clt_forecast_errors", "params": {"n_paths": 1}}, "n_paths >= 2"),
    (2, {"name": "check_gaussian_limit"}, "applies to the gaussian_last_tick kind"),
    (1, {"name": "check_pcid"}, "requires at least 2 coordinates"),
    (2, {"name": "check_clt_sample_mean", "params": {"n_paths": 1}}, "n_paths >= 2"),
])
def test_later_relation_error_exits_2_before_anything_simulates(n_coords, bad, key,
                                                                 monkeypatch, tmp_path, capsys):
    # a check's parameters against the spec and the sizes: the valid first
    # check once simulated before the second one's were looked at
    from pcid import verifiers
    monkeypatch.setattr(verifiers, "map_path_chunks", _no_simulation)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "polya", "n_coords": n_coords},
                               "n_paths": 10, "horizon": 6, "tests": [_GOOD_CHECK, bad],
                               "record": ["observations"]}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: check {bad['name']!r}: ") and key in err
    assert os.listdir(out) == []


def _spy_on_simulation(monkeypatch) -> list:
    """The (n_paths, horizon) of every ensemble simulated from now on."""
    from pcid import verifiers
    real_map, calls = verifiers.map_path_chunks, []

    def spy(spec, n_paths, horizon, *args, **kwargs):
        calls.append((n_paths, horizon))
        return real_map(spec, n_paths, horizon, *args, **kwargs)
    monkeypatch.setattr(verifiers, "map_path_chunks", spy)
    return calls


def test_checks_of_equal_size_share_one_ensemble(monkeypatch, tmp_path):
    # the two stopping-time checks read one 4000 x 24 ensemble, the
    # joint-law check its own 4000 x 3
    calls = _spy_on_simulation(monkeypatch)
    assert main(["run", "--config", "polya_baseline", "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == [(4000, 3), (4000, 24)]


def test_clt_checks_and_record_share_one_ensemble(monkeypatch, tmp_path):
    from pcid import specs, verifiers
    from pcid.engine import run_ensemble
    doc = {"kind": "polya", "n_coords": 2}
    spec = specs.spec_from_dict(doc)
    alone = [verifiers.check_clt_forecast_errors(spec, 40, 1000, 5).to_dict(),
             verifiers.check_clt_sample_mean(spec, 40, 1000, 5).to_dict()]
    runner.write_series(run_ensemble(spec, 40, 1000, 5, record=frozenset({"observations"})),
                        ["observations"], str(tmp_path))
    calls = _spy_on_simulation(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": doc, "n_paths": 40, "horizon": 1000, "master_seed": 5,
                               "tests": [{"name": "check_clt_forecast_errors"},
                                         {"name": "check_clt_sample_mean"}],
                               "record": ["observations"]}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert calls == [(40, 1000)]
    assert json.loads(read(out / "report.json"))["verdicts"] == alone
    assert read(out / "series_observations.csv") == read(tmp_path / "series_observations.csv")


def test_out_of_range_seed_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5,
                               "record": ["observations"]}))
    args = ["run", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "o")]
    assert main(args) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["record_only", "polya_baseline"])
def test_threads_below_one_exits_2(config, tmp_path, capsys):
    if config == "record_only":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"spec": {"kind": "polya"}, "n_paths": 10,
                                      "horizon": 5, "record": ["observations"]}))
    out = tmp_path / "o"
    args = ["run", "--config", str(config), "--threads", "0", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flag, value", [("--paths", "0"), ("--paths", "-3"),
                                         ("--horizon", "0")])
def test_size_override_below_one_exits_2_before_simulating(flag, value, monkeypatch,
                                                           tmp_path, capsys):
    from pcid import verifiers
    monkeypatch.setattr(verifiers, "map_path_chunks", _no_simulation)
    out = tmp_path / "o"
    args = ["run", "--config", "uniform_coupled_demo", flag, value, "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_unknown_test_name_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"spec": {"kind": "polya"}, "n_paths": 10, "horizon": 5,
                               "tests": [{"name": "check_everything"}]}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["polya_baseline", "broken_weight_coupling",
                                    "gaussian_last_tick_limit"])
def test_one_path_run_exits_2(config, tmp_path, capsys):
    # a two-sample check cannot split one path into two halves, and a check
    # of an ensemble statistic has no spread to take over one path
    out = tmp_path / "o"
    assert main(["run", "--config", config, "--paths", "1", "--out", str(out)]) == EXIT_CONFIG
    assert "n_paths >= 2" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_positive_control_config_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", "polya_baseline", "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "report.json"))
    assert report["all_pass"] is True
    assert report["report_schema"] == 7
    assert report["library_version"]
    assert report["master_seed"] == 2024
    assert report["config"]["spec"]["kind"] == "polya"
    assert len(report["verdicts"]) == 3
    assert "overall: PASS" in read(out / "summary.txt")


def test_summary_names_the_worst_subcheck(tmp_path, capsys):
    from pcid import verifiers

    def verdict(*p_values):
        return verifiers._verdict("check", {f"s{i}": p for i, p in enumerate(p_values)},
                                  0.01, 10, 10, 1, {})

    rows = runner._summary_table([verdict(0.3, 0.01, 0.5), verdict(0.3, float("nan"))]
                                 ).splitlines()[1:3]
    assert [row.split()[3] for row in rows] == ["s1", "s1"]
    out = tmp_path / "out"
    assert main(["run", "--config", "broken_weight_coupling", "--out", str(out)]) == 1
    line = read(out / "summary.txt").splitlines()[1]
    assert line.split()[:4] == ["check_pcid", "FAIL", "2.0000", "energy_distance_p"]
    assert line in capsys.readouterr().out


def test_overflowing_weights_exit_2(tmp_path):
    # the cross fraction beta = 1 grows the total weight until a step's atom
    # weight overflows: the kernel refuses it, as the scalar step does. The
    # first failing chunk, and so its step, depends on the plan: the error
    # names no step, and nothing else (no numpy warning from a worker) is
    # written, so stderr is the same at every thread count
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"spec": {"kind": "uniform_coupled",
                                        "beta": {"kind": "constant_one"}},
                               "n_paths": 300, "horizon": 1000, "master_seed": 0,
                               "tests": [{"name": "check_clt_sample_mean"}]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for threads in (1, 2, 3):
        proc = subprocess.run([sys.executable, "-m", "pcid.runner", "run", "--config", str(cfg),
                               "--threads", str(threads), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == EXIT_CONFIG, threads
        assert proc.stderr == (b"error: check 'check_clt_sample_mean': atom weight must be "
                               b"non-negative and finite, got inf\n"), threads


def test_negative_control_config_fails(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", "broken_weight_coupling", "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    report = json.loads(read(out / "report.json"))
    assert report["all_pass"] is False
    assert report["verdicts"][0]["name"] == "check_pcid"
    assert report["verdicts"][0]["pass"] is False


def test_report_byte_identical_across_reruns_and_threads(tmp_path):
    args = ["run", "--config", "polya_baseline", "--seed", "7"]
    outs = []
    for i, threads in enumerate(("1", "2", "3")):
        out = tmp_path / f"out{i}"
        assert main(args + ["--threads", threads, "--out", str(out)]) == EXIT_OK
        outs.append(read(out / "report.json"))
    assert outs[0] == outs[1] == outs[2]


def test_seed_resolution_order(monkeypatch):
    assert resolve_seed(5, 9) == 5
    assert resolve_seed(None, 9) == 9
    assert resolve_seed(None, None) == 0
    # the environment is not a seed source
    for value in ("123", "xyz"):
        monkeypatch.setenv("PCID_SEED", value)
        assert resolve_seed(None, None) == 0
        assert resolve_seed(None, 9) == 9


def test_series_csv_schema(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "series_demo",
        "spec": {"kind": "polya", "n_coords": 2},
        "n_paths": 3, "horizon": 4, "master_seed": 11,
        "record": ["observations", "predictive_mean"],
    }))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    obs = read(out / "series_observations.csv").strip().splitlines()
    assert obs[0] == "path,step,coordinate,series,value"
    assert len(obs) == 1 + 3 * 4 * 2
    first = obs[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "0"
    assert first[3] == "observations"
    float(first[4])
    pred = read(out / "series_predictive_mean.csv").strip().splitlines()
    assert len(pred) == 1 + 3 * 5 * 2          # prior row at step 0
    assert pred[1].split(",")[1] == "0"
    # series without a coordinate axis: arrivals T_1..T_{H+1}, lambdas and
    # the latent level over steps 1..H
    for kind, name, steps in (("gaussian_last_tick", "arrivals", range(1, 6)),
                              ("gaussian_last_tick", "lambdas", range(1, 5)),
                              ("state_space_cid", "theta", range(1, 5))):
        cfg.write_text(json.dumps({"spec": {"kind": kind}, "n_paths": 3, "horizon": 4,
                                   "master_seed": 11, "record": [name]}))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = [r.split(",") for r in read(out / f"series_{name}.csv").strip().splitlines()[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(p, s) for p in range(3) for s in steps]
        assert all(r[2] == "-1" and r[3] == name for r in rows)


def test_series_csv_values_format_as_float_repr(tmp_path):
    # every line equals the per-value f-string form, for signed zero, the
    # smallest subnormal, large and small magnitudes, an inexact sum, NaN
    # and both infinities, with and without a coordinate axis
    special = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, np.nan, np.inf, -np.inf])
    arrays = {"observations": np.resize(special, (3, 4, 2)),
              "arrivals": np.resize(special[::-1], (3, 5))}
    runner.write_series(SimpleNamespace(arrays=arrays), list(arrays), str(tmp_path))
    for name, array in arrays.items():
        first, _, per_coord = SERIES[name]
        want = ["path,step,coordinate,series,value"]
        for p in range(array.shape[0]):
            for s in range(array.shape[1]):
                for c in (range(array.shape[2]) if per_coord else (-1,)):
                    v = array[p, s, c] if per_coord else array[p, s]
                    want.append(f"{p},{s + first},{c},{name},{float(v)!r}")
        assert read(tmp_path / f"series_{name}.csv") == "\n".join(want) + "\n"


def test_series_reject_unavailable(tmp_path, capsys):
    # a series of another kind, a terminal summary (not a series) and an
    # unknown name all exit 2 before the check runs, so nothing is written
    for i, name in enumerate(("arrivals", "total_weight", "no_such_series")):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({
            "spec": {"kind": "polya", "n_coords": 1},
            "n_paths": 20, "horizon": 2, "record": ["observations", name],
            "tests": [{"name": "check_stopping_time",
                       "params": {"tau": {"kind": "constant", "n": 1}}}],
        }))
        out = tmp_path / f"o{i}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"record: spec kind 'polya' records no ['{name}']" in capsys.readouterr().err
        assert not out.exists()


def test_cli_overrides_sizes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": {"kind": "polya", "n_coords": 1},
        "n_paths": 100, "horizon": 10, "master_seed": 3,
        "tests": [{"name": "check_stopping_time",
                   "params": {"tau": {"kind": "constant", "n": 3}}}],
    }))
    assert main(["run", "--config", str(cfg), "--paths", "600", "--horizon", "8",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "report.json"))
    assert report["n_paths"] == 600 and report["horizon"] == 8
    assert report["verdicts"][0]["n_paths"] == 600


def test_parse_config_validates_sizes():
    with pytest.raises(ConfigError, match="n_paths"):
        parse_config({"spec": {"kind": "polya"}, "n_paths": 0, "horizon": 5})


def test_load_bundled_configs_all_parse():
    for name in ("polya_baseline", "broken_weight_coupling", "uniform_coupled_demo",
                 "gaussian_last_tick_limit"):
        cfg = load_config(name)
        assert cfg.n_paths >= 1


# Imports pcid.runner in a fresh interpreter, runs every verifier on uniform
# (or Gaussian) bases at a small size, and prints the scipy modules then
# loaded. The stopping-time check reads a p of about 1e-11 on the drifting
# AR(1) sequence: its KS p-value is the exact law, formed without scipy.
_RUN_EVERY_VERIFIER = """
import sys
import pcid.runner
from pcid import specs
from pcid.verifiers import VERIFIERS
rru = specs.ReinforcedSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2,
                           specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5)))
calls = {
    "check_pcid": (rru, 20, None, {"n": 1}),
    "check_stopping_time": (specs.Ar1DriftSpec(), 400, 8, {"tau": {"kind": "constant",
                                                                  "n": 6}}),
    "check_clt_forecast_errors": (rru, 20, 1000, {}),
    "check_clt_sample_mean": (rru, 20, 1000, {}),
    "check_gaussian_limit": (specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0),
                                                        sigma2_1=(1.0, 1.0)), 20, 1000, {}),
}
assert sorted(calls) == sorted(VERIFIERS), sorted(VERIFIERS)
for name, (spec, paths, horizon, kw) in calls.items():
    VERIFIERS[name](spec, paths, horizon, 0, threads=1, **kw)
"""


def _run_fresh(script: str) -> str:
    """stdout of `script` run by a fresh interpreter that imports pcid from
    this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_run_does_not_import_scipy_stats():
    # scipy.stats costs more than half of a pcid run's start-up: no check
    # on these bases loads any scipy module
    assert _run_fresh(_RUN_EVERY_VERIFIER + _SCIPY_LOADED) == "[]"


_SCIPY_LOADED = 'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'


def test_import_loads_no_scipy():
    # start-up pays for no scipy module: each is imported by the call that needs it
    assert _run_fresh("import sys\nimport pcid, pcid.runner\n" + _SCIPY_LOADED) == "[]"


# Runs the forecast-error CLT check where S is far from N(0, 1), and the
# Gaussian check: their p-values are z-tests, from math.erfc.
_RUN_CLT_AND_GAUSSIAN_CHECKS = """
import sys
from pcid import specs
from pcid.verifiers import check_clt_forecast_errors, check_gaussian_limit
gauss = specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0), sigma2_1=(1.0, 1.0))
check_clt_forecast_errors(specs.UniformCoupledSpec(), 500, 1000, 2, threads=1)
check_gaussian_limit(gauss, 400, 1000, 3, threads=1)
"""


def test_clt_and_gaussian_checks_load_no_scipy():
    assert _run_fresh(_RUN_CLT_AND_GAUSSIAN_CHECKS + _SCIPY_LOADED) == "[]"


# The joint-law check builds its energy-test distances in numpy.
_RUN_PCID_CHECK = """
import sys
from pcid import specs
from pcid.verifiers import check_pcid
polya = specs.PolyaSpec(2, (1.0, 1.0), (specs.UniformBase(),) * 2)
check_pcid(polya, 400, None, 3, n=1, threads=1)
"""


def test_pcid_check_loads_no_scipy():
    assert _run_fresh(_RUN_PCID_CHECK + _SCIPY_LOADED) == "[]"
