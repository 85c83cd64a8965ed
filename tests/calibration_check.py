"""Size and power of the CLT and Gaussian verdicts, measured over many seeds.

Opt-in: pytest does not collect this file (its name does not match
`test_*.py`). It runs `check_clt_forecast_errors` and
`check_clt_sample_mean` on positive controls, which are c.i.d. or i.i.d.,
and on the negative-control families `broken_feedback_weight` (its null
at scale 0, then scales 0.25, 1 and 4) and `ar1_drift` with drift; and
`check_gaussian_limit` on the last-tick Gaussian system with Poisson
arrivals (K = 2 and K = 1) and with a fixed t0 (K = 2). Each runs over
seeds 1..N at small sizes. For every sub-check it counts the seeds that
reject, with a 95% Clopper-Pearson interval, and writes the counts to
CALIBRATION_clt.json at the repository root.

    PYTHONPATH=src python tests/calibration_check.py [--seeds 100] [--paths 500]

Every sub-check is a p-value. It holds its size on a positive control when
the interval's lower end is at most its level (its Bonferroni-adjusted
alpha); its "size_ok" entry says whether it does. The harness reports; it
does not fail on what it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from scipy import special

from pcid import specs, verifiers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HORIZON, ALPHA = 1000, 0.1
CLT = ("check_clt_forecast_errors", "check_clt_sample_mean")
GAUSSIAN = ("check_gaussian_limit",)


def _controls() -> list[tuple[str, str, object, tuple]]:
    """(label, role, spec, checks): role "positive" for a kind whose
    identities hold, "negative" for one that breaks the sample-mean
    identity."""
    uniform2 = (specs.UniformBase(),) * 2
    gaussian2 = specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0), sigma2_1=(1.0, 1.0))
    positive = [
        ("common_two_point (clt_long)", specs.ReinforcedSpec(
            2, (25.0, 25.0), uniform2, specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5)))),
        ("polya_k1", specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))),
        ("iid_gamma_weights", specs.ReinforcedSpec(
            2, (1.0, 2.0), uniform2, specs.IidWeights(specs.GammaWeight(2.5, 1.0, 0.1)))),
        ("uniform_coupled", specs.UniformCoupledSpec()),
        ("state_space_cid", specs.StateSpaceCidSpec()),
        ("gaussian_last_tick_k2", gaussian2),
        ("iid_ar1", specs.Ar1DriftSpec(phi=0.0, drift=0.0)),
        ("broken_feedback_weight scale 0", specs.BrokenFeedbackWeightSpec(scale=0.0)),
    ]
    negative = [(f"broken_feedback_weight scale {s:g}", specs.BrokenFeedbackWeightSpec(scale=s))
                for s in (0.25, 1.0, 4.0)]
    negative.append(("ar1_drift phi 0.8 drift 0.3", specs.Ar1DriftSpec(phi=0.8, drift=0.3)))
    gaussian = [
        ("gaussian_last_tick_k2", gaussian2),
        ("gaussian_last_tick_k1", specs.GaussianLastTickSpec()),
        ("gaussian_last_tick_k2 t0 1", specs.GaussianLastTickSpec(
            n_coords=2, mu1=(0.0, 0.0), sigma2_1=(1.0, 1.0), t0=1.0)),
    ]
    return ([(label, "positive", spec, CLT) for label, spec in positive]
            + [(label, "negative", spec, CLT) for label, spec in negative]
            + [(label, "positive", spec, GAUSSIAN) for label, spec in gaussian])


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """The exact two-sided binomial interval for k successes in n trials."""
    tail = (1.0 - level) / 2.0
    lo = float(special.betaincinv(k, n - k + 1, tail)) if k > 0 else 0.0
    hi = float(special.betaincinv(k + 1, n - k, 1.0 - tail)) if k < n else 1.0
    return lo, hi


def _tally(verdicts: list, positive: bool) -> dict:
    """One check's rejections over the seeds, for the verdict and for each
    of its sub-checks."""
    n = len(verdicts)
    rejected = sum(not v.passed for v in verdicts)
    entry = {"rejections": rejected, "interval": clopper_pearson(rejected, n), "subchecks": {}}
    for i, sub in enumerate(verdicts[0].subchecks):
        k = sum(not v.subchecks[i].passed for v in verdicts)
        lo, hi = clopper_pearson(k, n)
        record = {"rejections": k, "interval": [lo, hi], "level": sub.tolerance,
                  "smallest_p": min(v.subchecks[i].statistic for v in verdicts)}
        if positive:
            record["size_ok"] = lo <= sub.tolerance
        entry["subchecks"][sub.name] = record
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="seeds 1..N per control")
    parser.add_argument("--paths", type=int, default=500, help="paths per ensemble")
    parser.add_argument("--out", default=os.path.join(ROOT, "CALIBRATION_clt.json"))
    args = parser.parse_args(argv)
    seeds = range(1, args.seeds + 1)
    results = {}
    for label, role, spec, checks in _controls():
        start = time.perf_counter()
        verdicts = {check: [] for check in checks}
        for seed in seeds:
            # a control's checks read one ensemble per seed
            started = [verifiers.STARTERS[check](spec, args.paths, HORIZON, seed, alpha=ALPHA)
                       for check in checks]
            for check, verdict in zip(checks, verifiers.run_checks(spec, seed, started)):
                verdicts[check].append(verdict)
        entry = results.setdefault(label, {"role": role, "spec": spec.to_dict()})
        for check in checks:
            tally = entry[check] = _tally(verdicts[check], role == "positive")
            subs = ", ".join(f"{name} {s['rejections']}" for name, s in tally["subchecks"].items())
            print(f"{label:34s} {check:26s} {tally['rejections']:3d}/{len(seeds)} "
                  f"rejected ({subs})", file=sys.stderr)
        print(f"  {time.perf_counter() - start:.1f} s", file=sys.stderr)
    doc = {"what": "rejections of the CLT and Gaussian verdicts and of each sub-check "
                   "over seeds 1..N",
           "n_paths": args.paths, "horizon": HORIZON, "alpha": ALPHA, "seeds": len(seeds),
           "interval": "Clopper-Pearson, 95%", "results": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
