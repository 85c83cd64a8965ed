"""Run the statistical verifiers on positive and negative controls.

Moderate sizes keep this demo quick. The test suite runs the same
verifiers at smaller sizes:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
"""

from pcid import specs
from pcid.verifiers import (
    check_clt_forecast_errors,
    check_clt_sample_mean,
    check_pcid,
    check_stopping_time,
)


def show(v):
    print(f"\n{v.name}: {'PASS' if v.passed else 'FAIL'} "
          f"(worst margin {v.statistic:.4g}, paths {v.n_paths}, horizon {v.horizon})")
    for s in v.subchecks:
        print(f"  {s.name:24s} p {s.statistic:.4g}  level {s.tolerance:.4g}  "
              f"margin {s.margin:.4g}")


seed = 20240809
uniform = specs.UniformCoupledSpec()
show(check_pcid(uniform, 3000, None, seed, n=1))

broken = specs.BrokenFeedbackWeightSpec(n_coords=2, w0=1.0, shift=0.1)
show(check_pcid(broken, 10_000, None, seed, n=1))

polya = specs.PolyaSpec(1, (1.0,), (specs.UniformBase(),))
show(check_stopping_time(polya, 10_000, 24, seed,
                         tau={"kind": "first_exceed", "threshold": 0.8, "cap": 20}))
show(check_stopping_time(specs.Ar1DriftSpec(), 10_000, 8, seed,
                         tau={"kind": "constant", "n": 5}))

rru = specs.ReinforcedSpec(2, (25.0, 25.0), (specs.UniformBase(),) * 2,
                           specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5)))
show(check_clt_forecast_errors(rru, 2000, 2000, seed))
show(check_clt_sample_mean(rru, 2000, 2000, seed))

# the sample-mean identity sees the feedback weight, which the forecast
# errors cannot; at scale 0 the weight is constant and the pair p-c.i.d.
show(check_clt_sample_mean(broken, 2000, 1000, seed))
show(check_clt_sample_mean(specs.BrokenFeedbackWeightSpec(scale=0.0), 2000, 1000, seed))
