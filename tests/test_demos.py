"""Smoke test: every demo runs cleanly; demo 03 prints the Gaussian
system's moments against their exact values at its horizon, demo 04 every
verdict's p-values, levels and margins, and demo 05 the distances and
strong-law gaps it has always printed."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))

# the text is a pure function of the demo's spec, sizes and seed
STDOUT = {"03_gaussian_last_tick.py": """\
gamma_hat over 30k paths, horizon 1000, against its exact moments:
  mean    0.33460   exact 0.33400   (limit 0.33333)
  E[g^2]  0.14930   exact 0.14901
  var     0.03735   exact 0.03746

terminal predictive mean, coordinate 0:
  mean (mu_H - mu_1)^2       0.66534
  exact (1 - E[gamma]) s2_1  0.66600

shared arrival times couple the coordinates:
  mean (A_0 A_1)^2           0.48910
  exact E[(1 - gamma)^2]     0.48101
  against independent coordinates, (1 - E[gamma])^2 = 0.44356
""", "04_limit_theorem_checks.py": """\

check_pcid: PASS (worst margin 0.01709, paths 3000, horizon 3)
  energy_distance_p        p 0.585  level 0.01  margin 0.01709

check_pcid: FAIL (worst margin 2, paths 10000, horizon 3)
  energy_distance_p        p 0.005  level 0.01  margin 2

check_stopping_time: PASS (worst margin 0.01684, paths 10000, horizon 24)
  ks_p                     p 0.5937  level 0.01  margin 0.01684

check_stopping_time: FAIL (worst margin 1.497e+267, paths 10000, horizon 8)
  ks_p                     p 6.682e-270  level 0.01  margin 1.497e+267

check_clt_forecast_errors: PASS (worst margin 0.0316, paths 2000, horizon 2000)
  variance_coord0          p 0.1055  level 0.003333  margin 0.0316
  variance_coord1          p 0.2954  level 0.003333  margin 0.01128
  cross_covariance_01      p 0.2227  level 0.003333  margin 0.01497

check_clt_sample_mean: PASS (worst margin 0.01202, paths 2000, horizon 2000)
  variance_coord0          p 0.8521  level 0.003333  margin 0.003912
  variance_coord1          p 0.2773  level 0.003333  margin 0.01202
  cross_covariance         p 0.7688  level 0.003333  margin 0.004336

check_clt_sample_mean: FAIL (worst margin 2.209e+199, paths 2000, horizon 1000)
  variance_coord0          p 5.347e-97  level 0.003333  margin 6.234e+93
  variance_coord1          p 5.414e-126  level 0.003333  margin 6.157e+122
  cross_covariance         p 1.509e-202  level 0.003333  margin 2.209e+199

check_clt_sample_mean: PASS (worst margin 0.07207, paths 2000, horizon 1000)
  variance_coord0          p 0.04625  level 0.003333  margin 0.07207
  variance_coord1          p 0.09665  level 0.003333  margin 0.03449
  cross_covariance         p 0.1722  level 0.003333  margin 0.01935
""", "05_predictions_vs_frequencies.py": """\
Kolmogorov distance |empirical - terminal predictive| per path
  n =   100: marginal mean 0.0472 max 0.1134 | joint rectangles mean 0.0556 max 0.1117
  n =  1000: marginal mean 0.0136 max 0.0321 | joint rectangles mean 0.0168 max 0.0276
  n =  4000: marginal mean 0.0001 max 0.0002 | joint rectangles mean 0.0040 max 0.0109

strong law for the coordinate product:
  |running average - product of terminal predictive means| mean 0.0005, max 0.0017
  running average of log(X1 + X2) at n = 4000: -0.0891 across paths (per-path limits are random)
"""}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo in STDOUT:
        assert proc.stdout == STDOUT[demo]
