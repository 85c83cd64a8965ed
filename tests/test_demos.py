"""Smoke test: the demos that call the reinforced-mixture API run cleanly,
and demo 05 prints the distances and strong-law gaps it has always printed."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the text is a pure function of the demo's spec, sizes and seed
STDOUT = {"05_predictions_vs_frequencies.py": """\
Kolmogorov distance |empirical - terminal predictive| per path
  n =   100: marginal mean 0.0472 max 0.1134 | joint rectangles mean 0.0556 max 0.1117
  n =  1000: marginal mean 0.0136 max 0.0321 | joint rectangles mean 0.0168 max 0.0276
  n =  4000: marginal mean 0.0001 max 0.0002 | joint rectangles mean 0.0040 max 0.0109

strong law for the coordinate product:
  |running average - product of terminal predictive means| mean 0.0005, max 0.0017
  running average of log(X1 + X2) at n = 4000: -0.0891 across paths (per-path limits are random)
"""}


@pytest.mark.parametrize("demo", ["01_reinforced_predictives.py",
                                  "05_predictions_vs_frequencies.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo in STDOUT:
        assert proc.stdout == STDOUT[demo]
