"""The last-tick Gaussian system and its exact law at every horizon.

Observations arrive at Poisson times; the predictive mean is the
duration-weighted average of past values and the predictive variance
shrinks by 1 - lambda_n^2 with lambda_n = t_n / T_{n+1}. Under unit-rate
Poisson arrivals the fractions are independent Beta(1, n), so the variance
factor gamma = prod (1 - lambda_n^2) has closed-form moments at every
horizon (its mean tends to 1/3). Given the arrivals, the terminal
predictive means are independent normals around mu_1 with variance
(1 - gamma) sigma_1^2 - the rare case of a closed-form limit law.
"""

import numpy as np

from pcid import specs
from pcid.engine import run_ensemble
from pcid.oracles import (gamma_mean_limit, gamma_partial_product_closed,
                          gamma_second_moment_partial)

spec = specs.GaussianLastTickSpec(n_coords=2, mu1=(0.0, 0.0), sigma2_1=(1.0, 1.0))
horizon = 1000
ens = run_ensemble(spec, 30_000, horizon, master_seed=5, record=frozenset())

gamma = ens.gamma_hat
mean_h, second_h = gamma_partial_product_closed(horizon), gamma_second_moment_partial(horizon)
print(f"gamma_hat over 30k paths, horizon {horizon}, against its exact moments:")
print(f"  mean    {gamma.mean():.5f}   exact {mean_h:.5f}   (limit {gamma_mean_limit():.5f})")
print(f"  E[g^2]  {(gamma ** 2).mean():.5f}   exact {second_h:.5f}")
print(f"  var     {gamma.var():.5f}   exact {second_h - mean_h ** 2:.5f}")

moves = ens.terminal_mean - np.asarray(spec.mu1)
print("\nterminal predictive mean, coordinate 0:")
print(f"  mean (mu_H - mu_1)^2       {(moves[:, 0] ** 2).mean():.5f}")
print(f"  exact (1 - E[gamma]) s2_1  {1.0 - mean_h:.5f}")

print("\nshared arrival times couple the coordinates:")
print(f"  mean (A_0 A_1)^2           {((moves[:, 0] * moves[:, 1]) ** 2).mean():.5f}")
print(f"  exact E[(1 - gamma)^2]     {1.0 - 2.0 * mean_h + second_h:.5f}")
print(f"  against independent coordinates, (1 - E[gamma])^2 = {(1.0 - mean_h) ** 2:.5f}")
