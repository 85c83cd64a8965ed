"""Walk through the reinforced predictive recursion on a single path.

Each coordinate keeps a mixture predictive: base measure plus one weighted
atom per past observation. Drawing a value and appending it with a fresh
weight is the whole generative mechanism; with unit weights this is the
classical Polya / Dirichlet-process urn.
"""

import numpy as np

from pcid import specs
from pcid.engine import PathStreams
from pcid.processes import init_reinforced_states, reinforced_step

spec = specs.PolyaSpec(n_coords=1, w0=(1.0,), base=(specs.UniformBase(),))
states = init_reinforced_states(spec)
streams = PathStreams(master_seed=7, path_index=0, n_coords=1)
rule = specs.reinforced_view(spec).coupling

print("independent Polya sequence, w0 = 1, uniform base")
print(f"{'n':>3} {'draw':>8} {'pred mean':>10} {'pred var':>9} {'atoms':>6}")
for n in range(1, 11):
    x = reinforced_step(states, rule, n, streams)
    st = states[0]
    print(f"{n:3d} {x[0]:8.4f} {st.predictive_mean():10.4f} "
          f"{st.predictive_var():9.4f} {len(st.atom_values):6d}")

probs = states[0].component_probabilities()
print("\nterminal predictive components (base first):")
print(np.array2string(probs, precision=4))
print(f"probabilities sum to {probs.sum():.15f}")

print("\nwith common random weights in {1,3}, all coordinates share the "
      "same reinforcement each step:")
rru = specs.ReinforcedSpec(
    n_coords=2, w0=(1.0, 1.0), base=(specs.UniformBase(),) * 2,
    coupling=specs.CommonWeight(specs.TwoPointWeight(1.0, 3.0, 0.5)))
states = init_reinforced_states(rru)
streams = PathStreams(master_seed=7, path_index=0, n_coords=2)
for n in range(1, 6):
    x = reinforced_step(states, rru.coupling, n, streams)
    w = states[0].atom_weights[-1]
    assert states[1].atom_weights[-1] == w
    print(f"  step {n}: draws ({x[0]:.3f}, {x[1]:.3f}), shared weight {w:.0f}")
