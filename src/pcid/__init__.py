"""pcid: simulation and statistical verification of partially
conditionally identically distributed (p-c.i.d.) stochastic processes."""

__version__ = "0.1.0"

from .engine import Ensemble, RngStream, derive_stream, map_path_chunks, run_ensemble
from .processes import (
    ReinforcedCoordState,
    gaussian_last_tick_step,
    reinforced_step,
    state_space_cid_step,
    uniform_coupled_step,
)
from .specs import (
    Ar1DriftSpec,
    BetaSchedule,
    BrokenFeedbackWeightSpec,
    CommonWeight,
    CrossFraction,
    DegenerateWeight,
    DiscreteBase,
    FeedbackWeight,
    GammaWeight,
    GaussianLastTickSpec,
    IidWeights,
    NormalBase,
    PolyaSpec,
    ReinforcedSpec,
    SpecValidationError,
    StateSpaceCidSpec,
    TwoPointWeight,
    UniformBase,
    UniformCoupledSpec,
    UniformWeight,
    list_spec_kinds,
    reinforced_view,
    spec_from_dict,
)
from .statistics import (
    empirical_predictive_distance,
    slln_running_average,
)
from .verifiers import (
    TestVerdict,
    check_clt_forecast_errors,
    check_clt_sample_mean,
    check_gaussian_limit,
    check_pcid,
    check_stopping_time,
    energy_permutation_test,
    list_verifier_names,
)

__all__ = [name for name in dir() if not name.startswith("_")]
