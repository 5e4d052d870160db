"""Monitored Lindblad dynamics: exact jump statistics, Monte Carlo
unraveling, and numerical certification of thermodynamic uncertainty
bounds built on the equivalence between a coherently evolving system and
its Hamiltonian-free twin."""

from .bounds import (
    BoundReport,
    InputStat,
    battery,
    ep_lower_bound,
    ep_tur,
    gamma_factor,
    half_angle_integral,
    inverse_x_tanh_x,
    kur_differential,
    survival_bound_check,
    tur_activity_integral,
)
from .counting import (
    CountingObservable,
    MomentResult,
    activity_at,
    counting_moments,
    decompose_activity,
    entropy_production_rate,
    mean_rate,
)
from .engine import (
    DegenerateSteadyStateError,
    NoJumpFamily,
    build_generator,
    no_jump_family,
    propagate,
    steady_state,
    survival_probability,
)
from .models import (
    antisymmetric_current_weights,
    build_da_model,
    build_ep_model,
    build_poisson_model,
    default_observable,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from .operators import (
    LindbladModel,
    ModelValidationError,
    SpectralDecomposition,
    spectral_decompose,
    split_diagonal_offdiagonal,
    validate_density,
)
from .sweeps import CicReport, SweepConfig, SweepResult, run_cic_suite, run_sweep, write_csv
from .trajectories import (
    EnsembleEstimate,
    PathWeights,
    SeedPolicy,
    TrajectoryRecord,
    TrajectorySampler,
    estimate,
    record_observable,
)

__version__ = "0.1.0"
