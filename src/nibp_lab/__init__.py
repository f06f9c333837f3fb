"""Simulator and analysis toolkit for gradient suppression and cost
concentration in noisy variational circuits."""

from .pauli import (
    DensityMatrix,
    build_nice_basis,
    check_pauli,
    from_coherence,
    to_coherence,
)
from .channels import (
    AffineRep,
    KrausChannel,
    affine_rep,
    amplitude_damping,
    classify,
    compose,
    depolarizing,
    named_channel,
    polar_decompose,
    tensor_channel,
    validate_kraus,
)
from .circuits import (
    Circuit,
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    evolve,
    perturbed_gate,
    random_unitary_channel,
)
from .hamiltonians import (
    Hamiltonian,
    cost,
    h_norm,
    h_norm_bound,
    h_vector,
    random_two_local,
)
from .gradients import (
    GradientStats,
    SweepSpec,
    coherence_gradient,
    control_noise_gradient,
    fd_gradient,
    gradient_stats,
    psr_gradient,
    random_noise_gradient,
)
from .bounds import (
    ContractivityProfile,
    NilsInterval,
    Theorem3Report,
    contractivity_profile,
    l0_threshold,
    nibp_bound,
    nils_interval,
    shift_accumulator,
    theorem3_report,
)
from .spsa import SpsaConfig, TrainTrace, spsa_minimize
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    write_csv,
)

__version__ = "0.1.0"
