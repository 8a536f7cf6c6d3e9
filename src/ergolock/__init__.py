"""Work-extraction bounds for coherent quantum systems and finite qubit baths.

Computes ergotropy of system-bath product states through a factorized
spectrum engine, the weight-induced dephasing channel, the locked energy in
coherences, and the free-energy ceiling, with a dense brute-force oracle for
cross-validation and a CLI for reproducible parameter sweeps.
"""

from .bath import BathSpec, bath_ensemble, custom_bath, skrzypczyk_bath
from .bounds import (
    BoundReport,
    bound_report,
    bound_reports,
    free_energy_bound,
    locked_energy,
    thermo_limit_locked,
    tight_bound,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .ergotropy import (
    Theorem2Result,
    ergotropy,
    ergotropy_product,
    passive_energy,
    passive_state,
    theorem2_check,
)
from .oracle import (
    DenseJoint,
    RandomSpec,
    Theorem1Result,
    dense_ergotropy,
    dense_joint,
    passivizing_unitary,
    random_state,
    random_unitary,
    theorem1_work,
    trial_seed,
)
from .spectra import (
    DEFAULT_EXPANSION_CAP,
    DensityOperator,
    DiagonalHamiltonian,
    FactorizedEnsemble,
    SizeCapError,
    SpectralEnsemble,
    average_energy,
    compensated_dot,
    compensated_sum,
    eigens,
    entropy,
    expand,
    free_energy,
    gibbs_ensemble,
    shannon_entropy,
    tensor,
)
from .verify import run_verification
from .weight import (
    CustomWeight,
    EnergyEigenstateWeight,
    GaussianWeight,
    TimeStateWeight,
    WeightModel,
    characteristic_factor,
    control_marginal,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "BoundReport",
    "ConfigError",
    "CustomWeight",
    "DEFAULT_EXPANSION_CAP",
    "DenseJoint",
    "DensityOperator",
    "DiagonalHamiltonian",
    "EnergyEigenstateWeight",
    "ExperimentConfig",
    "FactorizedEnsemble",
    "GaussianWeight",
    "RandomSpec",
    "SizeCapError",
    "SpectralEnsemble",
    "Theorem1Result",
    "Theorem2Result",
    "TimeStateWeight",
    "WeightModel",
    "average_energy",
    "bath_ensemble",
    "bound_report",
    "bound_reports",
    "characteristic_factor",
    "compensated_dot",
    "compensated_sum",
    "control_marginal",
    "custom_bath",
    "dense_ergotropy",
    "dense_joint",
    "eigens",
    "entropy",
    "ergotropy",
    "ergotropy_product",
    "expand",
    "free_energy",
    "free_energy_bound",
    "gibbs_ensemble",
    "load_config",
    "locked_energy",
    "parse_config",
    "passive_energy",
    "passive_state",
    "passivizing_unitary",
    "random_state",
    "random_unitary",
    "run_verification",
    "shannon_entropy",
    "skrzypczyk_bath",
    "tensor",
    "theorem1_work",
    "theorem2_check",
    "thermo_limit_locked",
    "tight_bound",
    "trial_seed",
]
