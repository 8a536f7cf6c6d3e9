"""Work-extraction bounds for coherent quantum systems and finite qubit baths.

Computes ergotropy of system-bath product states through a factorized
spectrum engine, the weight-induced dephasing channel, the locked energy in
coherences, and the free-energy ceiling, with a dense brute-force oracle for
cross-validation and a CLI for reproducible parameter sweeps.

The names below are the documented library surface; every other function
and class is imported from its defining module (``ergolock.spectra``,
``ergolock.ergotropy``, ...).
"""

from .bath import custom_bath, skrzypczyk_bath
from .bounds import (
    BoundReport,
    bound_report,
    bound_reports,
    free_energy_bound,
    locked_energy,
    thermo_limit_locked,
    tight_bound,
)
from .oracle import (
    RandomSpec,
    dense_ergotropy,
    dense_joint,
    passivizing_unitary,
    random_state,
    random_unitary,
    theorem1_work,
)
from .spectra import DensityOperator, DiagonalHamiltonian, SizeCapError
from .weight import (
    CustomWeight,
    EnergyEigenstateWeight,
    GaussianWeight,
    TimeStateWeight,
    characteristic_factor,
    control_marginal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CustomWeight",
    "DensityOperator",
    "DiagonalHamiltonian",
    "EnergyEigenstateWeight",
    "GaussianWeight",
    "RandomSpec",
    "SizeCapError",
    "TimeStateWeight",
    "bound_report",
    "bound_reports",
    "characteristic_factor",
    "control_marginal",
    "custom_bath",
    "dense_ergotropy",
    "dense_joint",
    "free_energy_bound",
    "locked_energy",
    "passivizing_unitary",
    "random_state",
    "random_unitary",
    "skrzypczyk_bath",
    "theorem1_work",
    "thermo_limit_locked",
    "tight_bound",
]
