"""Work-reservoir (weight) models and the channel they induce on the system.

Averaging the system's free evolution over the weight's time distribution
multiplies each coherence rho_ij by the characteristic function of that
distribution at the level splitting e_i - e_j. The channel is applied in
this closed form, entrywise and exactly, rather than by time integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .spectra import DensityOperator, DiagonalHamiltonian


@dataclass(frozen=True)
class GaussianWeight:
    """Weight in a Gaussian superposition of energy states with spread sigma."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")


@dataclass(frozen=True)
class TimeStateWeight:
    """Sharp time state: the unitary limit of infinite weight coherence."""

    t: float = 0.0


@dataclass(frozen=True)
class EnergyEigenstateWeight:
    """Sharp energy state: fully dephases the system in the energy basis."""


@dataclass(frozen=True)
class CustomWeight:
    """Weight defined by a user-supplied characteristic function phi(delta).

    phi(0) = 1 is checked here; positive-definiteness of phi is only enforced
    a posteriori through the PSD guard on the output state.
    """

    phi: Callable[[float], complex]

    def __post_init__(self):
        if abs(complex(self.phi(0.0)) - 1.0) > 1e-12:
            raise ValueError("characteristic function must satisfy phi(0) = 1")


WeightModel = Union[GaussianWeight, TimeStateWeight, EnergyEigenstateWeight, CustomWeight]


def characteristic_factor(
    weight: WeightModel, delta: float | np.ndarray
) -> complex | np.ndarray:
    """Coherence scaling factor phi(delta) for a level splitting delta.

    ``delta`` may be a scalar (a complex comes back) or an array (an array
    of the same shape comes back).
    """
    delta = np.asarray(delta, dtype=np.float64)
    if isinstance(weight, GaussianWeight):
        # Past the float range, delta^2 / 8 sigma^2 is inf and exp(-inf) = 0.
        with np.errstate(over="ignore"):
            width = 8.0 * weight.sigma * weight.sigma
            if width == 0.0:
                # 8 sigma^2 underflows: the sigma -> 0 limit, full dephasing.
                factors = np.where(delta == 0.0, 1.0, 0.0)
            elif width == math.inf:
                # 8 sigma^2 overflows, and delta^2 may too (inf / inf is nan):
                # scale delta first. Not used where 8 sigma^2 is finite, so
                # those factors keep their bits.
                factors = np.exp(-((delta / weight.sigma) ** 2) / 8.0)
            else:
                factors = np.exp(-(delta * delta) / width)
    elif isinstance(weight, TimeStateWeight):
        factors = np.exp(-1j * delta * weight.t)
    elif isinstance(weight, EnergyEigenstateWeight):
        # Exact comparison: coherences inside degenerate subspaces survive.
        factors = np.where(delta == 0.0, 1.0, 0.0)
    elif isinstance(weight, CustomWeight):
        factors = np.vectorize(weight.phi, otypes=[np.complex128])(delta)
        if float(np.max(np.abs(factors))) > 1.0 + 1e-12:
            raise ValueError("characteristic function exceeds modulus 1")
    else:
        raise TypeError(f"unknown weight model {type(weight).__name__}")
    return complex(factors) if factors.ndim == 0 else factors


def control_marginal(
    rho: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    weight: WeightModel,
) -> DensityOperator:
    """Effective system state after averaging over the weight's time
    distribution: sigma_ij = rho_ij * phi(e_i - e_j).

    The diagonal is untouched, so energy is preserved exactly. Construction
    revalidates the result; a failure there flags a characteristic function
    that is not positive definite (impossible for the built-in models).
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    delta = np.subtract.outer(hamiltonian.energies, hamiltonian.energies)
    scaled = rho.entries * characteristic_factor(weight, delta)
    try:
        return DensityOperator(scaled)
    except ValueError as exc:
        raise ValueError(f"weight model produced an invalid output state: {exc}") from exc
