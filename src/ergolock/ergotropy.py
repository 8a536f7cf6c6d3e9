"""Passive energy and ergotropy of system states times a factorized bath.

The unitary minimization behind passive energy has a closed classical
solution: pair the state's probabilities sorted descending with the energy
levels sorted ascending (:func:`oracle.passive_energy` does so for one flat
ensemble, as a test reference). For a system state times a thermal qubit
bath, a joint probability is a function of the joint bath energy, so both
joint multisets are read ascending off the bath's one sorted energy array
(:func:`spectra.passive_energies`): no joint-sized array is sorted from
scratch and no dense joint matrix is touched. States that share a bath share
one walk over the joint energies in rank windows, each pairing its joint
probabilities, window by window, with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bath import BathSpec, bath_ensemble
from .spectra import (
    DensityOperator,
    DiagonalHamiltonian,
    average_energy,
    compensated_dot,
    eigens,
    entropy,
    passive_energies,
    shannon_entropy,
)

ERGOTROPY_FLOOR = -1e-10


def _passive_energies(
    systems: Sequence[DensityOperator], hamiltonian: DiagonalHamiltonian, bath: BathSpec
) -> list[float]:
    # Passive energy of each (state x bath), from one walk over the joint
    # energies shared by all; no joint array is held.
    if any(system.dim != hamiltonian.dim for system in systems):
        raise ValueError("system state and Hamiltonian dimensions differ")
    values = [eigens(s) for s in systems]
    return passive_energies(values, hamiltonian.energies, bath.gaps, bath.T)


def _system_energies(
    systems: Sequence[DensityOperator], hamiltonian: DiagonalHamiltonian
) -> list[float]:
    # Tr[H_S rho] of each state, from the matrix diagonal: the system
    # eigenbasis never has to be materialized. Energy is additive over the
    # product, so E(rho x bath) is this plus the bath's mean energy.
    return [compensated_dot(system.diagonal(), hamiltonian.energies) for system in systems]


def ergotropy_product(
    system: DensityOperator, hamiltonian: DiagonalHamiltonian, bath: BathSpec
) -> float:
    """Ergotropy of (system state) x (thermal bath) under H_S + H_B.

    The joint probabilities and energies are read in ascending windows of
    merged sorted runs, and no joint array is held; the mean energy is
    taken additively from the system matrix diagonal and the bath factors.
    """
    (value,) = shared_bath_ergotropies([system], hamiltonian, bath)
    return value


def shared_bath_ergotropies(
    systems: Sequence[DensityOperator], hamiltonian: DiagonalHamiltonian, bath: BathSpec
) -> list[float]:
    """:func:`ergotropy_product` of each state with the same bath.

    The states share the joint energy multiset, so each window of it is
    sorted once. Each value equals
    ``ergotropy_product(state, hamiltonian, bath)`` bit for bit.
    """
    passives = _passive_energies(systems, hamiltonian, bath)
    bath_energy = sum(average_energy(f) for f in bath_ensemble(bath).factors)
    values = []
    for energy, passive in zip(_system_energies(systems, hamiltonian), passives):
        value = energy + bath_energy - passive
        if value < ERGOTROPY_FLOOR:
            raise ArithmeticError(f"ergotropy {value:.3e} below the numerical floor")
        values.append(value)
    return values


@dataclass(frozen=True)
class Theorem2Result:
    """Outcome of the conditional ergotropy-vs-free-energy comparison."""

    condition_holds: bool
    lhs: float
    rhs: float


def theorem2_check(
    rho: DensityOperator, xi: DensityOperator, hamiltonian: DiagonalHamiltonian, bath: BathSpec
) -> Theorem2Result:
    """Conditional bound relating joint ergotropy differences to system
    free-energy differences at the bath's temperature.

    Evaluates the hypothesis F(passive of xi x bath) <= F(passive of
    rho x bath); when it holds, lhs = R(rho x bath) - R(xi x bath) must not
    exceed rhs = F(rho) - F(xi). A passive joint state has the spectrum of
    its parent, and entropy adds over a product, so its entropy is
    S(state) + sum of the bath factor entropies; no joint array is summed.
    Raises ArithmeticError when a free energy of the hypothesis, lhs or rhs
    is not finite: no comparison with such a value decides the theorem.
    """
    rho_passive, xi_passive = _passive_energies([rho, xi], hamiltonian, bath)
    factors = bath_ensemble(bath).factors
    bath_entropy = sum(entropy(f) for f in factors)
    rho_entropy, xi_entropy = (shannon_entropy(eigens(s)) for s in (rho, xi))
    free_rho_passive = rho_passive - bath.T * (rho_entropy + bath_entropy)
    free_xi_passive = xi_passive - bath.T * (xi_entropy + bath_entropy)

    bath_energy = sum(average_energy(f) for f in factors)
    rho_energy, xi_energy = _system_energies([rho, xi], hamiltonian)
    rho_ergotropy = rho_energy + bath_energy - rho_passive
    xi_ergotropy = xi_energy + bath_energy - xi_passive
    lhs = rho_ergotropy - xi_ergotropy
    rhs = (rho_energy - bath.T * rho_entropy) - (xi_energy - bath.T * xi_entropy)
    if not all(map(math.isfinite, (free_rho_passive, free_xi_passive, lhs, rhs))):
        raise ArithmeticError(
            f"theorem 2 quantities are not all finite: passive free energies "
            f"{free_rho_passive!r}, {free_xi_passive!r}, lhs {lhs!r}, rhs {rhs!r}"
        )
    return Theorem2Result(
        condition_holds=bool(free_xi_passive <= free_rho_passive), lhs=lhs, rhs=rhs
    )
