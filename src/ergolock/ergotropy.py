"""Passive energy, ergotropy, and passive states.

The unitary minimization behind passive energy has a closed classical
solution: pair the state's probabilities sorted descending with the energy
levels sorted ascending. For a system state times a factorized bath, both
joint multisets come already ascending from :func:`spectra.sorted_joint`, a
merge of sorted runs, so no joint-sized array is ever sorted from scratch
and no dense joint matrix is touched. States that share a bath share one
joint energy array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectra import (
    DEFAULT_EXPANSION_CAP,
    DensityOperator,
    DiagonalHamiltonian,
    FactorizedEnsemble,
    SpectralEnsemble,
    _check_temperature,
    average_energy,
    compensated_dot,
    eigens,
    entropy,
    shannon_entropy,
    sorted_joint,
    state_free_energy,
)

ERGOTROPY_FLOOR = -1e-10


def _sorted_passive(p_asc: np.ndarray, e_asc: np.ndarray) -> float:
    # Both inputs ascending: the largest probability meets the lowest energy.
    # Equal values are interchangeable in either array, so the value does not
    # depend on how a sort ordered them.
    return compensated_dot(p_asc[::-1], e_asc)


def passive_energy(ensemble: SpectralEnsemble) -> float:
    """Minimal mean energy over all unitary reshufflings of the spectrum.

    Equals the dot product of probabilities sorted descending with energies
    sorted ascending; ties in either list cannot change the value.
    """
    return _sorted_passive(np.sort(ensemble.probs), np.sort(ensemble.energies))


def ergotropy(ensemble: SpectralEnsemble) -> float:
    """Maximal unitarily extractable energy: average minus passive energy."""
    value = average_energy(ensemble) - passive_energy(ensemble)
    if value < ERGOTROPY_FLOOR:
        raise ArithmeticError(f"ergotropy {value:.3e} below the numerical floor")
    return value


def _passive_energies(
    systems: Sequence[DensityOperator],
    hamiltonian: DiagonalHamiltonian,
    bath: FactorizedEnsemble,
    cap: int,
) -> list[float]:
    # Passive energy of each (state x bath). The joint energies are built
    # once; each state's joint probabilities live only for its own dot, so
    # one probability array is held at a time, however many states there are.
    if any(system.dim != hamiltonian.dim for system in systems):
        raise ValueError("system state and Hamiltonian dimensions differ")
    energies = sorted_joint(hamiltonian.energies, [f.energies for f in bath.factors], np.add, cap)
    bath_probs = [f.probs for f in bath.factors]
    return [
        _sorted_passive(sorted_joint(eigens(system), bath_probs, np.multiply, cap), energies)
        for system in systems
    ]


def _joint_average_energy(
    system: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    bath: FactorizedEnsemble,
) -> float:
    # E(rho x bath) = Tr[H_S rho] + E(bath); energy is additive over the
    # product, so the system eigenbasis never has to be materialized.
    system_energy = compensated_dot(system.diagonal(), hamiltonian.energies)
    return system_energy + sum(average_energy(f) for f in bath.factors)


def ergotropy_product(
    system: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    bath: FactorizedEnsemble,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> float:
    """Ergotropy of (system state) x (factorized bath) under H_S + H_B.

    Only the flat joint probability and energy arrays are materialized, each
    built in ascending order by :func:`spectra.sorted_joint`; the mean energy
    is taken additively from the system matrix diagonal and the bath factors.
    """
    (value,) = shared_bath_ergotropies([system], hamiltonian, bath, cap)
    return value


def shared_bath_ergotropies(
    systems: Sequence[DensityOperator],
    hamiltonian: DiagonalHamiltonian,
    bath: FactorizedEnsemble,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> list[float]:
    """:func:`ergotropy_product` of each state with the same bath.

    The states share the joint energy multiset, so it is built once. Each
    value equals ``ergotropy_product(state, hamiltonian, bath, cap)`` bit
    for bit.
    """
    passives = _passive_energies(systems, hamiltonian, bath, cap)
    values = []
    for system, passive in zip(systems, passives):
        value = _joint_average_energy(system, hamiltonian, bath) - passive
        if value < ERGOTROPY_FLOOR:
            raise ArithmeticError(f"ergotropy {value:.3e} below the numerical floor")
        values.append(value)
    return values


def passive_state(rho: DensityOperator, hamiltonian: DiagonalHamiltonian) -> DensityOperator:
    """Passive state of ``rho``: eigenvalues assigned descending onto the
    energy levels ascending, diagonal in the Hamiltonian's basis.

    The energy order uses a stable sort so the output is reproducible under
    degenerate levels; an already-passive diagonal state maps to itself.
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    descending = eigens(rho)
    order = np.argsort(hamiltonian.energies, kind="stable")
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    out[order, order] = descending
    return DensityOperator(out)


@dataclass(frozen=True)
class Theorem2Result:
    """Outcome of the conditional ergotropy-vs-free-energy comparison."""

    condition_holds: bool
    lhs: float
    rhs: float


def theorem2_check(
    rho: DensityOperator,
    xi: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    bath: FactorizedEnsemble,
    temperature: float,
) -> Theorem2Result:
    """Conditional bound relating joint ergotropy differences to system
    free-energy differences.

    Evaluates the hypothesis F(passive of xi x bath) <= F(passive of
    rho x bath); when it holds, lhs = R(rho x bath) - R(xi x bath) must not
    exceed rhs = F(rho) - F(xi). A passive joint state has the spectrum of
    its parent, and entropy adds over a product, so its entropy is
    S(state) + sum of the bath factor entropies; no joint array is summed.
    """
    _check_temperature(temperature)
    rho_passive, xi_passive = _passive_energies(
        [rho, xi], hamiltonian, bath, DEFAULT_EXPANSION_CAP
    )
    bath_entropy = sum(entropy(f) for f in bath.factors)
    free_rho_passive = rho_passive - temperature * (shannon_entropy(eigens(rho)) + bath_entropy)
    free_xi_passive = xi_passive - temperature * (shannon_entropy(eigens(xi)) + bath_entropy)
    condition = free_xi_passive <= free_rho_passive

    rho_ergotropy = _joint_average_energy(rho, hamiltonian, bath) - rho_passive
    xi_ergotropy = _joint_average_energy(xi, hamiltonian, bath) - xi_passive

    return Theorem2Result(
        condition_holds=bool(condition),
        lhs=rho_ergotropy - xi_ergotropy,
        rhs=(
            state_free_energy(rho, hamiltonian, temperature)
            - state_free_energy(xi, hamiltonian, temperature)
        ),
    )
