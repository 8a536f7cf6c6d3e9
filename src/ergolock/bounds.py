"""Work-extraction bounds: tight bound, locked energy, and the free-energy
ceiling, plus the infinite-bath limit of the locked energy."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .bath import BathSpec, bath_ensemble
from .ergotropy import ergotropy_product, shared_bath_ergotropies
from .spectra import (
    DEFAULT_EXPANSION_CAP,
    DensityOperator,
    DiagonalHamiltonian,
    _check_cap,
    _check_temperature,
    eigens,
    free_energy,
    gibbs_ensemble,
    shannon_entropy,
    state_free_energy,
)
from .weight import WeightModel, control_marginal

LOCKED_FLOOR = -1e-10
CHAIN_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """All headline quantities for one (state, weight, bath) point.

    Construction enforces the chain 0 <= tight <= resource <= free-energy
    bound (within numerical slack) and the identity
    locked = resource - tight, so an instance is internally consistent.
    """

    tight_bound: float
    resource_ergotropy: float
    locked_energy: float
    free_energy_bound: float
    thermo_limit_locked: float

    def __post_init__(self):
        if abs(self.locked_energy - (self.resource_ergotropy - self.tight_bound)) > 1e-10:
            raise ValueError("locked energy is inconsistent with resource - tight")
        if self.locked_energy < LOCKED_FLOOR:
            raise ValueError(f"locked energy {self.locked_energy:.3e} is negative")
        if self.tight_bound > self.resource_ergotropy + 1e-10:
            raise ValueError("tight bound exceeds the resource ergotropy")
        if self.resource_ergotropy > self.free_energy_bound + CHAIN_SLACK:
            raise ValueError("resource ergotropy exceeds the free-energy bound")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def free_energy_bound(
    rho: DensityOperator, hamiltonian: DiagonalHamiltonian, temperature: float
) -> float:
    """F(rho) - F(thermal state): the bath-independent work ceiling."""
    _check_temperature(temperature)
    thermal = gibbs_ensemble(hamiltonian, 1.0 / temperature)
    return state_free_energy(rho, hamiltonian, temperature) - free_energy(thermal, temperature)


def _check_bath_cap(hamiltonian: DiagonalHamiltonian, bath: BathSpec) -> None:
    # Every bath factor has two levels: check the joint size before building the bath.
    _check_cap([hamiltonian.dim, *[2] * bath.n_qubits], DEFAULT_EXPANSION_CAP)


def tight_bound(
    rho: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    weight: WeightModel,
    bath: BathSpec,
) -> float:
    """Optimal extractable work: joint ergotropy of the weight-averaged
    system state with the bath. Weight-independent for diagonal states."""
    _check_bath_cap(hamiltonian, bath)
    sigma = control_marginal(rho, hamiltonian, weight)
    return ergotropy_product(sigma, hamiltonian, bath_ensemble(bath))


def locked_energy(
    rho: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    weight: WeightModel,
    bath: BathSpec,
) -> float:
    """Coherence energy this weight cannot extract: resource minus tight."""
    return bound_report(rho, hamiltonian, weight, bath).locked_energy


def _entropy(state: DensityOperator) -> float:
    return shannon_entropy(eigens(state))


def thermo_limit_locked(
    rho: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    weight: WeightModel,
    temperature: float,
) -> float:
    """Infinite-bath limit of the locked energy: T * [S(sigma) - S(rho)].

    Oriented so the value is non-negative (the weight average never lowers
    entropy) and equals F(rho) - F(sigma) given that the channel preserves
    energy. Some write-ups print the entropy difference in the reversed
    order; this implementation keeps the sign consistent with locked energy
    being non-negative.
    """
    _check_temperature(temperature)
    sigma = control_marginal(rho, hamiltonian, weight)
    return temperature * (_entropy(sigma) - _entropy(rho))


def bound_report(
    rho: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    weight: WeightModel,
    bath: BathSpec,
) -> BoundReport:
    """Evaluate the full bound chain at one parameter point."""
    return bound_reports(rho, hamiltonian, [weight], bath)[0]


def bound_reports(
    rho: DensityOperator,
    hamiltonian: DiagonalHamiltonian,
    weights: list[WeightModel],
    bath: BathSpec,
) -> list[BoundReport]:
    """Evaluate the full bound chain for each weight on one bath.

    The bath ensemble, the sorted joint energies, the resource ergotropy,
    the free-energy ceiling and S(rho) are computed once and shared by every
    report, so the reports are consistent under floating-point noise by
    construction; each weight adds its averaged state sigma, one streamed
    passive energy and the entropy gap. Each report equals the single-weight
    one bit for bit.
    """
    _check_bath_cap(hamiltonian, bath)
    states = [rho, *(control_marginal(rho, hamiltonian, weight) for weight in weights)]
    resource, *tights = shared_bath_ergotropies(states, hamiltonian, bath_ensemble(bath))
    ceiling = free_energy_bound(rho, hamiltonian, bath.T)
    rho_entropy = _entropy(rho)
    return [
        BoundReport(
            tight_bound=tight,
            resource_ergotropy=resource,
            locked_energy=resource - tight,
            free_energy_bound=ceiling,
            thermo_limit_locked=bath.T * (_entropy(sigma) - rho_entropy),
        )
        for tight, sigma in zip(tights, states[1:])
    ]
