"""Constructions only the tests use, kept out of the library.

``FactorizedEnsemble`` keeps a product of ensembles unexpanded, ``tensor``
builds one, and ``expand`` flattens one in lexicographic order;
``bath_ensemble`` is the bath's Gibbs state as one factor per qubit. They
are the references the closed-form bath thermodynamics, the walk and the
dense oracle are checked against. ``passive_state`` is the diagonal passive
state of a system state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ergolock.bath import BathSpec
from ergolock.spectra import (
    DensityOperator,
    DiagonalHamiltonian,
    SpectralEnsemble,
    _check_cap,
    compensated_sum,
    eigens,
)

FACTOR_SUM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class FactorizedEnsemble:
    """Tensor product of local ensembles, kept unexpanded.

    An empty factor list is the trivial scalar ensemble (one outcome with
    probability 1 and energy 0).
    """

    factors: tuple[SpectralEnsemble, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        for f in factors:
            if not isinstance(f, SpectralEnsemble):
                raise TypeError("factors must be SpectralEnsemble instances")
        # Expanded probability total equals the product of per-factor totals.
        total = 1.0
        for f in factors:
            total *= compensated_sum(f.probs)
        if abs(total - 1.0) > FACTOR_SUM_ATOL:
            raise ValueError(f"expanded probabilities would sum to {total!r}, not 1")
        object.__setattr__(self, "factors", factors)

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.size
        return n


def expand(factorized: FactorizedEnsemble) -> SpectralEnsemble:
    """Expand a factorized ensemble into one flat SpectralEnsemble.

    Output order is lexicographic over factor indices (first factor slowest),
    matching the Kronecker-product basis convention of the dense oracle, so
    outputs are byte-reproducible: probabilities multiply and energies add
    over all index combinations. Zero-probability entries are kept. A result
    larger than ``DEFAULT_EXPANSION_CAP`` raises :class:`SizeCapError`
    instead of allocating.
    """
    _check_cap(math.prod(f.size for f in factorized.factors), 0)
    probs, energies = np.ones(1), np.zeros(1)
    for f in factorized.factors:
        probs = np.multiply.outer(probs, f.probs).ravel()
        energies = np.add.outer(energies, f.energies).ravel()
    return SpectralEnsemble(probs, energies)


def bath_ensemble(bath: BathSpec) -> FactorizedEnsemble:
    """Gibbs state of the bath as one two-level factor per qubit gap."""
    factors = []
    for gap in bath.gaps:
        excited = math.exp(-gap / bath.T)
        z = 1.0 + excited
        factors.append(SpectralEnsemble([1.0 / z, excited / z], [0.0, float(gap)]))
    return FactorizedEnsemble(tuple(factors))


def _as_factors(value: SpectralEnsemble | FactorizedEnsemble) -> tuple[SpectralEnsemble, ...]:
    if isinstance(value, FactorizedEnsemble):
        return value.factors
    if isinstance(value, SpectralEnsemble):
        return (value,)
    raise TypeError(f"expected an ensemble, got {type(value).__name__}")


def tensor(
    a: SpectralEnsemble | FactorizedEnsemble,
    b: SpectralEnsemble | FactorizedEnsemble,
) -> FactorizedEnsemble:
    """Tensor product as factor-list concatenation; no expansion happens here."""
    return FactorizedEnsemble(_as_factors(a) + _as_factors(b))


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
