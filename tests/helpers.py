"""Constructions only the tests use, kept out of the library.

``tensor`` builds a factorized product without expanding it, and
``passive_state`` the diagonal passive state of a system state.
"""

from __future__ import annotations

import numpy as np

from ergolock.spectra import (
    DensityOperator,
    DiagonalHamiltonian,
    FactorizedEnsemble,
    SpectralEnsemble,
    eigens,
)


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
