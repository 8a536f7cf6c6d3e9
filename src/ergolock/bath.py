"""Finite heat baths built from independent qubits with chosen energy gaps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectra import _check_temperature, _log_partition


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Finite bath: a temperature and one positive gap per qubit.

    The Hamiltonian is the sum of the single-qubit terms, so the Gibbs state
    factorizes qubit by qubit. An empty gap tuple is the degenerate bathless
    case used by sweep edge points.
    """

    T: float
    gaps: np.ndarray

    def __post_init__(self):
        _check_temperature(self.T)
        gaps = np.array(self.gaps, dtype=np.float64, copy=True).ravel()
        if gaps.size and (not np.all(np.isfinite(gaps)) or float(gaps.min()) <= 0.0):
            raise ValueError("all bath gaps must be positive and finite")
        gaps.flags.writeable = False
        object.__setattr__(self, "gaps", gaps)

    @property
    def n_qubits(self) -> int:
        return int(self.gaps.size)

    @property
    def mean_energy(self) -> float:
        """Gibbs mean energy: each qubit's excited population times its gap,
        summed in gap order."""
        total = 0.0
        for gap in self.gaps.tolist():
            excited = math.exp(-gap / self.T)
            total += excited / (1.0 + excited) * gap
        return total

    @property
    def entropy(self) -> float:
        """Gibbs entropy ``ln Z + E / T``. Both terms are non-negative, so
        neither cancels, and a frozen qubit's ``exp(-gap / T)`` enters
        directly rather than through a ``1 / Z`` rounded to 1."""
        return _log_partition(self.gaps, self.T) + self.mean_energy / self.T


def skrzypczyk_bath(n: int, temperature: float, omega: float) -> BathSpec:
    """N-qubit bath whose excited populations form the ladder k*delta.

    Gap k is T*ln[(1 - k*delta)/(k*delta)] with
    delta = exp(-omega/T) / (N * (1 + exp(-omega/T))); every gap is positive
    because N*delta < 1/2 for omega > 0. Growing N drives the total ergotropy
    of (system x bath) toward the free-energy bound.
    """
    if n < 1 or n != int(n):
        raise ValueError("N must be a positive integer")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be positive and finite")
    _check_temperature(temperature)
    boltzmann = math.exp(-omega / temperature)
    delta = boltzmann / (n * (1.0 + boltzmann))
    k = np.arange(1, n + 1, dtype=np.float64)
    # At extreme omega/T the populations round to 0 or to 1/2 and a gap to
    # inf or 0; BathSpec refuses those gaps.
    with np.errstate(divide="ignore", over="ignore"):
        gaps = temperature * np.log((1.0 - k * delta) / (k * delta))
    return BathSpec(T=temperature, gaps=gaps)


def custom_bath(temperature: float, gaps: Sequence[float]) -> BathSpec:
    """Bath with explicitly chosen qubit gaps; must contain at least one."""
    gaps = np.asarray(gaps, dtype=np.float64).ravel()
    if gaps.size == 0:
        raise ValueError("a custom bath needs at least one qubit gap")
    return BathSpec(T=temperature, gaps=gaps)
