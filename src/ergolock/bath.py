"""Finite heat baths built from independent qubits with chosen energy gaps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectra import FactorizedEnsemble, SpectralEnsemble, _check_temperature


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
    gaps = temperature * np.log((1.0 - k * delta) / (k * delta))
    return BathSpec(T=temperature, gaps=gaps)


def custom_bath(temperature: float, gaps: Sequence[float]) -> BathSpec:
    """Bath with explicitly chosen qubit gaps; must contain at least one."""
    gaps = np.asarray(gaps, dtype=np.float64).ravel()
    if gaps.size == 0:
        raise ValueError("a custom bath needs at least one qubit gap")
    return BathSpec(T=temperature, gaps=gaps)


def bath_ensemble(bath: BathSpec) -> FactorizedEnsemble:
    """Gibbs state of the bath as one two-level factor per qubit gap."""
    factors = []
    for gap in bath.gaps:
        excited = math.exp(-gap / bath.T)
        z = 1.0 + excited
        factors.append(SpectralEnsemble([1.0 / z, excited / z], [0.0, float(gap)]))
    return FactorizedEnsemble(tuple(factors))
