"""Classical spectra of states with diagonal Hamiltonians.

A state that is diagonal in a known energy basis is fully described by a
paired list of (probability, energy): a :class:`SpectralEnsemble`. Product
states of many such factors are kept factorized (:class:`FactorizedEnsemble`).
Passive energies need only the two joint multisets, each in ascending order,
and :func:`sorted_joint` builds those directly: it combines one factor at a
time into an already sorted array, so every step is a linear merge of sorted
runs rather than a full sort. :func:`expand` keeps the lexicographic joint
order for the dense oracle. Small non-diagonal system states are carried as
dense matrices (:class:`DensityOperator`).

Units: hbar = k_B = 1, natural logarithm throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROB_FLOOR = -1e-12
PROB_SUM_ATOL = 1e-10
FACTOR_SUM_ATOL = 1e-9

# Flat (prob, energy) arrays are capped here; beyond it callers must stream.
DEFAULT_EXPANSION_CAP = 1 << 26

_SUM_BLOCK = 1 << 15


class SizeCapError(RuntimeError):
    """Raised when an expansion would exceed the configured element cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"expansion of {_count_text(size)} elements exceeds the cap of {cap}")
        self.size = size
        self.cap = cap


def _count_text(n: int) -> str:
    # Python refuses to format an int of more than 4,300 decimal digits, and
    # a bath of 10^5 qubits has a joint size of 30,103 digits.
    if n < 10**18:
        return str(n)
    log = math.log10(n)
    return f"about {10 ** (log - int(log)):.3g}e{int(log)}"


def _check_cap(sizes: Sequence[int], cap: int) -> None:
    size = 1
    for n in sizes:
        size *= int(n)
        if size > cap:
            # Equal factor sizes are grouped into one power, so the exact
            # count of a 10^6-qubit bath costs one shift, not 10^6 big-int
            # products.
            counts = Counter(int(n) for n in sizes)
            raise SizeCapError(math.prod(n**k for n, k in counts.items()), cap)


def compensated_sum(values: np.ndarray) -> float:
    """Sum with compensated accumulation: exact fsum over pairwise block sums."""
    arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    if arr.size <= _SUM_BLOCK:
        return float(math.fsum(arr))
    partials = [float(arr[i : i + _SUM_BLOCK].sum()) for i in range(0, arr.size, _SUM_BLOCK)]
    return float(math.fsum(partials))


def compensated_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product accumulated with :func:`compensated_sum` (2^20+ term safe)."""
    return compensated_sum(np.multiply(a, b))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Energy levels of a Hamiltonian that is diagonal in the working basis.

    The stored order defines the basis index convention used everywhere
    downstream; levels are not sorted on construction.
    """

    energies: np.ndarray

    def __post_init__(self):
        energies = np.array(self.energies, dtype=np.float64, copy=True).ravel()
        if energies.size == 0:
            raise ValueError("Hamiltonian needs at least one energy level")
        if not np.all(np.isfinite(energies)):
            raise ValueError("Hamiltonian energies must be finite")
        object.__setattr__(self, "energies", _readonly(energies))

    @property
    def dim(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense Hermitian, unit-trace, positive-semidefinite matrix.

    Tolerances: Hermiticity and trace to 1e-12, eigenvalues above -1e-10.
    Construction validates all three, so a held instance is always a state.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density operator must be a square matrix")
        herm_defect = float(np.max(np.abs(entries - entries.conj().T)))
        if herm_defect > HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(complex(np.trace(entries)) - 1.0)
        if trace_defect > TRACE_ATOL:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        min_eig = float(np.linalg.eigvalsh(entries).min())
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", _readonly(entries))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def diagonal(self) -> np.ndarray:
        return np.real(np.diagonal(self.entries)).copy()


@dataclass(frozen=True, eq=False)
class SpectralEnsemble:
    """Positionally paired (probability, energy) lists.

    The pairing probs[i] <-> energies[i] is meaningful as given; nothing is
    sorted implicitly.
    """

    probs: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64, copy=True).ravel()
        energies = np.array(self.energies, dtype=np.float64, copy=True).ravel()
        if probs.size != energies.size:
            raise ValueError("probs and energies must have the same length")
        if probs.size == 0:
            raise ValueError("ensemble must not be empty")
        if not np.all(np.isfinite(probs)) or not np.all(np.isfinite(energies)):
            raise ValueError("ensemble entries must be finite")
        if float(probs.min()) < PROB_FLOOR:
            raise ValueError(f"negative probability {probs.min():.3e}")
        total = compensated_sum(probs)
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "energies", _readonly(energies))

    @property
    def size(self) -> int:
        return int(self.probs.size)


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


def gibbs_ensemble(hamiltonian: DiagonalHamiltonian, beta: float) -> SpectralEnsemble:
    """Gibbs populations exp(-beta * E_i) / Z over the given levels.

    Energies are copied positionally; weights are evaluated with the minimum
    level shifted out to avoid overflow at large beta.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be positive and finite")
    energies = hamiltonian.energies
    weights = np.exp(-beta * (energies - energies.min()))
    return SpectralEnsemble(weights / compensated_sum(weights), energies)


def average_energy(ensemble: SpectralEnsemble) -> float:
    """Mean energy: sum of probs[i] * energies[i]."""
    return compensated_dot(ensemble.probs, ensemble.energies)


def shannon_entropy(probs: np.ndarray) -> float:
    """Entropy -sum p ln p with the 0 ln 0 = 0 convention (natural log)."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size and float(p.min()) < PROB_FLOOR:
        raise ValueError(f"negative probability {p.min():.3e}")
    positive = p[p > 0.0]
    if positive.size == 0:
        return 0.0
    return -compensated_sum(positive * np.log(positive))


def entropy(ensemble: SpectralEnsemble) -> float:
    """Entropy of the probability list; independent of the energies."""
    return shannon_entropy(ensemble.probs)


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be positive and finite")


def free_energy(ensemble: SpectralEnsemble, temperature: float) -> float:
    """F = E - T*S at the given temperature."""
    _check_temperature(temperature)
    return average_energy(ensemble) - temperature * entropy(ensemble)


def state_free_energy(
    rho: DensityOperator, hamiltonian: DiagonalHamiltonian, temperature: float
) -> float:
    """F = Tr[H rho] - T*S(rho) of a system state under a diagonal Hamiltonian."""
    energy = compensated_dot(rho.diagonal(), hamiltonian.energies)
    return energy - temperature * shannon_entropy(eigens(rho))


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


def product_pairs(
    probs: np.ndarray,
    energies: np.ndarray,
    factors: tuple[SpectralEnsemble, ...],
    cap: int = DEFAULT_EXPANSION_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint (prob, energy) arrays of a seed spectrum times product factors.

    Probabilities multiply and energies add over all index combinations, in
    lexicographic order with the seed index slowest. Only the flat arrays are
    ever materialized; a result larger than ``cap`` raises
    :class:`SizeCapError` instead of allocating.
    """
    _check_cap([probs.size, *(f.size for f in factors)], cap)
    p = np.asarray(probs, dtype=np.float64)
    e = np.asarray(energies, dtype=np.float64)
    for f in factors:
        p = np.multiply.outer(p, f.probs).ravel()
        e = np.add.outer(e, f.energies).ravel()
    return p, e


def sorted_joint(
    seed: np.ndarray,
    factors: Sequence[np.ndarray],
    combine: np.ufunc,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> np.ndarray:
    """Ascending array of ``combine`` over every choice of one value from
    the 1-D ``seed`` and one from each 1-D float64 factor: ``np.multiply``
    gives the joint probabilities, ``np.add`` the joint energies.

    The seed is sorted, then each factor is combined into the sorted array:
    ``combine.outer(factor, s)`` has one row per factor value, and each row
    is a sorted run, because ``x -> x * c`` (c >= 0) and ``x -> x + c`` are
    monotone in IEEE-754. A stable sort (timsort) merges a few such runs in
    linear time. IEEE ``*`` and ``+`` are commutative, so the values form
    the same multiset as :func:`product_pairs` builds, and the result equals
    ``np.sort`` of its lexicographic array element for element (only the
    order of a -0.0 and a 0.0, which compare equal, may differ). A result
    larger than ``cap`` raises :class:`SizeCapError` before anything is
    allocated.
    """
    _check_cap([len(seed), *map(len, factors)], cap)
    s = np.sort(np.asarray(seed, dtype=np.float64))
    for f in factors:
        s = combine.outer(f, s).ravel()
        s.sort(kind="stable")
    return s


def expand(
    factorized: FactorizedEnsemble, cap: int = DEFAULT_EXPANSION_CAP
) -> SpectralEnsemble:
    """Expand a factorized ensemble into one flat SpectralEnsemble.

    Output order is lexicographic over factor indices (first factor slowest),
    matching the Kronecker-product basis convention of the dense oracle, so
    outputs are byte-reproducible. Zero-probability entries are kept.
    """
    seed_p = np.ones(1)
    seed_e = np.zeros(1)
    probs, energies = product_pairs(seed_p, seed_e, factorized.factors, cap)
    return SpectralEnsemble(probs, energies)


def eigens(rho: DensityOperator) -> np.ndarray:
    """Eigenvalues of a density operator, descending, clipped to [0, 1].

    Clipping absorbs at most 1e-10 of numerical slack; the clipped spectrum
    must still sum to 1 within 1e-9.
    """
    values = np.linalg.eigvalsh(rho.entries)[::-1]
    if float(values.min()) < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {values.min():.3e} below tolerance")
    if float(values.max()) > 1.0 + 1e-10:
        raise ValueError(f"eigenvalue {values.max():.3e} above 1")
    clipped = np.clip(values, 0.0, 1.0)
    total = compensated_sum(clipped)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues sum to {total!r}, not 1")
    return clipped
