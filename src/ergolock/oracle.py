"""Dense brute-force reference implementations and seeded random instances.

Everything here works on explicit matrices and full eigendecompositions so
it can cross-check the factorized fast path at small dimension. Randomness
uses the counter-based Philox4x64 bit generator: identical seeds give
bit-identical output on every platform, and per-trial streams are keyed by
(master seed, trial index).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec
from .ergotropy import ERGOTROPY_FLOOR
from .spectra import (
    DensityOperator,
    DiagonalHamiltonian,
    SpectralEnsemble,
    _check_cap,
    average_energy,
    compensated_dot,
)

DENSE_DIM_CAP = 4096

PURE_HAAR = "pure-haar"
MIXED_TRACE_NORMALIZED = "mixed-trace-normalized"
UNITARY_HAAR = "unitary-haar"

_KIND_TAGS = {PURE_HAAR: 1, MIXED_TRACE_NORMALIZED: 2, UNITARY_HAAR: 3}


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for one random instance."""

    seed: int
    dim: int
    kind: str

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.kind not in _KIND_TAGS:
            raise ValueError(f"unknown kind {self.kind!r}")


@functools.cache
def _key_type() -> type:
    # A seed sequence whose state is the key: Philox(key=...) would first
    # draw OS entropy for a SeedSequence that it discards. Made on first use,
    # so that importing ergolock does not import numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Key


def keyed_rng(a: int, b: int) -> np.random.Generator:
    """Philox4x64 generator keyed by the pair of 64-bit words (a, b): the
    state of ``Generator(Philox(key=[a, b]))``, counter and buffer zero."""
    key = _key_type()(np.array([a, b], dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key))


def trial_seed(master_seed: int, trial: int) -> int:
    """Child seed for one trial, derived from (master seed, trial index)."""
    return int(keyed_rng(master_seed, trial).integers(0, 1 << 63, dtype=np.uint64))


def random_state(spec: RandomSpec) -> DensityOperator:
    """Haar-random pure state or Ginibre-style mixed state, seed-reproducible."""
    rng = keyed_rng(spec.seed, _KIND_TAGS[spec.kind])
    if spec.kind == PURE_HAAR:
        vec = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        vec /= np.linalg.norm(vec)
        mat = np.outer(vec, vec.conj())
    elif spec.kind == MIXED_TRACE_NORMALIZED:
        g = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
            (spec.dim, spec.dim)
        )
        mat = g @ g.conj().T
        mat /= np.real(np.trace(mat))
    else:
        raise ValueError(f"random_state does not produce kind {spec.kind!r}")
    return DensityOperator(0.5 * (mat + mat.conj().T))


def random_unitary(spec: RandomSpec) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the R diagonal
    phase-fixed, which makes the distribution exactly Haar."""
    if spec.kind != UNITARY_HAAR:
        raise ValueError(f"random_unitary needs kind {UNITARY_HAAR!r}")
    rng = keyed_rng(spec.seed, _KIND_TAGS[spec.kind])
    g = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
        (spec.dim, spec.dim)
    )
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


@dataclass(frozen=True)
class DenseJoint:
    state: DensityOperator
    hamiltonian: DiagonalHamiltonian


def dense_joint(
    rho: DensityOperator, hamiltonian: DiagonalHamiltonian, bath: BathSpec
) -> DenseJoint:
    """Materialize (system x bath Gibbs) literally as a dense matrix.

    Basis order is the Kronecker convention (system index slowest, then the
    bath qubits in gap order).
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    _check_cap(rho.dim, bath.n_qubits, DENSE_DIM_CAP)
    bath_probs, bath_energies = _bath_diagonal(bath)
    state = np.kron(rho.entries, np.diag(bath_probs))
    energies = np.add.outer(hamiltonian.energies, bath_energies).ravel()
    return DenseJoint(DensityOperator(state), DiagonalHamiltonian(energies))


def _bath_diagonal(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    # The bath's Gibbs probabilities and energies in lexicographic order
    # (first qubit slowest), as outer-product chains over the qubits'
    # [ground, excited] pairs.
    probs, energies = np.ones(1), np.zeros(1)
    for gap in bath.gaps.tolist():
        excited = math.exp(-gap / bath.T)
        z = 1.0 + excited
        probs = np.multiply.outer(probs, [1.0 / z, excited / z]).ravel()
        energies = np.add.outer(energies, [0.0, gap]).ravel()
    return probs, energies


def dense_ergotropy(state: DensityOperator, hamiltonian: DiagonalHamiltonian) -> float:
    """Ergotropy by full eigendecomposition (the spectrum that
    ``DensityOperator`` validation took from the whole matrix) plus the
    sorted pairing."""
    if state.dim != hamiltonian.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    _check_cap(state.dim, 0, DENSE_DIM_CAP)
    mean_energy = compensated_dot(state.diagonal(), hamiltonian.energies)
    descending = state.eigenvalues[::-1]
    passive = compensated_dot(descending, np.sort(hamiltonian.energies))
    return mean_energy - passive


def passive_energy(ensemble: SpectralEnsemble) -> float:
    """Minimal mean energy over all unitary reshufflings of the spectrum.

    Equals the dot product of probabilities sorted descending with energies
    sorted ascending; ties in either list cannot change the value.
    """
    return compensated_dot(np.sort(ensemble.probs)[::-1], np.sort(ensemble.energies))


def ergotropy(ensemble: SpectralEnsemble) -> float:
    """Maximal unitarily extractable energy: average minus passive energy."""
    value = average_energy(ensemble) - passive_energy(ensemble)
    if value < ERGOTROPY_FLOOR:
        raise ArithmeticError(f"ergotropy {value:.3e} below the numerical floor")
    return value


def passivizing_unitary(
    state: DensityOperator, hamiltonian: DiagonalHamiltonian
) -> np.ndarray:
    """Unitary that maps the state onto its passive state (zero ergotropy)."""
    eigenvalues, eigenvectors = np.linalg.eigh(state.entries)
    # eigh returns ascending; reverse to pair largest populations first.
    eigenvectors = eigenvectors[:, ::-1]
    target = np.argsort(hamiltonian.energies, kind="stable")
    unitary = np.zeros_like(eigenvectors)
    unitary[target, :] = eigenvectors.conj().T[np.arange(state.dim), :]
    return unitary


@dataclass(frozen=True)
class Theorem1Result:
    work: float
    residual_ergotropy: float


def theorem1_work(
    unitary: np.ndarray, sigma_sb: DensityOperator, hamiltonian: DiagonalHamiltonian
) -> Theorem1Result:
    """Work done by one unitary stroke and the ergotropy left behind.

    work = Tr[H (sigma - U sigma U+)]. Since a unitary preserves the
    spectrum, work must equal the ergotropy drop R(sigma) - R(U sigma U+);
    that identity is verified to 1e-9 before returning.
    """
    unitary = np.asarray(unitary, dtype=np.complex128)
    if unitary.shape != (sigma_sb.dim, sigma_sb.dim):
        raise ValueError("unitary dimension does not match the state")
    defect = float(
        np.max(np.abs(unitary.conj().T @ unitary - np.eye(sigma_sb.dim)))
    )
    if defect > 1e-10:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    rotated = unitary @ sigma_sb.entries @ unitary.conj().T
    rotated = DensityOperator(0.5 * (rotated + rotated.conj().T))
    work = compensated_dot(
        sigma_sb.diagonal() - rotated.diagonal(), hamiltonian.energies
    )
    residual = dense_ergotropy(rotated, hamiltonian)
    drop = dense_ergotropy(sigma_sb, hamiltonian) - residual
    if abs(work - drop) > 1e-9:
        raise ArithmeticError(
            f"work {work!r} disagrees with the ergotropy drop {drop!r}"
        )
    return Theorem1Result(work=work, residual_ergotropy=residual)
