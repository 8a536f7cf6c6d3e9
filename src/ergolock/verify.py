"""Seeded self-verification: fast path against the dense oracle, the two
work-extraction theorems, and the channel invariants, on random instances.

Every check goes through one runner, `_run_check`, with its own seed
offset: trial i of a check draws all its randomness from
`trial_seed(seed, offset + i)`, so a summary is a pure function of its
arguments. A per-trial function builds one instance and returns
`(violation, failed)` under the check's own tolerance, or None when the
instance falls outside a conditional check's hypothesis; an ArithmeticError
counts as a failure.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .bath import BathSpec, custom_bath, skrzypczyk_bath
from .bounds import free_energy_bound
from .config import ConfigError, check_seed
from .ergotropy import ergotropy_product, shared_bath_ergotropies, theorem2_check
from .oracle import (
    MIXED_TRACE_NORMALIZED,
    PURE_HAAR,
    UNITARY_HAAR,
    RandomSpec,
    dense_ergotropy,
    dense_joint,
    keyed_rng,
    passivizing_unitary,
    random_state,
    random_unitary,
    theorem1_work,
    trial_seed,
)
from .spectra import DiagonalHamiltonian, compensated_dot, eigens, shannon_entropy
from .weight import (
    EnergyEigenstateWeight,
    GaussianWeight,
    TimeStateWeight,
    control_marginal,
)

EQUIVALENCE_TOL = 1e-9
CHAIN_TOL = 1e-9
TIMESTATE_TOL = 1e-10
ENERGY_TOL = 1e-12
ENTROPY_TOL = 1e-10


def _random_system(rng: np.random.Generator, child: int, max_dim: int = 4):
    dim = int(rng.integers(2, max_dim + 1))
    kind = PURE_HAAR if rng.integers(0, 2) == 0 else MIXED_TRACE_NORMALIZED
    rho = random_state(RandomSpec(seed=child, dim=dim, kind=kind))
    energies = np.sort(rng.uniform(0.0, 3.0, dim))
    energies[1:] += 1e-3 * np.arange(1, dim)  # keep levels non-degenerate
    return rho, DiagonalHamiltonian(energies)


def _random_bath(rng: np.random.Generator, temperature: float, max_qubits: int) -> BathSpec:
    n = int(rng.integers(1, max_qubits + 1))
    if rng.integers(0, 2) == 0:
        return skrzypczyk_bath(n, temperature, float(rng.uniform(0.3, 2.5)))
    return custom_bath(temperature, rng.uniform(0.2, 2.5, n))


def _random_weight(rng: np.random.Generator):
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return GaussianWeight(sigma=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))))
    if pick == 1:
        return TimeStateWeight(t=float(rng.uniform(-3.0, 3.0)))
    return EnergyEigenstateWeight()


def _run_check(
    name: str, offset: int, trials: int, seed: int, trial: Callable, conditional: bool = False
) -> dict:
    """Summary of ``trial(i, child, rng)`` over i < trials. ``worst_violation``
    is the largest violation over the trials that returned one (0.0 if none
    did); a conditional check also counts those trials as ``applicable``."""
    failures = applicable = 0
    worst = -np.inf
    for i in range(trials):
        child = trial_seed(seed, offset + i)
        try:
            outcome = trial(i, child, keyed_rng(child, 0))
        except ArithmeticError:
            failures += 1
            continue
        if outcome is None:
            continue
        violation, failed = outcome
        applicable += 1
        worst = max(worst, violation)
        if failed:
            failures += 1
    summary = {"name": name, "trials": trials, "failures": failures,
               "worst_violation": float(worst) if applicable else 0.0}
    if conditional:
        summary["applicable"] = applicable
    return summary


def _resource_and_tight(rho, hamiltonian, weight, bath: BathSpec) -> list[float]:
    sigma = control_marginal(rho, hamiltonian, weight)
    return shared_bath_ergotropies([rho, sigma], hamiltonian, bath)


def _fast_vs_dense(i: int, child: int, rng: np.random.Generator, max_dim: int):
    rho, hamiltonian = _random_system(rng, child)
    temperature = float(rng.uniform(0.3, 3.0))
    max_qubits = 1
    while rho.dim * 2 ** (max_qubits + 1) <= max_dim:
        max_qubits += 1
    bath = _random_bath(rng, temperature, max_qubits)
    fast = ergotropy_product(rho, hamiltonian, bath)
    joint = dense_joint(rho, hamiltonian, bath)
    violation = abs(fast - dense_ergotropy(joint.state, joint.hamiltonian))
    return violation, violation > EQUIVALENCE_TOL


def _theorem1(i: int, child: int, rng: np.random.Generator):
    dim = (4, 6, 8)[i % 3]
    sigma = random_state(RandomSpec(seed=child, dim=dim, kind=MIXED_TRACE_NORMALIZED))
    hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0.0, 3.0, dim)))
    initial = dense_ergotropy(sigma, hamiltonian)
    unitary = random_unitary(RandomSpec(seed=child, dim=dim, kind=UNITARY_HAAR))
    result = theorem1_work(unitary, sigma, hamiltonian)
    optimal = theorem1_work(passivizing_unitary(sigma, hamiltonian), sigma, hamiltonian)
    violation = max(
        abs(result.work - (initial - result.residual_ergotropy)),
        result.work - initial,
        abs(optimal.work - initial),
        abs(optimal.residual_ergotropy),
    )
    return violation, violation > EQUIVALENCE_TOL


def _chain(i: int, child: int, rng: np.random.Generator):
    rho, hamiltonian = _random_system(rng, child)
    temperature = float(rng.uniform(0.3, 3.0))
    bath = _random_bath(rng, temperature, 3)
    resource, tight = _resource_and_tight(rho, hamiltonian, _random_weight(rng), bath)
    ceiling = free_energy_bound(rho, hamiltonian, temperature)
    violation = max(tight - resource, resource - ceiling)
    return violation, violation > CHAIN_TOL


def _theorem2(i: int, child: int, rng: np.random.Generator):
    rho, hamiltonian = _random_system(rng, child, max_dim=3)
    xi = random_state(
        RandomSpec(seed=trial_seed(child, 1), dim=rho.dim, kind=MIXED_TRACE_NORMALIZED)
    )
    temperature = float(rng.uniform(0.3, 3.0))
    bath = _random_bath(rng, temperature, 2)
    result = theorem2_check(rho, xi, hamiltonian, bath, temperature)
    if not result.condition_holds:
        return None  # hypothesis violated: excluded, never asserted
    violation = result.lhs - result.rhs
    return violation, violation > CHAIN_TOL


def _timestate(i: int, child: int, rng: np.random.Generator):
    rho, hamiltonian = _random_system(rng, child)
    temperature = float(rng.uniform(0.3, 3.0))
    bath = _random_bath(rng, temperature, 3)
    weight = TimeStateWeight(t=float(rng.uniform(-5.0, 5.0)))
    resource, tight = _resource_and_tight(rho, hamiltonian, weight, bath)
    violation = abs(resource - tight)
    return violation, violation > TIMESTATE_TOL


def _dephasing(i: int, child: int, rng: np.random.Generator):
    rho, hamiltonian = _random_system(rng, child)
    sigma = control_marginal(rho, hamiltonian, EnergyEigenstateWeight())
    off = sigma.entries - np.diag(np.diagonal(sigma.entries))
    violation = float(np.max(np.abs(off)))
    return violation, violation != 0.0  # dephasing must zero coherences exactly


def _channel_invariants(i: int, child: int, rng: np.random.Generator):
    rho, hamiltonian = _random_system(rng, child)
    sigma = control_marginal(rho, hamiltonian, _random_weight(rng))
    energy_shift = abs(
        compensated_dot(sigma.diagonal(), hamiltonian.energies)
        - compensated_dot(rho.diagonal(), hamiltonian.energies)
    )
    entropy_drop = shannon_entropy(eigens(rho)) - shannon_entropy(eigens(sigma))
    violation = max(energy_shift, entropy_drop)
    return violation, energy_shift > ENERGY_TOL or entropy_drop > ENTROPY_TOL


def run_verification(trials: int, seed: int, max_dim: int = 64) -> dict:
    """Run every check with `trials` trials each; returns the summary dict."""
    if trials < 1:
        raise ConfigError("trials: empty verification is refused")
    check_seed(seed)
    if max_dim > 64:
        raise ConfigError("max_dim: dense comparisons are limited to 64")
    if max_dim < 8:
        raise ConfigError("max_dim: must be at least 8")
    checks = [
        _run_check("fast_vs_dense_ergotropy", 0, trials, seed,
                   functools.partial(_fast_vs_dense, max_dim=max_dim)),
        _run_check("theorem1_identity", 1_000_000, trials, seed, _theorem1),
        _run_check("inequality_chain", 2_000_000, trials, seed, _chain),
        _run_check("theorem2_conditional", 3_000_000, trials, seed, _theorem2, conditional=True),
        _run_check("timestate_locked_zero", 4_000_000, trials, seed, _timestate),
        _run_check("energy_eigenstate_dephasing", 5_000_000, trials, seed, _dephasing),
        _run_check("control_marginal_invariants", 6_000_000, trials, seed, _channel_invariants),
    ]
    return {"checks": checks, "pass": all(c["failures"] == 0 for c in checks)}
