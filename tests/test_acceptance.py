"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so a red criterion is loud in both channels. Expected numbers are
recomputed here through the dense oracle, never copied from the fast path.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from ergolock import (
    DensityOperator,
    DiagonalHamiltonian,
    EnergyEigenstateWeight,
    GaussianWeight,
    RandomSpec,
    TimeStateWeight,
    bound_report,
    control_marginal,
    custom_bath,
    dense_ergotropy,
    dense_joint,
    free_energy_bound,
    passivizing_unitary,
    random_state,
    random_unitary,
    skrzypczyk_bath,
    theorem1_work,
)
from ergolock.ergotropy import ergotropy_product
from ergolock.oracle import passive_energy, trial_seed
from ergolock.spectra import eigens, shannon_entropy
from ergolock.cli import main
from ergolock.spectra import SpectralEnsemble

from helpers import bath_ensemble, expand, tensor

MIXED = "mixed-trace-normalized"
PURE = "pure-haar"
UNITARY = "unitary-haar"


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"[{marker}] {criterion}{suffix}")


def _params_rng(child_seed: int) -> np.random.Generator:
    key = np.array([child_seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_criterion_1_worked_n1_case(plus_state, qubit_h, n1_bath, unit_gaussian):
    start = time.perf_counter()
    expected = {
        "resource_ergotropy": 0.50000,
        "tight_bound": 0.44125,
        "locked_energy": 0.05875,
        "free_energy_bound": 0.81326,
        "thermo_limit_locked": 0.22350,
    }
    report = bound_report(plus_state, qubit_h, unit_gaussian, n1_bath)

    # Independent recomputation through the dense oracle.
    joint_rho = dense_joint(plus_state, qubit_h, n1_bath)
    sigma = control_marginal(plus_state, qubit_h, unit_gaussian)
    joint_sigma = dense_joint(sigma, qubit_h, n1_bath)
    oracle = {
        "resource_ergotropy": dense_ergotropy(joint_rho.state, joint_rho.hamiltonian),
        "tight_bound": dense_ergotropy(joint_sigma.state, joint_sigma.hamiltonian),
    }
    oracle["locked_energy"] = oracle["resource_ergotropy"] - oracle["tight_bound"]
    oracle["free_energy_bound"] = free_energy_bound(plus_state, qubit_h, 1.0)
    oracle["thermo_limit_locked"] = shannon_entropy(eigens(sigma)) - shannon_entropy(
        eigens(plus_state)
    )
    elapsed = time.perf_counter() - start

    deviations = {
        key: max(abs(report.as_dict()[key] - expected[key]), abs(oracle[key] - expected[key]))
        for key in expected
    }
    ok = all(d <= 1e-4 for d in deviations.values()) and elapsed < 1.0
    _verdict(
        "criterion 1: worked N=1 case",
        ok,
        f"max deviation {max(deviations.values()):.2e}, {elapsed * 1e3:.0f} ms",
    )
    for key, dev in deviations.items():
        assert dev <= 1e-4, f"{key} deviates by {dev}"
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    trials = 500
    for i in range(trials):
        child = trial_seed(20_250_101, i)
        rng = _params_rng(child)
        dim = int(rng.integers(2, 5))
        kind = PURE if i % 2 else MIXED
        rho = random_state(RandomSpec(seed=child, dim=dim, kind=kind))
        energies = np.sort(rng.uniform(0.0, 3.0, dim))
        hamiltonian = DiagonalHamiltonian(energies)
        max_qubits = {2: 5, 3: 4, 4: 4}[dim]
        n_qubits = int(rng.integers(1, max_qubits + 1))
        bath = custom_bath(float(rng.uniform(0.3, 3.0)), rng.uniform(0.2, 2.5, n_qubits))
        assert rho.dim * 2**n_qubits <= 64
        fast = ergotropy_product(rho, hamiltonian, bath)
        joint = dense_joint(rho, hamiltonian, bath)
        worst = max(worst, abs(fast - dense_ergotropy(joint.state, joint.hamiltonian)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(
        "criterion 2: fast/dense oracle equivalence",
        ok,
        f"{trials} instances, worst |diff| {worst:.2e}, {elapsed:.1f} s",
    )
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_3_inequality_chain():
    trials = 1000
    failures = 0
    worst = -np.inf
    for i in range(trials):
        child = trial_seed(20_250_102, i)
        rng = _params_rng(child)
        dim = int(rng.integers(2, 5))
        kind = PURE if rng.integers(0, 2) else MIXED
        rho = random_state(RandomSpec(seed=child, dim=dim, kind=kind))
        hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0.0, 3.0, dim)))
        temperature = float(rng.uniform(0.3, 3.0))
        if rng.integers(0, 2):
            bath = skrzypczyk_bath(int(rng.integers(1, 4)), temperature,
                                   float(rng.uniform(0.3, 2.5)))
        else:
            bath = custom_bath(temperature, rng.uniform(0.2, 2.5, int(rng.integers(1, 4))))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            weight = GaussianWeight(float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))))
        elif pick == 1:
            weight = TimeStateWeight(float(rng.uniform(-3.0, 3.0)))
        else:
            weight = EnergyEigenstateWeight()
        resource = ergotropy_product(rho, hamiltonian, bath)
        tight = ergotropy_product(control_marginal(rho, hamiltonian, weight), hamiltonian, bath)
        ceiling = free_energy_bound(rho, hamiltonian, temperature)
        locked = resource - tight
        violation = max(-locked, tight - resource, resource - ceiling)
        worst = max(worst, violation)
        if violation > 1e-9:
            failures += 1
    ok = failures == 0
    _verdict(
        "criterion 3: inequality chain on random tuples",
        ok,
        f"{trials} tuples, {failures} failures, worst slack violation {worst:.2e}",
    )
    assert failures == 0


def test_criterion_4_theorem1_identity():
    trials = 500
    worst = 0.0
    for i in range(trials):
        child = trial_seed(20_250_103, i)
        dim = (4, 6, 8)[i % 3]
        rng = _params_rng(child)
        sigma = random_state(RandomSpec(seed=child, dim=dim, kind=MIXED))
        hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0.0, 3.0, dim)))
        initial = dense_ergotropy(sigma, hamiltonian)
        result = theorem1_work(
            random_unitary(RandomSpec(seed=child, dim=dim, kind=UNITARY)),
            sigma,
            hamiltonian,
        )
        worst = max(
            worst,
            abs(result.work - (initial - result.residual_ergotropy)),
            result.work - initial,
        )
        optimal = theorem1_work(passivizing_unitary(sigma, hamiltonian), sigma, hamiltonian)
        worst = max(worst, abs(optimal.work - initial), abs(optimal.residual_ergotropy))
    ok = worst <= 1e-9
    _verdict(
        "criterion 4: work-identity for unitary strokes",
        ok,
        f"{trials} (V, state) pairs at dims 4/6/8, worst violation {worst:.2e}",
    )
    assert worst <= 1e-9


def test_criterion_5_convergence_to_free_energy_bound(plus_state, qubit_h):
    start = time.perf_counter()
    golden_path = Path(__file__).parent / "data" / "convergence_golden.json"
    golden = json.loads(golden_path.read_text())
    ceiling = free_energy_bound(plus_state, qubit_h, 1.0)
    gaps = []
    for n in golden["bath_sizes"]:
        bath = skrzypczyk_bath(n, 1.0, 1.0)
        gaps.append(ceiling - ergotropy_product(plus_state, qubit_h, bath))
    elapsed = time.perf_counter() - start

    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    half_rule = gaps[13] < 0.5 * gaps[0]
    matches_golden = len(gaps) == len(golden["gap_to_bound"]) == 22 and all(
        abs(g - ref) <= 1e-9 for g, ref in zip(gaps, golden["gap_to_bound"])
    )
    ok = decreasing and half_rule and matches_golden and elapsed < 60.0
    _verdict(
        "criterion 5: convergence toward the free-energy bound",
        ok,
        f"gap N=1 {gaps[0]:.5f} -> N=14 {gaps[13]:.5f} -> N=22 {gaps[21]:.5f}, {elapsed:.1f} s",
    )
    assert decreasing, "gap sequence is not strictly decreasing"
    assert half_rule, "N=14 gap is not below half the N=1 gap"
    assert matches_golden, "gap sequence drifted from the committed golden values"
    assert elapsed < 60.0


def test_criterion_6_ideal_and_dead_weight_limits():
    worst_locked = 0.0
    worst_offdiag = 0.0
    for i in range(100):
        child = trial_seed(20_250_104, i)
        rng = _params_rng(child)
        dim = int(rng.integers(2, 5))
        rho = random_state(RandomSpec(seed=child, dim=dim, kind=PURE))
        energies = np.sort(rng.uniform(0.0, 3.0, dim))
        energies[1:] += 1e-3 * np.arange(1, dim)
        hamiltonian = DiagonalHamiltonian(energies)
        bath = custom_bath(float(rng.uniform(0.3, 3.0)), rng.uniform(0.2, 2.5, 2))
        resource = ergotropy_product(rho, hamiltonian, bath)
        rotated = control_marginal(rho, hamiltonian, TimeStateWeight(float(rng.uniform(-5, 5))))
        worst_locked = max(
            worst_locked, abs(resource - ergotropy_product(rotated, hamiltonian, bath))
        )

        dephased = control_marginal(rho, hamiltonian, EnergyEigenstateWeight())
        off = dephased.entries - np.diag(np.diagonal(dephased.entries))
        worst_offdiag = max(worst_offdiag, float(np.max(np.abs(off))))
    ok = worst_locked <= 1e-10 and worst_offdiag == 0.0
    _verdict(
        "criterion 6: ideal-weight and dead-weight limits",
        ok,
        f"worst |locked| {worst_locked:.2e}, worst off-diagonal {worst_offdiag:.1e}",
    )
    assert worst_locked <= 1e-10
    assert worst_offdiag == 0.0


def test_criterion_7_locked_energy_non_monotone_in_bath_size():
    # The non-monotonicity lives at gap/temperature ratios above 1; the
    # sigma/omega grid and bath sizes are the stated scan, omega = 2, T = 1.
    start = time.perf_counter()
    omega, temperature = 2.0, 1.0
    hamiltonian = DiagonalHamiltonian([0.0, omega])
    plus = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
    hits = []
    for ratio in np.geomspace(0.1, 10.0, 15):
        weight = GaussianWeight(sigma=float(ratio) * omega)
        sigma_state = control_marginal(plus, hamiltonian, weight)
        locked = []
        for n in range(1, 13):
            bath = skrzypczyk_bath(n, temperature, omega)
            locked.append(
                ergotropy_product(plus, hamiltonian, bath)
                - ergotropy_product(sigma_state, hamiltonian, bath)
            )
        diffs = np.diff(locked)
        if (diffs > 1e-9).any() and (diffs < -1e-9).any():
            hits.append(float(ratio))
    elapsed = time.perf_counter() - start
    ok = bool(hits) and elapsed < 120.0
    _verdict(
        "criterion 7: non-monotonic locked energy exists",
        ok,
        f"non-monotone at sigma/omega = {[round(h, 3) for h in hits]}, {elapsed:.1f} s",
    )
    assert hits, "no sigma/omega in the scan produced a rise and a fall"
    assert elapsed < 120.0


def test_criterion_8_performance(plus_state, qubit_h):
    # Passive energy of the full N = 20 joint spectrum (2^21 elements).
    bath = bath_ensemble(skrzypczyk_bath(20, 1.0, 1.0))
    system = SpectralEnsemble([1.0, 0.0], [0.0, 1.0])
    start = time.perf_counter()
    joint = expand(tensor(system, bath))
    passive = passive_energy(joint)
    passive_elapsed = time.perf_counter() - start
    assert joint.size == 1 << 21

    start = time.perf_counter()
    for ratio in (0.5, 1.0, 2.0, 4.0):
        weight = GaussianWeight(sigma=ratio)
        for n in range(1, 15):
            bound_report(plus_state, qubit_h, weight, skrzypczyk_bath(n, 1.0, 1.0))
    sweep_elapsed = time.perf_counter() - start

    ok = passive_elapsed < 5.0 and sweep_elapsed < 180.0
    _verdict(
        "criterion 8: performance",
        ok,
        f"2^21 passive energy {passive_elapsed:.2f} s (P={passive:.4f}), "
        f"14x4 sweep {sweep_elapsed:.1f} s",
    )
    assert passive_elapsed < 5.0
    assert sweep_elapsed < 180.0


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = {
        "system": {"gaps": [1.0], "state": "plus"},
        "bath": {"model": "skrzypczyk", "N": 1, "omega": 1.0},
        "weight": {"kind": "gaussian", "sigma": 1.0},
        "temperature": 1.0,
        "sweep": {"parameter": "N", "values": [1, 2, 3, 4, 5]},
        "seed": 42,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    outputs = {}
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"run{i}.{fmt}" for i in (1, 2)]
        for path in paths:
            code = main(["sweep", "--config", str(cfg), "--out", str(path), "--format", fmt])
            assert code == 0
        outputs[fmt] = paths[0].read_bytes() == paths[1].read_bytes()
    ok = all(outputs.values())
    _verdict("criterion 9: byte-identical seeded reruns", ok, f"csv/json identical: {outputs}")
    assert outputs["csv"]
    assert outputs["json"]
