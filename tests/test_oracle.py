import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergolock import (
    DensityOperator,
    DiagonalHamiltonian,
    RandomSpec,
    SizeCapError,
    custom_bath,
    dense_ergotropy,
    dense_joint,
    passivizing_unitary,
    random_state,
    random_unitary,
    theorem1_work,
)
from ergolock import oracle
from ergolock.ergotropy import ergotropy_product
from ergolock.oracle import keyed_rng, trial_seed
from ergolock.spectra import compensated_dot, gibbs_ensemble

MIXED = "mixed-trace-normalized"
PURE = "pure-haar"
UNITARY = "unitary-haar"


class TestRandomGeneration:
    def test_same_spec_is_bit_identical(self):
        spec = RandomSpec(seed=123456789, dim=5, kind=MIXED)
        a = random_state(spec)
        b = random_state(spec)
        assert np.array_equal(a.entries, b.entries)

    def test_kinds_give_different_streams(self):
        a = random_state(RandomSpec(seed=9, dim=3, kind=MIXED))
        b = random_state(RandomSpec(seed=9, dim=3, kind=PURE))
        assert not np.allclose(a.entries, b.entries)

    def test_pure_state_has_unit_top_eigenvalue(self):
        rho = random_state(RandomSpec(seed=7, dim=6, kind=PURE))
        assert np.linalg.eigvalsh(rho.entries)[-1] == pytest.approx(1.0, abs=1e-10)

    def test_mixed_state_is_trace_one(self):
        rho = random_state(RandomSpec(seed=11, dim=4, kind=MIXED))
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_unitary_is_unitary_and_deterministic(self):
        spec = RandomSpec(seed=21, dim=6, kind=UNITARY)
        u = random_unitary(spec)
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
        assert np.array_equal(u, random_unitary(spec))

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            random_state(RandomSpec(seed=1, dim=2, kind=UNITARY))
        with pytest.raises(ValueError):
            random_unitary(RandomSpec(seed=1, dim=2, kind=PURE))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=-1, dim=2, kind=PURE)
        with pytest.raises(ValueError):
            RandomSpec(seed=0, dim=0, kind=PURE)
        with pytest.raises(ValueError):
            RandomSpec(seed=0, dim=2, kind="bogus")

    def test_trial_seed_is_deterministic(self):
        assert trial_seed(42, 0) == trial_seed(42, 0)
        assert trial_seed(42, 0) != trial_seed(42, 1)
        assert trial_seed(42, 0) != trial_seed(43, 0)


class TestKeyedRng:
    @pytest.mark.parametrize("a, b", [(0, 0), (2**64 - 1, 2**64 - 1), (7, 1)])
    def test_matches_a_philox_keyed_generator(self, a, b):
        want = np.random.Generator(np.random.Philox(key=np.array([a, b], dtype=np.uint64)))
        got = keyed_rng(a, b)
        np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
        assert got.integers(0, 1 << 63, dtype=np.uint64) == want.integers(
            0, 1 << 63, dtype=np.uint64
        )
        assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
        assert np.array_equal(got.uniform(0.0, 3.0, 5), want.uniform(0.0, 3.0, 5))

    def test_import_leaves_numpy_random_unloaded(self):
        # The keyed seed sequence is defined on first use, so importing the
        # package does not pay for importing numpy.random.
        src = Path(oracle.__file__).resolve().parents[1]
        code = "import sys, ergolock; sys.exit('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestDenseJoint:
    def test_worked_example_diagonal(self, plus_state, qubit_h, n1_bath):
        joint = dense_joint(plus_state, qubit_h, n1_bath)
        p = 1.0 / (1.0 + np.e)
        expected = [0.5 * (1 - p), 0.5 * p, 0.5 * (1 - p), 0.5 * p]
        assert joint.state.diagonal() == pytest.approx(expected, abs=1e-12)
        assert joint.state.diagonal() == pytest.approx([0.36553, 0.13447, 0.36553, 0.13447],
                                                       abs=1e-5)
        assert list(joint.hamiltonian.energies) == [0.0, 1.0, 1.0, 2.0]

    def test_trace_one_for_random_inputs(self, qubit_h):
        for seed in range(5):
            rho = random_state(RandomSpec(seed=seed, dim=2, kind=MIXED))
            joint = dense_joint(rho, qubit_h, custom_bath(1.2, [0.7, 1.9]))
            assert np.trace(joint.state.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_cap(self, qubit_h, plus_state):
        with pytest.raises(SizeCapError):
            dense_joint(plus_state, qubit_h, custom_bath(1.0, [1.0] * 12))

    def test_dimension_cap_is_checked_before_the_bath_is_expanded(
        self, monkeypatch, qubit_h, plus_state
    ):
        # A 24-qubit bath expanded would take 2 x 128 MiB before the refusal.
        def refuse(*args):
            raise AssertionError("the bath was expanded before the dimension cap")

        monkeypatch.setattr(oracle, "_bath_diagonal", refuse)
        with pytest.raises(SizeCapError) as info:
            dense_joint(plus_state, qubit_h, custom_bath(1.0, [1.0] * 24))
        assert (info.value.size, info.value.cap) == (2 << 24, oracle.DENSE_DIM_CAP)


class TestDenseErgotropy:
    def test_matches_fast_path_on_worked_example(self, plus_state, qubit_h, n1_bath):
        joint = dense_joint(plus_state, qubit_h, n1_bath)
        dense = dense_ergotropy(joint.state, joint.hamiltonian)
        fast = ergotropy_product(plus_state, qubit_h, n1_bath)
        assert dense == pytest.approx(0.5, abs=1e-12)
        assert abs(dense - fast) < 1e-9

    def test_gibbs_joint_is_passive(self, qubit_h):
        tau = DensityOperator(np.diag(gibbs_ensemble(qubit_h, 1.0).probs).astype(complex))
        joint = dense_joint(tau, qubit_h, custom_bath(1.0, [0.5, 2.0]))
        assert dense_ergotropy(joint.state, joint.hamiltonian) == pytest.approx(0.0, abs=1e-10)

    def test_equals_fast_path_on_random_instances(self):
        for i in range(40):
            child = trial_seed(777, i)
            rng = np.random.Generator(np.random.Philox(key=np.array([child, 0],
                                                                    dtype=np.uint64)))
            dim = int(rng.integers(2, 5))
            rho = random_state(RandomSpec(seed=child, dim=dim, kind=MIXED))
            hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0, 3, dim)))
            bath = custom_bath(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0, 2))
            fast = ergotropy_product(rho, hamiltonian, bath)
            joint = dense_joint(rho, hamiltonian, bath)
            assert abs(fast - dense_ergotropy(joint.state, joint.hamiltonian)) < 1e-9

    def test_equals_the_eigvalsh_formula_bit_for_bit(self):
        # The spectrum kept by DensityOperator is eigvalsh of the same
        # entries, so reading it changes no bit of the oracle's value.
        def explicit(state, hamiltonian):
            mean = compensated_dot(state.diagonal(), hamiltonian.energies)
            descending = np.linalg.eigvalsh(state.entries)[::-1]
            return mean - compensated_dot(descending, np.sort(hamiltonian.energies))

        for i in range(30):
            child = trial_seed(999, i)
            rng = keyed_rng(child, 0)
            dim = int(rng.integers(1, 9))
            kind = PURE if i % 2 else MIXED
            rho = random_state(RandomSpec(seed=child, dim=dim, kind=kind))
            hamiltonian = DiagonalHamiltonian(rng.uniform(0.0, 3.0, dim))
            assert dense_ergotropy(rho, hamiltonian) == explicit(rho, hamiltonian), i
            qubits = int(rng.integers(1, (64 // dim).bit_length()))  # dim * 2^qubits <= 64
            bath = custom_bath(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0, qubits))
            joint = dense_joint(rho, hamiltonian, bath)
            assert joint.state.dim <= 64
            assert dense_ergotropy(joint.state, joint.hamiltonian) == explicit(
                joint.state, joint.hamiltonian
            ), i


class TestTheorem1:
    def test_identity_unitary_extracts_nothing(self, plus_state, qubit_h, n1_bath):
        joint = dense_joint(plus_state, qubit_h, n1_bath)
        result = theorem1_work(np.eye(4), joint.state, joint.hamiltonian)
        assert result.work == 0.0
        assert result.residual_ergotropy == pytest.approx(0.5, abs=1e-12)

    def test_passivizing_unitary_extracts_everything(self, plus_state, qubit_h, n1_bath):
        joint = dense_joint(plus_state, qubit_h, n1_bath)
        v = passivizing_unitary(joint.state, joint.hamiltonian)
        result = theorem1_work(v, joint.state, joint.hamiltonian)
        assert result.work == pytest.approx(0.5, abs=1e-12)
        assert result.residual_ergotropy == pytest.approx(0.0, abs=1e-12)

    def test_random_unitaries_obey_work_identity(self):
        for i in range(40):
            child = trial_seed(888, i)
            dim = (4, 6, 8)[i % 3]
            sigma = random_state(RandomSpec(seed=child, dim=dim, kind=MIXED))
            rng = np.random.Generator(np.random.Philox(key=np.array([child, 0],
                                                                    dtype=np.uint64)))
            hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0, 3, dim)))
            v = random_unitary(RandomSpec(seed=child, dim=dim, kind=UNITARY))
            result = theorem1_work(v, sigma, hamiltonian)  # identity checked inside
            assert result.work <= dense_ergotropy(sigma, hamiltonian) + 1e-9

    def test_non_unitary_is_rejected(self, plus_state, qubit_h, n1_bath):
        joint = dense_joint(plus_state, qubit_h, n1_bath)
        with pytest.raises(ValueError, match="unitary"):
            theorem1_work(0.5 * np.eye(4), joint.state, joint.hamiltonian)
