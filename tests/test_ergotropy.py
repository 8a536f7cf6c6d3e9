import importlib
import math

import numpy as np
import pytest

from ergolock import (
    DensityOperator,
    DiagonalHamiltonian,
    RandomSpec,
    SizeCapError,
    random_state,
    skrzypczyk_bath,
    spectra,
)
from ergolock.bath import BathSpec
from ergolock.ergotropy import ergotropy_product, theorem2_check
from ergolock.oracle import MIXED_TRACE_NORMALIZED, PURE_HAAR, ergotropy, passive_energy
from ergolock.spectra import (
    SpectralEnsemble,
    eigens,
    entropy,
    gibbs_ensemble,
    shannon_entropy,
    state_free_energy,
)

from helpers import bath_ensemble, expand, passive_state

# ``ergolock.ergotropy`` is the re-exported function, not the submodule.
ERGOTROPY_MODULE = importlib.import_module("ergolock.ergotropy")


# Coherence survival factor of the worked example: exp(-omega^2 / 8 sigma^2)
# at omega = sigma = 1.
GAMMA = float(np.exp(-1.0 / 8.0))


class TestPassiveEnergy:
    def test_sort_and_dot(self):
        e = SpectralEnsemble([0.5, 0.3, 0.2], [0.0, 1.0, 2.0])
        assert passive_energy(e) == pytest.approx(0.7, abs=1e-15)

    def test_pure_state_reaches_ground(self):
        e = SpectralEnsemble([1.0, 0.0, 0.0], [3.0, 1.0, 2.0])
        assert passive_energy(e) == 1.0

    def test_plus_joint_spectrum(self):
        e = SpectralEnsemble([0.7311, 0.2689, 0.0, 0.0], [0.0, 1.0, 1.0, 2.0])
        assert passive_energy(e) == pytest.approx(0.2689, abs=1e-15)

    def test_pairing_order_is_irrelevant(self):
        scrambled = SpectralEnsemble([0.2, 0.5, 0.3], [2.0, 0.0, 1.0])
        assert passive_energy(scrambled) == pytest.approx(0.7, abs=1e-15)


class TestErgotropy:
    def test_gibbs_at_own_hamiltonian_is_zero(self):
        h = DiagonalHamiltonian([0.0, 1.0, 2.5])
        assert ergotropy(gibbs_ensemble(h, beta=0.9)) == pytest.approx(0.0, abs=1e-14)

    def test_plus_spectrum_qubit(self):
        # The |+> spectrum paired passively already: E = omega/2 only holds
        # through the additive product path, so here use the bare spectrum
        # paired with its own rotated-basis energies.
        e = SpectralEnsemble([0.5, 0.5], [0.0, 1.0])
        assert ergotropy(e) == pytest.approx(0.0, abs=1e-15)

    def test_inverted_qubit(self):
        e = SpectralEnsemble([0.2, 0.8], [0.0, 1.0])
        assert ergotropy(e) == pytest.approx(0.6, abs=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.random(6)
            p /= p.sum()
            e = SpectralEnsemble(p, rng.uniform(-4, 4, 6))
            assert ergotropy(e) >= -1e-10


class TestErgotropyProduct:
    def test_gibbs_system_with_matched_bath_is_passive(self, qubit_h):
        tau = DensityOperator(np.diag(gibbs_ensemble(qubit_h, 1.0).probs).astype(complex))
        bath = skrzypczyk_bath(3, 1.0, 1.0)
        assert ergotropy_product(tau, qubit_h, bath) == pytest.approx(0.0, abs=1e-10)

    def test_plus_with_unit_bath(self, plus_state, qubit_h, n1_bath):
        value = ergotropy_product(plus_state, qubit_h, n1_bath)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_dephased_plus_with_unit_bath(self, dephased_plus, qubit_h, n1_bath):
        value = ergotropy_product(dephased_plus, qubit_h, n1_bath)
        assert value == pytest.approx(0.44125, abs=1e-5)
        # Closed form for this point: half the coherence survival factor.
        assert value == pytest.approx(GAMMA / 2.0, abs=1e-12)

    def test_energy_is_additive_not_positional(self, plus_state, qubit_h, n1_bath):
        # E(plus x bath) = 0.5 + E(bath); the arbitrary eigenvalue/energy
        # pairing inside the joint list must never leak into the energy.
        bath = n1_bath
        p_excited = 1.0 / (1.0 + math.e)
        expected_passive = p_excited  # sorted pairing puts 0.2689 at energy 1
        value = ergotropy_product(plus_state, qubit_h, bath)
        assert value == pytest.approx((0.5 + p_excited) - expected_passive, abs=1e-12)

    def test_dimension_mismatch(self, plus_state, n1_bath):
        with pytest.raises(ValueError):
            ergotropy_product(plus_state, DiagonalHamiltonian([0.0, 1.0, 2.0]), n1_bath)

    def test_cap_overflow(self, monkeypatch, plus_state, qubit_h):
        bath = skrzypczyk_bath(10, 1.0, 1.0)
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 1000)
        with pytest.raises(SizeCapError):
            ergotropy_product(plus_state, qubit_h, bath)

    def test_empty_bath(self, plus_state, qubit_h):
        value = ergotropy_product(plus_state, qubit_h, BathSpec(T=1.0, gaps=np.empty(0)))
        assert value == pytest.approx(0.5, abs=1e-15)


class TestPassiveState:
    def test_idempotent_on_passive_diagonal(self, qubit_h):
        rho = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
        out = passive_state(rho, qubit_h)
        assert np.allclose(out.entries, rho.entries, atol=1e-14)

    def test_plus_maps_to_ground(self, plus_state, qubit_h):
        out = passive_state(plus_state, qubit_h)
        assert np.allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_dephased_plus_maps_to_xi(self, dephased_plus, qubit_h):
        out = passive_state(dephased_plus, qubit_h)
        expected = np.diag([(1.0 + GAMMA) / 2.0, (1.0 - GAMMA) / 2.0])
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_unsorted_hamiltonian_levels(self):
        h = DiagonalHamiltonian([1.0, 0.0])
        rho = DensityOperator(np.diag([0.9, 0.1]).astype(complex))
        out = passive_state(rho, h)
        # Larger population must sit on the *lower* level, index 1 here.
        assert out.entries[1, 1] == pytest.approx(0.9, abs=1e-14)

    def test_energy_matches_passive_energy(self, dephased_plus, qubit_h):
        out = passive_state(dephased_plus, qubit_h)
        joint = SpectralEnsemble(eigens(dephased_plus), qubit_h.energies)
        assert np.real(np.trace(out.entries @ np.diag(qubit_h.energies))) == pytest.approx(
            passive_energy(joint), abs=1e-14
        )


class TestPassiveReferenceSplit:
    def test_ergotropy_splits_against_passive_reference(self, dephased_plus, qubit_h, n1_bath):
        # With xi the passive state of sigma, both joints share a spectrum,
        # so the ergotropy difference is purely the mean-energy difference.
        bath = n1_bath
        xi = passive_state(dephased_plus, qubit_h)
        r_sigma = ergotropy_product(dephased_plus, qubit_h, bath)
        r_xi = ergotropy_product(xi, qubit_h, bath)
        h_diag = np.diag(qubit_h.energies)
        e_sigma = float(np.real(np.trace(dephased_plus.entries @ h_diag)))
        e_xi = float(np.real(np.trace(xi.entries @ h_diag)))
        assert r_sigma == pytest.approx(r_xi + e_sigma - e_xi, abs=1e-12)
        # For this point the split is exactly half the coherence factor.
        assert e_sigma - e_xi == pytest.approx(GAMMA / 2.0, abs=1e-12)

    def test_split_holds_for_random_states(self, qubit_h, n1_bath):
        rng = np.random.default_rng(17)
        bath = n1_bath
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho = DensityOperator(rho / np.trace(rho).real)
            xi = passive_state(rho, qubit_h)
            lhs = ergotropy_product(rho, qubit_h, bath) - ergotropy_product(xi, qubit_h, bath)
            h_diag = np.diag(qubit_h.energies)
            rhs = float(np.real(np.trace((rho.entries - xi.entries) @ h_diag)))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestTheorem2:
    def test_gibbs_reference_reduces_to_free_energy_bound(self, plus_state, qubit_h, n1_bath):
        tau = DensityOperator(np.diag(gibbs_ensemble(qubit_h, 1.0).probs).astype(complex))
        result = theorem2_check(plus_state, tau, qubit_h, n1_bath)
        assert result.condition_holds
        assert result.lhs == pytest.approx(0.5, abs=1e-12)
        assert result.rhs == pytest.approx(0.81326, abs=1e-5)
        assert result.lhs <= result.rhs + 1e-9

    def test_reflexive_pair_is_zero(self, dephased_plus, qubit_h, n1_bath):
        result = theorem2_check(dephased_plus, dephased_plus, qubit_h, n1_bath)
        assert result.condition_holds
        assert result.lhs == pytest.approx(0.0, abs=1e-14)
        assert result.rhs == pytest.approx(0.0, abs=1e-14)

    def test_worked_pair_values(self, plus_state, qubit_h, n1_bath):
        tau = DensityOperator(np.diag(gibbs_ensemble(qubit_h, 1.0).probs).astype(complex))
        result = theorem2_check(plus_state, tau, qubit_h, n1_bath)
        assert result.rhs == pytest.approx(0.5 - (-0.31326), abs=1e-5)


def _random_instance(seed: int, max_qubits: int = 12):
    # A state of dimension <= 4, a Hamiltonian and a bath of <= max_qubits qubits.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    rho = random_state(RandomSpec(seed=seed, dim=dim, kind=MIXED_TRACE_NORMALIZED))
    h = DiagonalHamiltonian(rng.uniform(0.0, 2.0, dim))
    n = int(rng.integers(0, max_qubits + 1))
    return rho, h, BathSpec(T=0.8, gaps=rng.uniform(0.2, 2.5, n))


class TestTheorem2Kernel:
    """theorem2_check reads the passive energies of the shared kernel."""

    def test_lhs_is_the_ergotropy_difference_bit_for_bit(self):
        for seed in range(20):
            rho, h, bath = _random_instance(seed, max_qubits=6)
            xi = random_state(RandomSpec(seed=seed + 1000, dim=rho.dim, kind=PURE_HAAR))
            result = theorem2_check(rho, xi, h, bath)
            expected = ergotropy_product(rho, h, bath) - ergotropy_product(xi, h, bath)
            assert result.lhs == expected, seed

    def test_rhs_is_the_free_energy_difference_bit_for_bit(self):
        for seed in range(20):
            rho, h, bath = _random_instance(seed, max_qubits=6)
            xi = random_state(RandomSpec(seed=seed + 1000, dim=rho.dim, kind=PURE_HAAR))
            result = theorem2_check(rho, xi, h, bath)
            expected = state_free_energy(rho, h, bath.T) - state_free_energy(xi, h, bath.T)
            assert result.rhs == expected, seed

    def test_each_entropy_is_computed_once(self, monkeypatch, plus_state, qubit_h):
        # Counted wherever it is looked up, state_free_energy included: one
        # per state, and none for the bath, whose entropy is a closed form.
        calls = []
        for module in (ERGOTROPY_MODULE, spectra):
            monkeypatch.setattr(module, "shannon_entropy",
                                lambda p: calls.append(1) or shannon_entropy(p))
        theorem2_check(plus_state, plus_state, qubit_h, skrzypczyk_bath(3, 1.0, 1.0))
        assert len(calls) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_passive_energy_raises(self, monkeypatch, value, plus_state, qubit_h,
                                              n1_bath):
        # A NaN makes the hypothesis false; it must not read as "not
        # applicable".
        monkeypatch.setattr(ERGOTROPY_MODULE, "passive_energies",
                            lambda values, *args: [value] * len(values))
        with pytest.raises(ArithmeticError, match="not all finite"):
            theorem2_check(plus_state, plus_state, qubit_h, n1_bath)

    def test_additive_passive_entropy_matches_the_joint_sum(self):
        # A passive joint state has the spectrum of rho x bath, whose entropy
        # is S(rho) plus the entropy of each bath factor.
        for seed in range(200):
            rho, _, bath = _random_instance(seed)
            ensemble = bath_ensemble(bath)
            additive = shannon_entropy(eigens(rho)) + sum(entropy(f) for f in ensemble.factors)
            joint = np.multiply.outer(eigens(rho), expand(ensemble).probs)
            assert abs(additive - shannon_entropy(joint)) <= 1e-12, seed
