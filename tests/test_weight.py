import math
import warnings

import numpy as np
import pytest

from ergolock import (
    CustomWeight,
    DensityOperator,
    DiagonalHamiltonian,
    EnergyEigenstateWeight,
    GaussianWeight,
    TimeStateWeight,
    characteristic_factor,
    control_marginal,
    skrzypczyk_bath,
)
from ergolock.bath import bath_ensemble
from ergolock.ergotropy import ergotropy_product
from ergolock.spectra import eigens, shannon_entropy


# Coherence survival factor of the worked example: exp(-omega^2 / 8 sigma^2)
# at omega = sigma = 1.
GAMMA = float(np.exp(-1.0 / 8.0))

ALL_MODELS = [
    GaussianWeight(sigma=0.4),
    TimeStateWeight(t=2.3),
    EnergyEigenstateWeight(),
    CustomWeight(phi=lambda d: math.exp(-abs(d))),
]


class TestCharacteristicFactor:
    def test_gaussian_at_unit_ratio(self):
        value = characteristic_factor(GaussianWeight(sigma=1.0), 1.0)
        assert value == pytest.approx(GAMMA, abs=1e-15)
        assert value == pytest.approx(0.882497, abs=1e-6)

    @pytest.mark.parametrize("weight", ALL_MODELS)
    def test_zero_splitting_gives_one(self, weight):
        assert characteristic_factor(weight, 0.0) == 1.0

    @pytest.mark.parametrize("weight", ALL_MODELS)
    def test_array_matches_scalar(self, weight):
        delta = np.subtract.outer([0.0, 0.5, 1.5, 3.0], [0.0, 1.0, 2.5])
        factors = characteristic_factor(weight, delta)
        scalars = [[characteristic_factor(weight, float(d)) for d in row] for row in delta]
        assert factors.shape == delta.shape
        assert np.array_equal(factors, np.array(scalars))

    @pytest.mark.parametrize("t", [-2.0, 0.0, 0.7, 31.0])
    @pytest.mark.parametrize("delta", [0.1, 1.0, 5.0])
    def test_time_state_is_unimodular(self, t, delta):
        assert abs(characteristic_factor(TimeStateWeight(t=t), delta)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_energy_eigenstate_kills_all_splittings(self):
        w = EnergyEigenstateWeight()
        assert characteristic_factor(w, 0.3) == 0.0
        assert characteristic_factor(w, -0.3) == 0.0

    def test_gaussian_monotone_in_sigma(self):
        values = [
            characteristic_factor(GaussianWeight(sigma=s), 1.0).real
            for s in (0.05, 0.2, 1.0, 5.0, 50.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.0, abs=1e-15)  # sigma -> 0: energy state
        assert values[-1] == pytest.approx(1.0, abs=1e-3)  # sigma -> inf: identity

    @pytest.mark.parametrize("sigma", [5e-324, 1e-200, 1e-160, 1e-150, 1e150, 1e200, 1.7e308])
    def test_gaussian_is_one_at_zero_splitting_for_any_sigma(self, sigma):
        # The suite turns a RuntimeWarning (0/0, overflow) into an error.
        factors = characteristic_factor(GaussianWeight(sigma=sigma), np.array([0.0, 1.0, -3.0]))
        assert factors[0] == 1.0
        assert np.all((factors >= 0.0) & (factors <= 1.0))

    @pytest.mark.parametrize("sigma", [1e200, 1.7e308])
    def test_gaussian_with_overflowing_width_scales_the_splitting(self, sigma):
        # 8 sigma^2 is inf; so is delta^2 at delta = sigma, and inf / inf is nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = characteristic_factor(
                GaussianWeight(sigma=sigma), np.array([sigma, -0.5 * sigma])
            )
        assert np.all(np.isfinite(factors))
        assert factors[0] == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-15)
        assert factors[1] == pytest.approx(math.exp(-0.25 / 8.0), rel=1e-15)

    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            GaussianWeight(sigma=0.0)


class TestControlMarginal:
    def test_diagonal_state_is_fixed(self, qubit_h):
        rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex))
        for weight in (GaussianWeight(0.2), TimeStateWeight(1.1), EnergyEigenstateWeight()):
            out = control_marginal(rho, qubit_h, weight)
            assert np.array_equal(out.entries, rho.entries)

    def test_energy_eigenstate_dephases_plus(self, plus_state, qubit_h):
        out = control_marginal(plus_state, qubit_h, EnergyEigenstateWeight())
        assert np.array_equal(out.entries, np.diag([0.5, 0.5]).astype(complex))

    def test_gaussian_scales_coherence(self, plus_state, qubit_h):
        out = control_marginal(plus_state, qubit_h, GaussianWeight(sigma=1.0))
        expected = 0.5 * np.array([[1.0, GAMMA], [GAMMA, 1.0]])
        assert np.allclose(out.entries, expected, atol=1e-15)

    def test_degenerate_levels_keep_coherence(self):
        h = DiagonalHamiltonian([1.0, 1.0])
        rho = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
        out = control_marginal(rho, h, EnergyEigenstateWeight())
        assert np.array_equal(out.entries, rho.entries)

    def test_energy_preserved(self, qubit_h):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho = DensityOperator(rho / np.trace(rho).real)
            sigma = control_marginal(rho, qubit_h, GaussianWeight(rng.uniform(0.1, 3.0)))
            before = float(np.real(np.trace(rho.entries @ np.diag(qubit_h.energies))))
            after = float(np.real(np.trace(sigma.entries @ np.diag(qubit_h.energies))))
            assert after == pytest.approx(before, abs=1e-12)

    def test_entropy_never_decreases(self, qubit_h):
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho = DensityOperator(rho / np.trace(rho).real)
            sigma = control_marginal(rho, qubit_h, GaussianWeight(rng.uniform(0.1, 3.0)))
            assert shannon_entropy(eigens(sigma)) >= shannon_entropy(eigens(rho)) - 1e-10

    def test_time_state_preserves_product_ergotropy(self, plus_state, qubit_h):
        bath = bath_ensemble(skrzypczyk_bath(2, 1.0, 1.0))
        reference = ergotropy_product(plus_state, qubit_h, bath)
        for t in (-4.0, -0.3, 0.0, 1.7, 20.0):
            rotated = control_marginal(plus_state, qubit_h, TimeStateWeight(t=t))
            assert ergotropy_product(rotated, qubit_h, bath) == pytest.approx(
                reference, abs=1e-10
            )

    def test_dimension_mismatch(self, plus_state):
        with pytest.raises(ValueError):
            control_marginal(plus_state, DiagonalHamiltonian([0.0, 1.0, 2.0]),
                             GaussianWeight(1.0))


class TestCustomWeight:
    def test_valid_table_runs(self, plus_state, qubit_h):
        w = CustomWeight(phi=lambda d: math.exp(-abs(d)))
        out = control_marginal(plus_state, qubit_h, w)
        assert out.entries[0, 1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)

    def test_phi_zero_must_be_one(self):
        with pytest.raises(ValueError, match="phi"):
            CustomWeight(phi=lambda d: 0.5)

    def test_modulus_above_one_rejected(self, plus_state, qubit_h):
        w = CustomWeight(phi=lambda d: 1.0 if d == 0.0 else 2.0)
        with pytest.raises(ValueError, match="modulus"):
            control_marginal(plus_state, qubit_h, w)

    def test_non_positive_definite_phi_caught_by_psd_guard(self):
        # phi(0) = 1, |phi| <= 1, symmetric, but not positive definite over
        # the splittings {0, 1, 2}: the output state has a negative eigenvalue.
        h = DiagonalHamiltonian([0.0, 1.0, 2.0])
        rho = DensityOperator(np.full((3, 3), 1.0 / 3.0, dtype=complex))
        w = CustomWeight(phi=lambda d: 1.0 if abs(d) < 1.5 else -1.0)
        with pytest.raises(ValueError, match="invalid output state"):
            control_marginal(rho, h, w)
