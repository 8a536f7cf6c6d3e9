import decimal
import math

import numpy as np
import pytest

from ergolock import (
    custom_bath,
    free_energy_bound,
    skrzypczyk_bath,
)
from ergolock.bath import BathSpec
from ergolock.ergotropy import ergotropy_product
from ergolock.spectra import average_energy, compensated_sum

from helpers import bath_ensemble, expand


def excited_population(gap: float, temperature: float) -> float:
    w = math.exp(-gap / temperature)
    return w / (1.0 + w)


class TestSkrzypczykBath:
    def test_single_qubit_matches_system(self):
        bath = skrzypczyk_bath(1, 1.0, 1.0)
        # (1 - delta)/delta = e^{omega/T} exactly at N = 1, so the gap is omega.
        assert bath.gaps == pytest.approx([1.0], abs=1e-14)
        assert excited_population(1.0, 1.0) == pytest.approx(1.0 / (math.e + 1.0), abs=1e-15)

    def test_single_qubit_log2(self):
        bath = skrzypczyk_bath(1, 1.0, math.log(2.0))
        assert bath.gaps == pytest.approx([math.log(2.0)], abs=1e-14)
        delta = math.exp(-math.log(2.0)) / (1.0 + math.exp(-math.log(2.0)))
        assert delta == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 11])
    def test_population_ladder(self, n):
        temperature, omega = 1.3, 0.8
        bath = skrzypczyk_bath(n, temperature, omega)
        boltzmann = math.exp(-omega / temperature)
        delta = boltzmann / (n * (1.0 + boltzmann))
        for k, gap in enumerate(bath.gaps, start=1):
            assert excited_population(gap, temperature) == pytest.approx(k * delta, abs=1e-12)

    def test_all_gaps_positive(self):
        bath = skrzypczyk_bath(30, 2.0, 0.3)
        assert float(bath.gaps.min()) > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            skrzypczyk_bath(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            skrzypczyk_bath(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            skrzypczyk_bath(2, 1.0, 0.0)


class TestBathEnsemble:
    def test_unit_bath_populations(self):
        factors = bath_ensemble(skrzypczyk_bath(1, 1.0, 1.0)).factors
        assert len(factors) == 1
        assert factors[0].probs == pytest.approx([0.731059, 0.268941], abs=1e-6)
        assert list(factors[0].energies) == [0.0, 1.0]

    def test_huge_gap_freezes_qubit(self):
        factors = bath_ensemble(custom_bath(1.0, [2000.0])).factors
        assert factors[0].probs == pytest.approx([1.0, 0.0], abs=1e-300)

    def test_high_temperature_depolarizes(self):
        factors = bath_ensemble(custom_bath(1e12, [1.0])).factors
        assert factors[0].probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_empty_bath_spec_gives_trivial_ensemble(self):
        ensemble = bath_ensemble(BathSpec(T=1.0, gaps=np.empty(0)))
        assert ensemble.factors == ()
        joint = expand(ensemble)
        assert list(joint.probs) == [1.0]
        assert list(joint.energies) == [0.0]


def decimal_thermodynamics(bath: BathSpec) -> tuple[float, float]:
    # Mean energy and entropy of the bath's Gibbs state, qubit by qubit to
    # 60 digits from the exact binary inputs: E = sum g x / (1 + x) and
    # S = sum ln(1 + x) + E / T with x = exp(-g / T).
    with decimal.localcontext(decimal.Context(prec=60)):
        t = decimal.Decimal(bath.T)
        energy = entropy = decimal.Decimal(0)
        for gap in map(decimal.Decimal, bath.gaps.tolist()):
            excited = (-gap / t).exp()
            energy += gap * excited / (1 + excited)
            entropy += (1 + excited).ln()
        return float(energy), float(entropy + energy / t)


def thermodynamic_baths() -> list[BathSpec]:
    rng = np.random.default_rng(2024)
    baths = [custom_bath(1.0, [40.0]), custom_bath(1e-3, [1e-3]), custom_bath(1e6, [1e-6, 1.0])]
    for _ in range(200):
        temperature = float(10.0 ** rng.uniform(-3.0, 3.0))
        # Gaps from 1e-4 T, nearly degenerate, to 40 T, nearly frozen.
        ratios = 10.0 ** rng.uniform(-4.0, math.log10(40.0), rng.integers(1, 25))
        baths.append(custom_bath(temperature, temperature * ratios))
    for n in (1, 2, 5, 12, 30):
        for temperature, omega in ((1.0, 1.0), (0.3, 2.5), (5.0, 0.1)):
            baths.append(skrzypczyk_bath(n, temperature, omega))
    return baths


class TestThermodynamics:
    """The bath's Gibbs mean energy and entropy in closed form."""

    def test_matches_a_60_digit_reference(self):
        for i, bath in enumerate(thermodynamic_baths()):
            energy, entropy = decimal_thermodynamics(bath)
            assert type(bath.mean_energy) is float and type(bath.entropy) is float
            assert bath.mean_energy == pytest.approx(energy, rel=1e-14, abs=0), i
            assert bath.entropy == pytest.approx(entropy, rel=1e-14, abs=0), i

    def test_mean_energy_is_the_factor_sum_bit_for_bit(self):
        for i, bath in enumerate(thermodynamic_baths()):
            factors = bath_ensemble(bath).factors
            assert bath.mean_energy == sum(average_energy(f) for f in factors), i

    def test_frozen_qubit_entropy(self):
        # At gap 40 T, 1 / Z rounds to 1, and the factor's -sum p ln p reads
        # 1.70e-16 against the true 1.74e-16; ln Z + E / T keeps every digit.
        bath = custom_bath(1.0, [40.0])
        assert bath.entropy == pytest.approx(decimal_thermodynamics(bath)[1], rel=1e-15, abs=0)
        assert bath.entropy > 1.73e-16

    def test_empty_bath(self):
        bath = BathSpec(T=2.0, gaps=np.empty(0))
        assert (bath.mean_energy, bath.entropy) == (0.0, 0.0)


class TestCustomBath:
    def test_single_gap_matches_skrzypczyk_coincidence(self):
        a = bath_ensemble(custom_bath(1.0, [1.0]))
        b = bath_ensemble(skrzypczyk_bath(1, 1.0, 1.0))
        assert a.factors[0].probs == pytest.approx(list(b.factors[0].probs), abs=1e-14)
        assert a.factors[0].energies == pytest.approx(list(b.factors[0].energies), abs=1e-14)

    def test_empty_gap_list_is_refused(self):
        with pytest.raises(ValueError):
            custom_bath(1.0, [])

    def test_three_gaps_normalized(self):
        joint = expand(bath_ensemble(custom_bath(2.0, [0.5, 1.5, 2.5])))
        assert joint.size == 8
        assert compensated_sum(joint.probs) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_gap_is_refused(self):
        with pytest.raises(ValueError):
            custom_bath(1.0, [0.5, -1.0])


class TestBathScaling:
    def test_ergotropy_nondecreasing_in_bath_size(self, plus_state, qubit_h):
        values = [
            ergotropy_product(plus_state, qubit_h, skrzypczyk_bath(n, 1.0, 1.0))
            for n in range(1, 13)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_free_energy_bound_caps_every_size(self, plus_state, qubit_h):
        ceiling = free_energy_bound(plus_state, qubit_h, 1.0)
        for n in (1, 3, 6, 10):
            value = ergotropy_product(plus_state, qubit_h, skrzypczyk_bath(n, 1.0, 1.0))
            assert value <= ceiling + 1e-9
