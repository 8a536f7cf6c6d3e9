import math

import numpy as np
import pytest

from ergolock import (
    custom_bath,
    free_energy_bound,
    skrzypczyk_bath,
)
from ergolock.bath import BathSpec, bath_ensemble
from ergolock.ergotropy import ergotropy_product
from ergolock.spectra import compensated_sum, expand


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
