import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolock import (
    DensityOperator,
    DiagonalHamiltonian,
    SizeCapError,
    skrzypczyk_bath,
)
from ergolock.bath import bath_ensemble
from ergolock.spectra import (
    FactorizedEnsemble,
    SpectralEnsemble,
    average_energy,
    compensated_sum,
    eigens,
    entropy,
    expand,
    free_energy,
    gibbs_ensemble,
    sorted_joint,
    tensor,
)


# Coherence survival factor of the worked example: exp(-omega^2 / 8 sigma^2)
# at omega = sigma = 1.
GAMMA = float(np.exp(-1.0 / 8.0))


class TestTypes:
    def test_hamiltonian_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            DiagonalHamiltonian([])
        with pytest.raises(ValueError):
            DiagonalHamiltonian([0.0, np.inf])

    def test_hamiltonian_keeps_order(self):
        h = DiagonalHamiltonian([2.0, 0.0, 1.0])
        assert list(h.energies) == [2.0, 0.0, 1.0]
        assert h.dim == 3

    def test_density_operator_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.1], [0.4, 0.5]]))

    def test_density_operator_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_density_operator_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityOperator(np.array([[1.2, 0.0], [0.0, -0.2]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_density_operator_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(np.array([[bad, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(np.array([[0.5, bad], [bad, 0.5]]))

    def test_density_operator_is_immutable(self, plus_state):
        with pytest.raises(ValueError):
            plus_state.entries[0, 0] = 0.3

    def test_ensemble_pairing_is_positional(self):
        e = SpectralEnsemble([0.25, 0.75], [3.0, -1.0])
        assert list(e.probs) == [0.25, 0.75]
        assert list(e.energies) == [3.0, -1.0]

    def test_ensemble_rejects_negative_prob(self):
        with pytest.raises(ValueError, match="negative probability"):
            SpectralEnsemble([1.1, -0.1], [0.0, 1.0])

    def test_ensemble_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            SpectralEnsemble([0.5, 0.4], [0.0, 1.0])

    def test_factorized_rejects_non_ensembles(self):
        good = SpectralEnsemble([0.5, 0.5], [0.0, 1.0])
        with pytest.raises(TypeError):
            FactorizedEnsemble((good, [0.4, 0.4]))  # type: ignore[arg-type]


class TestGibbs:
    def test_two_level_boltzmann(self):
        e = gibbs_ensemble(DiagonalHamiltonian([0.0, math.log(2.0)]), beta=1.0)
        assert e.probs == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)

    def test_single_level(self):
        e = gibbs_ensemble(DiagonalHamiltonian([0.0]), beta=3.7)
        assert list(e.probs) == [1.0]

    def test_three_level_partition_sum(self):
        # Hand-evaluated Boltzmann sum at beta = 0.5.
        z = 1.0 + math.exp(-0.5) + math.exp(-1.0)
        expected = [1.0 / z, math.exp(-0.5) / z, math.exp(-1.0) / z]
        e = gibbs_ensemble(DiagonalHamiltonian([0.0, 1.0, 2.0]), beta=0.5)
        assert e.probs == pytest.approx(expected, abs=1e-15)
        assert compensated_sum(e.probs) == pytest.approx(1.0, abs=1e-15)

    def test_energies_copied_positionally(self):
        e = gibbs_ensemble(DiagonalHamiltonian([1.0, 0.0]), beta=2.0)
        assert list(e.energies) == [1.0, 0.0]
        assert e.probs[1] > e.probs[0]

    def test_rejects_bad_beta(self):
        h = DiagonalHamiltonian([0.0, 1.0])
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                gibbs_ensemble(h, beta)


class TestScalarFunctions:
    def test_average_energy_ground_state(self):
        assert average_energy(SpectralEnsemble([1.0, 0.0], [0.0, 1.0])) == 0.0

    def test_average_energy_uniform_qubit(self):
        assert average_energy(SpectralEnsemble([0.5, 0.5], [0.0, 1.0])) == 0.5

    def test_average_energy_gibbs_qubit(self):
        e = gibbs_ensemble(DiagonalHamiltonian([0.0, math.log(2.0)]), beta=1.0)
        assert average_energy(e) == pytest.approx(math.log(2.0) / 3.0, abs=1e-14)

    def test_entropy_pure(self):
        assert entropy(SpectralEnsemble([1.0, 0.0], [0.0, 1.0])) == 0.0

    def test_entropy_maximally_mixed(self):
        assert entropy(SpectralEnsemble([0.5, 0.5], [0.0, 1.0])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_entropy_two_thirds(self):
        e = SpectralEnsemble([2.0 / 3.0, 1.0 / 3.0], [0.0, 1.0])
        expected = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)
        assert entropy(e) == pytest.approx(expected, abs=1e-14)

    def test_free_energy_of_gibbs_is_minus_t_log_z(self):
        h = DiagonalHamiltonian([0.0, math.log(2.0)])
        e = gibbs_ensemble(h, beta=1.0)
        assert free_energy(e, 1.0) == pytest.approx(-math.log(1.5), abs=1e-14)

    def test_free_energy_pure_ground(self):
        e = SpectralEnsemble([1.0, 0.0], [0.0, 5.0])
        assert free_energy(e, 11.3) == 0.0

    def test_free_energy_uniform(self):
        e = SpectralEnsemble([0.5, 0.5], [0.0, 1.0])
        assert free_energy(e, 1.0) == pytest.approx(0.5 - math.log(2.0), abs=1e-14)


class TestTensorExpand:
    def test_identity_factor_shifts_nothing(self):
        ident = SpectralEnsemble([1.0], [0.0])
        other = SpectralEnsemble([0.3, 0.7], [0.5, 2.0])
        joint = expand(tensor(ident, other))
        assert joint.probs == pytest.approx(list(other.probs), abs=0)
        assert joint.energies == pytest.approx(list(other.energies), abs=0)

    def test_qubit_times_qubit(self):
        a = SpectralEnsemble([0.7311, 0.2689], [0.0, 1.0])
        b = SpectralEnsemble([1.0, 0.0], [0.0, 1.0])
        joint = expand(tensor(a, b))
        assert joint.probs == pytest.approx([0.7311, 0.0, 0.2689, 0.0], abs=1e-15)
        assert list(joint.energies) == [0.0, 1.0, 1.0, 2.0]
        assert compensated_sum(joint.probs) == pytest.approx(1.0, abs=1e-12)

    def test_plus_spectrum_with_unit_bath(self, n1_bath):
        system = SpectralEnsemble([1.0, 0.0], [0.0, 1.0])
        joint = expand(tensor(system, bath_ensemble(n1_bath)))
        p = 1.0 / (1.0 + math.e)
        assert joint.probs == pytest.approx([1.0 - p, p, 0.0, 0.0], abs=1e-12)
        assert list(joint.energies) == [0.0, 1.0, 1.0, 2.0]

    def test_single_factor_is_positional_copy(self):
        e = SpectralEnsemble([0.2, 0.3, 0.5], [2.0, 1.0, 0.0])
        out = expand(FactorizedEnsemble((e,)))
        assert list(out.probs) == list(e.probs)
        assert list(out.energies) == list(e.energies)

    def test_lexicographic_order_first_factor_slowest(self):
        a = SpectralEnsemble([0.9, 0.1], [0.0, 10.0])
        b = SpectralEnsemble([0.6, 0.4], [0.0, 1.0])
        joint = expand(tensor(a, b))
        assert joint.probs == pytest.approx([0.54, 0.36, 0.06, 0.04], abs=1e-15)
        assert list(joint.energies) == [0.0, 1.0, 10.0, 11.0]

    def test_tensor_flattens_factorized_operands(self):
        q = SpectralEnsemble([0.5, 0.5], [0.0, 1.0])
        nested = tensor(tensor(q, q), q)
        assert len(nested.factors) == 3
        assert expand(nested).size == 8

    def test_cap_raises_size_cap_error(self):
        bath = bath_ensemble(skrzypczyk_bath(8, 1.0, 1.0))
        with pytest.raises(SizeCapError):
            expand(bath, cap=100)

    def test_zero_probabilities_are_kept(self):
        a = SpectralEnsemble([1.0, 0.0], [0.0, 1.0])
        assert expand(tensor(a, a)).size == 4


class TestEigens:
    def test_pure_plus(self, plus_state):
        assert eigens(plus_state) == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityOperator(0.5 * np.eye(2))
        assert eigens(rho) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_dephased_plus_eigenvalues(self, dephased_plus):
        expected = [(1.0 + GAMMA) / 2.0, (1.0 - GAMMA) / 2.0]
        assert eigens(dephased_plus) == pytest.approx(expected, abs=1e-12)
        assert eigens(dephased_plus) == pytest.approx([0.94125, 0.05875], abs=5e-6)

    def test_descending_and_normalized(self):
        rho = DensityOperator(np.diag([0.1, 0.6, 0.3]).astype(complex))
        values = eigens(rho)
        assert list(values) == sorted(values, reverse=True)
        assert compensated_sum(values) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matches_sorted_diagonal(self):
        diag = [0.15, 0.05, 0.45, 0.35]
        rho = DensityOperator(np.diag(diag).astype(complex))
        assert eigens(rho) == pytest.approx(sorted(diag, reverse=True), abs=1e-14)


# A small level set with repeats (degenerate energies) and a gap large
# enough that its Gibbs population exp(-800 / T) underflows to exactly 0.0.
LEVELS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 800.0])


@st.composite
def gibbs_factors(draw):
    levels = draw(st.lists(LEVELS, min_size=1, max_size=3))
    temperature = draw(st.sampled_from([0.3, 1.0, 4.0]))
    energies = np.asarray(levels)
    weights = np.exp(-(energies - energies.min()) / temperature)
    return SpectralEnsemble(weights / weights.sum(), levels)


@st.composite
def joint_inputs(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    raw = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.25, 1.0]), min_size=d, max_size=d))
    probs = np.asarray(raw) + (1.0 if not any(raw) else 0.0)
    probs = probs / probs.sum()
    energies = np.asarray(draw(st.lists(LEVELS, min_size=d, max_size=d)))
    factors = tuple(draw(st.lists(gibbs_factors(), min_size=0, max_size=5)))
    return probs, energies, factors


class _RecordingCombine:
    """A stand-in for ``np.add``/``np.multiply`` that records each use."""

    def __init__(self):
        self.calls = 0

    def outer(self, a, b):
        self.calls += 1
        return np.add.outer(a, b)


class TestSortedJoint:
    @settings(max_examples=200, deadline=None)
    @given(joint_inputs())
    def test_equals_sorted_lexicographic_expansion(self, inputs):
        probs, energies, factors = inputs
        lex = expand(FactorizedEnsemble((SpectralEnsemble(probs, energies), *factors)))
        p_lex, e_lex = lex.probs, lex.energies
        p_sorted = sorted_joint(probs, [f.probs for f in factors], np.multiply)
        e_sorted = sorted_joint(energies, [f.energies for f in factors], np.add)
        assert np.array_equal(p_sorted, np.sort(p_lex))
        assert np.array_equal(e_sorted, np.sort(e_lex))

    def test_empty_factor_list_sorts_the_seed(self):
        seed = np.array([0.5, 0.2, 0.3])
        out = sorted_joint(seed, [], np.multiply)
        assert list(out) == [0.2, 0.3, 0.5]
        assert list(seed) == [0.5, 0.2, 0.3]

    def test_cap_raises_before_combining(self):
        combine = _RecordingCombine()
        factors = [np.array([0.0, 1.0])] * 8
        with pytest.raises(SizeCapError) as info:
            sorted_joint(np.zeros(2), factors, combine, cap=100)
        assert combine.calls == 0
        assert info.value.cap == 100
        assert sorted_joint(np.zeros(2), factors, combine, cap=512).size == 512

    def test_cap_message_for_a_huge_bath(self):
        # 2^20001 has 6022 decimal digits, more than Python will format.
        factors = [np.array([0.0, 1.0])] * 20000
        with pytest.raises(SizeCapError) as info:
            sorted_joint(np.zeros(2), factors, _RecordingCombine(), cap=1 << 26)
        assert info.value.size == 1 << 20001
        assert str(info.value) == (
            f"expansion of about 7.96e6020 elements exceeds the cap of {1 << 26}"
        )

    def test_cap_message_states_the_full_size(self):
        # A qubit with 27 bath qubits passes the cap at the last factor but
        # one; the message still names all 2^28 elements.
        factors = [np.array([0.0, 1.0])] * 27
        with pytest.raises(SizeCapError) as info:
            sorted_joint(np.zeros(2), factors, _RecordingCombine(), cap=1 << 26)
        assert info.value.size == 1 << 28
        assert str(info.value) == "expansion of 268435456 elements exceeds the cap of 67108864"
