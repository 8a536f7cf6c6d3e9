"""Property tests for the spectral and bound invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolock import (
    DensityOperator,
    DiagonalHamiltonian,
    GaussianWeight,
    characteristic_factor,
    control_marginal,
    custom_bath,
    free_energy_bound,
)
from ergolock.ergotropy import ergotropy_product
from ergolock.oracle import ergotropy, passive_energy
from ergolock.spectra import (
    SpectralEnsemble,
    average_energy,
    compensated_sum,
    eigens,
    entropy,
    free_energy,
    gibbs_ensemble,
    shannon_entropy,
)

from helpers import expand, tensor

finite_energy = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def ensembles(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    raw = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)
    )
    probs = np.asarray(raw) / np.sum(raw)
    energies = draw(st.lists(finite_energy, min_size=n, max_size=n))
    return SpectralEnsemble(probs, energies)


@st.composite
def hamiltonians(draw, max_dim=5):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    energies = draw(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)
    )
    return DiagonalHamiltonian(energies)


@st.composite
def density_operators(draw, dim=2):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat).real)


@settings(max_examples=200, deadline=None)
@given(ensembles(), st.randoms(use_true_random=False))
def test_entropy_is_permutation_invariant(ensemble, rnd):
    order = list(range(ensemble.size))
    rnd.shuffle(order)
    shuffled = SpectralEnsemble(ensemble.probs[order], ensemble.energies[order])
    assert entropy(shuffled) == pytest.approx(entropy(ensemble), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(hamiltonians(), st.floats(min_value=0.05, max_value=20.0))
def test_gibbs_free_energy_is_minus_t_log_z(hamiltonian, beta):
    z = compensated_sum(np.exp(-beta * hamiltonian.energies))
    value = free_energy(gibbs_ensemble(hamiltonian, beta), 1.0 / beta)
    assert value == pytest.approx(-math.log(z) / beta, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(ensembles(max_size=5), ensembles(max_size=5))
def test_expand_is_additive_in_entropy_and_energy(a, b):
    joint = expand(tensor(a, b))
    assert entropy(joint) == pytest.approx(entropy(a) + entropy(b), abs=1e-10)
    assert average_energy(joint) == pytest.approx(
        average_energy(a) + average_energy(b), abs=1e-10
    )


@settings(max_examples=200, deadline=None)
@given(ensembles())
def test_ergotropy_nonnegative_and_passive_fixed_point(ensemble):
    assert ergotropy(ensemble) >= -1e-10
    # Re-pair passively: the resulting ensemble has zero ergotropy.
    passive = SpectralEnsemble(
        np.sort(ensemble.probs)[::-1], np.sort(ensemble.energies)
    )
    assert ergotropy(passive) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(ensembles(), st.randoms(use_true_random=False))
def test_passive_energy_depends_only_on_multisets(ensemble, rnd):
    # Relabeling which outcome carries which probability cannot change P.
    order = list(range(ensemble.size))
    rnd.shuffle(order)
    relabeled = SpectralEnsemble(ensemble.probs[order], ensemble.energies)
    assert passive_energy(relabeled) == pytest.approx(passive_energy(ensemble), abs=1e-12)


@settings(max_examples=75, deadline=None)
@given(
    density_operators(),
    st.floats(min_value=0.2, max_value=4.0),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=3),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_free_energy_bound_caps_product_ergotropy(rho, gap, bath_gaps, temperature):
    hamiltonian = DiagonalHamiltonian([0.0, gap])
    bath = custom_bath(temperature, bath_gaps)
    resource = ergotropy_product(rho, hamiltonian, bath)
    assert resource <= free_energy_bound(rho, hamiltonian, temperature) + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    density_operators(),
    st.floats(min_value=0.2, max_value=4.0),
    st.floats(min_value=0.05, max_value=10.0),
)
def test_control_marginal_preserves_energy_and_raises_entropy(rho, gap, sigma):
    hamiltonian = DiagonalHamiltonian([0.0, gap])
    out = control_marginal(rho, hamiltonian, GaussianWeight(sigma))
    before = float(np.real(np.trace(rho.entries @ np.diag(hamiltonian.energies))))
    after = float(np.real(np.trace(out.entries @ np.diag(hamiltonian.energies))))
    assert after == pytest.approx(before, abs=1e-12)
    assert shannon_entropy(eigens(out)) >= shannon_entropy(eigens(rho)) - 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_gaussian_factor_bounded_and_monotone(sigma_low, sigma_high, delta):
    low, high = sorted((sigma_low, sigma_high))
    f_low = characteristic_factor(GaussianWeight(low), delta).real
    f_high = characteristic_factor(GaussianWeight(high), delta).real
    assert 0.0 <= f_low <= 1.0
    assert 0.0 <= f_high <= 1.0
    if delta != 0.0 and high > low:
        assert f_high >= f_low


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_eigens_of_diagonal_state_is_sorted_diagonal(raw):
    total = sum(raw)
    if total == 0.0:
        raw = [1.0] + raw[1:]
        total = sum(raw)
    diag = [x / total for x in raw]
    rho = DensityOperator(np.diag(diag).astype(complex))
    assert eigens(rho) == pytest.approx(sorted(diag, reverse=True), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_compensated_sum_matches_fsum(values):
    assert compensated_sum(np.asarray(values)) == pytest.approx(
        math.fsum(values), abs=1e-9, rel=1e-13
    )
