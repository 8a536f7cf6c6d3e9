import contextlib
import importlib
import itertools
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolock import (
    DensityOperator,
    DiagonalHamiltonian,
    GaussianWeight,
    RandomSpec,
    SizeCapError,
    bound_report,
    custom_bath,
    random_state,
    skrzypczyk_bath,
    spectra,
)
from ergolock.bath import BathSpec
from ergolock.oracle import MIXED_TRACE_NORMALIZED, PURE_HAAR
from ergolock.spectra import (
    SpectralEnsemble,
    average_energy,
    compensated_dot,
    compensated_sum,
    eigens,
    entropy,
    free_energy,
    gibbs_ensemble,
    passive_energies,
)
from ergolock.verify import run_verification

from helpers import FactorizedEnsemble, bath_ensemble, expand, tensor


# ``ergolock.ergotropy`` is the re-exported function, not the submodule.
ERGOTROPY_MODULE = importlib.import_module("ergolock.ergotropy")

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

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (2, 2, 2), (2,)])
    def test_density_operator_rejects_an_empty_or_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match="density operator must be a non-empty square matrix"):
            DensityOperator(np.zeros(shape))

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

    def test_cap_raises_size_cap_error(self, monkeypatch):
        bath = bath_ensemble(skrzypczyk_bath(8, 1.0, 1.0))
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 100)
        with pytest.raises(SizeCapError):
            expand(bath)

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


def fold_chain(seed, factors) -> np.ndarray:
    # Each factor folded in turn into the sorted seed.
    s = np.sort(np.asarray(seed, dtype=np.float64))
    for f in factors:
        f = np.asarray(f, dtype=np.float64)
        s = spectra._fold(s, f, np.empty(s.size * f.size))
    return s


# Gap lists with ties, the 800 gap whose population underflows, and none.
GAP_LISTS = {
    "none": [],
    "one": [0.7],
    "ties": [1.0] * 10,
    "mixed": [0.5, 1.0, 1.0, 2.5, 800.0, 0.5, 2.5],
    "frozen": [800.0] * 3 + [1.0],
    "ladder": list(skrzypczyk_bath(11, 1.0, 1.0).gaps),
}


class TestBathEnergies:
    """The bath's sorted energy array, folded three gaps at a time."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(GAP_LISTS))
    @pytest.mark.parametrize("chunk", [4, spectra._CHUNK])
    def test_equals_the_sorted_expansion(self, parts, name, chunk):
        gaps = np.array(GAP_LISTS[name], dtype=np.float64)
        with streamed_sizes(parts, chunk):
            got = spectra._bath_energies(gaps)
        assert np.array_equal(bits(got), bits(bath_energies(BathSpec(T=1.0, gaps=gaps))))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("n", [*range(14), 15, 16, 17])
    def test_every_group_size_equals_the_sorted_expansion(self, parts, n):
        # N = 0..17 gives a first group of one, two and three gaps. At one
        # part and the real chunk every fold up to 2^15 elements takes the
        # direct path and larger ones are planned; more parts, or chunks of
        # 4 (N <= 13), plan every fold.
        rng = np.random.default_rng(n)
        cases = [rng.uniform(0.2, 2.5, n), np.resize([1.0, 0.5, 1.0, 2.5], n)]
        if n:
            cases.append(skrzypczyk_bath(n, 1.0, 1.0).gaps)
        for gaps in cases:
            want = bits(bath_energies(BathSpec(T=1.0, gaps=gaps)))
            for chunk in [4, spectra._CHUNK] if n <= 13 else [spectra._CHUNK]:
                with streamed_sizes(parts, chunk):
                    got = spectra._bath_energies(gaps)
                assert np.array_equal(bits(got), want), (gaps, chunk)

    @pytest.mark.parametrize("parts", [1, 2])
    def test_build_peaks_at_an_eighth_over_its_array(self, parts):
        # The last fold writes the 2^20 sums from the 2^17 of the fold
        # before it: 9 MiB of arrays, where folding one gap at a time read a
        # 2^19 scratch array (12 MiB). The slack covers the plan's sample,
        # edges and rank lists.
        gaps = skrzypczyk_bath(20, 1.0, 1.0).gaps
        with forced_parts(parts, spectra._PARALLEL_MIN):
            tracemalloc.start()
            try:
                energies = spectra._bath_energies(gaps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert energies.nbytes == 8 << 20
        assert peak <= energies.nbytes * 9 // 8 + (512 << 10), peak

    def test_cap_raises_before_folding(self, monkeypatch):
        folds, fold = [], spectra._fold
        monkeypatch.setattr(spectra, "_fold", lambda s, f, out: folds.append(f) or fold(s, f, out))
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 100)
        state, gaps = [np.array([1.0, 0.0])], np.ones(8)
        with pytest.raises(SizeCapError) as info:
            passive_energies(state, np.zeros(2), gaps, 1.0)
        assert folds == []
        assert info.value.cap == 100
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 512)
        assert len(passive_energies(state, np.zeros(2), gaps, 1.0)) == 1
        # Eight gaps fold as a group of two and two groups of three.
        assert [f.shape for f in folds] == [(4, 2), (8, 3), (8, 3)]

    def test_cap_message_for_a_huge_bath(self, monkeypatch):
        # 2^20001 has 6022 decimal digits, more than Python will format.
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 1 << 26)
        with pytest.raises(SizeCapError) as info:
            passive_energies([np.array([1.0, 0.0])], np.zeros(2), np.ones(20000), 1.0)
        assert info.value.size == 1 << 20001
        assert str(info.value) == (
            f"expansion of about 7.96e6020 elements exceeds the cap of {1 << 26}"
        )

    def test_cap_refusal_builds_no_size(self):
        # 2 << 10^8 is a 12.5 MB integer; the refusal needs only bit lengths,
        # and the error builds the size only when it is read.
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError) as info:
                spectra._check_cap(2, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert str(info.value) == (
            f"expansion of about 7.37e30102999 elements exceeds the cap of {1 << 26}"
        )

    def test_cap_message_states_the_full_size(self, monkeypatch):
        # A qubit with 27 bath qubits passes the cap at the last factor but
        # one; the message still names all 2^28 elements.
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 1 << 26)
        with pytest.raises(SizeCapError) as info:
            passive_energies([np.array([1.0, 0.0])], np.zeros(2), np.ones(27), 1.0)
        assert info.value.size == 1 << 28
        assert str(info.value) == "expansion of 268435456 elements exceeds the cap of 67108864"


@contextlib.contextmanager
def forced_parts(parts: int, crossover: int = 1):
    """Cut every fold and dot of at least ``crossover`` elements into ``parts``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_PARALLEL_MIN", crossover)
        patch.setattr(spectra, "_PARTS", parts)
        yield


def bits(values: np.ndarray) -> np.ndarray:
    # Compared as integers, a -0.0 and a 0.0 differ.
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestParts:
    """A fold or a dot cut into parts gives the one-part result bit for bit."""

    @pytest.mark.parametrize("parts", [2, 3, 5])
    @settings(max_examples=100, deadline=None)
    @given(inputs=joint_inputs())
    def test_partitioned_fold_equals_one_part(self, parts, inputs):
        probs, energies, factors = inputs
        lex = expand(FactorizedEnsemble((SpectralEnsemble(probs, energies), *factors)))
        values = [f.energies for f in factors]
        one = fold_chain(energies, values)
        with forced_parts(parts):
            cut = fold_chain(energies, values)
        assert np.array_equal(bits(cut), bits(one))
        assert np.array_equal(cut, np.sort(lex.energies))

    @pytest.mark.parametrize("parts", [2, 3, 5])
    @pytest.mark.parametrize(
        "seed, factors",
        [
            # Every value equal: each pivot is both the minimum and the maximum.
            ([0.25, 0.25], [[0.5, 0.5], [1.0], [0.5, 0.5]]),
            # Mostly zeros: the pivots sit on the minimum.
            ([0.0, 0.0, 0.0, 1.0], [[0.0, 1.0], [0.0, 0.0, 1.0]]),
            # Mostly ones: the pivots sit on the maximum.
            ([1.0, 1.0, 1.0, 0.5], [[1.0, 1.0, 1.0], [1.0, 0.25]]),
            # Signed zeros and subnormal values.
            ([-0.0, 0.0, 5e-324, 1e-200], [[0.0, -0.0, 1e-200], [1.0, 1e-300]]),
            # Negative factor values.
            ([-2.0, -1.0, 0.0, 3.0], [[-1e-13, 0.5, 2.0], [1.0, -3.0]]),
            # A many-valued factor: one fold cuts 41 runs at once.
            ([0.5, 0.5, -1.0, 2.0], [[*np.linspace(-3.0, 3.0, 40), 0.0], [1.0, 0.0]]),
        ],
    )
    def test_partitioned_fold_on_ties_and_extremes(self, parts, seed, factors):
        one = fold_chain(seed, factors)
        with forced_parts(parts):
            cut = fold_chain(seed, factors)
        assert np.array_equal(bits(cut), bits(one))
        assert np.all(cut[:-1] <= cut[1:])

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * spectra._SUM_BLOCK + 7])
    def test_blockwise_dot_equals_compensated_sum(self, parts, offset):
        rng = np.random.default_rng(offset + 10)
        size = spectra._SUM_BLOCK + offset
        p_asc, e_asc = np.sort(rng.random(size)), np.sort(rng.normal(size=size))
        want = compensated_sum(np.multiply(p_asc[::-1], e_asc))
        with forced_parts(parts):
            assert compensated_dot(p_asc[::-1], e_asc) == want
            assert compensated_dot(e_asc[::-1], p_asc[::-1]) == compensated_sum(
                np.multiply(e_asc[::-1], p_asc[::-1])
            )

    @pytest.mark.filterwarnings("error")
    def test_pool_parts_keep_the_callers_error_state(self):
        # numpy's error state is per thread. The sums 1e308 + 1e308 overflow
        # to inf in the fold's upper chunks, which the pool's part sorts.
        s, f = np.full(1 << 17, 1e308), np.array([0.0, 1e308])
        with forced_parts(2), np.errstate(over="ignore"):
            got = spectra._fold(s, f, np.empty(1 << 18))
        assert np.array_equal(got, np.repeat([1e308, math.inf], 1 << 17))

    @pytest.mark.parametrize("parts", [2, 3])
    def test_n20_report_equals_one_part(self, plus_state, qubit_h, parts):
        # 2^21 joint elements: past the default crossover, so the real
        # folds and dots are cut into parts.
        bath = skrzypczyk_bath(20, 1.0, 1.0)
        with forced_parts(1, crossover=spectra._PARALLEL_MIN):
            one = bound_report(plus_state, qubit_h, GaussianWeight(0.7), bath)
        with forced_parts(parts, crossover=spectra._PARALLEL_MIN):
            cut = bound_report(plus_state, qubit_h, GaussianWeight(0.7), bath)
        assert cut == one

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_a_failing_part_waits_for_the_others(self, caller_fails):
        # Part 1 fails at once while part 2 is still running: the exception
        # reaches the caller only after part 2 has finished, and the
        # caller's own exception is the one raised.
        finished = threading.Event()

        def task(first, stop):
            if first == 0 and caller_fails:
                raise RuntimeError("part 0")
            if first == 1:
                raise ValueError("part 1")
            if first == 2:
                time.sleep(0.2)
                finished.set()

        raised = RuntimeError if caller_fails else ValueError
        with forced_parts(3), pytest.raises(raised):
            spectra._run_parts(task, [1, 1, 1], 3)
        assert finished.is_set()

    def test_concurrent_callers_share_one_pool(self):
        # More callers than cores cut their folds into parts while the shared
        # pool is first created, as the threads of a ``cli --threads`` sweep do.
        bath = skrzypczyk_bath(13, 1.0, 1.0)
        want = bath_energies(bath)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with forced_parts(3), pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectra, "_executor", None)
                with ThreadPoolExecutor(max_workers=6) as callers:
                    futures = [
                        callers.submit(spectra._bath_energies, bath.gaps) for _ in range(12)
                    ]
                    results = [future.result(timeout=60) for future in futures]
                spectra._executor.shutdown()
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(bits(r), bits(want)) for r in results)


# Bath gaps with repeats, whose sums tie, and one large enough that its
# Gibbs population exp(-800 / T) underflows to exactly 0.0 for T <= 1.
GAPS = st.sampled_from([0.5, 1.0, 1.0, 2.5, 800.0])


@st.composite
def gibbs_baths(draw, max_qubits: int):
    gaps = draw(st.lists(GAPS, max_size=max_qubits))
    return BathSpec(T=draw(st.sampled_from([0.3, 1.0, 4.0])), gaps=np.array(gaps))


# The references below sort whole expanded arrays with np.sort and share no
# code with the kernel. They add in the kernel's order, so they equal its
# arrays bit for bit.


def bath_energies(bath: BathSpec) -> np.ndarray:
    # The sorted bath energies, each added as (e_1 + e_2) + ... + e_N.
    return np.sort(expand(bath_ensemble(bath)).energies)


def joint_energies(levels, bath: BathSpec) -> np.ndarray:
    # The sorted joint energies, added as h + (e_1 + ... + e_N).
    levels = np.asarray(levels, dtype=np.float64)
    return np.sort(np.add.outer(levels, bath_energies(bath)), axis=None)


def key_offsets(values, bath: BathSpec) -> np.ndarray:
    # T (ln Z - ln lambda) of each nonzero eigenvalue; ln Z is the sum of
    # log1p(exp(-g / T)) over the gaps.
    values = np.asarray(values, dtype=np.float64)
    log_z = compensated_sum(np.log1p(np.exp(-bath.gaps / bath.T)))
    return bath.T * (log_z - np.log(values[values != 0]))


def joint_keys(values, bath: BathSpec) -> np.ndarray:
    # The sorted keys E_x + T (ln Z - ln lambda) of the nonzero eigenvalues.
    return np.sort(np.add.outer(key_offsets(values, bath), bath_energies(bath)), axis=None)


def keyed_passive(values, levels, bath: BathSpec) -> float:
    # The reference: the whole sorted key array mapped to probabilities
    # exp(-key / T), formed as exp(key * (-1 / T)), then zeros for the zero
    # eigenvalues, dotted with the whole sorted joint energy array.
    energies, keys = joint_energies(levels, bath), joint_keys(values, bath)
    probs = np.zeros(energies.size)
    probs[: keys.size] = np.exp(np.multiply(keys, -1.0 / bath.T))
    return compensated_dot(probs, energies)


def product_chain(values, bath: BathSpec) -> np.ndarray:
    # The joint probabilities ((lambda * b_1) * ...) * b_N, ascending.
    probs = np.asarray(values, dtype=np.float64)
    for factor in bath_ensemble(bath).factors:
        probs = np.multiply.outer(probs, factor.probs).ravel()
    probs.sort()
    return probs


@st.composite
def walk_inputs(draw):
    # A state's eigenvalues (a zero among them, as a pure state has), its
    # levels and a bath.
    d = draw(st.integers(min_value=1, max_value=4))
    raw = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.25, 1.0]), min_size=d, max_size=d))
    probs = np.asarray(raw) + (1.0 if not any(raw) else 0.0)
    values = eigens(DensityOperator(np.diag(probs / probs.sum())))
    levels = np.asarray(draw(st.lists(LEVELS, min_size=d, max_size=d)))
    return values, levels, draw(gibbs_baths(8))


class TestSortedJoints:
    """Several states keyed into one sorted bath energy array."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(inputs=walk_inputs())
    def test_folds_equal_the_sorted_outer_product(self, parts, inputs):
        # The joint energies, a fold into the bath's sorted array, and the
        # keys, another, are both read into the passive-energy dot in
        # windows. Folded whole, each equals the sorted outer product of its
        # offsets and the bath energies.
        values, levels, bath = inputs
        with forced_parts(parts):
            bath_e = spectra._bath_energies(bath.gaps)
            joint_e = fold_chain(bath_e, [levels])
            keys = fold_chain(bath_e, [key_offsets(values, bath)])
            (passive,) = passive_energies([values], levels, bath.gaps, bath.T)
        assert np.array_equal(bits(bath_e), bits(bath_energies(bath)))
        assert np.array_equal(bits(joint_e), bits(joint_energies(levels, bath)))
        assert np.array_equal(bits(keys), bits(joint_keys(values, bath)))
        assert passive == keyed_passive(values, levels, bath)

    def test_cap_covers_the_largest_seed_before_the_bath_is_built(self, monkeypatch):
        gaps = np.ones(9)
        seeds = [np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25])]
        with monkeypatch.context() as patch:
            patch.setattr(spectra, "_bath_energies", lambda *args: pytest.fail("bath built"))
            patch.setattr(spectra, "_fold", lambda *args: pytest.fail("fold made"))
            patch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 1535)
            with pytest.raises(SizeCapError) as info:
                passive_energies(seeds, np.zeros(2), gaps, 1.0)
        assert (info.value.size, info.value.cap) == (1536, 1535)
        monkeypatch.setattr(spectra, "DEFAULT_EXPANSION_CAP", 1536)
        assert len(passive_energies(seeds, np.zeros(3), gaps, 1.0)) == 2

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 16])
    @pytest.mark.parametrize("n", [1, 7, 14, 20])
    def test_passive_energies_match_the_seed_first_chain(self, dim, n):
        # The walk's probabilities exp(-key / T) against the product chain
        # ((lambda * b_1) * ...) * b_N: two formulas, equal to rounding.
        rng = np.random.default_rng(100 * dim + n)
        hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0.0, 3.0, dim)))
        bath = custom_bath(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.5, n))
        states = [
            random_state(RandomSpec(seed=100 * dim + n, dim=dim, kind=kind))
            for kind in (PURE_HAAR, MIXED_TRACE_NORMALIZED)
        ]
        got = ERGOTROPY_MODULE._passive_energies(states, hamiltonian, bath)
        energies = joint_energies(hamiltonian.energies, bath)
        want = [
            compensated_dot(product_chain(eigens(state), bath)[::-1], energies)
            for state in states
        ]
        assert all(abs(g - w) <= 1e-14 * abs(w) for g, w in zip(got, want)), (got, want)

    @pytest.mark.parametrize("n", [1, 7, 14, 20])
    @pytest.mark.parametrize("kind", ["ladder", "hot"])
    def test_gibbs_probabilities_match_the_product_chain(self, n, kind):
        # Each bath configuration's probability exp(x), x = -E / T - ln Z
        # with ln Z = sum of log1p(exp(-g / T)), against the product of its
        # qubits' populations: the ladder at T = 1, and random gaps at
        # T = 1e12, where every population is close to 1/2. A rounding of x
        # moves exp(x) by |x| ulps relative, and the chain rounds n times:
        # the ladder's worst case at n = 20 is 1.4e-14 relative (|x| = 44).
        if kind == "ladder":
            bath = skrzypczyk_bath(n, 1.0, 1.0)
        else:
            bath = custom_bath(1e12, np.random.default_rng(n).uniform(0.2, 2.5, n))
        lex = expand(bath_ensemble(bath))
        log_z = compensated_sum(np.log1p(np.exp(-bath.gaps / bath.T)))
        x = -lex.energies / bath.T - log_z
        ulps = np.abs(np.exp(x) - lex.probs) / (lex.probs * np.finfo(float).eps)
        assert np.all(ulps <= 2 * (np.abs(x) + n))


@contextlib.contextmanager
def streamed_sizes(parts: int, chunk: int, block: int = spectra._SUM_BLOCK):
    """Cut every fold into ``parts`` parts and chunks of about ``chunk``
    elements, and every sum into blocks of ``block``."""
    with forced_parts(parts), pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_CHUNK", chunk)
        patch.setattr(spectra, "_SUM_BLOCK", block)
        yield


def walk(states, levels, bath: BathSpec) -> list[float]:
    return passive_energies(states, levels, bath.gaps, bath.T)


# Eigenvalues as eigens gives them: exact zeros of either sign, ties, and
# full mantissas, whose keys round differently under another summation
# order.
EIGENVALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 0.25, 0.25]),
    st.floats(min_value=0.01, max_value=1.0),
)
EIGENVALUES = st.lists(EIGENVALUE, min_size=1, max_size=5)


@st.composite
def state_spectra(draw, d):
    # A pure state, or d eigenvalues with exact zeros and ties.
    if draw(st.booleans()):
        values = np.zeros(d)
        values[draw(st.integers(min_value=0, max_value=d - 1))] = 1.0
        return values
    raw = np.asarray(draw(st.lists(EIGENVALUE, min_size=d, max_size=d)))
    values = raw + (0.0 if any(raw) else 1.0)
    return np.clip(values / values.sum(), 0.0, 1.0)


class TestStreamedPassive:
    """The walk's passive energy equals the dot over the whole sorted key
    and joint energy arrays, bit for bit, however the ranks are cut into
    windows and parts."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(
        raw=EIGENVALUES,
        bath=gibbs_baths(8),
        chunk=st.integers(min_value=1, max_value=40),
        block=st.sampled_from([1, 3, 8, 16, 1 << 15]),
        data=st.data(),
    )
    def test_equals_the_sorted_dot(self, parts, raw, bath, chunk, block, data):
        # A window is a whole number of blocks, one block when the chunk is
        # shorter than one; a part is a run of windows.
        values = np.asarray(raw) + (0.0 if any(raw) else 1.0)
        values = np.clip(values / values.sum(), 0.0, 1.0)
        levels = data.draw(st.lists(LEVELS, min_size=values.size, max_size=values.size))
        with streamed_sizes(1, spectra._CHUNK, block):
            want = keyed_passive(values, levels, bath)
            whole = joint_keys(values, bath)
        with streamed_sizes(parts, chunk, block):
            assert walk([values], levels, bath) == [want]
            # The in-memory fold, cut into chunks of the same size, is unchanged.
            folded = fold_chain(bath_energies(bath), [key_offsets(values, bath)])
            assert np.array_equal(bits(folded), bits(whole))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind", ["d1", PURE_HAAR, MIXED_TRACE_NORMALIZED, "clipped_zero"]
    )
    def test_degenerate_bath_at_the_real_block_size(self, parts, kind):
        # custom_bath(1.0, [1.0] * 12): 13 distinct bath energies with
        # binomial multiplicities, so the pivots fall on large tie groups.
        # Sixteen levels make 2^16 joint elements, two windows of one block
        # of the real size.
        bath = custom_bath(1.0, [1.0] * 12)
        if kind == "d1":
            values = np.ones(1)
        elif kind == "clipped_zero":
            # A clipped -1e-17, an exact -0.0 and an exact 0.0.
            values = eigens(DensityOperator(np.diag([0.5, -1e-17, 0.5, -0.0, 0.0])))
            assert np.count_nonzero(values) == 2 and np.signbit(values).any()
        else:
            values = eigens(random_state(RandomSpec(seed=5, dim=16, kind=kind)))
        levels = np.linspace(-1.0, 2.0, values.size)
        want = keyed_passive(values, levels, bath)
        with streamed_sizes(parts, 1000):
            got = walk([values], levels, bath)
        assert got == [want]
        if values.size == 16:
            # The boundary of the two windows cuts a tie group of the keys.
            keys = joint_keys(values, bath)
            assert joint_energies(levels, bath).size == 2 * spectra._SUM_BLOCK
            assert keys[spectra._SUM_BLOCK - 1] == keys[spectra._SUM_BLOCK]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("kind", [PURE_HAAR, MIXED_TRACE_NORMALIZED])
    def test_window_boundaries_inside_tie_groups(self, parts, kind):
        # Windows of 2048 ranks on the degenerate bath: most window
        # boundaries cut a tie group of the joint energies, and most cut one
        # of the keys, so a window's sorted values reach past its ranks on
        # both sides.
        bath = custom_bath(1.0, [1.0] * 12)
        values = eigens(random_state(RandomSpec(seed=5, dim=16, kind=kind)))
        levels = np.linspace(-1.0, 2.0, values.size)
        energies, keys = joint_energies(levels, bath), joint_keys(values, bath)
        width = 2048
        assert sum(energies[r - 1] == energies[r] for r in range(width, energies.size, width)) > 10
        assert sum(keys[r - 1] == keys[r] for r in range(width, keys.size, width)) > 10
        with streamed_sizes(parts, width, 512):
            want = keyed_passive(values, levels, bath)
            assert walk([values], levels, bath) == [want]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_zero_eigenvalues_span_several_windows(self, parts):
        # Two of five eigenvalues are nonzero: 128 of the 320 joint ranks
        # hold products, and the +0.0 ranks past them fill twelve windows
        # of 16 ranks.
        values = np.array([0.75, 0.25, 0.0, -0.0, 0.0])
        levels = np.array([0.0, 0.5, 1.0, 1.0, 2.5])
        bath = custom_bath(1.3, [0.4, 0.9, 0.9, 1.7, 2.2, 3.1])
        with streamed_sizes(parts, 16, 8):
            want = keyed_passive(values, levels, bath)
            assert walk([values], levels, bath) == [want]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_negative_levels_give_signed_zero_products(self, parts):
        # A bath level whose Gibbs population underflows to 0.0 gives zero
        # joint probabilities; under negative joint energies their products
        # are -0.0, and whole blocks of them sum to -0.0.
        bath = custom_bath(1.0, [800.0] * 4 + [1.0])
        values = np.array([0.6, 0.3, 0.1])
        levels = np.array([-9000.0, -8000.0, -7000.0])
        energies, keys = joint_energies(levels, bath), joint_keys(values, bath)
        products = np.exp(-keys) * energies
        assert np.signbit(products[products == 0.0]).all() and (products == 0.0).sum() >= 8
        with streamed_sizes(parts, 4, 2):
            want = keyed_passive(values, levels, bath)
            (got,) = walk([values], levels, bath)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_one_level(self, parts):
        # d = 1: the joint arrays are the bath's own.
        bath = custom_bath(0.7, [0.3, 1.1, 1.1, 2.0, 0.5])
        with streamed_sizes(parts, 3, 1):
            want = keyed_passive(np.ones(1), [0.25], bath)
            assert walk([np.ones(1)], [0.25], bath) == [want]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_several_states_share_one_walk(self, parts):
        # Each state's value in one call equals its value alone, and the
        # reference dot over its whole sorted keys.
        bath = custom_bath(1.0, [0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0])
        levels = np.array([-0.5, 0.0, 0.7, 1.9])
        states = [
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.4, 0.3, 0.2, 0.1]),
            np.array([0.5, 0.5, 0.0, 0.0]),
            eigens(random_state(RandomSpec(seed=3, dim=4, kind=MIXED_TRACE_NORMALIZED))),
        ]
        with streamed_sizes(parts, 24, 8):
            want = [keyed_passive(values, levels, bath) for values in states]
            assert walk(states, levels, bath) == want
            assert [walk([v], levels, bath)[0] for v in states] == want

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=4),
        bath=gibbs_baths(6),
        windows=st.integers(min_value=1, max_value=4),
        block=st.sampled_from([1, 2, 3, 8]),
        parts=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_cells_split_across_parts(self, d, bath, windows, block, parts, data):
        # Up to 4 windows of whole blocks and up to 30 states: with more
        # parts than windows, one window's states are split between parts.
        levels = data.draw(st.lists(LEVELS, min_size=d, max_size=d))
        states = data.draw(st.lists(state_spectra(d), min_size=0, max_size=30))
        size = d << bath.n_qubits
        chunk = block * -(-size // (windows * block))
        assert -(-size // chunk) <= windows
        with streamed_sizes(1, chunk, block):
            want = [keyed_passive(values, levels, bath) for values in states]
            one = walk(states, levels, bath)
        with streamed_sizes(parts, chunk, block):
            cut = walk(states, levels, bath)
        assert np.array_equal(bits(cut), bits(one))
        assert np.array_equal(bits(one), bits(want))

    @pytest.mark.parametrize("bounds", [[0, 2, 4], [0, 1, 2, 4]])
    def test_part_starting_on_a_cell_without_products(self, bounds):
        # Two windows of 8 ranks, cells (0, A), (0, B), (1, A), (1, B) of
        # estimated costs 32, 32, 0 and 56. The cost split fills a part past
        # a cell of no cost, so these bounds are forced: the last part starts
        # on (1, A), whose 8 products all lie in window 0, and must still
        # sort window 1's energies for (1, B).
        bath = custom_bath(1.0, [0.5, 1.0, 2.0])
        levels = np.array([0.0, 1.0])
        states = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
        assert (joint_keys(states[0], bath).size, joint_energies(levels, bath).size) == (8, 16)
        split, forced = spectra._split, []

        def forcing(costs, parts):
            if costs != [32, 32, 0, 56]:
                return split(costs, parts)
            forced.append(costs)
            return bounds

        with streamed_sizes(len(bounds) - 1, 8, 8), pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectra, "_split", forcing)
            want = [keyed_passive(values, levels, bath) for values in states]
            got = walk(states, levels, bath)
        assert forced
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
    def test_pure_and_mixed_states_at_the_real_block_size(self, parts):
        # Three levels on 15 bath qubits: 3 * 2^15 ranks in windows of 2^16.
        # The pure state's 2^15 products end halfway through window 0 and
        # the rank-2 state's 2^16 at its end, so the cells' costs differ
        # and the cost split cuts them unlike a split by count.
        bath = skrzypczyk_bath(15, 1.0, 1.0)
        levels = np.array([0.0, 0.6, 1.3])
        states = [
            np.array([1.0, 0.0, 0.0]),
            np.array([0.5, 0.3, 0.2]),
            np.array([0.7, 0.3, 0.0]),
            eigens(random_state(RandomSpec(seed=9, dim=3, kind=MIXED_TRACE_NORMALIZED))),
        ]
        with streamed_sizes(1, 1 << 16):
            one = walk(states, levels, bath)
        with streamed_sizes(parts, 1 << 16):
            got = walk(states, levels, bath)
        assert np.array_equal(bits(got), bits(one))
        assert one[:2] == [keyed_passive(values, levels, bath) for values in states[:2]]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("signs", ["repeated", "negative"])
    def test_many_level_walk_equals_the_sorted_dot(self, parts, d, signs, monkeypatch):
        # d levels on 8 bath qubits, planned in windows of 256 ranks: the
        # keys of a mixed state (and the energies of non-negative levels)
        # are int64 streams of d runs, whose pieces take the default sort.
        # Repeated levels and eigenvalues make ties across runs; negative
        # levels sort the energies as floats.
        rng = np.random.default_rng(10 * d + parts)
        if signs == "repeated":
            levels = np.repeat(np.linspace(0.0, 2.0, d), 2)[:d]
        else:
            levels = np.linspace(-1.5, 1.0, d)
        raw = np.repeat(rng.uniform(0.1, 1.0, d), 2)[:d]
        states = [raw / raw.sum(), np.eye(d)[d // 2], np.r_[0.5, 0.5, np.zeros(d - 2)]]
        bath = custom_bath(0.9, [0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 0.25, 3.0])
        made, stream = [], spectra._stream
        monkeypatch.setattr(spectra, "_stream", lambda *a: made.append(stream(*a)) or made[-1])
        with streamed_sizes(parts, 256, 64):
            want = [keyed_passive(values, levels, bath) for values in states]
            made.clear()
            got = walk(states, levels, bath)
        assert np.array_equal(bits(got), bits(want)), (got, want)
        assert any(s.key is np.int64 and len(s.values) == d and len(s.ranks) > 2 for s in made)

    @pytest.mark.parametrize("exponent", [1023, -1060])
    def test_extreme_temperatures_scale_exactly(self, exponent):
        # Scaling T, the gaps and the levels by 2^k scales the passive
        # energies by 2^k. At T = 2^1023 a key T (ln Z - ln lambda)
        # overflows, and at the subnormal T = 2^-1060 it keeps few bits,
        # unless the walk rescales them.
        gaps, levels = np.array([0.0625, 0.125, 0.25]), np.array([0.0, 0.125])
        states = [np.array([1.0, 0.0]), np.array([0.7, 0.3]), np.array([1e-300, 1.0])]
        want = [math.ldexp(v, exponent) for v in passive_energies(states, levels, gaps, 1.0)]
        scaled = [np.ldexp(a, exponent) for a in (levels, gaps)]
        assert passive_energies(states, *scaled, math.ldexp(1.0, exponent)) == want
        assert all(0 < v < math.inf for v in want)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_no_states(self, parts):
        with streamed_sizes(parts, 2, 1):
            assert walk([], [0.0, 1.0], custom_bath(1.0, [0.5, 1.0])) == []

    @pytest.mark.parametrize(
        "cpus, qubits, count, want", [(2, 16, 26, 2), (1, 16, 26, 1), (2, 16, 1, 1), (2, 14, 26, 0)]
    )
    def test_part_count_follows_the_cells(self, cpus, qubits, count, want):
        # Two levels and 16 bath qubits: 2^17 ranks, one window. Its 26
        # cells, a sigma sweep's, make 26 * 2^17 products, past the
        # crossover, so they are split over the CPUs; one state's 2^17
        # products are not. With 14 qubits the 2^15 ranks are one sum
        # block: 26 states are summed on the direct path, and the walk makes
        # no _run_parts call.
        bath = skrzypczyk_bath(qubits, 1.0, 1.0)
        levels = np.array([0.0, 1.0])
        assert levels.size << bath.n_qubits <= spectra._CHUNK
        states = [np.array([p, 1.0 - p]) for p in np.linspace(0.5, 1.0, count)]
        run_parts, counts = spectra._run_parts, []

        def recording(task, costs, size):
            parts = run_parts(task, costs, size)
            if task.__qualname__.startswith("passive_energies."):
                counts.append(len(parts))
            return parts

        with forced_parts(1, spectra._PARALLEL_MIN):
            one = walk(states, levels, bath)
        with forced_parts(cpus, spectra._PARALLEL_MIN), pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectra, "_run_parts", recording)
            got = walk(states, levels, bath)
        assert counts == ([want] if want else [])
        assert np.array_equal(bits(got), bits(one))

    def test_report_holds_no_joint_array(self, plus_state, qubit_h):
        # An N = 20 qubit report has 2^21 joint elements (16 MiB), and the
        # bath's one sorted energy array takes 8 MiB, with a 1 MiB scratch
        # buffer while it is built. A traced peak below 16 MiB leaves no
        # room for a joint-sized array.
        bath = skrzypczyk_bath(20, 1.0, 1.0)
        tracemalloc.start()
        try:
            with forced_parts(2, spectra._PARALLEL_MIN):
                bound_report(plus_state, qubit_h, GaussianWeight(0.7), bath)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak


# name: (T; gaps in units of T, cycled over the qubits; levels in units of
# T; each state's eigenvalues). Negative levels and a -0.0 level give
# signed-zero products, an equal-gap bath large tie groups, levels near
# 1e308 joint energies that tie and sum close to the largest double, and
# T = 1e-300 or 1e280 a walk rescaled by a power of two, its levels raised
# above the bath so no product is subnormal.
BLOCK_CASES = {
    "negative_levels": (1.0, [0.5, 1.0, 1.0, 2.0], [-1.5, -0.25, 0.0, 2.0],
                        [[1.0, 0.0, 0.0, 0.0], [0.4, 0.3, 0.2, 0.1]]),
    "signed_zero_level": (1.3, [0.4, 0.9, 0.9], [-0.0, 1.0], [[0.7, 0.3], [0.0, 1.0]]),
    "zero_eigenvalues": (0.8, [0.3, 1.1, 1.1, 2.0], [0.0, 0.5, 1.0, 1.0],
                         [[0.75, 0.0, 0.25, -0.0], [0.5, 0.5, 0.0, 0.0]]),
    "nan_eigenvalue": (1.0, [0.5, 1.0], [0.0, 1.0], [[math.nan, 0.5], [0.5, 0.5]]),
    "ties": (1.0, [1.0], [0.0, 1.0, 1.0, 2.0], [[0.25, 0.25, 0.25, 0.25], [0.5, 0.3, 0.2, 0.0]]),
    "huge_sums": (1.0, [0.5, 1.0, 1.0, 2.0], [1e308, 1.5e308], [[0.6, 0.4], [1.0, 0.0]]),
    "cold": (1e-300, [0.5, 1.0, 1.0, 2.0], [1e10, 1.5e10, 2.5e10, 4e10],
             [[0.5, 0.25, 0.25, 0.0], [0.4, 0.3, 0.2, 0.1]]),
    "hot": (1e280, [0.5, 1.0, 1.0, 2.0], [-3.0, 0.0, 1.0, 2.0],
            [[0.5, 0.25, 0.25, 0.0], [0.4, 0.3, 0.2, 0.1]]),
    "three_levels": (1.0, [0.5, 1.0, 1.0, 2.0], [0.0, 0.6, 1.3],
                     [[0.5, 0.3, 0.2], [1.0, 0.0, 0.0]]),
}


def block_case(name: str, qubits: int):
    temperature, unit_gaps, levels, states = BLOCK_CASES[name]
    gaps = temperature * np.resize(np.array(unit_gaps), qubits)
    levels = temperature * np.array(levels)
    return [np.array(v) for v in states], levels, custom_bath(temperature, gaps)


class TestDirectPath:
    """A walk of at most one sum block of joint ranks sorts each joint
    multiset whole and sums each state with one fsum, and a fold of at most
    one block and one chunk on one part is one write and one sort: the
    planned bits, without the planner."""

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("side", ["direct", "planned"])
    def test_equals_the_sorted_dot_on_both_sides_of_the_block(self, name, side):
        # The largest bath whose joint size is at most 2^15 (2^15 itself for
        # two and four levels), and one qubit more, which the planner walks.
        d = len(BLOCK_CASES[name][2])
        qubits = (spectra._SUM_BLOCK // d).bit_length() - 1 + (side == "planned")
        states, levels, bath = block_case(name, qubits)
        n = d << qubits
        assert (n <= spectra._SUM_BLOCK) == (side == "direct")
        got = walk(states, levels, bath)
        want = [keyed_passive(values, levels, bath) for values in states]
        assert np.array_equal(bits(got), bits(want)), (got, want)

    def test_a_fold_keeps_signed_zeros_in_run_order(self):
        # -0.0 + -0.0 is -0.0, and 0.0 + -0.0 is 0.0: equal sums of other
        # bits, which only a stable sort keeps in run order, as the planned
        # chunks do. numpy's default sort reorders them at this size.
        s = np.sort(np.array([-0.0, 0.0] * 1000 + [1.0] * 48), kind="stable")
        f = np.array([-0.0, 0.0, 1.0])
        want = np.sort(np.add.outer(f, s), axis=None, kind="stable")
        direct = spectra._fold(s, f, np.empty(want.size))
        with forced_parts(2):
            planned = spectra._fold(s, f, np.empty(want.size))
        assert np.array_equal(bits(direct), bits(want))
        assert np.array_equal(bits(planned), bits(want))

    def test_a_verify_sized_call_plans_nothing(self, monkeypatch):
        # Every passive energy that verify takes is below one sum block, so
        # no stream is planned and no part is run. A fold cut into two parts
        # still plans its chunks.
        calls = []
        stream, run_parts = spectra._stream, spectra._run_parts
        monkeypatch.setattr(spectra, "_stream", lambda *a: calls.append("stream") or stream(*a))
        monkeypatch.setattr(
            spectra, "_run_parts", lambda *a: calls.append("parts") or run_parts(*a)
        )
        summary = run_verification(trials=4, seed=7)
        assert summary["pass"] is True
        states, levels, bath = block_case("zero_eigenvalues", 4)
        assert walk(states, levels, bath) == [keyed_passive(v, levels, bath) for v in states]
        assert calls == []
        s, f = bath_energies(bath), np.array([0.0, 0.5])
        with forced_parts(2):
            got = spectra._fold(s, f, np.empty(2 * s.size))
        assert calls == ["stream", "parts"]
        assert np.array_equal(bits(got), bits(np.sort(np.add.outer(f, s), axis=None)))


# 1e308 + 1e308 overflows to inf, on the caller and on pool threads alike.
OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")

# Stream inputs: ties, signed zeros, negative values, subnormals, and sums
# that overflow to inf.
STREAM_VALUES = st.sampled_from(
    [-3.0, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-200, 0.5, 0.5, 1.0, 2.0, 1e308, math.inf]
)


class TestStreamWindows:
    """A stream, planned as a fold plans it, gives the values of the stably
    sorted fold at any rank range, bit for bit, and so does the fold."""

    @OVERFLOW
    @pytest.mark.parametrize("parts", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.lists(STREAM_VALUES, min_size=1, max_size=12),
        values=st.lists(STREAM_VALUES, min_size=1, max_size=6),
        chunk=st.integers(min_value=1, max_value=40),
        cuts=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=6),
    )
    @example(
        seed=[-1.0, 0.0, 0.5, 0.5, 2.0], values=[-3.0, 0.5, -1.0], chunk=2, cuts=[(0, 15), (3, 9)],
    )
    def test_window_equals_the_sorted_fold(self, parts, seed, values, chunk, cuts):
        s, f = np.sort(np.array(seed)), np.array(values)
        # A stable sort meets the ties of the runs c + s in run order, as a
        # fold's chunks and a stream's windows do.
        want = np.sort(np.add.outer(f, s), axis=None, kind="stable")
        size = want.size
        ranges = [sorted((a % (size + 1), b % (size + 1))) for a, b in cuts]
        # Ranges that start and end inside a tie group.
        ties = [r for r in range(1, size) if want[r - 1] == want[r]]
        for r in ties[:: max(1, len(ties) // 3)]:
            ranges += [(r, size), (0, r), (r, r + 1), (r - 1, min(size, r + 2))]
        with streamed_sizes(parts, chunk):
            stream = spectra._stream(s, f, min(spectra._CHUNK, -(-size // parts)))
            for lo, hi in ranges:
                if lo < hi:
                    got = spectra._window(stream, lo, hi, np.empty(size))
                    assert np.array_equal(bits(got), bits(want[lo:hi])), (lo, hi)
            assert np.array_equal(bits(spectra._fold(s, f, np.empty(size))), bits(want))


# Non-negative stream values with a clear sign bit: ties, subnormals, and
# sums that overflow to inf.
KEYED_VALUES = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 0.5, 1.0, 1e308, math.inf])


class TestIntegerKeys:
    """A stream whose sums are all +0.0 or above sorts them as int64 bit
    patterns, with the bits of the float sort."""

    def streams(self, monkeypatch) -> list:
        made, stream = [], spectra._stream

        def recording(s, f, width):
            made.append(stream(s, f, width))
            return made[-1]

        monkeypatch.setattr(spectra, "_stream", recording)
        return made

    def test_walk_streams_are_int64_on_non_negative_levels(self, monkeypatch):
        # The bath's four folds of three gaps' subsets, the energies of
        # levels >= 0 and the keys T (ln Z - ln lambda) >= 0, of a pure and a
        # mixed state, on 12 qubits: every stream, whatever its size, sorts
        # as int64. Sums in blocks of one element plan every fold and the
        # walk.
        made = self.streams(monkeypatch)
        with streamed_sizes(1, spectra._CHUNK, 1):
            walk([np.array([1.0, 0.0]), np.array([0.6, 0.4])], [0.0, 1.5],
                 custom_bath(1.0, [0.5, 1.0, 1.0, 2.0] * 3))
        sizes = [len(stream.values) * stream.s.size for stream in made]
        assert sizes == [8 << 3 * k for k in range(4)] + [1 << 13, 1 << 12, 1 << 13]
        assert all(stream.key is np.int64 for stream in made)

    def test_a_negative_level_sorts_its_energies_as_floats(self, monkeypatch):
        made = self.streams(monkeypatch)
        with streamed_sizes(1, spectra._CHUNK, 1):
            walk([np.array([0.6, 0.4])], [-0.5, 1.5], custom_bath(1.0, [0.5, 1.0] * 6))
        energies, keys = made[-2:]
        assert energies.values == [(-0.5,), (1.5,)] and energies.key is np.float64
        assert keys.key is np.int64

    @pytest.mark.parametrize("s, f, key", [
        ([0.0, 1.0], [0.0, 2.0], np.int64),
        ([0.0, -0.0, 1.0], [0.5], np.int64),
        ([5e-324, 1e308], [1e308, math.inf], np.int64),
        ([0.0, 1.0], [-1.0, 2.0], np.float64),
        ([0.0, 1.0], [-0.0, 2.0], np.float64),
        ([0.0, 1.0], [math.nan], np.float64),
        ([-0.0, 1.0], [0.0, 2.0], np.float64),
        ([-1.0, 1.0], [0.0, 2.0], np.float64),
        ([0.0, math.nan], [0.0, 2.0], np.float64),
    ])
    @pytest.mark.parametrize("width", [1, 64])
    @OVERFLOW
    def test_key_follows_the_signs(self, s, f, key, width):
        # Decided the same for a one-window stream and a planned one.
        assert spectra._stream(np.array(s), np.array(f), width).key is key

    @OVERFLOW
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.lists(KEYED_VALUES | st.just(-0.0), min_size=1, max_size=12),
        values=st.lists(KEYED_VALUES, min_size=1, max_size=5),
        width=st.integers(min_value=1, max_value=30),
    )
    @example(seed=[0.0, -0.0, -0.0, 5e-324, 5e-324], values=[0.0, 5e-324], width=2)
    @example(seed=[1e308, 1e308, math.inf], values=[1e308], width=1)
    def test_both_orders_give_the_same_bits(self, seed, values, width):
        # Every chunk, one-run pieces included, written and sorted as int64
        # and as float64, equals the stably sorted fold: the +0.0 + -0.0
        # sums are +0.0, and 1e308 + 1e308 is inf.
        s, f = np.sort(np.array(seed), kind="stable"), np.array(values)
        want = np.sort(np.add.outer(f, s), axis=None, kind="stable")
        stream = spectra._stream(s, f, width)
        for key in (np.int64, np.float64):
            forced = stream._replace(key=key)
            got = np.concatenate([
                spectra._write_chunk(forced, a, a + 1, np.empty(hi - lo))
                for a, (lo, hi) in enumerate(zip(stream.ranks, stream.ranks[1:]))
            ])
            assert np.array_equal(bits(got), bits(want)), key


    @OVERFLOW
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.lists(KEYED_VALUES | st.just(-0.0), min_size=1, max_size=12),
        runs=st.integers(min_value=3, max_value=8),
        addends=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    @example(seed=[0.0, -0.0, 0.5, 0.5], runs=8, addends=3, width=4, data=None)
    def test_many_run_pieces_equal_their_stable_sort(self, seed, runs, addends, width, data):
        # A piece of more than two runs on an int64 key takes the default
        # sort; equal keys are equal bits, so it equals the stable sort, and
        # so does the same piece sorted as floats. A run of several addends
        # adds them in turn, as the reference does.
        s = np.sort(np.array(seed), kind="stable")
        if data is None:
            f = np.array([[a, b, c] for a in (0.0, 0.5) for b in (0.0, 1.0) for c in (0.0, 0.5)])
        else:
            draw = st.lists(KEYED_VALUES, min_size=runs * addends, max_size=runs * addends)
            f = np.array(data.draw(draw)).reshape(runs, addends).squeeze(axis=1 if addends == 1 else ())
        sums = []
        for run in f.reshape(len(f), -1):
            x = s
            for c in run:
                x = x + c
            sums.append(x)
        want = np.sort(np.concatenate(sums), kind="stable")
        stream = spectra._stream(s, f, width)
        for key in (np.int64, np.float64):
            forced = stream._replace(key=key)
            got = np.concatenate([
                spectra._write_chunk(forced, a, a + 1, np.empty(hi - lo))
                for a, (lo, hi) in enumerate(zip(stream.ranks, stream.ranks[1:]))
            ])
            assert np.array_equal(bits(got), bits(want)), key


class TestSplit:
    """The walk's and the fold's parts are contiguous runs of cells."""

    @settings(max_examples=300, deadline=None)
    @given(
        costs=st.lists(st.integers(min_value=0, max_value=1000), max_size=60),
        parts=st.integers(min_value=1, max_value=8),
    )
    @example(costs=[1, 1, 1.1, 2, 1, 0.8, 2, 1, 1.2, 2, 1, 1, 0.9], parts=4)
    def test_parts_cover_every_cell_once_and_none_passes_an_equal_share_by_a_cell(
        self, costs, parts
    ):
        bounds = spectra._split(costs, parts)
        assert len(bounds) == parts + 1 and bounds[0] == 0 and bounds[-1] == len(costs)
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        cells = [c for a, b in zip(bounds, bounds[1:]) for c in range(a, b)]
        assert cells == list(range(len(costs)))
        # Under the least cap no part costs more than total / parts plus the
        # largest cell, and on two parts the two differ by at most that cell.
        largest, total = max(costs, default=0), sum(costs)
        shares = [sum(costs[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert all(share - total / parts <= largest + 1e-9 for share in shares)
        if parts == 2:
            assert abs(shares[0] - shares[1]) <= largest + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        costs=st.lists(st.integers(min_value=0, max_value=1000), max_size=9),
        parts=st.integers(min_value=1, max_value=5),
    )
    @example(costs=[1, 1, 1.1, 2, 1, 0.8, 2, 1, 1.2, 2, 1, 1, 0.9], parts=4)
    def test_largest_part_is_the_least_any_split_allows(self, costs, parts):
        # Against every split into contiguous parts. Nearest bounds alone cut
        # the example as 3.1, 5.8, 2.2 and 4.9; bounds (3, 6, 9) give 3.1,
        # 3.8, 4.2 and 4.9.
        def largest(bounds):
            return max(sum(costs[a:b]) for a, b in zip(bounds, bounds[1:]))

        n = len(costs)
        least = min(
            largest([0, *inner, n])
            for inner in itertools.combinations_with_replacement(range(n + 1), parts - 1)
        )
        assert largest(spectra._split(costs, parts)) <= least + 1e-9

    def test_cell_costs(self):
        # Two windows of 8 ranks of two levels' energies (3 per rank, at the
        # first cell with products), a one-run state with 8 products (1 per
        # product) and a two-run state with 16 (4 per product).
        s = np.arange(8.0)
        energies = spectra._stream(s, np.array([0.0, 1.0]), 8)
        pure, mixed = (spectra._stream(s, np.array(v), 8) for v in ([0.5], [0.5, 2.0]))
        costs = spectra._cell_costs(energies, [pure, mixed], 8, 16)
        assert costs == [8 + 24, 32, 0, 32 + 24]

    def test_equal_costs_share_by_count(self):
        assert spectra._split([1] * 10, 3) == [0, 4, 8, 10]
        assert spectra._split([1] * 2, 5) == [0, 1, 2, 2, 2, 2]
