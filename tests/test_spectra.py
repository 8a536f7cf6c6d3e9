import contextlib
import importlib
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
from ergolock.bath import bath_ensemble
from ergolock.oracle import MIXED_TRACE_NORMALIZED, PURE_HAAR
from ergolock.spectra import (
    FactorizedEnsemble,
    SpectralEnsemble,
    average_energy,
    compensated_dot,
    compensated_sum,
    eigens,
    entropy,
    expand,
    free_energy,
    gibbs_ensemble,
    passive_energies,
    sorted_joint,
)

from helpers import tensor


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

    def __call__(self, a, b, out=None):
        self.calls += 1
        return np.add(a, b, out=out)

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
        for seed, values, combine, flat in (
            (probs, [f.probs for f in factors], np.multiply, lex.probs),
            (energies, [f.energies for f in factors], np.add, lex.energies),
        ):
            one = sorted_joint(seed, values, combine)
            with forced_parts(parts):
                cut = sorted_joint(seed, values, combine)
            assert np.array_equal(bits(cut), bits(one))
            assert np.array_equal(cut, np.sort(flat))

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
            # Signed zeros and values that underflow when multiplied.
            ([-0.0, 0.0, 5e-324, 1e-200], [[0.0, -0.0, 1e-200], [1.0, 1e-300]]),
            # A negative factor value makes a descending run.
            ([-2.0, -1.0, 0.0, 3.0], [[-1e-13, 0.5, 2.0], [1.0, -3.0]]),
            # A many-valued factor: one fold cuts 41 runs, rising, falling
            # and constant, at once.
            ([0.5, 0.5, -1.0, 2.0], [[*np.linspace(-3.0, 3.0, 40), 0.0], [1.0, 0.0]]),
        ],
    )
    def test_partitioned_fold_on_ties_and_extremes(self, parts, seed, factors):
        for combine in (np.multiply, np.add):
            one = sorted_joint(np.array(seed), [np.array(f) for f in factors], combine)
            with forced_parts(parts):
                cut = sorted_joint(np.array(seed), [np.array(f) for f in factors], combine)
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

        def task(k, parts):
            if k == 0 and caller_fails:
                raise RuntimeError("part 0")
            if k == 1:
                raise ValueError("part 1")
            if k == 2:
                time.sleep(0.2)
                finished.set()

        raised = RuntimeError if caller_fails else ValueError
        with forced_parts(3), pytest.raises(raised):
            spectra._run_parts(task, 3)
        assert finished.is_set()

    def test_concurrent_callers_share_one_pool(self):
        # More callers than cores cut their folds into parts while the shared
        # pool is first created, as the threads of a ``cli --threads`` sweep do.
        factors = [f.probs for f in bath_ensemble(skrzypczyk_bath(12, 1.0, 1.0)).factors]
        seed = np.array([0.75, 0.25])
        want = sorted_joint(seed, factors, np.multiply)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with forced_parts(3), pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectra, "_executor", None)
                with ThreadPoolExecutor(max_workers=6) as callers:
                    futures = [callers.submit(sorted_joint, seed, factors, np.multiply)
                               for _ in range(12)]
                    results = [future.result(timeout=60) for future in futures]
                spectra._executor.shutdown()
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(bits(r), bits(want)) for r in results)


class TestSortedJoints:
    """Several states folded into one sorted array of the bath factors."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(inputs=joint_inputs())
    def test_folds_equal_the_sorted_outer_product(self, parts, inputs):
        # A zero in probs makes a zero eigenvalue, as a pure state has. The
        # joint energies, a fold into the bath's sorted array, and the joint
        # probabilities are both read into the passive-energy dot in windows.
        probs, energies, factors = inputs
        values = eigens(DensityOperator(np.diag(probs)))
        lex = expand(FactorizedEnsemble(factors))
        with forced_parts(parts):
            bath_e = sorted_joint(np.zeros(1), [f.energies for f in factors], np.add)
            joint_e = sorted_joint(bath_e, [energies], np.add)
            (passive,) = passive_energies([values], energies, FactorizedEnsemble(factors))
        want_p = np.sort(np.multiply.outer(values, lex.probs).ravel())
        want_e = np.sort(np.add.outer(energies, lex.energies).ravel())
        assert np.array_equal(bits(joint_e), bits(want_e))
        assert passive == compensated_dot(want_p[::-1], want_e)

    def test_cap_covers_the_largest_seed_before_the_bath_is_built(self, monkeypatch):
        bath = FactorizedEnsemble((SpectralEnsemble([0.5, 0.5], [0.0, 1.0]),) * 9)
        seeds = [np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25])]
        with monkeypatch.context() as patch:
            patch.setattr(spectra, "sorted_joint", lambda *args: pytest.fail("bath built"))
            with pytest.raises(SizeCapError) as info:
                passive_energies(seeds, np.zeros(2), bath, cap=1535)
        assert (info.value.size, info.value.cap) == (1536, 1535)
        assert len(passive_energies(seeds, np.zeros(3), bath, cap=1536)) == 2

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 16])
    @pytest.mark.parametrize("n", [1, 7, 14, 20])
    def test_passive_energies_match_the_seed_first_chain(self, dim, n):
        # The products associate as lambda * (b_1 * ... * b_N) where
        # sorted_joint's chain gives ((lambda * b_1) * ...) * b_N.
        rng = np.random.default_rng(100 * dim + n)
        hamiltonian = DiagonalHamiltonian(np.sort(rng.uniform(0.0, 3.0, dim)))
        bath = bath_ensemble(custom_bath(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.5, n)))
        states = [
            random_state(RandomSpec(seed=100 * dim + n, dim=dim, kind=kind))
            for kind in (PURE_HAAR, MIXED_TRACE_NORMALIZED)
        ]
        got = ERGOTROPY_MODULE._passive_energies(
            states, hamiltonian, bath, spectra.DEFAULT_EXPANSION_CAP
        )
        energies = sorted_joint(hamiltonian.energies, [f.energies for f in bath.factors], np.add)
        want = [
            compensated_dot(
                sorted_joint(eigens(state), [f.probs for f in bath.factors], np.multiply)[::-1],
                energies,
            )
            for state in states
        ]
        assert all(abs(g - w) <= 1e-14 for g, w in zip(got, want)), (got, want)


@contextlib.contextmanager
def streamed_sizes(parts: int, chunk: int, block: int = spectra._SUM_BLOCK):
    """Cut every fold into ``parts`` parts and chunks of about ``chunk``
    elements, and every sum into blocks of ``block``."""
    with forced_parts(parts), pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_CHUNK", chunk)
        patch.setattr(spectra, "_SUM_BLOCK", block)
        yield


def sorted_passive(values: np.ndarray, t: np.ndarray, energies: np.ndarray) -> float:
    # The reference: the whole joint probability array, sorted and reversed.
    return compensated_dot(np.sort(np.multiply.outer(values, t), axis=None)[::-1], energies)


def joint_arrays(levels, factors):
    # The bath's sorted probabilities and the sorted joint energies, folded
    # as h + (e_1 + ... + e_N).
    t = sorted_joint(np.ones(1), [f.probs for f in factors], np.multiply)
    bath_e = sorted_joint(np.zeros(1), [f.energies for f in factors], np.add)
    return t, sorted_joint(bath_e, [np.asarray(levels, dtype=np.float64)], np.add)


# Eigenvalues as eigens gives them: exact zeros of either sign, ties, and
# full mantissas, whose products round differently under another summation
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
    """The walk's passive energy equals the dot over the whole sorted joint
    arrays, bit for bit, however the ranks are cut into windows and parts."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(
        raw=EIGENVALUES,
        factors=st.lists(gibbs_factors(), min_size=0, max_size=6),
        chunk=st.integers(min_value=1, max_value=40),
        block=st.sampled_from([1, 3, 8, 16, 1 << 15]),
        data=st.data(),
    )
    def test_equals_the_sorted_dot(self, parts, raw, factors, chunk, block, data):
        # A window is a whole number of blocks, one block when the chunk is
        # shorter than one; a part is a run of windows.
        values = np.asarray(raw) + (0.0 if any(raw) else 1.0)
        values = np.clip(values / values.sum(), 0.0, 1.0)
        levels = data.draw(st.lists(LEVELS, min_size=values.size, max_size=values.size))
        t, energies = joint_arrays(levels, factors)
        with streamed_sizes(1, spectra._CHUNK, block):
            want = sorted_passive(values, t, energies)
            whole = sorted_joint(t, [values], np.multiply)
        with streamed_sizes(parts, chunk, block):
            assert passive_energies([values], levels, FactorizedEnsemble(factors)) == [want]
            # The in-memory fold, cut into chunks of the same size, is unchanged.
            assert np.array_equal(bits(sorted_joint(t, [values], np.multiply)), bits(whole))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind", ["d1", PURE_HAAR, MIXED_TRACE_NORMALIZED, "clipped_zero"]
    )
    def test_degenerate_bath_at_the_real_block_size(self, parts, kind):
        # custom_bath(1.0, [1.0] * 12): 13 distinct bath probabilities with
        # binomial multiplicities, so the pivots fall on large tie groups.
        # Sixteen levels make 2^16 joint elements, two windows of one block
        # of the real size.
        bath = bath_ensemble(custom_bath(1.0, [1.0] * 12))
        if kind == "d1":
            values = np.ones(1)
        elif kind == "clipped_zero":
            # A clipped -1e-17, an exact -0.0 and an exact 0.0.
            values = eigens(DensityOperator(np.diag([0.5, -1e-17, 0.5, -0.0, 0.0])))
            assert np.count_nonzero(values) == 2 and np.signbit(values).any()
        else:
            values = eigens(random_state(RandomSpec(seed=5, dim=16, kind=kind)))
        levels = np.linspace(-1.0, 2.0, values.size)
        t, energies = joint_arrays(levels, bath.factors)
        want = sorted_passive(values, t, energies)
        with streamed_sizes(parts, 1000):
            got = passive_energies([values], levels, bath)
        assert got == [want]
        if values.size == 16:
            # The boundary of the two windows cuts a tie group of the joint
            # probabilities.
            probs = np.sort(np.multiply.outer(values[values != 0], t), axis=None)[::-1]
            assert energies.size == 2 * spectra._SUM_BLOCK
            assert probs[spectra._SUM_BLOCK - 1] == probs[spectra._SUM_BLOCK]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("kind", [PURE_HAAR, MIXED_TRACE_NORMALIZED])
    def test_window_boundaries_inside_tie_groups(self, parts, kind):
        # Windows of 2048 ranks on the degenerate bath: most window
        # boundaries cut a tie group of the joint energies, and most cut one
        # of the joint probabilities, so a window's sorted values reach past
        # its ranks on both sides.
        bath = bath_ensemble(custom_bath(1.0, [1.0] * 12))
        values = eigens(random_state(RandomSpec(seed=5, dim=16, kind=kind)))
        levels = np.linspace(-1.0, 2.0, values.size)
        t, energies = joint_arrays(levels, bath.factors)
        probs = np.sort(np.multiply.outer(values[values != 0], t), axis=None)[::-1]
        width = 2048
        assert sum(energies[r - 1] == energies[r] for r in range(width, energies.size, width)) > 10
        assert sum(probs[r - 1] == probs[r] for r in range(width, probs.size, width)) > 10
        with streamed_sizes(parts, width, 512):
            want = sorted_passive(values, t, energies)
            assert passive_energies([values], levels, bath) == [want]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_zero_eigenvalues_span_several_windows(self, parts):
        # Two of five eigenvalues are nonzero: 128 of the 320 joint ranks
        # hold products, and the +0.0 ranks past them fill twelve windows
        # of 16 ranks.
        values = np.array([0.75, 0.25, 0.0, -0.0, 0.0])
        levels = np.array([0.0, 0.5, 1.0, 1.0, 2.5])
        bath = bath_ensemble(custom_bath(1.3, [0.4, 0.9, 0.9, 1.7, 2.2, 3.1]))
        t, energies = joint_arrays(levels, bath.factors)
        with streamed_sizes(parts, 16, 8):
            want = sorted_passive(values, t, energies)
            assert passive_energies([values], levels, bath) == [want]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_negative_levels_give_signed_zero_products(self, parts):
        # A bath level whose Gibbs population underflows to 0.0 gives zero
        # joint probabilities; under negative joint energies their products
        # are -0.0, and whole blocks of them sum to -0.0.
        bath = FactorizedEnsemble(
            (gibbs_ensemble(DiagonalHamiltonian([0.0, 800.0]), 1.0),) * 4
            + (gibbs_ensemble(DiagonalHamiltonian([0.0, 1.0]), 1.0),)
        )
        values = np.array([0.6, 0.3, 0.1])
        levels = np.array([-9000.0, -8000.0, -7000.0])
        t, energies = joint_arrays(levels, bath.factors)
        products = np.sort(np.multiply.outer(values, t), axis=None)[::-1] * energies
        assert np.signbit(products[products == 0.0]).all() and (products == 0.0).sum() >= 8
        with streamed_sizes(parts, 4, 2):
            want = sorted_passive(values, t, energies)
            (got,) = passive_energies([values], levels, bath)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_one_level(self, parts):
        # d = 1: the joint arrays are the bath's own.
        bath = bath_ensemble(custom_bath(0.7, [0.3, 1.1, 1.1, 2.0, 0.5]))
        t, energies = joint_arrays([0.25], bath.factors)
        with streamed_sizes(parts, 3, 1):
            want = sorted_passive(np.ones(1), t, energies)
            assert passive_energies([np.ones(1)], [0.25], bath) == [want]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_several_states_share_one_walk(self, parts):
        # Each state's value in one call equals its value alone, and the
        # reference dot over its whole sorted joint probabilities.
        bath = bath_ensemble(custom_bath(1.0, [0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0]))
        levels = np.array([-0.5, 0.0, 0.7, 1.9])
        states = [
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.4, 0.3, 0.2, 0.1]),
            np.array([0.5, 0.5, 0.0, 0.0]),
            eigens(random_state(RandomSpec(seed=3, dim=4, kind=MIXED_TRACE_NORMALIZED))),
        ]
        t, energies = joint_arrays(levels, bath.factors)
        with streamed_sizes(parts, 24, 8):
            want = [sorted_passive(values, t, energies) for values in states]
            assert passive_energies(states, levels, bath) == want
            assert [passive_energies([v], levels, bath)[0] for v in states] == want

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=4),
        factors=st.lists(gibbs_factors(), min_size=0, max_size=4),
        windows=st.integers(min_value=1, max_value=4),
        block=st.sampled_from([1, 2, 3, 8]),
        parts=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_cells_split_across_parts(self, d, factors, windows, block, parts, data):
        # Up to 4 windows of whole blocks and up to 30 states: with more
        # parts than windows, one window's states are split between parts.
        levels = data.draw(st.lists(LEVELS, min_size=d, max_size=d))
        states = data.draw(st.lists(state_spectra(d), min_size=0, max_size=30))
        bath = FactorizedEnsemble(factors)
        t, energies = joint_arrays(levels, factors)
        chunk = block * -(-energies.size // (windows * block))
        assert -(-energies.size // chunk) <= windows
        with streamed_sizes(1, chunk, block):
            want = [sorted_passive(values, t, energies) for values in states]
            one = passive_energies(states, levels, bath)
        with streamed_sizes(parts, chunk, block):
            cut = passive_energies(states, levels, bath)
        assert np.array_equal(bits(cut), bits(one))
        assert np.array_equal(bits(one), bits(want))

    @pytest.mark.parametrize("parts", [2, 3])
    def test_part_starting_on_a_cell_without_products(self, parts):
        # Two windows of 8 ranks, cells (0, A), (0, B), (1, A), (1, B): the
        # last part starts on (1, A), whose 8 products all lie in window 0,
        # and must still sort window 1's energies for (1, B).
        bath = bath_ensemble(custom_bath(1.0, [0.5, 1.0, 2.0]))
        levels = np.array([0.0, 1.0])
        states = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
        t, energies = joint_arrays(levels, bath.factors)
        assert (t.size, energies.size) == (8, 16)
        with streamed_sizes(parts, 8, 8):
            want = [sorted_passive(values, t, energies) for values in states]
            got = passive_energies(states, levels, bath)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_no_states(self, parts):
        bath = bath_ensemble(custom_bath(1.0, [0.5, 1.0]))
        with streamed_sizes(parts, 2, 1):
            assert passive_energies([], [0.0, 1.0], bath) == []

    @pytest.mark.parametrize(
        "cpus, qubits, count, want", [(2, 16, 26, 2), (1, 16, 26, 1), (2, 16, 1, 1), (2, 14, 26, 1)]
    )
    def test_part_count_follows_the_cells(self, cpus, qubits, count, want):
        # Two levels and 16 bath qubits: 2^17 ranks, one window. Its 26
        # cells, a sigma sweep's, make 26 * 2^17 products, past the
        # crossover, so they are split over the CPUs; one state's 2^17
        # products are not. With 14 qubits the 2^15 ranks are one block,
        # summed under the GIL, and 26 states stay on one part.
        bath = bath_ensemble(skrzypczyk_bath(qubits, 1.0, 1.0))
        levels = np.array([0.0, 1.0])
        assert levels.size * bath.size <= spectra._CHUNK
        states = [np.array([p, 1.0 - p]) for p in np.linspace(0.5, 1.0, count)]
        run_parts, counts = spectra._run_parts, []

        def recording(task, parts):
            if task.__qualname__.startswith("passive_energies."):
                counts.append(parts)
            return run_parts(task, parts)

        with forced_parts(1, spectra._PARALLEL_MIN):
            one = passive_energies(states, levels, bath)
        with forced_parts(cpus, spectra._PARALLEL_MIN), pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectra, "_run_parts", recording)
            got = passive_energies(states, levels, bath)
        assert counts == [want]
        assert np.array_equal(bits(got), bits(one))

    def test_report_holds_no_joint_array(self, plus_state, qubit_h):
        # An N = 20 qubit report has 2^21 joint elements (16 MiB), and each
        # of the bath's two sorted arrays takes 8 MiB. A traced peak below
        # 24 MiB leaves no room for a joint-sized array beside a bath array.
        bath = skrzypczyk_bath(20, 1.0, 1.0)
        tracemalloc.start()
        try:
            with forced_parts(2, spectra._PARALLEL_MIN):
                bound_report(plus_state, qubit_h, GaussianWeight(0.7), bath)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20, peak


# Stream inputs: ties, signed zeros, negative values (a negative factor
# value makes a descending run) and products that underflow to zero.
STREAM_VALUES = st.sampled_from(
    [-3.0, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-200, 0.5, 0.5, 1.0, 2.0]
)


class TestStreamWindows:
    """A stream, planned as a fold plans it, gives the values of the stably
    sorted fold at any rank range, bit for bit, and so does the fold."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.lists(STREAM_VALUES, min_size=1, max_size=12),
        values=st.lists(STREAM_VALUES, min_size=1, max_size=6),
        combine=st.sampled_from([np.multiply, np.add]),
        chunk=st.integers(min_value=1, max_value=40),
        cuts=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=6),
    )
    @example(
        seed=[-1.0, 0.0, 0.5, 0.5, 2.0], values=[-3.0, 0.5, -1.0], combine=np.multiply,
        chunk=2, cuts=[(0, 15), (3, 9)],
    )
    def test_window_equals_the_sorted_fold(self, parts, seed, values, combine, chunk, cuts):
        s, f = np.sort(np.array(seed)), np.array(values)
        # A stable sort meets the ties of the runs combine(c, s) in run order,
        # as a fold's chunks and a stream's windows do.
        want = np.sort(combine.outer(f, s), axis=None, kind="stable")
        size = want.size
        ranges = [sorted((a % (size + 1), b % (size + 1))) for a, b in cuts]
        # Ranges that start and end inside a tie group.
        ties = [r for r in range(1, size) if want[r - 1] == want[r]]
        for r in ties[:: max(1, len(ties) // 3)]:
            ranges += [(r, size), (0, r), (r, r + 1), (r - 1, min(size, r + 2))]
        with streamed_sizes(parts, chunk):
            stream = spectra._stream(s, f, combine, min(spectra._CHUNK, -(-size // parts)))
            for lo, hi in ranges:
                if lo < hi:
                    got = spectra._window(stream, lo, hi, np.empty(size))
                    assert np.array_equal(bits(got), bits(want[lo:hi])), (lo, hi)
            assert np.array_equal(bits(spectra._fold(s, f, combine, np.empty(size))), bits(want))
