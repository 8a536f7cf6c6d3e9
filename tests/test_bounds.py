import importlib
import math
from collections import Counter

import numpy as np
import pytest

import ergolock.bounds
from ergolock import (
    BoundReport,
    CustomWeight,
    DensityOperator,
    DiagonalHamiltonian,
    EnergyEigenstateWeight,
    GaussianWeight,
    RandomSpec,
    SizeCapError,
    TimeStateWeight,
    bound_report,
    bound_reports,
    custom_bath,
    free_energy_bound,
    locked_energy,
    random_state,
    skrzypczyk_bath,
    thermo_limit_locked,
    tight_bound,
)
from ergolock.bath import BathSpec
from ergolock.ergotropy import ergotropy_product, theorem2_check
from ergolock.spectra import eigens, gibbs_ensemble
from ergolock.oracle import MIXED_TRACE_NORMALIZED, PURE_HAAR

# ``ergolock.ergotropy`` is the re-exported function, not the submodule.
ERGOTROPY_MODULE = importlib.import_module("ergolock.ergotropy")

# Frozen from the independent dense brute force of the worked N = 1 point.
WORKED = {
    "tight_bound": 0.4412484512922978,
    "resource_ergotropy": 0.5,
    "locked_energy": 0.0587515487077022,
    "free_energy_bound": 0.8132616875182228,
    "thermo_limit_locked": 0.2235184563667181,
}


def gibbs_state(h: DiagonalHamiltonian, temperature: float) -> DensityOperator:
    return DensityOperator(np.diag(gibbs_ensemble(h, 1.0 / temperature).probs).astype(complex))


# Coherence survival factor of the worked example: exp(-omega^2 / 8 sigma^2)
# at omega = sigma = 1.
GAMMA = float(np.exp(-1.0 / 8.0))


class TestFreeEnergyBound:
    def test_gibbs_state_is_zero(self, qubit_h):
        assert free_energy_bound(gibbs_state(qubit_h, 1.0), qubit_h, 1.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_plus_at_unit_parameters(self, plus_state, qubit_h):
        expected = 0.5 + math.log(1.0 + math.exp(-1.0))
        assert free_energy_bound(plus_state, qubit_h, 1.0) == pytest.approx(expected, abs=1e-12)
        assert free_energy_bound(plus_state, qubit_h, 1.0) == pytest.approx(0.813262, abs=1e-6)

    def test_plus_with_log2_gap(self, plus_state):
        h = DiagonalHamiltonian([0.0, math.log(2.0)])
        expected = math.log(2.0) / 2.0 + math.log(1.5)
        assert free_energy_bound(plus_state, h, 1.0) == pytest.approx(expected, abs=1e-12)
        assert free_energy_bound(plus_state, h, 1.0) == pytest.approx(0.752039, abs=1e-6)


class TestTightAndLocked:
    def test_diagonal_state_weight_independent(self, qubit_h, n1_bath):
        rho = DensityOperator(np.diag([0.2, 0.8]).astype(complex))
        values = {
            tight_bound(rho, qubit_h, w, n1_bath)
            for w in (GaussianWeight(0.3), TimeStateWeight(2.0), EnergyEigenstateWeight())
        }
        assert max(values) - min(values) < 1e-12
        assert locked_energy(rho, qubit_h, GaussianWeight(0.3), n1_bath) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_worked_tight_bound(self, plus_state, qubit_h, n1_bath, unit_gaussian):
        assert tight_bound(plus_state, qubit_h, unit_gaussian, n1_bath) == pytest.approx(
            WORKED["tight_bound"], abs=1e-12
        )

    def test_worked_locked_energy(self, plus_state, qubit_h, n1_bath, unit_gaussian):
        assert locked_energy(plus_state, qubit_h, unit_gaussian, n1_bath) == pytest.approx(
            WORKED["locked_energy"], abs=1e-12
        )

    def test_energy_eigenstate_locks_everything(self, plus_state, qubit_h, n1_bath):
        # Dephased |+> with the matched bath is globally Gibbs-passive.
        w = EnergyEigenstateWeight()
        assert tight_bound(plus_state, qubit_h, w, n1_bath) == pytest.approx(0.0, abs=1e-12)
        assert locked_energy(plus_state, qubit_h, w, n1_bath) == pytest.approx(0.5, abs=1e-12)

    def test_time_state_locks_nothing(self, plus_state, qubit_h, n1_bath):
        for t in (-1.0, 0.0, 3.3):
            assert locked_energy(plus_state, qubit_h, TimeStateWeight(t), n1_bath) == (
                pytest.approx(0.0, abs=1e-10)
            )


class TestWeightOrdering:
    def test_tight_bound_nondecreasing_in_sigma(self, plus_state, qubit_h, n1_bath):
        values = [
            tight_bound(plus_state, qubit_h, GaussianWeight(s), n1_bath)
            for s in (0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sigma_limits_interpolate_the_extremes(self, plus_state, qubit_h, n1_bath):
        dead = tight_bound(plus_state, qubit_h, EnergyEigenstateWeight(), n1_bath)
        ideal = tight_bound(plus_state, qubit_h, TimeStateWeight(0.0), n1_bath)
        narrow = tight_bound(plus_state, qubit_h, GaussianWeight(1e-3), n1_bath)
        wide = tight_bound(plus_state, qubit_h, GaussianWeight(1e3), n1_bath)
        assert narrow == pytest.approx(dead, abs=1e-9)
        assert wide == pytest.approx(ideal, abs=1e-6)

    @pytest.mark.parametrize("sigma", [1e-200, 5e-324])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_underflowing_sigma_is_the_energy_eigenstate_weight(self, n1_bath, dim, sigma):
        # 8 sigma^2 underflows to 0; the report is the sigma -> 0 limit.
        rho = random_state(RandomSpec(seed=dim, dim=dim, kind=MIXED_TRACE_NORMALIZED))
        h = DiagonalHamiltonian(np.arange(dim, dtype=np.float64))
        got = bound_report(rho, h, GaussianWeight(sigma=sigma), n1_bath).as_dict()
        assert got == bound_report(rho, h, EnergyEigenstateWeight(), n1_bath).as_dict()


class TestThermoLimitConvergence:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_locked_energy_approaches_thermo_limit(self, plus_state, qubit_h, sigma):
        weight = GaussianWeight(sigma)
        limit = thermo_limit_locked(plus_state, qubit_h, weight, 1.0)
        near = locked_energy(plus_state, qubit_h, weight, skrzypczyk_bath(14, 1.0, 1.0))
        far = locked_energy(plus_state, qubit_h, weight, skrzypczyk_bath(2, 1.0, 1.0))
        assert abs(near - limit) < abs(far - limit)


class TestThermoLimit:
    def test_diagonal_state_is_zero(self, qubit_h, unit_gaussian):
        rho = DensityOperator(np.diag([0.4, 0.6]).astype(complex))
        assert thermo_limit_locked(rho, qubit_h, unit_gaussian, 1.0) == 0.0

    def test_plus_gaussian_entropy_difference(self, plus_state, qubit_h, unit_gaussian):
        value = thermo_limit_locked(plus_state, qubit_h, unit_gaussian, 1.0)
        p = (1.0 + GAMMA) / 2.0
        expected = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.22352, abs=1e-5)

    def test_full_dephasing_of_plus_gives_log2(self, plus_state, qubit_h):
        value = thermo_limit_locked(plus_state, qubit_h, EnergyEigenstateWeight(), 1.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_never_negative(self, plus_state, qubit_h):
        for sigma in (0.05, 0.3, 1.0, 8.0):
            assert thermo_limit_locked(plus_state, qubit_h, GaussianWeight(sigma), 1.0) >= 0.0


class TestBoundReport:
    def test_worked_example_fields(self, plus_state, qubit_h, n1_bath, unit_gaussian):
        report = bound_report(plus_state, qubit_h, unit_gaussian, n1_bath)
        for key, expected in WORKED.items():
            assert getattr(report, key) == pytest.approx(expected, abs=1e-12), key

    def test_diagonal_system(self, qubit_h, n1_bath, unit_gaussian):
        rho = DensityOperator(np.diag([0.15, 0.85]).astype(complex))
        report = bound_report(rho, qubit_h, unit_gaussian, n1_bath)
        assert report.tight_bound == pytest.approx(report.resource_ergotropy, abs=1e-12)
        assert report.locked_energy == pytest.approx(0.0, abs=1e-12)
        assert report.thermo_limit_locked == 0.0

    def test_gibbs_system_all_zero(self, qubit_h, n1_bath, unit_gaussian):
        report = bound_report(gibbs_state(qubit_h, 1.0), qubit_h, unit_gaussian, n1_bath)
        assert report.tight_bound == pytest.approx(0.0, abs=1e-10)
        assert report.resource_ergotropy == pytest.approx(0.0, abs=1e-10)
        assert report.locked_energy == pytest.approx(0.0, abs=1e-10)
        assert report.free_energy_bound == pytest.approx(0.0, abs=1e-10)

    def test_chain_holds_on_random_inputs(self, qubit_h):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho = DensityOperator(rho / np.trace(rho).real)
            bath = skrzypczyk_bath(int(rng.integers(1, 4)), rng.uniform(0.4, 2.0),
                                   rng.uniform(0.4, 2.0))
            report = bound_report(rho, qubit_h, GaussianWeight(rng.uniform(0.1, 5.0)), bath)
            assert -1e-10 <= report.locked_energy
            assert report.tight_bound <= report.resource_ergotropy + 1e-10
            assert report.resource_ergotropy <= report.free_energy_bound + 1e-9

    def test_inconsistent_report_is_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(
                tight_bound=0.5,
                resource_ergotropy=0.4,
                locked_energy=-0.1,
                free_energy_bound=1.0,
                thermo_limit_locked=0.0,
            )
        with pytest.raises(ValueError):
            BoundReport(
                tight_bound=0.1,
                resource_ergotropy=0.4,
                locked_energy=0.2,
                free_energy_bound=1.0,
                thermo_limit_locked=0.0,
            )

    @pytest.mark.parametrize("field", list(WORKED))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_report_is_rejected(self, field, bad):
        # Every chain comparison is False for a NaN: the guard must not be
        # one of them.
        with pytest.raises(ValueError, match="not all finite"):
            BoundReport(**{**WORKED, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_passive_energy_is_an_arithmetic_error(
        self, monkeypatch, plus_state, qubit_h, n1_bath, unit_gaussian, bad
    ):
        passive_energies = ERGOTROPY_MODULE.passive_energies
        monkeypatch.setattr(ERGOTROPY_MODULE, "passive_energies",
                            lambda *args: [bad for _ in passive_energies(*args)])
        with pytest.raises(ArithmeticError, match="not finite"):
            bound_report(plus_state, qubit_h, unit_gaussian, n1_bath)
        with pytest.raises(ArithmeticError, match="not finite"):
            ergotropy_product(plus_state, qubit_h, n1_bath)


class TestBoundReports:
    """The shared-bath kernel: every report of a weight list equals the
    single-weight report and the standalone functions bit for bit."""

    WEIGHTS = [
        GaussianWeight(sigma=0.3),
        TimeStateWeight(t=1.7),
        EnergyEigenstateWeight(),
        CustomWeight(phi=lambda d: math.exp(-abs(d))),
        GaussianWeight(sigma=4.0),
    ]

    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("kind", [PURE_HAAR, MIXED_TRACE_NORMALIZED])
    def test_each_report_equals_the_single_weight_report(self, kind, dim, n):
        seed = 100 * dim + n
        rho = random_state(RandomSpec(seed=seed, dim=dim, kind=kind))
        h = DiagonalHamiltonian(np.random.default_rng(seed).uniform(0.0, 2.0, dim))
        # N = 0 is the bathless point a sweep config can ask for.
        bath = skrzypczyk_bath(n, 0.8, 1.0) if n else BathSpec(T=0.8, gaps=np.empty(0))
        reports = bound_reports(rho, h, self.WEIGHTS, bath)
        assert len(reports) == len(self.WEIGHTS)
        resource = ergotropy_product(rho, h, bath)
        ceiling = free_energy_bound(rho, h, bath.T)
        for weight, report in zip(self.WEIGHTS, reports):
            got = report.as_dict()
            assert got == bound_report(rho, h, weight, bath).as_dict()
            assert got["tight_bound"] == tight_bound(rho, h, weight, bath)
            assert got["resource_ergotropy"] == resource
            assert got["free_energy_bound"] == ceiling
            assert got["thermo_limit_locked"] == thermo_limit_locked(rho, h, weight, bath.T)

    def test_empty_weight_list_gives_no_reports(self, plus_state, qubit_h, n1_bath):
        assert bound_reports(plus_state, qubit_h, [], n1_bath) == []


class TestProductionScaleInvariants:
    """Invariants that hold exactly in theory, checked at N = 20 (2^21 joint
    elements), beyond the reach of the dense oracle."""

    N = 20

    @pytest.fixture
    def reference(self, plus_state, qubit_h, unit_gaussian):
        bath = skrzypczyk_bath(self.N, 1.0, 1.0)
        return bath, bound_report(plus_state, qubit_h, unit_gaussian, bath).as_dict()

    def test_frozen_qubit_changes_nothing(self, reference, plus_state, qubit_h, unit_gaussian):
        bath, expected = reference
        # exp(-1000) underflows to 0.0: the extra qubit is exactly frozen.
        frozen = custom_bath(1.0, [*bath.gaps, 1000.0])
        got = bound_report(plus_state, qubit_h, unit_gaussian, frozen).as_dict()
        assert got == expected

    def test_gap_order_changes_nothing(self, reference, plus_state, qubit_h, unit_gaussian):
        bath, expected = reference
        reversed_bath = custom_bath(1.0, bath.gaps[::-1])
        got = bound_report(plus_state, qubit_h, unit_gaussian, reversed_bath).as_dict()
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-12, key


def refuse_bath_builds(monkeypatch) -> None:
    # Neither the bath's sorted energy array nor its closed-form mean energy
    # or entropy may be computed.
    def refuse(*args):
        raise AssertionError("the bath was built before the size cap")

    monkeypatch.setattr(ergolock.spectra, "_bath_energies", refuse)
    monkeypatch.setattr(BathSpec, "mean_energy", property(refuse))
    monkeypatch.setattr(BathSpec, "entropy", property(refuse))


TEMPERATURE_TAKERS = {
    "free_energy_bound": free_energy_bound,
    "thermo_limit_locked": lambda rho, h, t: thermo_limit_locked(rho, h, GaussianWeight(1.0), t),
}


class TestInputGuards:
    @pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(TEMPERATURE_TAKERS))
    def test_temperature_must_be_positive_and_finite(self, plus_state, qubit_h, name, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            TEMPERATURE_TAKERS[name](plus_state, qubit_h, temperature)

    def test_size_cap_is_checked_before_the_bath_is_built(
        self, monkeypatch, plus_state, qubit_h, unit_gaussian
    ):
        refuse_bath_builds(monkeypatch)
        with pytest.raises(SizeCapError) as info:
            bound_report(plus_state, qubit_h, unit_gaussian, skrzypczyk_bath(100_000, 1.0, 1.0))
        assert info.value.size == 2 * 2**100_000

    @pytest.mark.parametrize(
        "evaluate",
        [tight_bound, lambda rho, h, w, b: bound_reports(rho, h, [w, w], b)],
        ids=["tight_bound", "bound_reports"],
    )
    def test_size_cap_comes_before_any_bath_build(
        self, monkeypatch, plus_state, qubit_h, unit_gaussian, evaluate
    ):
        refuse_bath_builds(monkeypatch)
        with pytest.raises(SizeCapError) as info:
            evaluate(plus_state, qubit_h, unit_gaussian, skrzypczyk_bath(100_000, 1.0, 1.0))
        assert info.value.size == 2 * 2**100_000


class TestOneSpectrumPerState:
    """A state is diagonalised once, when it is built; the kernels read that
    spectrum and never diagonalise a state they are handed."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = Counter()
        eigvalsh, post_init = np.linalg.eigvalsh, DensityOperator.__post_init__

        def counted_eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        def counted_post_init(state):
            calls["built"] += 1
            post_init(state)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(DensityOperator, "__post_init__", counted_post_init)
        return calls

    def test_one_eigvalsh_per_state_built(self, counts):
        states = [
            random_state(RandomSpec(seed=seed, dim=dim, kind=MIXED_TRACE_NORMALIZED))
            for seed, dim in enumerate((1, 2, 3, 4, 7))
        ]
        assert counts == {"eigvalsh": 5, "built": 5}
        for state in states:
            eigens(state)
            eigens(state)
        assert counts == {"eigvalsh": 5, "built": 5}

    def test_bound_reports_diagonalise_only_the_states_they_build(
        self, counts, plus_state, qubit_h, n1_bath
    ):
        weights = TestBoundReports.WEIGHTS
        counts.clear()
        bound_reports(plus_state, qubit_h, weights, n1_bath)
        # One sigma per weight is built; the held rho is never diagonalised.
        assert counts == {"eigvalsh": len(weights), "built": len(weights)}
        counts.clear()
        bound_report(plus_state, qubit_h, GaussianWeight(sigma=1.0), n1_bath)
        assert counts == {"eigvalsh": 1, "built": 1}

    def test_theorem2_check_diagonalises_nothing(self, counts, plus_state, qubit_h):
        xi = gibbs_state(qubit_h, 1.0)
        bath = skrzypczyk_bath(3, 1.0, 1.0)
        counts.clear()
        theorem2_check(plus_state, xi, qubit_h, bath)
        assert counts == {}
