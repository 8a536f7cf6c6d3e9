import csv
import importlib
import io
import json
import math
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest

from ergolock import (
    GaussianWeight,
    bound_report,
    skrzypczyk_bath,
    spectra,
)
from ergolock.bath import BathSpec
from ergolock.config import ConfigError, load_config, parse_config
from ergolock import verify
from ergolock.verify import run_verification
from ergolock.cli import CSV_COLUMNS, emit_csv, emit_json, main, run_report, run_sweep


# ``ergolock.ergotropy`` is the re-exported function, not the submodule.
ERGOTROPY_MODULE = importlib.import_module("ergolock.ergotropy")
config_module = importlib.import_module("ergolock.config")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides) -> dict:
    data = {
        "system": {"gaps": [1.0], "state": "plus"},
        "bath": {"model": "skrzypczyk", "N": 1, "omega": 1.0},
        "weight": {"kind": "gaussian", "sigma": 1.0},
        "temperature": 1.0,
    }
    data.update(overrides)
    return data


SIGMA_RANGE = {"from": 0.1, "to": 10.0, "steps": 25, "spacing": "log"}


def sigma_sweep_config(n: int) -> dict:
    return base_config(
        bath={"model": "skrzypczyk", "N": n, "omega": 1.0},
        sweep={"parameter": "sigma_over_omega", "range": SIGMA_RANGE},
    )


LOG_RANGE_TO_ZERO = {"from": 0.1, "to": 0.0, "steps": 3, "spacing": "log"}


class TestParsing:
    def test_minimal_config(self):
        config = parse_config(base_config())
        assert config.hamiltonian.dim == 2
        assert config.state.entries[0, 1] == 0.5
        assert config.sweep is None

    def test_gaps_are_level_spacings(self):
        config = parse_config(base_config(system={"gaps": [1.0, 0.5], "state": "plus"}))
        assert list(config.hamiltonian.energies) == [0.0, 1.0, 1.5]
        assert config.state.dim == 3

    def test_computational_state(self):
        config = parse_config(
            base_config(system={"gaps": [1.0], "state": {"computational": 1}})
        )
        assert config.state.entries[1, 1] == 1.0

    def test_explicit_matrix_with_complex_cells(self):
        matrix = [[0.5, [0.0, -0.5]], [[0.0, 0.5], 0.5]]
        config = parse_config(base_config(system={"gaps": [1.0], "state": {"matrix": matrix}}))
        assert config.state.entries[0, 1] == pytest.approx(-0.5j)

    def test_custom_bath(self):
        config = parse_config(base_config(bath={"model": "custom", "gaps": [0.5, 1.5]}))
        assert list(config.bath.gaps) == [0.5, 1.5]

    def test_sweep_range_log(self):
        config = parse_config(base_config(sweep={
            "parameter": "sigma_over_omega",
            "range": {"from": 0.1, "to": 10.0, "steps": 5, "spacing": "log"},
        }))
        values = config.sweep.values
        assert len(values) == 5
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == pytest.approx(10.0)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_seed_roundtrip(self):
        assert parse_config(base_config(seed=7)).seed == 7
        assert parse_config(base_config()).seed is None


class TestParseErrors:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("temperature"), "temperature"),
            (lambda d: d["system"].pop("gaps"), "system.gaps"),
            (lambda d: d["system"].update(gaps=[1.0, -2.0]), r"system\.gaps\[1\]"),
            (lambda d: d["bath"].update(model="thermal"), "bath.model"),
            (lambda d: d["weight"].update(kind="sharp"), "weight.kind"),
            (lambda d: d.update(seed=-3), "seed"),
            (lambda d: d.update(unknown_field=1), "unknown"),
            (lambda d: d["system"].update(state={"computational": 5}), "computational"),
        ],
    )
    def test_errors_are_path_annotated(self, mutate, fragment):
        data = base_config()
        mutate(data)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(data)

    def test_sweep_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(base_config(sweep={"parameter": "N", "values": [3, 2]}))

    def test_n_sweep_values_must_be_integers(self):
        message = r"^sweep.values\[1\]: N values must be integers >= 0, got 2.5$"
        with pytest.raises(ConfigError, match=message):
            parse_config(base_config(sweep={"parameter": "N", "values": [1, 2.5]}))

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"parameter": "N", "range": {"from": 1, "to": 4, "steps": 7}},
             "sweep.range: N values must be integers >= 0, got 1.5"),
            ({"parameter": "sigma_over_omega", "range": {"from": -1, "to": 1, "steps": 3}},
             "sweep.range: sigma_over_omega values must be > 0, got -1.0"),
            # A bad endpoint is reported before any value is built: the
            # "to" of 4.5, not the first value past "from", 0.5.
            ({"parameter": "N", "range": {"from": 0, "to": 4.5, "steps": 10}},
             "sweep.range: N values must be integers >= 0, got 4.5"),
        ],
    )
    def test_sweep_value_errors_name_the_field_written(self, sweep, message):
        # A range's values were never written out, so the range is named.
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(base_config(sweep=sweep))

    def test_n_sweep_needs_skrzypczyk(self):
        data = base_config(bath={"model": "custom", "gaps": [1.0]},
                           sweep={"parameter": "N", "values": [1, 2]})
        with pytest.raises(ConfigError, match="skrzypczyk"):
            parse_config(data)

    def test_sigma_sweep_needs_gaussian(self):
        data = base_config(weight={"kind": "time_state", "t": 0.0},
                           sweep={"parameter": "sigma_over_omega", "values": [0.5, 1.0]})
        with pytest.raises(ConfigError, match="gaussian"):
            parse_config(data)

    def test_non_state_matrix_rejected(self):
        data = base_config(system={"gaps": [1.0], "state": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}})
        with pytest.raises(ConfigError, match="system.state.matrix"):
            parse_config(data)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"system": 5}, "system: expected an object"),
            ({"output": 7}, "output: expected an object"),
            ({"sweep": "N"}, "sweep: expected an object"),
            ({"sweep": {"parameter": "N", "range": [1, 2]}}, "sweep.range: expected an object"),
            ({"sweep": {"parameter": "N", "range": LOG_RANGE_TO_ZERO}}, "sweep.range.to"),
            ({"sweep": {"parameter": "sigma_over_omega", "range": LOG_RANGE_TO_ZERO}},
             "sweep.range.to"),
            # sigma = value * first system gap overflows to inf.
            ({"system": {"gaps": [10.0], "state": "plus"},
              "sweep": {"parameter": "sigma_over_omega", "values": [1e308]}}, "sweep.values"),
            # The same, from a range: the range is named.
            ({"system": {"gaps": [10.0], "state": "plus"},
              "sweep": {"parameter": "sigma_over_omega",
                        "range": {"from": 1.0, "to": 1e308, "steps": 2}}}, "sweep.range: "),
            # Ladder gaps that round to 0 (omega -> 0) or overflow to inf.
            ({"bath": {"model": "skrzypczyk", "N": 3, "omega": 1e-300}}, "bath: "),
            ({"bath": {"model": "skrzypczyk", "N": 3, "omega": 1000.0}}, "bath: "),
        ],
    )
    def test_malformed_input_is_a_config_error(self, tmp_path, capsys, overrides, fragment):
        data = base_config(**overrides)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["report", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        with pytest.raises(ConfigError, match=r":1:12"):
            load_config(path)


class TestSweepEngine:
    def test_single_point_matches_bound_report(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [1]}))
        rows = run_sweep(config)
        assert len(rows) == 1
        direct = bound_report(config.state, config.hamiltonian,
                              *config.sweep.points[0])
        assert rows[0].report.as_dict() == direct.as_dict()

    def test_sigma_points_match_bound_report(self):
        config = parse_config(base_config(
            system={"gaps": [1.5, 0.5], "state": "plus"},
            bath={"model": "skrzypczyk", "N": 3, "omega": 1.0},
            sweep={"parameter": "sigma_over_omega", "values": [0.25, 1.0, 4.0]},
        ))
        bath = skrzypczyk_bath(3, 1.0, 1.0)
        rows = run_sweep(config)
        assert len(rows) == 3
        for row in rows:
            # sigma/omega is scaled by the first system gap, 1.5.
            weight = GaussianWeight(sigma=row.value * 1.5)
            direct = bound_report(config.state, config.hamiltonian, weight, bath)
            assert row.report.as_dict() == direct.as_dict()

    def test_report_entry_point(self):
        config = parse_config(base_config())
        row = run_report(config)
        assert row.report.resource_ergotropy == pytest.approx(0.5, abs=1e-12)

    def test_thread_count_does_not_change_values(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [1, 2, 3, 4]}))
        serial = [r.report.as_dict() for r in run_sweep(config, threads=1)]
        threaded = [r.report.as_dict() for r in run_sweep(config, threads=4)]
        assert serial == threaded

    def test_thread_count_does_not_change_sigma_sweep_values(self):
        config = parse_config(sigma_sweep_config(4))
        serial = [(r.value, r.report.as_dict()) for r in run_sweep(config, threads=1)]
        threaded = [(r.value, r.report.as_dict()) for r in run_sweep(config, threads=2)]
        assert serial == threaded

    @staticmethod
    def _count_joint_builds(monkeypatch) -> Counter:
        # Counts the bath's closed-form mean energies, the sorted bath arrays
        # (_bath_energies calls), the folds made outside those builds (none:
        # no joint array is built) and the joint streams the passive-energy
        # walk reads: the joint energies and each state's keys. A bath
        # build's folds plan their own streams, which are not counted.
        calls = Counter()
        building = []
        mean_energy = BathSpec.mean_energy.fget
        build_array, fold, stream = spectra._bath_energies, spectra._fold, spectra._stream

        def counted_mean_energy(bath):
            calls["mean energy"] += 1
            return mean_energy(bath)

        def counted_array(gaps):
            calls["bath array"] += 1
            building.append(gaps)
            try:
                return build_array(gaps)
            finally:
                building.pop()

        def counted_fold(s, f, out):
            if not building:
                calls["fold"] += 1
            return fold(s, f, out)

        def counted_stream(s, f, width):
            if not building:
                calls["stream"] += 1
            return stream(s, f, width)

        monkeypatch.setattr(BathSpec, "mean_energy", property(counted_mean_energy))
        monkeypatch.setattr(spectra, "_bath_energies", counted_array)
        monkeypatch.setattr(spectra, "_fold", counted_fold)
        monkeypatch.setattr(spectra, "_stream", counted_stream)
        return calls

    @pytest.mark.parametrize(
        "gaps, n", [([1.0], 15), ([1.0, 0.5, 0.25, 0.125], 13)], ids=["qubit", "five_levels"]
    )
    def test_sigma_sweep_builds_the_bath_arrays_once(self, monkeypatch, gaps, n):
        # The weight-independent work of a sigma sweep is done once, for a
        # qubit and for a five-level system alike: one bath mean energy and
        # one sorted bath energy array, and no bath probability array. One walk
        # reads 27 streams off that array in rank windows: the joint energies
        # (the levels folded into it) and the keys of rho and of each point's
        # sigma (their eigenvalues' offsets folded into it). No joint array
        # is folded whole. The 2^16 and 5 * 2^13 ranks are more than one sum
        # block, so the walk is planned.
        calls = self._count_joint_builds(monkeypatch)
        config = sigma_sweep_config(n)
        config["system"] = {"gaps": gaps, "state": "plus"}
        rows = run_sweep(parse_config(config))
        assert len(rows) == 25
        assert all(row.report is not None for row in rows)
        assert calls == {"mean energy": 1, "bath array": 1, "stream": 1 + 26}

    def test_capped_point_is_marked_and_run_continues(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [2, 27]}))
        rows = run_sweep(config)
        assert rows[0].error is None
        assert rows[1].error == "size-cap"
        assert rows[1].report is None

    def test_degenerate_bathless_sweep(self):
        config = parse_config(base_config(
            bath={"model": "skrzypczyk", "N": 0, "omega": 1.0},
            sweep={"parameter": "sigma_over_omega",
                   "range": {"from": 0.25, "to": 16.0, "steps": 7, "spacing": "log"}},
        ))
        rows = run_sweep(config)
        for row in rows:
            assert row.report.resource_ergotropy == pytest.approx(0.5, abs=1e-12)
            gamma = math.exp(-1.0 / (8.0 * row.value**2))
            assert row.report.tight_bound == pytest.approx(gamma / 2.0, abs=1e-12)
        # Identity-channel limit: locked energy dies off as sigma grows.
        assert rows[-1].report.locked_energy < 1e-3
        assert rows[0].report.locked_energy > 0.1

    def test_n_sweep_matches_paper_shape(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [1, 2, 3, 4, 5]}))
        rows = run_sweep(config)
        resource = [r.report.resource_ergotropy for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(resource, resource[1:]))
        assert all(r.report.free_energy_bound >= x - 1e-9
                   for r, x in zip(rows, resource))


class TestEmission:
    def test_csv_round_trip_is_exact(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [1, 2, 3]}))
        rows = run_sweep(config)
        text = emit_csv(rows, stable_timing=True)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        for row, line in zip(rows, lines[1:]):
            cells = line.split(",")
            parsed = dict(zip(CSV_COLUMNS, (float(c) if i else c for i, c in enumerate(cells))))
            for key, value in row.report.as_dict().items():
                assert parsed[key] == value  # exact: shortest round-trip decimals

    def test_json_matches_csv_values(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [1, 2]}))
        rows = run_sweep(config)
        records = json.loads(emit_json(rows, stable_timing=True))
        assert records[0]["tight_bound"] == rows[0].report.tight_bound
        assert records[0]["wall_time_ms"] == 0.0

    def test_capped_rows_serialize_as_nan_and_null(self):
        config = parse_config(base_config(sweep={"parameter": "N", "values": [2, 27]}))
        rows = run_sweep(config)
        csv_line = emit_csv(rows, stable_timing=True).strip().split("\n")[2]
        assert csv_line.split(",")[2] == "nan"
        record = json.loads(emit_json(rows, stable_timing=True))[1]
        assert record["tight_bound"] is None
        assert record["error"] == "size-cap"


class TestCliProcess:
    def write_config(self, tmp_path, data) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_sweep_reruns_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, base_config(
            sweep={"parameter": "N", "values": [1, 2, 3]}, seed=42))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, base_config(
            sweep={"parameter": "N", "values": [1, 2]}))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = main(["sweep", "--config", cfg, "--out", str(out),
                         "--format", "json", "--seed", "7"])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["report", "--config", cfg, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["resource_ergotropy"] == pytest.approx(0.5)

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config(temperature=-1.0))
        assert main(["report", "--config", cfg]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.json"]) == 2

    def test_capped_sweep_exit_three(self, tmp_path):
        cfg = self.write_config(tmp_path, base_config(
            sweep={"parameter": "N", "values": [2, 27]}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3

    def test_huge_bath_report_hits_size_cap(self, tmp_path, capsys):
        # d * 2^N has more than 4300 decimal digits: the cap must still
        # report it rather than fail to format the size.
        cfg = self.write_config(tmp_path, base_config(
            bath={"model": "skrzypczyk", "N": 15000, "omega": 1.0}))
        assert main(["report", "--config", cfg]) == 3
        assert "size cap" in capsys.readouterr().err

    def test_huge_bath_sweep_writes_size_cap_row(self, tmp_path):
        cfg = self.write_config(tmp_path, base_config(
            sweep={"parameter": "N", "values": [2, 20000]}))
        out = tmp_path / "o.json"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 3
        small, huge = json.loads(out.read_text())
        assert small["resource_ergotropy"] is not None
        assert huge["value"] == 20000.0
        assert huge["error"] == "size-cap"

    def test_huge_ladder_is_capped_before_its_gaps_are_built(self, tmp_path, capsys, monkeypatch):
        # A ladder of 10^9 qubits would take about 24 GB of gaps while it
        # is built: the cap must refuse it from N and the system's
        # dimension alone, as the same report and sweep row as before.
        build = config_module.skrzypczyk_bath

        def small_only(n, temperature, omega):
            assert n <= 64, f"a {n}-qubit ladder was built"
            return build(n, temperature, omega)

        monkeypatch.setattr(config_module, "skrzypczyk_bath", small_only)
        cfg = self.write_config(tmp_path, base_config(
            bath={"model": "skrzypczyk", "N": 10**9, "omega": 1.0}))
        assert main(["report", "--config", cfg]) == 3
        assert "size cap" in capsys.readouterr().err
        cfg = self.write_config(tmp_path, base_config(
            sweep={"parameter": "N", "values": [2, 10**9]}))
        out = tmp_path / "o.json"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 3
        small, huge = json.loads(out.read_text())
        assert small["resource_ergotropy"] is not None and "error" not in small
        assert (huge["value"], huge["error"]) == (1e9, "size-cap")

    @pytest.mark.parametrize(
        "parameter, start, stop, message",
        [
            ("N", -1, 5, "sweep.range: N values must be integers >= 0, got -1.0"),
            ("N", 0, 4.5, "sweep.range: N values must be integers >= 0, got 4.5"),
            ("sigma_over_omega", 0.0, 3.0,
             "sweep.range: sigma_over_omega values must be > 0, got 0.0"),
            ("sigma_over_omega", 3.0, 0.5, "sweep: sweep values must be strictly increasing"),
        ],
    )
    def test_bad_range_endpoint_is_refused_before_its_values_are_built(
        self, tmp_path, capsys, parameter, start, stop, message
    ):
        # 10^8 steps would be an 800 MB array of values: a bad endpoint is
        # refused from the endpoints alone.
        cfg = self.write_config(tmp_path, base_config(
            sweep={"parameter": parameter, "range": {"from": start, "to": stop, "steps": 10**8}}))
        tracemalloc.start()
        try:
            code = main(["sweep", "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert message in capsys.readouterr().err
        assert peak < 1 << 20, peak

    def test_capped_sigma_sweep_marks_every_row(self, tmp_path):
        cfg = self.write_config(tmp_path, sigma_sweep_config(27))
        out = tmp_path / "o.json"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 3
        records = json.loads(out.read_text())
        assert len(records) == 25
        assert all(r["error"] == "size-cap" and r["tight_bound"] is None for r in records)

    def test_shared_bath_rows_record_an_equal_time_share(self, tmp_path):
        # Unseeded, so the timing column is recorded: each row of the one
        # shared-bath group carries the group's time over its point count.
        cfg = self.write_config(tmp_path, sigma_sweep_config(4))
        out = tmp_path / "o.json"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        times = {r["wall_time_ms"] for r in json.loads(out.read_text())}
        assert len(times) == 1
        (share,) = times
        assert math.isfinite(share) and share > 0.0

    def test_verify_passes_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for out in (out1, out2):
            assert main(["verify", "--trials", "100", "--seed", "42", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(out1.read_text())
        assert summary["pass"] is True
        names = {c["name"] for c in summary["checks"]}
        assert "fast_vs_dense_ergotropy" in names
        for check in summary["checks"]:
            assert check["failures"] == 0
            assert set(check) >= {"name", "trials", "failures", "worst_violation"}

    def test_verify_summary_is_pinned(self):
        summary = run_verification(trials=20, seed=7)
        checks = {c["name"]: c for c in summary["checks"]}
        assert list(checks) == [
            "fast_vs_dense_ergotropy",
            "theorem1_identity",
            "inequality_chain",
            "theorem2_conditional",
            "timestate_locked_zero",
            "energy_eigenstate_dephasing",
            "control_marginal_invariants",
        ]
        assert all(c["trials"] == 20 and c["failures"] == 0 for c in checks.values())
        assert checks["theorem2_conditional"]["applicable"] == 18
        assert [n for n, c in checks.items() if "applicable" in c] == ["theorem2_conditional"]
        for name in ("fast_vs_dense_ergotropy", "theorem1_identity", "timestate_locked_zero",
                     "energy_eigenstate_dephasing", "control_marginal_invariants"):
            assert 0.0 <= checks[name]["worst_violation"] <= 1e-12
        assert summary["pass"] is True

    @pytest.mark.parametrize("name, command, rows", [
        ("bath_size_sweep", "sweep", 14),
        ("weight_width_sweep", "sweep", 25),
        ("n1_report", "report", 1),
    ])
    def test_shipped_config_runs(self, tmp_path, name, command, rows):
        out = tmp_path / "out"
        config = str(CONFIGS / f"{name}.json")
        assert main([command, "--config", config, "--seed", "42", "--out", str(out)]) == 0
        text = out.read_text()
        if text.startswith("["):
            records = json.loads(text)
        else:
            records = list(csv.DictReader(io.StringIO(text)))
        assert len(records) == rows
        if name == "weight_width_sweep":
            # A sigma sweep leaves rho x tau_B, and so the resource ergotropy, unchanged.
            assert len({r["resource_ergotropy"] for r in records}) == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_refused(self, threads, capsys):
        cfg = str(CONFIGS / "weight_width_sweep.json")
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", cfg, "--threads", threads])
        assert info.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "sweep", "verify"])
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), "x"])
    def test_seed_out_of_range_refused(self, command, seed, capsys):
        # The range a config's "seed" accepts.
        cfg = str(CONFIGS / "weight_width_sweep.json")
        args = [command] if command == "verify" else [command, "--config", cfg]
        with pytest.raises(SystemExit) as info:
            main([*args, "--seed", seed])
        assert info.value.code == 2
        assert "--seed: " in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "o.csv"
        config = str(CONFIGS / "n1_report.json")
        assert main(["report", "--config", config, "--seed", str((1 << 64) - 1),
                     "--out", str(out)]) == 0

    def test_report_with_overflowing_gaussian_width(self, tmp_path, capsys):
        # 8 sigma^2 and the splitting's square both overflow; their ratio does not.
        cfg = self.write_config(tmp_path, base_config(
            system={"gaps": [1e200], "state": "plus"},
            weight={"kind": "gaussian", "sigma": 1e200}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--config", cfg, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert all(math.isfinite(record[c]) for c in CSV_COLUMNS[2:7])

    def test_verify_zero_trials_refused(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2

    def test_verify_refuses_max_dim_as_an_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--trials", "5", "--max-dim", "64"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-dim 64" in capsys.readouterr().err


class TestMutationSensitivity:
    def test_flipped_passive_sort_breaks_verification(self, monkeypatch):
        block_sums = spectra._block_sums

        def reversed_keys(keys, e, rate, length, n, buffer):
            # Wrong pairing: each window's keys in descending order, so its
            # probabilities ascend against its ascending energies.
            return block_sums(keys[::-1], e, rate, length, n, buffer)

        monkeypatch.setattr(spectra, "_block_sums", reversed_keys)
        summary = run_verification(trials=8, seed=42)
        assert summary["pass"] is False
        by_name = {c["name"]: c for c in summary["checks"]}
        assert by_name["fast_vs_dense_ergotropy"]["failures"] > 0
        assert by_name["inequality_chain"]["failures"] > 0

    def test_nan_passive_energy_fails_verification(self, monkeypatch):
        # violation > tol is False for a NaN, max(-inf, nan) is -inf, and a
        # NaN hypothesis is false: each must still count as a failure, and
        # the summary must stay strict JSON.
        passive_energies = ERGOTROPY_MODULE.passive_energies

        def nan_energies(*args):
            return [math.nan for _ in passive_energies(*args)]

        monkeypatch.setattr(ERGOTROPY_MODULE, "passive_energies", nan_energies)
        summary = run_verification(trials=8, seed=42)
        assert summary["pass"] is False
        by_name = {c["name"]: c for c in summary["checks"]}
        for name in ("fast_vs_dense_ergotropy", "inequality_chain", "theorem2_conditional",
                     "timestate_locked_zero"):
            assert by_name[name]["failures"] == 8, name
        assert all(math.isfinite(c["worst_violation"]) for c in summary["checks"])
        json.dumps(summary, allow_nan=False)

    def test_nan_in_a_later_max_term_fails_verification(self, monkeypatch):
        # max(x, nan) is x: a NaN ceiling must not vanish from the chain's
        # violation.
        monkeypatch.setattr(verify, "free_energy_bound", lambda *args: math.nan)
        summary = run_verification(trials=8, seed=42)
        assert summary["pass"] is False
        chain = next(c for c in summary["checks"] if c["name"] == "inequality_chain")
        assert chain["failures"] == 8
        assert math.isfinite(chain["worst_violation"])

    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_nan_passive_energy_exits_four_and_writes_nothing(
        self, monkeypatch, tmp_path, capsys, command
    ):
        # A NaN fails every chain comparison silently: the report or sweep
        # must stop with a one-line message, not write NaN into its output.
        passive_energies = ERGOTROPY_MODULE.passive_energies
        monkeypatch.setattr(ERGOTROPY_MODULE, "passive_energies",
                            lambda *args: [math.nan for _ in passive_energies(*args)])
        config = CONFIGS / ("n1_report.json" if command == "report" else "weight_width_sweep.json")
        out = tmp_path / "out.json"
        code = main([command, "--config", str(config), "--seed", "42", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        assert not out.exists()
